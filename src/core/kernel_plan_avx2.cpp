// AVX2 implementation of a linear KernelPlan's column scaling. Compiled
// with -mavx2 (per-source flag in src/core/CMakeLists.txt); reached only
// when simd::mode() == kAvx2 at runtime. The outflow reduction is
// simd::off_diagonal_sums (common/simd_avx2.cpp).
//
// Lane discipline (see common/simd.hpp): a lane is one independent output
// — one cell of a pair-matrix column, the unit volume times the column's
// reward — and executes exactly the scalar multiply for that cell. No
// fused multiply-adds (-ffp-contract=off globally), no transcendentals.
// Scalar and AVX2 evaluations are therefore bitwise identical;
// tests/test_kernel_plan.cpp flips the mode at runtime and compares every
// double.
#include "core/kernel_plan.hpp"

#if defined(TDP_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>

namespace tdp {

void KernelPlan::scale_unit_columns_avx2(std::size_t first, std::size_t last,
                                         FlowState& s) const {
  const std::size_t n = periods_;
  for (std::size_t to = first; to < last; ++to) {
    const double reward = s.rewards[to];
    const double* unit = unit_->by_column.data() + to * n;
    double* column = s.pair.data() + to * n;
    if (reward <= 0.0) {
      std::fill(column, column + n, 0.0);
    } else {
      const __m256d scale = _mm256_set1_pd(reward);
      std::size_t from = 0;
      for (; from + 4 <= n; from += 4) {
        _mm256_storeu_pd(column + from,
                         _mm256_mul_pd(_mm256_loadu_pd(unit + from), scale));
      }
      for (; from < n; ++from) column[from] = unit[from] * reward;
    }
    column[to] = 0.0;
  }
}

}  // namespace tdp

#endif  // TDP_HAVE_AVX2
