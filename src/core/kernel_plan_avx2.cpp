// AVX2 implementation of the KernelPlan inflow reduction and linear fill.
// Compiled with -mavx2 (per-source flag in src/core/CMakeLists.txt);
// reached only when simd::mode() == kAvx2 at runtime.
//
// Lane discipline (see common/simd.hpp): a lane is one independent output
// — one (from, to) pair volume or one column's inflow sum — and executes
// exactly the scalar operation sequence for that output. No horizontal
// reductions, no fused multiply-adds (-ffp-contract=off globally, and the
// intrinsics below are explicit mul/add), no transcendentals. Scalar and
// AVX2 evaluations are therefore bitwise identical; tests/test_simd.cpp
// flips the mode at runtime and EXPECT_EQs every double.
//
// Lane grouping: both kernels take four adjacent columns of a row-major
// n x n matrix, so every load is contiguous. reduce_inflow4_avx2 walks the
// pair matrix down four columns at once; fill_linear_avx2 walks a unit-table
// row and the reward vector four cells at a time. A nonlinear plan's column
// fill is scalar (KernelPlan::fill_column).
#include "core/kernel_plan.hpp"

#if defined(TDP_HAVE_AVX2)

#include <immintrin.h>

namespace tdp {

void KernelPlan::reduce_inflow4_avx2(std::size_t into0, bool with_derivatives,
                                     FlowState& s) const {
  const std::size_t n = periods_;
  const double* P = s.pair.data();

  // Lane l accumulates column into0 + l in ascending `from` order; the
  // diagonal row (from == into0 + l) keeps that lane's partial sum via a
  // blend — the skipped slot is never touched, exactly like the scalar
  // `continue`.
  __m256d total = _mm256_setzero_pd();
  for (std::size_t from = 0; from < n; ++from) {
    const __m256d sum =
        _mm256_add_pd(total, _mm256_loadu_pd(P + from * n + into0));
    switch (from - into0) {  // unsigned: > 3 means off-diagonal
      case 0: total = _mm256_blend_pd(sum, total, 0x1); break;
      case 1: total = _mm256_blend_pd(sum, total, 0x2); break;
      case 2: total = _mm256_blend_pd(sum, total, 0x4); break;
      case 3: total = _mm256_blend_pd(sum, total, 0x8); break;
      default: total = sum; break;
    }
  }
  alignas(32) double out[4];
  _mm256_store_pd(out, total);
  for (std::size_t l = 0; l < 4; ++l) {
    s.inflow[into0 + l] = s.rewards[into0 + l] <= 0.0 ? 0.0 : out[l];
  }

  if (!with_derivatives) return;
  const double* dP = s.pair_derivative.data();
  __m256d dtotal = _mm256_setzero_pd();
  for (std::size_t from = 0; from < n; ++from) {
    const __m256d sum =
        _mm256_add_pd(dtotal, _mm256_loadu_pd(dP + from * n + into0));
    switch (from - into0) {
      case 0: dtotal = _mm256_blend_pd(sum, dtotal, 0x1); break;
      case 1: dtotal = _mm256_blend_pd(sum, dtotal, 0x2); break;
      case 2: dtotal = _mm256_blend_pd(sum, dtotal, 0x4); break;
      case 3: dtotal = _mm256_blend_pd(sum, dtotal, 0x8); break;
      default: dtotal = sum; break;
    }
  }
  _mm256_store_pd(out, dtotal);
  for (std::size_t l = 0; l < 4; ++l) {
    s.inflow_derivative[into0 + l] = out[l];
  }
}

void KernelPlan::fill_linear_avx2(FlowState& s) const {
  const std::size_t n = periods_;
  const double* rewards = s.rewards.data();
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t from = 0; from < n; ++from) {
    const double* unit = &unit_[from * n];
    double* row = &s.pair[from * n];
    std::size_t to = 0;
    for (; to + 4 <= n; to += 4) {
      // linear_cell in every lane: the product, masked to +0.0 where the
      // reward is <= 0. The not-less-or-equal test keeps a NaN reward's
      // product, as the scalar comparison's false branch does.
      const __m256d reward = _mm256_loadu_pd(rewards + to);
      const __m256d keep = _mm256_cmp_pd(reward, zero, _CMP_NLE_UQ);
      const __m256d product = _mm256_mul_pd(_mm256_loadu_pd(unit + to), reward);
      _mm256_storeu_pd(row + to, _mm256_and_pd(product, keep));
    }
    for (; to < n; ++to) row[to] = linear_cell(unit[to], rewards[to]);
    row[from] = 0.0;
  }
}

}  // namespace tdp

#endif  // TDP_HAVE_AVX2
