// AVX2 implementation of the KernelPlan outflow reduction. Compiled with
// -mavx2 (per-source flag in src/core/CMakeLists.txt); reached only when
// simd::mode() == kAvx2 at runtime.
//
// Lane discipline (see common/simd.hpp): a lane is one independent output
// — one row's outflow sum — and executes exactly the scalar operation
// sequence for that output. No horizontal reductions, no fused
// multiply-adds (-ffp-contract=off globally, and the intrinsics below are
// explicit adds), no transcendentals. Scalar and AVX2 evaluations are
// therefore bitwise identical; tests/test_simd.cpp flips the mode at
// runtime and EXPECT_EQs every double.
//
// Lane grouping: the pair matrix is column-major, so four adjacent rows of
// one column are one contiguous load. A block of up to kBlock vectors
// (4 * kBlock rows) keeps its partial sums in registers while it walks
// every column once in ascending order. Columns whose index falls inside
// the block are diagonal for one lane, which keeps its partial sum through
// a blend — the skipped cell is never added, exactly like the scalar path.
// Rows past the last whole vector are summed one at a time.
#include "core/kernel_plan.hpp"

#if defined(TDP_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <utility>

#include "common/simd.hpp"

namespace tdp {
namespace {

/// Vectors per block: twelve row sums in registers cover a 48-period day.
constexpr std::size_t kBlock = 12;

/// outflow for rows [from0, from0 + 4 * K) of the n x n column-major
/// matrix V. Every loop over k is unrolled, so total[] lives in registers.
template <std::size_t K>
void reduce_row_block(const double* V, std::size_t n, std::size_t from0,
                      double* out) {
  static_assert(K <= 12, "kDiagonalWindow covers twelve vectors");
  __m256d total[K];
#pragma GCC unroll 12
  for (std::size_t k = 0; k < K; ++k) total[k] = _mm256_setzero_pd();
  const auto add_column = [&](std::size_t to) {
    const double* column = V + to * n + from0;
#pragma GCC unroll 12
    for (std::size_t k = 0; k < K; ++k) {
      total[k] = _mm256_add_pd(total[k], _mm256_loadu_pd(column + 4 * k));
    }
  };
  // Columns from0 + 4 * D .. + 3 are diagonal for rows of vector D alone:
  // that vector blends, so the diagonal lane keeps its partial sum.
  const auto add_diagonal_columns = [&]<std::size_t D>() {
    for (std::size_t t = 4 * D; t < 4 * D + 4; ++t) {
      const double* column = V + (from0 + t) * n + from0;
#pragma GCC unroll 12
      for (std::size_t k = 0; k < K; ++k) {
        const __m256d sum =
            _mm256_add_pd(total[k], _mm256_loadu_pd(column + 4 * k));
        total[k] = k != D ? sum
                          : _mm256_blendv_pd(
                                sum, total[k],
                                _mm256_loadu_pd(
                                    simd::detail::kDiagonalWindow.data() +
                                    47 - t + 4 * k));
      }
    }
  };
  for (std::size_t to = 0; to < from0; ++to) add_column(to);
  [&]<std::size_t... D>(std::index_sequence<D...>) {
    (add_diagonal_columns.template operator()<D>(), ...);
  }(std::make_index_sequence<K>{});
  for (std::size_t to = from0 + 4 * K; to < n; ++to) add_column(to);
#pragma GCC unroll 12
  for (std::size_t k = 0; k < K; ++k) {
    _mm256_storeu_pd(out + from0 + 4 * k, total[k]);
  }
}

}  // namespace

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

void KernelPlan::reduce_outflows_avx2(FlowState& s) const {
  const std::size_t n = periods_;
  const double* V = s.pair.data();
  double* out = s.outflow.data();
  std::size_t from = 0;
  for (; from + 4 * kBlock <= n; from += 4 * kBlock) {
    reduce_row_block<kBlock>(V, n, from, out);
  }
  for (; from + 16 <= n; from += 16) reduce_row_block<4>(V, n, from, out);
  switch ((n - from) / 4) {
    case 3: reduce_row_block<3>(V, n, from, out); from += 12; break;
    case 2: reduce_row_block<2>(V, n, from, out); from += 8; break;
    case 1: reduce_row_block<1>(V, n, from, out); from += 4; break;
    default: break;
  }
  for (; from < n; ++from) {
    double total = 0.0;
    for (std::size_t to = 0; to < n; ++to) {
      if (to != from) total += V[to * n + from];
    }
    out[from] = total;
  }
}

}  // namespace tdp

#endif  // TDP_HAVE_AVX2
