// AVX2 implementation of the KernelPlan fill/reduce inner loops.
// Compiled with -mavx2 (per-source flag in src/core/CMakeLists.txt);
// reached only when simd::mode() == kAvx2 at runtime.
//
// Lane discipline (see common/simd.hpp): a lane is one independent output
// — one (from, to) pair volume or one column's inflow sum — and executes
// exactly the scalar operation sequence for that output. No horizontal
// reductions, no fused multiply-adds (-ffp-contract=off globally, and the
// intrinsics below are explicit mul/add), no transcendentals (the pow
// calls happened once at plan build; the reward factors are computed
// scalar-side in fill_column's prologue). Scalar and AVX2 evaluations are
// therefore bitwise identical; tests/test_simd.cpp flips the mode at
// runtime and EXPECT_EQs every double.
//
// Row grouping: for a fixed column `to`, the cyclic lag decreases by
// exactly 1 as `from` increases, on each of the two runs [0, to) and
// (to, n). A group of four consecutive rows therefore reads four
// *consecutive* table lags — lag_pow / lag_half load contiguously (with a
// lane reversal, since lag descends as the lane index ascends) and the
// 8-node Gauss rows of node_pow transpose from four adjacent rows.
#include "core/kernel_plan.hpp"

#if defined(TDP_HAVE_AVX2)

#include <immintrin.h>

#include "math/quadrature.hpp"

namespace tdp {
namespace {

constexpr std::size_t kGaussN = math::kGauss8Nodes.size();

// [m0, m1, m2, m3] -> [m3, m2, m1, m0]: maps an ascending-lag memory load
// onto ascending-lane (descending-lag) order.
inline __m256d reverse(__m256d v) { return _mm256_permute4x64_pd(v, 0x1B); }

// Transpose four 4-wide row loads into four lane-major columns:
// out_j[l] = row_l[j].
inline void transpose4(__m256d r0, __m256d r1, __m256d r2, __m256d r3,
                       __m256d out[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  out[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  out[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  out[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  out[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

}  // namespace

void KernelPlan::fill_column_avx2(std::size_t to, double reward,
                                  bool positive, bool with_derivatives,
                                  FlowState& s) const {
  const std::size_t n = periods_;
  const std::size_t slots = period_begin_[1] - period_begin_[0];
  double* V = s.pair.data();
  double* dV = s.pair_derivative.data();
  const double* factor = s.wf_factor.data();
  const double* dfactor = s.wf_factor_derivative.data();

  // One run of rows with lag(from) = lag0 - (from - from0); both runs for
  // a column satisfy this (lag decreases by 1 per row, no wrap inside).
  const auto run = [&](std::size_t from0, std::size_t count,
                       std::size_t lag0) {
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      const std::size_t f = from0 + i;   // lane l holds row f + l
      const std::size_t lag = lag0 - i;  // lane l's lag is lag - l >= 1
      __m256d vol = _mm256_setzero_pd();
      __m256d dvol = _mm256_setzero_pd();
      for (std::size_t t = 0; t < slots; ++t) {
        const std::uint32_t w = term_wf_[t];
        const __m256d v = _mm256_loadu_pd(&slot_volume_[t * n + f]);
        if (functions_[w].kind == WfKind::kPowerStart) {
          const __m256d lp =
              reverse(_mm256_loadu_pd(&lag_pow_[w * n + lag - 3]));
          if (positive) {
            const __m256d fl = _mm256_mul_pd(_mm256_set1_pd(factor[w]), lp);
            vol = _mm256_add_pd(vol, _mm256_mul_pd(v, fl));
          }
          if (with_derivatives) {
            const __m256d fl = _mm256_mul_pd(_mm256_set1_pd(dfactor[w]), lp);
            dvol = _mm256_add_pd(dvol, _mm256_mul_pd(v, fl));
          }
        } else {  // kPowerUniform (generic slots are ineligible)
          // Lane l's Gauss row starts at (w * n + lag - l) * 8; transpose
          // the four adjacent rows into one vector per node index.
          const double* row0 = &node_pow_[(w * n + lag) * kGaussN];
          __m256d np[kGaussN];
          for (std::size_t kb = 0; kb < kGaussN; kb += 4) {
            transpose4(_mm256_loadu_pd(row0 + kb),
                       _mm256_loadu_pd(row0 - kGaussN + kb),
                       _mm256_loadu_pd(row0 - 2 * kGaussN + kb),
                       _mm256_loadu_pd(row0 - 3 * kGaussN + kb), np + kb);
          }
          const __m256d half =
              reverse(_mm256_loadu_pd(&lag_half_[lag - 3]));
          if (positive) {
            const __m256d fw = _mm256_set1_pd(factor[w]);
            __m256d acc = _mm256_setzero_pd();
            for (std::size_t k = 0; k < kGaussN; ++k) {
              acc = _mm256_add_pd(
                  acc, _mm256_mul_pd(_mm256_set1_pd(math::kGauss8Weights[k]),
                                     _mm256_mul_pd(fw, np[k])));
            }
            vol = _mm256_add_pd(vol,
                                _mm256_mul_pd(v, _mm256_mul_pd(acc, half)));
          }
          if (with_derivatives) {
            const __m256d fw = _mm256_set1_pd(dfactor[w]);
            __m256d acc = _mm256_setzero_pd();
            for (std::size_t k = 0; k < kGaussN; ++k) {
              acc = _mm256_add_pd(
                  acc, _mm256_mul_pd(_mm256_set1_pd(math::kGauss8Weights[k]),
                                     _mm256_mul_pd(fw, np[k])));
            }
            dvol = _mm256_add_pd(
                dvol, _mm256_mul_pd(v, _mm256_mul_pd(acc, half)));
          }
        }
      }
      // Column-stride stores. When !positive the accumulator stayed +0.0,
      // matching the scalar path's literal 0.0 store bit for bit.
      alignas(32) double out[4];
      _mm256_store_pd(out, vol);
      for (std::size_t l = 0; l < 4; ++l) V[(f + l) * n + to] = out[l];
      if (with_derivatives) {
        _mm256_store_pd(out, dvol);
        for (std::size_t l = 0; l < 4; ++l) dV[(f + l) * n + to] = out[l];
      }
    }
    for (; i < count; ++i) {
      fill_cell(from0 + i, to, lag0 - i, reward, positive, with_derivatives,
                s);
    }
  };

  // from in [0, to): lag = to - from, descending to 1.
  if (to > 0) run(0, to, to);
  // from in (to, n): lag = n - (from - to), descending to to + 1.
  if (to + 1 < n) run(to + 1, n - to - 1, n - 1);
}

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
