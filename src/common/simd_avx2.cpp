// AVX2 implementations of the session-draw screen, the off-diagonal line
// sums and the backlog-sensitivity sweep. Compiled with -mavx2 (per-source
// flag in CMakeLists.txt); callers reach them only through the simd::
// dispatchers after the runtime CPUID check.
//
// In the screen each 64-bit lane replays exactly the scalar twin's
// sequence for one user. The SplitMix64 steps are integer (exact in any
// width) except the final uint64 -> double conversion, which is exact
// by construction: the 53-bit mantissa value is split into 32-bit halves,
// each converted exactly via the 2^52 magic-number trick, and recombined
// with one multiply-by-2^32 and one add whose result is itself exactly
// representable (< 2^53). The doubles are the twin's, one IEEE operation
// each: rate = activity * class_rate, (1 - rate) * 0.999999999, u * 2^-53.
// Per-class table entries are gathered.
//
// In the off-diagonal sums each lane is one line sum: four adjacent cells
// of a line are one contiguous load, and a block of up to twelve vectors
// keeps its partial sums in registers while it walks every line once in
// ascending order. Lines whose index falls inside the block are diagonal
// for one lane, which keeps its partial sum through a blend — the skipped
// cell is never added, exactly like the scalar loop. Sums past the last
// whole vector run one at a time.
//
// In the sensitivity sweep each lane is one reward's sensitivity, computed
// by the scalar loop's explicit operations: a sign flip (or the diagonal
// entry, blended into lane i), one add and one multiply per period, and on
// an accumulating day one multiply and one add into the gradient. A block
// of up to twelve vectors (four when accumulating) stays in registers
// while it walks all n periods; lanes past the last whole vector run the
// scalar operations one lane at a time.
#include "common/simd.hpp"

#if defined(TDP_HAVE_AVX2)

#include <immintrin.h>

#include <utility>

#include "common/rng.hpp"

namespace tdp::simd::detail {

namespace {

// Full 64-bit lane-wise multiply (AVX2 has only 32x32->64).
inline __m256i mul64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

inline __m256i xorshift(__m256i z, int shift) {
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, shift));
}

// SplitMix64 finalizer (the body of Rng::next() after the state advance,
// and of fork_stream() after the initial mix).
inline __m256i finalize(__m256i z) {
  z = mul64(xorshift(z, 30), _mm256_set1_epi64x(Rng::kFinalizer1));
  z = mul64(xorshift(z, 27), _mm256_set1_epi64x(Rng::kFinalizer2));
  return xorshift(z, 31);
}

// Exact double(y) for y < 2^53, matching static_cast<double>(y).
inline __m256d u53_to_double(__m256i y) {
  const __m256i mant_magic = _mm256_set1_epi64x(0x4330000000000000ll);  // 2^52
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256i lo32 = _mm256_and_si256(y, _mm256_set1_epi64x(0xFFFFFFFFll));
  const __m256i hi32 = _mm256_srli_epi64(y, 32);
  const __m256d lo_d = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(lo32, mant_magic)), two52);
  const __m256d hi_d = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(hi32, mant_magic)), two52);
  return _mm256_add_pd(_mm256_mul_pd(hi_d, _mm256_set1_pd(0x1.0p32)), lo_d);
}

// uniform() of an advanced state: the top 53 bits of its finalizer, scaled.
inline __m256d uniform(__m256i advanced) {
  return _mm256_mul_pd(
      u53_to_double(_mm256_srli_epi64(finalize(advanced), 11)),
      _mm256_set1_pd(0x1.0p-53));
}

// table[idx] in every lane. The masked form with every lane enabled
// gathers the same lanes as _mm256_i32gather_pd, whose GCC 12 expansion
// reads an undefined source register and trips -Wmaybe-uninitialized.
inline __m256d gather(const double* table, __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), table, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

}  // namespace

void fork_uniform_screen_batch_avx2(const std::uint64_t* state,
                                    std::size_t count, std::uint64_t stream,
                                    const std::uint32_t* cls,
                                    const double* activity,
                                    const double* class_rate,
                                    const double* screen, double* u1,
                                    std::uint64_t* state_out,
                                    std::uint64_t* active_mask) {
  // Lane-invariant parts of fork_stream(): (stream + gamma) * kForkMul and
  // stream * kStreamMul depend only on `stream`, so hoist them as scalars.
  const std::uint64_t fork_mix = (stream + Rng::kGamma) * Rng::kForkMul;
  const __m256i fork_mix_v = _mm256_set1_epi64x(
      static_cast<long long>(fork_mix));
  const __m256i stream_mix_v = _mm256_set1_epi64x(
      static_cast<long long>(stream * Rng::kStreamMul));
  const __m256i gamma_v = _mm256_set1_epi64x(
      static_cast<long long>(Rng::kGamma));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d haircut = _mm256_set1_pd(0.999999999);

  for (std::size_t w = 0; w < (count + 63) / 64; ++w) active_mask[w] = 0;

  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i parent = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(state + i));
    // fork_stream: z = state ^ mix; finalize; child = z ^ stream*kStreamMul.
    __m256i child = _mm256_xor_si256(
        finalize(_mm256_xor_si256(parent, fork_mix_v)), stream_mix_v);
    // uniform(): advance by gamma, finalize, take the top 53 bits.
    child = _mm256_add_epi64(child, gamma_v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state_out + i), child);
    const __m256d u = uniform(child);
    _mm256_storeu_pd(u1 + i, u);
    // Screen while u is in registers: rate > 0, u > screen[cls] and
    // u > (1 - rate) * 0.999999999.
    const __m128i cls4 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(cls + i));
    const __m256d rate =
        _mm256_mul_pd(_mm256_loadu_pd(activity + i), gather(class_rate, cls4));
    const __m256d bound =
        _mm256_mul_pd(_mm256_sub_pd(one, rate), haircut);
    const __m256d active = _mm256_and_pd(
        _mm256_and_pd(
            _mm256_cmp_pd(rate, _mm256_setzero_pd(), _CMP_GT_OQ),
            _mm256_cmp_pd(u, gather(screen, cls4), _CMP_GT_OQ)),
        _mm256_cmp_pd(u, bound, _CMP_GT_OQ));
    active_mask[i / 64] |=
        static_cast<std::uint64_t>(_mm256_movemask_pd(active)) << (i % 64);
  }
  if (i < count) {  // the last count % 4 users: the scalar twin's body
    std::uint64_t tail = 0;
    fork_uniform_screen_batch_scalar(state + i, count - i, stream, cls + i,
                                     activity + i, class_rate, screen,
                                     u1 + i, state_out + i, &tail);
    active_mask[i / 64] |= tail << (i % 64);
  }
}

namespace {

/// The sweep for lanes [m0, m0 + 4 * K): every period's update with the
/// lanes' sensitivities (and, when kGrad, their gradient entries) held in
/// registers.
template <std::size_t K, bool kGrad>
void sweep_block(double* db, double* grad, const double* rows,
                 const double* diag, const double* sigma, const double* fprime,
                 std::size_t n, std::size_t m0) {
  static_assert(K <= 12, "kDiagonalWindow covers twelve vectors");
  // Every loop over k is unrolled, so sens[] and acc[] live in registers.
  __m256d sens[K];
  __m256d acc[K];
#pragma GCC unroll 12
  for (std::size_t k = 0; k < K; ++k) {
    sens[k] = _mm256_loadu_pd(db + m0 + 4 * k);
    if constexpr (kGrad) acc[k] = _mm256_loadu_pd(grad + m0 + 4 * k);
  }
  const __m256d sign = _mm256_set1_pd(-0.0);
  // Period i; for i in the block, vector D holds lane i, whose Jacobian
  // entry is the inflow derivative, not -dV: that vector alone blends it
  // in (D == K: no lane of the block is i).
  const auto period = [&]<std::size_t D>(std::size_t i) {
    const __m256d scale = _mm256_set1_pd(sigma[i]);
    const double* row = rows + i * n + m0;
#pragma GCC unroll 12
    for (std::size_t k = 0; k < K; ++k) {
      __m256d entry = _mm256_xor_pd(_mm256_loadu_pd(row + 4 * k), sign);
      if (k == D) {
        entry = _mm256_blendv_pd(
            entry, _mm256_set1_pd(diag[i]),
            _mm256_loadu_pd(kDiagonalWindow.data() + 47 - (i - m0) + 4 * k));
      }
      sens[k] = _mm256_mul_pd(scale, _mm256_add_pd(sens[k], entry));
    }
    if constexpr (kGrad) {
      const __m256d slope = _mm256_set1_pd(fprime[i]);
#pragma GCC unroll 12
      for (std::size_t k = 0; k < K; ++k) {
        acc[k] = _mm256_add_pd(acc[k], _mm256_mul_pd(slope, sens[k]));
      }
    }
  };
  for (std::size_t i = 0; i < m0; ++i) period.template operator()<K>(i);
  [&]<std::size_t... D>(std::index_sequence<D...>) {
    ((void)[&] {
      for (std::size_t i = m0 + 4 * D; i < m0 + 4 * D + 4; ++i) {
        period.template operator()<D>(i);
      }
    }(), ...);
  }(std::make_index_sequence<K>{});
  for (std::size_t i = m0 + 4 * K; i < n; ++i) {
    period.template operator()<K>(i);
  }
#pragma GCC unroll 12
  for (std::size_t k = 0; k < K; ++k) {
    _mm256_storeu_pd(db + m0 + 4 * k, sens[k]);
    if constexpr (kGrad) _mm256_storeu_pd(grad + m0 + 4 * k, acc[k]);
  }
}

template <bool kGrad>
void sweep(double* db, double* grad, const double* rows, const double* diag,
           const double* sigma, const double* fprime, std::size_t n) {
  // Vectors per block, as many as 16 registers hold beside the broadcasts
  // and the row: 48 sensitivities, or 16 with their 16 gradient entries.
  constexpr std::size_t kWide = kGrad ? 4 : 12;
  std::size_t m = 0;
  for (; m + 4 * kWide <= n; m += 4 * kWide) {
    sweep_block<kWide, kGrad>(db, grad, rows, diag, sigma, fprime, n, m);
  }
  for (; m + 16 <= n; m += 16) {
    sweep_block<4, kGrad>(db, grad, rows, diag, sigma, fprime, n, m);
  }
  switch ((n - m) / 4) {
    case 3:
      sweep_block<3, kGrad>(db, grad, rows, diag, sigma, fprime, n, m);
      m += 12;
      break;
    case 2:
      sweep_block<2, kGrad>(db, grad, rows, diag, sigma, fprime, n, m);
      m += 8;
      break;
    case 1:
      sweep_block<1, kGrad>(db, grad, rows, diag, sigma, fprime, n, m);
      m += 4;
      break;
    default:
      break;
  }
  for (; m < n; ++m) {  // the scalar loop's operations, one lane at a time
    double sens = db[m];
    double acc = kGrad ? grad[m] : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double entry = i == m ? diag[i] : -rows[i * n + m];
      sens = sigma[i] * (sens + entry);
      if constexpr (kGrad) acc = acc + fprime[i] * sens;
    }
    db[m] = sens;
    if constexpr (kGrad) grad[m] = acc;
  }
}

}  // namespace

void sensitivity_sweep_avx2(double* db, double* grad, const double* rows,
                            const double* diag, const double* sigma,
                            const double* fprime, std::size_t n) {
  if (grad == nullptr) {
    sweep<false>(db, grad, rows, diag, sigma, fprime, n);
  } else {
    sweep<true>(db, grad, rows, diag, sigma, fprime, n);
  }
}

namespace {

/// Sums for lines' cells [r0, r0 + 4 * K) of the n x n matrix m, line c
/// at m + c * n. Every loop over k is unrolled, so total[] lives in
/// registers.
template <std::size_t K>
void off_diagonal_block(const double* m, std::size_t n, std::size_t r0,
                        double* out) {
  static_assert(K <= 12, "kDiagonalWindow covers twelve vectors");
  __m256d total[K];
#pragma GCC unroll 12
  for (std::size_t k = 0; k < K; ++k) total[k] = _mm256_setzero_pd();
  const auto add_line = [&](std::size_t c) {
    const double* line = m + c * n + r0;
#pragma GCC unroll 12
    for (std::size_t k = 0; k < K; ++k) {
      total[k] = _mm256_add_pd(total[k], _mm256_loadu_pd(line + 4 * k));
    }
  };
  // Lines r0 + 4 * D .. + 3 are diagonal for sums of vector D alone: that
  // vector blends, so the diagonal lane keeps its partial sum.
  const auto add_diagonal_lines = [&]<std::size_t D>() {
    for (std::size_t t = 4 * D; t < 4 * D + 4; ++t) {
      const double* line = m + (r0 + t) * n + r0;
#pragma GCC unroll 12
      for (std::size_t k = 0; k < K; ++k) {
        const __m256d sum =
            _mm256_add_pd(total[k], _mm256_loadu_pd(line + 4 * k));
        total[k] = k != D ? sum
                          : _mm256_blendv_pd(
                                sum, total[k],
                                _mm256_loadu_pd(kDiagonalWindow.data() + 47 -
                                                t + 4 * k));
      }
    }
  };
  for (std::size_t c = 0; c < r0; ++c) add_line(c);
  [&]<std::size_t... D>(std::index_sequence<D...>) {
    (add_diagonal_lines.template operator()<D>(), ...);
  }(std::make_index_sequence<K>{});
  for (std::size_t c = r0 + 4 * K; c < n; ++c) add_line(c);
#pragma GCC unroll 12
  for (std::size_t k = 0; k < K; ++k) {
    _mm256_storeu_pd(out + r0 + 4 * k, total[k]);
  }
}

/// Vectors per block: twelve sums in registers cover a 48-period day.
constexpr std::size_t kSumBlock = 12;

}  // namespace

void off_diagonal_sums_avx2(const double* m, std::size_t n, double* out) {
  std::size_t r = 0;
  for (; r + 4 * kSumBlock <= n; r += 4 * kSumBlock) {
    off_diagonal_block<kSumBlock>(m, n, r, out);
  }
  for (; r + 16 <= n; r += 16) off_diagonal_block<4>(m, n, r, out);
  switch ((n - r) / 4) {
    case 3: off_diagonal_block<3>(m, n, r, out); r += 12; break;
    case 2: off_diagonal_block<2>(m, n, r, out); r += 8; break;
    case 1: off_diagonal_block<1>(m, n, r, out); r += 4; break;
    default: break;
  }
  for (; r < n; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (c != r) total += m[c * n + r];
    }
    out[r] = total;
  }
}

}  // namespace tdp::simd::detail

#endif  // TDP_HAVE_AVX2
