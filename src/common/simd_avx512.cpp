// AVX-512 bodies of the two session-draw kernels, the screen and the
// survivor uniforms. Compiled with -mavx512f -mavx512dq -mavx512vl
// (per-source flags in CMakeLists.txt); callers reach them only through
// simd::fork_uniform_screen_batch and simd::survivor_uniform_batch in
// Mode::kAvx512, after the runtime CPUID check. Every other kernel runs
// its AVX2 body in that mode.
//
// Each 64-bit lane replays exactly the scalar twin's sequence for one
// user, eight users per iteration. AVX-512DQ multiplies 64-bit lanes
// natively (vpmullq keeps the low 64 bits of the product, as the scalar
// multiply does) and converts unsigned 64-bit integers to doubles
// (vcvtuqq2pd): the 53-bit value is below 2^53, so the conversion is exact
// under any rounding mode and equals static_cast<double>. The doubles are
// the twin's, one IEEE operation each: rate = activity * class_rate,
// (1 - rate) * 0.999999999, u * 2^-53. The per-class tables (kMaxClasses
// = 32 entries) sit in four registers each, and a lane reads its class's
// entry with two two-table permutes (vpermt2pd: classes 0-15 and 16-31 by
// the index's low four bits) and a blend on bit 4, so the screen gathers
// nothing. The last count % 8 users run the same body under a lane mask:
// masked loads and gathers read nothing past `count` and masked stores
// write nothing there, so there is no scalar tail.
#include "common/simd.hpp"

#if defined(TDP_HAVE_AVX512)

#include <immintrin.h>

#include "common/rng.hpp"

namespace tdp::simd::detail {

namespace {

static_assert(kMaxClasses == 32, "the class lookup covers 32 classes");

// z >> shift in every lane. GCC 12 expands _mm512_srli_epi64 with an
// undefined pass-through register, which trips -Wmaybe-uninitialized; the
// zero-masking form with every lane enabled is the same shift.
inline __m512i shift_right(__m512i z, unsigned shift) {
  return _mm512_maskz_srli_epi64(0xFF, z, shift);
}

// The eight 32-bit class indices of `cls` zero-extended to 64-bit lanes;
// the zero-masking form, for the same reason as shift_right.
inline __m512i widen(__m256i cls) {
  return _mm512_maskz_cvtepu32_epi64(0xFF, cls);
}

inline __m512i xorshift(__m512i z, unsigned shift) {
  return _mm512_xor_si512(z, shift_right(z, shift));
}

// SplitMix64 finalizer (the body of Rng::next() after the state advance,
// and of fork_stream() after the initial mix).
inline __m512i finalize(__m512i z) {
  z = _mm512_mullo_epi64(
      xorshift(z, 30),
      _mm512_set1_epi64(static_cast<long long>(Rng::kFinalizer1)));
  z = _mm512_mullo_epi64(
      xorshift(z, 27),
      _mm512_set1_epi64(static_cast<long long>(Rng::kFinalizer2)));
  return xorshift(z, 31);
}

// uniform() of an advanced state: the top 53 bits of its finalizer, scaled.
inline __m512d uniform(__m512i advanced) {
  return _mm512_mul_pd(
      _mm512_cvtepu64_pd(shift_right(finalize(advanced), 11)),
      _mm512_set1_pd(0x1.0p-53));
}

/// A kMaxClasses-entry class table held in registers.
struct ClassTable {
  __m512d low0, low1, high0, high1;  ///< classes 0-7, 8-15, 16-23, 24-31

  explicit ClassTable(const double* table)
      : low0(_mm512_loadu_pd(table)),
        low1(_mm512_loadu_pd(table + 8)),
        high0(_mm512_loadu_pd(table + 16)),
        high1(_mm512_loadu_pd(table + 24)) {}

  /// table[cls] in every lane, for 64-bit class indices below 32.
  __m512d lookup(__m512i cls) const {
    const __m512d low = _mm512_permutex2var_pd(low0, cls, low1);
    const __m512d high = _mm512_permutex2var_pd(high0, cls, high1);
    return _mm512_mask_blend_pd(
        _mm512_test_epi64_mask(cls, _mm512_set1_epi64(16)), low, high);
  }
};

inline __mmask8 live_lanes(std::size_t remaining) {
  return remaining >= 8 ? __mmask8{0xFF}
                        : static_cast<__mmask8>((1u << remaining) - 1);
}

}  // namespace

void fork_uniform_screen_batch_avx512(const std::uint64_t* state,
                                      std::size_t count, std::uint64_t stream,
                                      const std::uint32_t* cls,
                                      const double* activity,
                                      const double* class_rate,
                                      const double* screen, double* u1,
                                      std::uint64_t* state_out,
                                      std::uint64_t* active_mask) {
  // Lane-invariant parts of fork_stream(), hoisted as in the AVX2 body.
  const __m512i fork_mix_v = _mm512_set1_epi64(
      static_cast<long long>((stream + Rng::kGamma) * Rng::kForkMul));
  const __m512i stream_mix_v = _mm512_set1_epi64(
      static_cast<long long>(stream * Rng::kStreamMul));
  const __m512i gamma_v =
      _mm512_set1_epi64(static_cast<long long>(Rng::kGamma));
  const ClassTable rates(class_rate);
  const ClassTable screens(screen);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d haircut = _mm512_set1_pd(0.999999999);

  for (std::size_t w = 0; w < (count + 63) / 64; ++w) active_mask[w] = 0;

  for (std::size_t i = 0; i < count; i += 8) {
    const __mmask8 lanes = live_lanes(count - i);
    const __m512i parent = _mm512_maskz_loadu_epi64(lanes, state + i);
    // fork_stream: z = state ^ mix; finalize; child = z ^ stream*kStreamMul.
    __m512i child = _mm512_xor_si512(
        finalize(_mm512_xor_si512(parent, fork_mix_v)), stream_mix_v);
    // uniform(): advance by gamma, finalize, take the top 53 bits.
    child = _mm512_add_epi64(child, gamma_v);
    _mm512_mask_storeu_epi64(state_out + i, lanes, child);
    const __m512d u = uniform(child);
    _mm512_mask_storeu_pd(u1 + i, lanes, u);
    // Screen while u is in registers: rate > 0, u > screen[cls] and
    // u > (1 - rate) * 0.999999999, each compare under the last's mask.
    const __m512i cls8 = widen(_mm256_maskz_loadu_epi32(lanes, cls + i));
    const __m512d rate = _mm512_mul_pd(
        _mm512_maskz_loadu_pd(lanes, activity + i), rates.lookup(cls8));
    __mmask8 active =
        _mm512_mask_cmp_pd_mask(lanes, rate, _mm512_setzero_pd(), _CMP_GT_OQ);
    active = _mm512_mask_cmp_pd_mask(active, u, screens.lookup(cls8),
                                     _CMP_GT_OQ);
    active = _mm512_mask_cmp_pd_mask(
        active, u, _mm512_mul_pd(_mm512_sub_pd(one, rate), haircut),
        _CMP_GT_OQ);
    // Eight lanes never straddle a 64-bit mask word.
    active_mask[i / 64] |= static_cast<std::uint64_t>(active) << (i % 64);
  }
}

void survivor_uniform_batch_avx512(const std::uint32_t* index,
                                   std::size_t count,
                                   const std::uint64_t* state, double* u2,
                                   double* u3, double* u4) {
  const __m512i gamma_v =
      _mm512_set1_epi64(static_cast<long long>(Rng::kGamma));

  for (std::size_t k = 0; k < count; k += 8) {
    const __mmask8 lanes = live_lanes(count - k);
    const __m256i j = _mm256_maskz_loadu_epi32(lanes, index + k);
    // Rng(state[j]): each uniform() advances by gamma, then finalizes. The
    // zero source keeps dead lanes defined (and GCC 12's
    // -Wmaybe-uninitialized quiet); the masked gather reads live lanes only.
    __m512i s = _mm512_mask_i32gather_epi64(_mm512_setzero_si512(), lanes, j,
                                            state, 8);
    s = _mm512_add_epi64(s, gamma_v);
    _mm512_mask_storeu_pd(u2 + k, lanes, uniform(s));
    s = _mm512_add_epi64(s, gamma_v);
    _mm512_mask_storeu_pd(u3 + k, lanes, uniform(s));
    s = _mm512_add_epi64(s, gamma_v);
    _mm512_mask_storeu_pd(u4 + k, lanes, uniform(s));
  }
}

}  // namespace tdp::simd::detail

#endif  // TDP_HAVE_AVX512
