// AVX-512 body of the batched SplitMix64 derivation kernel. Compiled with
// -mavx512f -mavx512dq -mavx512vl (per-source flags in CMakeLists.txt);
// callers reach it only through simd::fork_uniform_screen_batch in
// Mode::kAvx512, after the runtime CPUID check. Every other kernel runs
// its AVX2 body in that mode.
//
// Each 64-bit lane replays exactly the scalar sequence
//   Rng child = Rng(state[i]).fork_stream(stream);
//   u1[i] = child.uniform();
//   state_out[i] = child.state();
//   if (u1[i] > screen[cls[i]]) <set bit i of active_mask>;
// eight users per iteration. AVX-512DQ multiplies 64-bit lanes natively
// (vpmullq keeps the low 64 bits of the product, as the scalar multiply
// does) and converts unsigned 64-bit integers to doubles (vcvtuqq2pd):
// the 53-bit value is below 2^53, so the conversion is exact under any
// rounding mode and equals static_cast<double>. The last count % 8 users
// run the same body under a lane mask: masked loads read nothing past
// `count` and masked stores write nothing there, so there is no scalar
// tail.
#include "common/simd.hpp"

#if defined(TDP_HAVE_AVX512)

#include <immintrin.h>

#include "common/rng.hpp"

namespace tdp::simd::detail {

namespace {

// z >> shift in every lane. GCC 12 expands _mm512_srli_epi64 with an
// undefined pass-through register, which trips -Wmaybe-uninitialized; the
// zero-masking form with every lane enabled is the same shift.
inline __m512i shift_right(__m512i z, unsigned shift) {
  return _mm512_maskz_srli_epi64(0xFF, z, shift);
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

}  // namespace

void fork_uniform_screen_batch_avx512(const std::uint64_t* state,
                                      std::size_t count, std::uint64_t stream,
                                      const std::uint32_t* cls,
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
  const __m512d two_m53 = _mm512_set1_pd(0x1.0p-53);

  for (std::size_t w = 0; w < (count + 63) / 64; ++w) active_mask[w] = 0;

  for (std::size_t i = 0; i < count; i += 8) {
    const __mmask8 lanes = count - i >= 8
                               ? __mmask8{0xFF}
                               : static_cast<__mmask8>((1u << (count - i)) - 1);
    const __m512i parent = _mm512_maskz_loadu_epi64(lanes, state + i);
    // fork_stream: z = state ^ mix; finalize; child = z ^ stream*kStreamMul.
    __m512i child = _mm512_xor_si512(
        finalize(_mm512_xor_si512(parent, fork_mix_v)), stream_mix_v);
    // uniform(): advance by gamma, finalize, take the top 53 bits.
    child = _mm512_add_epi64(child, gamma_v);
    _mm512_mask_storeu_epi64(state_out + i, lanes, child);
    const __m512d u = _mm512_mul_pd(
        _mm512_cvtepu64_pd(shift_right(finalize(child), 11)), two_m53);
    _mm512_mask_storeu_pd(u1 + i, lanes, u);
    // Screen while u is in registers: lane active iff u > screen[cls].
    // The masked gather reads only live lanes; its zero source also keeps
    // GCC 12's -Wmaybe-uninitialized quiet, as in the AVX2 body.
    const __m256i cls8 = _mm256_maskz_loadu_epi32(lanes, cls + i);
    const __m512d screen8 = _mm512_mask_i32gather_pd(
        _mm512_setzero_pd(), lanes, cls8, screen, 8);
    // Eight lanes never straddle a 64-bit mask word.
    active_mask[i / 64] |=
        static_cast<std::uint64_t>(
            _mm512_mask_cmp_pd_mask(lanes, u, screen8, _CMP_GT_OQ))
        << (i % 64);
  }
}

}  // namespace tdp::simd::detail

#endif  // TDP_HAVE_AVX512
