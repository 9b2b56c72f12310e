// Runtime-dispatched SIMD support with a bitwise-identical scalar fallback.
//
// Every vector kernel in this repo obeys one discipline: **lanes are
// independent outputs, never partial sums of one output**. A lane executes
// exactly the operation sequence the scalar code would execute for that
// output, so scalar and SIMD builds — and any lane width — produce
// bitwise-identical doubles. Cross-lane (horizontal) reductions are
// forbidden; transcendentals that the scalar path takes from libm
// (exp/log/pow) stay scalar calls on both paths. Integer kernels
// (SplitMix64 stream derivation, the 53-bit uniform conversion) are exact
// in any width, so they vectorize freely.
//
// Dispatch is resolved once per process from CPUID plus the TDP_SIMD
// environment variable ("scalar" forces the fallback, "avx2" the AVX2
// bodies, unset/"auto" uses the best supported mode). Tests flip the mode
// at runtime via set_mode() to prove scalar-vs-SIMD bit identity on the
// same host (tests/test_simd.cpp).
//
// The AVX2 implementations live in *_avx2.cpp translation units compiled
// with -mavx2 (gated by the compiler check in src/common/CMakeLists.txt);
// nothing in those TUs runs unless mode() says the host supports it. On
// compilers or targets without AVX2 support the build simply omits the
// vector TUs and mode() is pinned to kScalar. The two session-draw kernels
// have AVX-512 bodies (simd_avx512.cpp, built where the compiler takes
// -mavx512f -mavx512dq -mavx512vl): the screen beside its AVX2 body, the
// survivor uniforms beside the scalar twin alone. In kAvx512 every other
// kernel runs its AVX2 body.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace tdp::simd {

enum class Mode : std::uint8_t {
  kScalar = 0,  ///< portable fallback, always available
  kAvx2 = 1,    ///< 4 × 64-bit lanes (requires CPU + build support)
  kAvx512 = 2,  ///< the session draw in 8 × 64-bit lanes, the rest AVX2
};

/// True when this build contains the AVX2 kernels and the CPU reports
/// AVX2. A false return pins mode() to kScalar.
bool avx2_supported();

/// True when this build contains the AVX-512 session-draw bodies, the AVX2
/// kernels run, and the CPU reports AVX-512 F, DQ and VL (the predicate
/// host_isa() reads too).
bool avx512_supported();

/// The active mode: TDP_SIMD env override if valid, else the best
/// supported mode. Cached after the first call.
Mode mode();

/// Force a mode (tests). Forcing a mode the host/build lacks throws.
void set_mode(Mode mode);

/// "scalar", "avx2" or "avx512" for logs and BENCH_JSON.
const char* mode_name();

/// Host ISA summary for bench provenance: "avx512" (F, DQ and VL),
/// "avx2", or "sse2" (what the CPU supports, independent of the active
/// mode and of the build).
const char* host_isa();

// ---- The fleet's per-(user, period) session draw ----------------------------
//
// Two kernels carry every decision of a shard's draw (fleet/shard.cpp)
// except its exp and log. Both read per-class tables of kMaxClasses
// entries (class_rate, screen); a class index must be below kMaxClasses.
inline constexpr std::size_t kMaxClasses = 32;

// The screen. For each i in [0, count): take the child stream
// Rng(state[i]).fork_stream(stream), draw its first uniform() into u1[i],
// store the child's post-draw state in state_out[i] (so a caller can resume
// the child's draw sequence with Rng(state_out[i])), and set bit i of
// `active_mask` (words of 64 entries; trailing bits stay 0) iff, with
// rate = activity[i] * class_rate[cls[i]],
//   rate > 0,  u1[i] > screen[cls[i]]  and  u1[i] > (1 - rate) * 0.999999999.
// Both tests run while u1 is still in registers. Bitwise identical to the
// Rng calls and those doubles in every mode.
//
// A clear bit proves the user-period draws no session (DESIGN.md §15.2):
// screen[c] is a class-wide bound below Knuth's limit exp(-rate) (-1.0
// screens nobody, +infinity everybody), and the per-user bound sits below
// exp(-rate) >= 1 - rate. For rate >= 1 that bound is negative, so every
// user in Poisson's normal-approximation regime (rate >= 30) whose class
// screen passes is set. With the paper's mixes ~92% of user-periods clear
// here and are never touched scalar-side.
void fork_uniform_screen_batch(const std::uint64_t* state, std::size_t count,
                               std::uint64_t stream,
                               const std::uint32_t* cls,
                               const double* activity,
                               const double* class_rate, const double* screen,
                               double* u1, std::uint64_t* state_out,
                               std::uint64_t* active_mask);

// The survivors' next draws. For each k in [0, count), with j = index[k]:
// write the next three uniforms of the stream Rng(state[j]) into u2[k],
// u3[k] and u4[k] (the states state[j] + gamma, + 2 gamma and + 3 gamma).
// Bitwise identical to the Rng calls in every mode; only kAvx512 has a
// vector body. A user-period with one session consumes exactly these:
// Knuth's walk u2, the size u3, the deferral u4.
void survivor_uniform_batch(const std::uint32_t* index, std::size_t count,
                            const std::uint64_t* state, double* u2,
                            double* u3, double* u4);

// ---- Backlog-sensitivity sweep of the dynamic model's gradient -----------
//
// One warmup day of the fused gradient (DynamicModel::
// smoothed_cost_and_gradient) carries the backlog's sensitivity to every
// reward forward through periods i = 0 .. n-1,
//   db[m] = sigma[i] * (db[m] + J[i][m]),
//   J[i][m] = -rows[i * n + m] for m != i,  diag[i] for m == i,
// and on an accumulating day (grad non-null) adds after each period
//   grad[m] = grad[m] + fprime[i] * db[m].
// Lane m never reads another lane, so the vector body keeps a block of
// lanes in registers across all n periods instead of storing and
// reloading the whole row every period; each lane still runs the scalar
// loop's operations in its order — a sign flip (or lane i's diagonal
// entry, blended in), one add, one multiply, and when accumulating one
// multiply and one add, never fused — so every mode produces the same
// doubles.
void sensitivity_sweep(double* db, double* grad, const double* rows,
                       const double* diag, const double* sigma,
                       const double* fprime, std::size_t n);

// ---- Off-diagonal line sums of a square matrix ----------------------------
//
// For every r in [0, n): out[r] = sum over c != r of m[c * n + r], summed
// from 0.0 in ascending c with the diagonal cell skipped (never added as
// 0.0). Read column-major, that is every row's sum: the kernel plan's
// outflows (FlowState::pair). Read row-major, it is every column's sum: a
// linear kernel's unit inflow (UnitTables::by_row). The vector body keeps
// a block of up to 48 sums in registers while it walks the n lines once,
// and the lane a line is diagonal for keeps its sum through a blend, so
// each lane runs the scalar loop's adds in its order. `out` must not
// overlap `m`.
void off_diagonal_sums(const double* m, std::size_t n, double* out);

namespace detail {
/// Blend masks for the diagonal lane of a block of up to 12 four-lane
/// vectors (the AVX2 off-diagonal sums and sensitivity sweep):
/// _mm256_blendv_pd reads only each lane's sign bit, and the four entries
/// at kDiagonalWindow.data() + 47 - t + 4 * k have it set in exactly the
/// lane j of vector k with 4 * k + j == t (t < 48, k < 12), so only the
/// vector that holds lane t blends.
inline constexpr std::array<double, 95> kDiagonalWindow = [] {
  std::array<double, 95> window{};
  window[47] = -0.0;
  return window;
}();

// The mode-specific implementations (scalar always present; avx2 present
// when TDP_HAVE_AVX2, avx512 when TDP_HAVE_AVX512). Exposed for the
// bitwise cross-checks in tests and the kernel suite.
void fork_uniform_screen_batch_scalar(const std::uint64_t* state,
                                      std::size_t count, std::uint64_t stream,
                                      const std::uint32_t* cls,
                                      const double* activity,
                                      const double* class_rate,
                                      const double* screen, double* u1,
                                      std::uint64_t* state_out,
                                      std::uint64_t* active_mask);
void survivor_uniform_batch_scalar(const std::uint32_t* index,
                                   std::size_t count,
                                   const std::uint64_t* state, double* u2,
                                   double* u3, double* u4);
void sensitivity_sweep_scalar(double* db, double* grad, const double* rows,
                              const double* diag, const double* sigma,
                              const double* fprime, std::size_t n);
void off_diagonal_sums_scalar(const double* m, std::size_t n, double* out);
#if defined(TDP_HAVE_AVX2)
void fork_uniform_screen_batch_avx2(const std::uint64_t* state,
                                    std::size_t count, std::uint64_t stream,
                                    const std::uint32_t* cls,
                                    const double* activity,
                                    const double* class_rate,
                                    const double* screen, double* u1,
                                    std::uint64_t* state_out,
                                    std::uint64_t* active_mask);
void sensitivity_sweep_avx2(double* db, double* grad, const double* rows,
                            const double* diag, const double* sigma,
                            const double* fprime, std::size_t n);
void off_diagonal_sums_avx2(const double* m, std::size_t n, double* out);
#endif
#if defined(TDP_HAVE_AVX512)
void fork_uniform_screen_batch_avx512(const std::uint64_t* state,
                                      std::size_t count, std::uint64_t stream,
                                      const std::uint32_t* cls,
                                      const double* activity,
                                      const double* class_rate,
                                      const double* screen, double* u1,
                                      std::uint64_t* state_out,
                                      std::uint64_t* active_mask);
void survivor_uniform_batch_avx512(const std::uint32_t* index,
                                   std::size_t count,
                                   const std::uint64_t* state, double* u2,
                                   double* u3, double* u4);
#endif
}  // namespace detail

}  // namespace tdp::simd
