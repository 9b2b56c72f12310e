#include "common/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace tdp::simd {

namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// AVX-512 F, DQ and VL: what the session-draw bodies need, and what
/// host_isa() reports as "avx512".
bool cpu_has_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

bool mode_supported(Mode m) {
  switch (m) {
    case Mode::kScalar: return true;
    case Mode::kAvx2: return avx2_supported();
    case Mode::kAvx512: return avx512_supported();
  }
  return false;
}

Mode detect_mode() {
  const char* env = std::getenv("TDP_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    if (avx512_supported()) return Mode::kAvx512;
    return avx2_supported() ? Mode::kAvx2 : Mode::kScalar;
  }
  if (std::strcmp(env, "scalar") == 0) return Mode::kScalar;
  if (std::strcmp(env, "avx2") == 0) {
    TDP_REQUIRE(avx2_supported(), "TDP_SIMD=avx2 but host/build lacks AVX2");
    return Mode::kAvx2;
  }
  TDP_REQUIRE(false, "TDP_SIMD must be one of: auto, scalar, avx2");
  return Mode::kScalar;
}

// A Mode stored +1 so 0 means "not yet resolved".
std::atomic<int> g_mode{0};

}  // namespace

bool avx2_supported() {
#if defined(TDP_HAVE_AVX2)
  static const bool supported = cpu_has_avx2();
  return supported;
#else
  return false;
#endif
}

bool avx512_supported() {
#if defined(TDP_HAVE_AVX512)
  static const bool supported = avx2_supported() && cpu_has_avx512();
  return supported;
#else
  return false;
#endif
}

Mode mode() {
  int m = g_mode.load(std::memory_order_acquire);
  if (m == 0) {
    m = static_cast<int>(detect_mode()) + 1;
    int expected = 0;
    if (!g_mode.compare_exchange_strong(expected, m,
                                        std::memory_order_acq_rel)) {
      m = expected;
    }
  }
  return static_cast<Mode>(m - 1);
}

void set_mode(Mode m) {
  TDP_REQUIRE(mode_supported(m),
              "cannot force a SIMD mode this host/build does not support");
  g_mode.store(static_cast<int>(m) + 1, std::memory_order_release);
}

const char* mode_name() {
  switch (mode()) {
    case Mode::kScalar: break;
    case Mode::kAvx2: return "avx2";
    case Mode::kAvx512: return "avx512";
  }
  return "scalar";
}

const char* host_isa() {
  if (cpu_has_avx512()) return "avx512";
  if (cpu_has_avx2()) return "avx2";
  return "sse2";
}

namespace detail {

void fork_uniform_screen_batch_scalar(const std::uint64_t* state,
                                      std::size_t count, std::uint64_t stream,
                                      const std::uint32_t* cls,
                                      const double* activity,
                                      const double* class_rate,
                                      const double* screen, double* u1,
                                      std::uint64_t* state_out,
                                      std::uint64_t* active_mask) {
  for (std::size_t w = 0; w < (count + 63) / 64; ++w) active_mask[w] = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Rng child = Rng(state[i]).fork_stream(stream);
    u1[i] = child.uniform();
    state_out[i] = child.state();
    // All three tests every user, without branches: the class screen
    // alone would mispredict on each of its survivors.
    const double rate = activity[i] * class_rate[cls[i]];
    const bool active = (rate > 0.0) & (u1[i] > screen[cls[i]]) &
                        (u1[i] > (1.0 - rate) * 0.999999999);
    active_mask[i / 64] |= std::uint64_t{active} << (i % 64);
  }
}

void survivor_uniform_batch_scalar(const std::uint32_t* index,
                                   std::size_t count,
                                   const std::uint64_t* state, double* u2,
                                   double* u3, double* u4) {
  for (std::size_t k = 0; k < count; ++k) {
    Rng rng(state[index[k]]);
    u2[k] = rng.uniform();
    u3[k] = rng.uniform();
    u4[k] = rng.uniform();
  }
}

void sensitivity_sweep_scalar(double* db, double* grad, const double* rows,
                              const double* diag, const double* sigma,
                              const double* fprime, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = rows + i * n;
    const double scale = sigma[i];
    for (std::size_t m = 0; m < i; ++m) db[m] = scale * (db[m] + -row[m]);
    db[i] = scale * (db[i] + diag[i]);
    for (std::size_t m = i + 1; m < n; ++m) {
      db[m] = scale * (db[m] + -row[m]);
    }
    if (grad == nullptr) continue;
    for (std::size_t m = 0; m < n; ++m) grad[m] = grad[m] + fprime[i] * db[m];
  }
}

void off_diagonal_sums_scalar(const double* m, std::size_t n, double* out) {
  // Line by line into every sum: each still adds its cells in ascending
  // line order from 0.0 and skips its diagonal cell.
  std::fill(out, out + n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const double* line = m + c * n;
    for (std::size_t r = 0; r < c; ++r) out[r] += line[r];
    for (std::size_t r = c + 1; r < n; ++r) out[r] += line[r];
  }
}

}  // namespace detail

void fork_uniform_screen_batch(const std::uint64_t* state, std::size_t count,
                               std::uint64_t stream,
                               const std::uint32_t* cls,
                               const double* activity,
                               const double* class_rate, const double* screen,
                               double* u1, std::uint64_t* state_out,
                               std::uint64_t* active_mask) {
#if defined(TDP_HAVE_AVX512)
  if (mode() == Mode::kAvx512) {
    detail::fork_uniform_screen_batch_avx512(state, count, stream, cls,
                                             activity, class_rate, screen, u1,
                                             state_out, active_mask);
    return;
  }
#endif
#if defined(TDP_HAVE_AVX2)
  if (mode() != Mode::kScalar) {
    detail::fork_uniform_screen_batch_avx2(state, count, stream, cls,
                                           activity, class_rate, screen, u1,
                                           state_out, active_mask);
    return;
  }
#endif
  detail::fork_uniform_screen_batch_scalar(state, count, stream, cls,
                                           activity, class_rate, screen, u1,
                                           state_out, active_mask);
}

void survivor_uniform_batch(const std::uint32_t* index, std::size_t count,
                            const std::uint64_t* state, double* u2,
                            double* u3, double* u4) {
#if defined(TDP_HAVE_AVX512)
  if (mode() == Mode::kAvx512) {
    detail::survivor_uniform_batch_avx512(index, count, state, u2, u3, u4);
    return;
  }
#endif
  detail::survivor_uniform_batch_scalar(index, count, state, u2, u3, u4);
}

void sensitivity_sweep(double* db, double* grad, const double* rows,
                       const double* diag, const double* sigma,
                       const double* fprime, std::size_t n) {
#if defined(TDP_HAVE_AVX2)
  if (mode() != Mode::kScalar) {
    detail::sensitivity_sweep_avx2(db, grad, rows, diag, sigma, fprime, n);
    return;
  }
#endif
  detail::sensitivity_sweep_scalar(db, grad, rows, diag, sigma, fprime, n);
}

void off_diagonal_sums(const double* m, std::size_t n, double* out) {
#if defined(TDP_HAVE_AVX2)
  if (mode() != Mode::kScalar) {
    detail::off_diagonal_sums_avx2(m, n, out);
    return;
  }
#endif
  detail::off_diagonal_sums_scalar(m, n, out);
}

}  // namespace tdp::simd
