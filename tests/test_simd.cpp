// Scalar-vs-SIMD bitwise property tests of the kernels (common/simd,
// core/kernel_plan, the deferral table's lag search). Whole fleet days and
// horizon runs under forced scalar dispatch are the invariance battery's
// simd cells (test_invariance.cpp).
//
// The vector kernels' contract is *bitwise* identity with the scalar path
// — every comparison here is EXPECT_EQ on raw doubles / bytes, never a
// tolerance. Tests that need the AVX2 or AVX-512 path skip cleanly on
// hosts whose CPU (or build) lacks it, naming the missing feature; the
// scalar assertions always run.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/deferral_kernel.hpp"
#include "core/kernel_plan.hpp"
#include "core/paper_data.hpp"
#include "fleet/population.hpp"
#include "fleet/shard.hpp"
#include "scenarios.hpp"

namespace tdp {
namespace {

using scenarios::ModeGuard;

/// Why the AVX-512 screen body cannot run here, naming the missing
/// feature; empty when it can.
std::string avx512_missing() {
#if !defined(TDP_HAVE_AVX512)
  return "no AVX-512 body in this build (the compiler lacks -mavx512f "
         "-mavx512dq -mavx512vl)";
#else
  if (!simd::avx2_supported()) return "no AVX2 on this host";
  if (__builtin_cpu_supports("avx512f") == 0) return "the CPU lacks AVX-512F";
  if (__builtin_cpu_supports("avx512dq") == 0) {
    return "the CPU lacks AVX-512DQ";
  }
  if (__builtin_cpu_supports("avx512vl") == 0) {
    return "the CPU lacks AVX-512VL";
  }
  return "";
#endif
}

TEST(SimdDispatch, ReportsAValidModeAndHostIsa) {
  const std::string mode = simd::mode_name();
  EXPECT_TRUE(mode == "scalar" || mode == "avx2" || mode == "avx512") << mode;
  const std::string isa = simd::host_isa();
  EXPECT_TRUE(isa == "sse2" || isa == "avx2" || isa == "avx512") << isa;
  // Dispatch and provenance read one CPUID predicate.
  EXPECT_EQ(simd::avx512_supported(), avx512_missing().empty());
  if (simd::avx512_supported()) {
    EXPECT_EQ(isa, "avx512");
  }
  if (!simd::avx2_supported()) {
    EXPECT_EQ(simd::mode(), simd::Mode::kScalar);
    EXPECT_THROW(simd::set_mode(simd::Mode::kAvx2), std::exception);
  }
  if (!simd::avx512_supported()) {
    EXPECT_NE(simd::mode(), simd::Mode::kAvx512);
    EXPECT_THROW(simd::set_mode(simd::Mode::kAvx512), std::exception);
  }
  // Unforced, the best supported mode runs.
  const char* env = std::getenv("TDP_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    EXPECT_EQ(simd::mode(), simd::avx512_supported() ? simd::Mode::kAvx512
                            : simd::avx2_supported() ? simd::Mode::kAvx2
                                                     : simd::Mode::kScalar);
  }
  const std::pair<simd::Mode, std::string> names[] = {
      {simd::Mode::kScalar, "scalar"},
      {simd::Mode::kAvx2, "avx2"},
      {simd::Mode::kAvx512, "avx512"}};
  for (const auto& [forced, name] : names) {
    if (forced == simd::Mode::kAvx2 && !simd::avx2_supported()) continue;
    if (forced == simd::Mode::kAvx512 && !simd::avx512_supported()) continue;
    ModeGuard guard(forced);
    EXPECT_EQ(simd::mode_name(), name);
  }
}

// ---- Session-draw kernels ------------------------------------------------

using ScreenFn = void (*)(const std::uint64_t*, std::size_t, std::uint64_t,
                          const std::uint32_t*, const double*, const double*,
                          const double*, double*, std::uint64_t*,
                          std::uint64_t*);
using SurvivorFn = void (*)(const std::uint32_t*, std::size_t,
                            const std::uint64_t*, double*, double*, double*);

/// Users per case: every count from 0 through two 256-user batches and a
/// 7-lane tail is run.
constexpr std::size_t kLanes = 2 * 256 + 7;
constexpr std::size_t kTie = 100;      ///< u1 exactly on its class screen
constexpr std::size_t kOnBound = 200;  ///< u1 exactly on its per-user bound
constexpr std::size_t kIdle = 300;     ///< activity 0
constexpr double kHaircut = 0.999999999;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One stream's kernel inputs over kLanes users. Lanes 0..31 hold classes
/// 0..31; class 0 screens nobody (-1), class 1 everybody (+inf); class 2
/// has rate 0; classes 3 and 4 have rate exactly 30 and the double below
/// it (activity 1 on their lanes); lane kTie's u1 is its class's screen
/// and lane kOnBound's u1 its own per-user bound, so neither may be set.
/// The other classes draw rates in [0, 2) and Population's screens.
struct DrawCase {
  std::uint64_t stream = 0;
  std::vector<std::uint64_t> state;
  std::vector<std::uint32_t> cls;
  std::vector<double> activity;
  std::array<double, simd::kMaxClasses> class_rate{};
  std::array<double, simd::kMaxClasses> screen{};
};

double first_uniform(std::uint64_t state, std::uint64_t stream) {
  return Rng(state).fork_stream(stream).uniform();
}

DrawCase draw_case(std::uint64_t stream) {
  DrawCase c;
  c.stream = stream;
  c.state.resize(kLanes);
  c.cls.resize(kLanes);
  c.activity.resize(kLanes);
  Rng seeder(2011);
  for (std::size_t i = 0; i < kLanes; ++i) {
    c.state[i] = seeder.next();
    c.cls[i] = static_cast<std::uint32_t>(i < 32 ? i : seeder.next() % 32);
    c.activity[i] = seeder.uniform(0.5, 1.5);
  }
  // Parents at both ends of the state range, on lane, vector and mask-word
  // edges.
  for (const std::size_t i : {0, 7, 8, 63, 64, 255, 256, 511, 518}) {
    c.state[i] = 0;
  }
  for (const std::size_t i : {1, 9, 65, 257, 512, 517}) c.state[i] = ~0ull;
  for (std::size_t k = 0; k < simd::kMaxClasses; ++k) {
    c.class_rate[k] = seeder.uniform(0.0, 2.0);
    c.screen[k] = std::exp(-1.6 * c.class_rate[k]);
  }
  c.screen[0] = -1.0;
  c.screen[1] = kInf;
  c.class_rate[2] = 0.0;
  c.screen[2] = -1.0;
  c.class_rate[3] = 30.0;
  c.class_rate[4] = std::nextafter(30.0, 0.0);
  c.screen[3] = c.screen[4] = -1.0;
  for (std::size_t i = 0; i < kLanes; ++i) {
    if (c.cls[i] == 3 || c.cls[i] == 4) c.activity[i] = 1.0;
  }
  c.activity[kIdle] = 0.0;

  c.cls[kTie] = 5;
  c.class_rate[5] = 2.0;  // a negative per-user bound
  c.screen[5] = first_uniform(c.state[kTie], stream);

  // Rate = activity at class rate 1. A u1 in [0.5, 0.99) has an activity
  // whose bound (1 - activity) * haircut is exactly u1.
  c.cls[kOnBound] = 6;
  c.class_rate[6] = 1.0;
  c.screen[6] = -1.0;
  Rng picker(7);
  double u = -1.0;
  while (!(u >= 0.5 && u < 0.99)) {
    c.state[kOnBound] = picker.next();
    u = first_uniform(c.state[kOnBound], stream);
  }
  double a = 1.0 - u / kHaircut;
  for (int step = 0; step < 256; ++step) a = std::nextafter(a, 0.0);
  for (int step = 0; step < 512 && (1.0 - a) * kHaircut != u; ++step) {
    a = std::nextafter(a, 1.0);
  }
  EXPECT_EQ((1.0 - a) * kHaircut, u) << "no activity puts u1 on its bound";
  c.activity[kOnBound] = a;
  return c;
}

/// The screen's contract for lane i with first uniform u.
bool screened_in(const DrawCase& c, std::size_t i, double u) {
  const double rate = c.activity[i] * c.class_rate[c.cls[i]];
  return rate > 0.0 && u > c.screen[c.cls[i]] &&
         u > (1.0 - rate) * kHaircut;
}

/// One screen call's outputs, written over sentinels, so a store past
/// `count` (or to a mask word past its last) shows.
struct ScreenOut {
  std::vector<double> u1;
  std::vector<std::uint64_t> state;
  std::vector<std::uint64_t> mask;
};

/// Runs `fn` on the first `count` users, from inputs exactly that long.
ScreenOut run_screen(ScreenFn fn, const DrawCase& c, std::size_t count) {
  const std::vector<std::uint64_t> parents(c.state.begin(),
                                           c.state.begin() + count);
  const std::vector<std::uint32_t> classes(c.cls.begin(),
                                           c.cls.begin() + count);
  const std::vector<double> activity(c.activity.begin(),
                                     c.activity.begin() + count);
  ScreenOut out{std::vector<double>(kLanes, -2.0),
                std::vector<std::uint64_t>(kLanes, 0x5E5E5E5Eull),
                std::vector<std::uint64_t>(kLanes / 64 + 2, ~0ull)};
  fn(parents.data(), count, c.stream, classes.data(), activity.data(),
     c.class_rate.data(), c.screen.data(), out.u1.data(), out.state.data(),
     out.mask.data());
  return out;
}

bool bit(const std::vector<std::uint64_t>& mask, std::size_t i) {
  return ((mask[i / 64] >> (i % 64)) & 1u) != 0;
}

/// One survivor call's outputs over sentinels.
struct SurvivorOut {
  std::vector<double> u2, u3, u4;
};

/// Runs `fn` on the first `count` entries of `index` into the states
/// `resume`, both exactly kLanes long.
SurvivorOut run_survivors(SurvivorFn fn,
                          const std::vector<std::uint64_t>& resume,
                          const std::vector<std::uint32_t>& index,
                          std::size_t count) {
  const std::vector<std::uint32_t> picked(index.begin(),
                                          index.begin() + count);
  SurvivorOut out{std::vector<double>(kLanes, -3.0),
                  std::vector<double>(kLanes, -4.0),
                  std::vector<double>(kLanes, -5.0)};
  fn(picked.data(), count, resume.data(), out.u2.data(), out.u3.data(),
     out.u4.data());
  return out;
}

std::uint64_t raw(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Same bits in every output, sentinels included; names the first lane
/// that differs.
void expect_same_screen(const ScreenOut& a, const ScreenOut& b,
                        const std::string& context) {
  for (std::size_t i = 0; i < a.u1.size(); ++i) {
    if (raw(a.u1[i]) != raw(b.u1[i]) || a.state[i] != b.state[i]) {
      ADD_FAILURE() << context << ": lane " << i << " u1 " << a.u1[i]
                    << " vs " << b.u1[i] << ", state " << a.state[i]
                    << " vs " << b.state[i];
      return;
    }
  }
  for (std::size_t w = 0; w < a.mask.size(); ++w) {
    EXPECT_EQ(a.mask[w], b.mask[w]) << context << ": mask word " << w;
  }
}

void expect_same_survivors(const SurvivorOut& a, const SurvivorOut& b,
                           const std::string& context) {
  for (std::size_t k = 0; k < a.u2.size(); ++k) {
    if (raw(a.u2[k]) != raw(b.u2[k]) || raw(a.u3[k]) != raw(b.u3[k]) ||
        raw(a.u4[k]) != raw(b.u4[k])) {
      ADD_FAILURE() << context << ": survivor " << k << " u2 " << a.u2[k]
                    << " vs " << b.u2[k] << ", u3 " << a.u3[k] << " vs "
                    << b.u3[k] << ", u4 " << a.u4[k] << " vs " << b.u4[k];
      return;
    }
  }
}

/// Every lane once, out of order: k * 7919 mod kLanes (7919 is prime and
/// divides no factor of 519 = 3 * 173).
std::vector<std::uint32_t> scattered_index() {
  std::vector<std::uint32_t> index(kLanes);
  for (std::size_t k = 0; k < kLanes; ++k) {
    index[k] = static_cast<std::uint32_t>(k * 7919 % kLanes);
  }
  return index;
}

constexpr std::uint64_t kStreams[] = {0, 1, 1ull << 40};

TEST(RngBatch, ScalarKernelMatchesTheRngReference) {
  for (const std::uint64_t stream : kStreams) {
    const DrawCase c = draw_case(stream);
    const std::string context = "stream " + std::to_string(stream);
    const ScreenOut screen =
        run_screen(&simd::detail::fork_uniform_screen_batch_scalar, c, kLanes);
    std::vector<std::uint32_t> survivors;
    for (std::size_t i = 0; i < kLanes; ++i) {
      Rng child = Rng(c.state[i]).fork_stream(stream);
      const double u = child.uniform();
      EXPECT_EQ(raw(u), raw(screen.u1[i])) << context << ": u1 " << i;
      EXPECT_EQ(child.state(), screen.state[i]) << context << ": state " << i;
      EXPECT_EQ(bit(screen.mask, i), screened_in(c, i, u))
          << context << ": mask " << i;
      if (bit(screen.mask, i)) {
        survivors.push_back(static_cast<std::uint32_t>(i));
      }
    }
    // Trailing bits and the sentinel word past the last stay as they were.
    EXPECT_EQ(screen.mask[kLanes / 64] >> (kLanes % 64), 0ull) << context;
    EXPECT_EQ(screen.mask[kLanes / 64 + 1], ~0ull) << context;
    // The edge lanes: ties stay clear, rate 0 and the +inf screen clear
    // every lane, rates 30 and just below set every lane (their bound is
    // negative and their screen -1).
    EXPECT_FALSE(bit(screen.mask, kTie)) << context;
    EXPECT_FALSE(bit(screen.mask, kOnBound)) << context;
    EXPECT_FALSE(bit(screen.mask, kIdle)) << context;
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (c.cls[i] == 1 || c.cls[i] == 2) {
        EXPECT_FALSE(bit(screen.mask, i)) << context << ": lane " << i;
      }
      if (c.cls[i] == 3 || c.cls[i] == 4) {
        EXPECT_TRUE(bit(screen.mask, i)) << context << ": lane " << i;
      }
    }

    // The survivor uniforms resume each stream where the screen left it,
    // for the screen's survivors (as the shard calls it) and for every
    // lane out of order.
    const std::vector<std::uint32_t> scattered = scattered_index();
    for (const std::vector<std::uint32_t>* index :
         {static_cast<const std::vector<std::uint32_t>*>(&survivors),
          &scattered}) {
      const std::size_t count = index->size();
      const SurvivorOut out =
          run_survivors(&simd::detail::survivor_uniform_batch_scalar,
                        screen.state, *index, count);
      for (std::size_t k = 0; k < count; ++k) {
        Rng rng(screen.state[(*index)[k]]);
        EXPECT_EQ(raw(out.u2[k]), raw(rng.uniform())) << context << ": " << k;
        EXPECT_EQ(raw(out.u3[k]), raw(rng.uniform())) << context << ": " << k;
        EXPECT_EQ(raw(out.u4[k]), raw(rng.uniform())) << context << ": " << k;
      }
      for (std::size_t k = count; k < kLanes; ++k) {
        EXPECT_EQ(out.u2[k], -3.0) << context << ": past the end " << k;
        EXPECT_EQ(out.u4[k], -5.0) << context << ": past the end " << k;
      }
    }
    EXPECT_GT(survivors.size(), 100u) << context;
  }
}

/// `screen_fn` against the screen's scalar twin and, unless null,
/// `survivor_fn` against the survivors' on every count from 0 to kLanes,
/// on each stream.
void expect_bodies_match_scalar(ScreenFn screen_fn, SurvivorFn survivor_fn,
                                const std::string& name) {
  const std::vector<std::uint32_t> scattered = scattered_index();
  for (const std::uint64_t stream : kStreams) {
    const DrawCase c = draw_case(stream);
    const std::vector<std::uint64_t> resume =
        run_screen(&simd::detail::fork_uniform_screen_batch_scalar, c, kLanes)
            .state;
    for (std::size_t count = 0; count <= kLanes; ++count) {
      const std::string context = name + ", stream " + std::to_string(stream) +
                                  ", count " + std::to_string(count);
      expect_same_screen(
          run_screen(&simd::detail::fork_uniform_screen_batch_scalar, c,
                     count),
          run_screen(screen_fn, c, count), context + ", screen");
      if (survivor_fn == nullptr) continue;
      expect_same_survivors(
          run_survivors(&simd::detail::survivor_uniform_batch_scalar, resume,
                        scattered, count),
          run_survivors(survivor_fn, resume, scattered, count),
          context + ", survivors");
    }
  }
}

/// The public entry points in `mode` against the bodies that mode runs.
void expect_dispatch_runs(simd::Mode mode, ScreenFn screen_fn,
                          SurvivorFn survivor_fn) {
  const std::vector<std::uint32_t> scattered = scattered_index();
  ModeGuard guard(mode);
  for (const std::uint64_t stream : kStreams) {
    const DrawCase c = draw_case(stream);
    const ScreenOut screen = run_screen(&simd::fork_uniform_screen_batch, c,
                                        kLanes);
    const std::string context = std::string("dispatched ") +
                                simd::mode_name() + ", stream " +
                                std::to_string(stream);
    expect_same_screen(run_screen(screen_fn, c, kLanes), screen, context);
    expect_same_survivors(
        run_survivors(survivor_fn, screen.state, scattered, kLanes),
        run_survivors(&simd::survivor_uniform_batch, screen.state, scattered,
                      kLanes),
        context);
  }
}

TEST(RngBatch, Avx2KernelsAreBitIdenticalToScalar) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
#if defined(TDP_HAVE_AVX2)
  // The survivor uniforms have no AVX2 body: kAvx2 runs the scalar twin.
  expect_bodies_match_scalar(&simd::detail::fork_uniform_screen_batch_avx2,
                             nullptr, "avx2");
  expect_dispatch_runs(simd::Mode::kAvx2,
                       &simd::detail::fork_uniform_screen_batch_avx2,
                       &simd::detail::survivor_uniform_batch_scalar);
#endif
}

TEST(RngBatch, Avx512KernelIsBitIdenticalToScalarAndAvx2) {
  const std::string missing = avx512_missing();
  if (!missing.empty()) GTEST_SKIP() << missing;
#if defined(TDP_HAVE_AVX512)
  expect_bodies_match_scalar(&simd::detail::fork_uniform_screen_batch_avx512,
                             &simd::detail::survivor_uniform_batch_avx512,
                             "avx512");
  expect_dispatch_runs(simd::Mode::kAvx512,
                       &simd::detail::fork_uniform_screen_batch_avx512,
                       &simd::detail::survivor_uniform_batch_avx512);
#endif
}

// ---- Backlog-sensitivity sweep ----------------------------------------------

/// Same bits, or both NaN: IEEE 754 leaves a NaN result's sign and payload
/// to the implementation, and a compiler may turn the scalar twin's
/// `a + -b` into `a - b`, whose NaN keeps b's sign.
bool same_double(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One sweep's inputs and in/out lanes. `kind` 0 draws ordinary entries,
/// 1 seeds signed zeros into every input, 2 also seeds infinities and NaNs
/// into a few lanes (each non-finite entry poisons only the lanes that
/// read it, so the other lanes stay comparable).
struct SweepCase {
  std::size_t n = 0;
  std::vector<double> db, grad, rows, diag, sigma, fprime;
};

SweepCase sweep_case(std::size_t n, int kind, Rng& rng) {
  SweepCase c;
  c.n = n;
  c.db.resize(n);
  c.grad.resize(n);
  c.rows.resize(n * n);
  c.diag.resize(n);
  c.sigma.resize(n);
  c.fprime.resize(n);
  const auto draw = [&](double lo, double hi) {
    const double u = rng.uniform();
    if (kind >= 1 && u < 0.1) return -0.0;
    if (kind >= 1 && u < 0.2) return 0.0;
    return rng.uniform(lo, hi);
  };
  for (std::size_t i = 0; i < n; ++i) {
    c.db[i] = draw(-1.0, 1.0);
    c.grad[i] = draw(-1.0, 1.0);
    c.diag[i] = draw(0.0, 2.0);
    c.fprime[i] = draw(0.0, 30.0);
    // sigma is the smoothed hinge's slope: 0 below the kink, 1 above it,
    // fractional inside the smoothing band.
    const double u = rng.uniform();
    c.sigma[i] = u < 0.3 ? 0.0 : u < 0.6 ? 1.0 : rng.uniform(0.0, 1.0);
    if (kind >= 1 && u < 0.05) c.sigma[i] = -0.0;
  }
  for (double& r : c.rows) r = draw(0.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) c.rows[i * n + i] = 0.0;
  if (kind == 2) {
    const double inf = std::numeric_limits<double>::infinity();
    c.rows[(n / 2) * n + (n - 1)] = inf;
    c.rows[(n - 1) * n] = -inf;
    c.rows[n / 3] = std::numeric_limits<double>::quiet_NaN();
    c.diag[n / 2] = -inf;
    c.db[n - 1] = inf;
    c.fprime[n / 3] = inf;
  }
  return c;
}

/// The recursion written out lane by lane, as DynamicModel::
/// smoothed_gradient states it.
void sweep_written_out(SweepCase& c, bool with_grad) {
  const std::size_t n = c.n;
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t i = 0; i < n; ++i) {
      const double entry = m == i ? c.diag[i] : -c.rows[i * n + m];
      c.db[m] = c.sigma[i] * (c.db[m] + entry);
      if (with_grad) c.grad[m] += c.fprime[i] * c.db[m];
    }
  }
}

using SweepFn = void (*)(double*, double*, const double*, const double*,
                         const double*, const double*, std::size_t);

void run_sweep(SweepFn fn, SweepCase& c, bool with_grad) {
  fn(c.db.data(), with_grad ? c.grad.data() : nullptr, c.rows.data(),
     c.diag.data(), c.sigma.data(), c.fprime.data(), c.n);
}

void expect_same_lanes(const SweepCase& a, const SweepCase& b,
                       const std::string& context) {
  for (std::size_t m = 0; m < a.n; ++m) {
    EXPECT_TRUE(same_double(a.db[m], b.db[m]))
        << context << " db lane " << m << ": " << a.db[m] << " vs "
        << b.db[m];
    EXPECT_TRUE(same_double(a.grad[m], b.grad[m]))
        << context << " grad lane " << m << ": " << a.grad[m] << " vs "
        << b.grad[m];
  }
}

const std::vector<std::size_t>& sweep_sizes() {
  // Every block and tail shape of the vector body, and the model sizes.
  static const std::vector<std::size_t> sizes = {
      1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 47, 48, 49, 96};
  return sizes;
}

TEST(SimdSensitivitySweep, ScalarTwinMatchesTheWrittenOutRecursion) {
  Rng rng(2718);
  for (const std::size_t n : sweep_sizes()) {
    for (const int kind : {0, 1, 2}) {
      const SweepCase start = sweep_case(n, kind, rng);
      for (const bool with_grad : {false, true}) {
        SweepCase expected = start, scalar = start;
        sweep_written_out(expected, with_grad);
        run_sweep(&simd::detail::sensitivity_sweep_scalar, scalar, with_grad);
        expect_same_lanes(expected, scalar,
                          "n=" + std::to_string(n) + " kind=" +
                              std::to_string(kind) +
                              " grad=" + std::to_string(with_grad));
      }
    }
  }
}

TEST(SimdSensitivitySweep, Avx2BodyIsBitIdenticalToScalarTwin) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
#if defined(TDP_HAVE_AVX2)
  Rng rng(31416);
  for (const std::size_t n : sweep_sizes()) {
    for (const int kind : {0, 1, 2}) {
      const SweepCase start = sweep_case(n, kind, rng);
      for (const bool with_grad : {false, true}) {
        SweepCase scalar = start, vector = start;
        run_sweep(&simd::detail::sensitivity_sweep_scalar, scalar, with_grad);
        run_sweep(&simd::detail::sensitivity_sweep_avx2, vector, with_grad);
        expect_same_lanes(scalar, vector,
                          "n=" + std::to_string(n) + " kind=" +
                              std::to_string(kind) +
                              " grad=" + std::to_string(with_grad));
      }
    }
  }
#endif
}

// ---- Off-diagonal line sums -------------------------------------------------

/// An n x n matrix of ordinary cells with signed zeros, and with `poison`
/// an infinity and NaNs off the diagonal. Every diagonal cell is NaN: a sum
/// that added its diagonal cell would turn NaN.
std::vector<double> line_sum_case(std::size_t n, bool poison, Rng& rng) {
  std::vector<double> m(n * n);
  for (double& x : m) {
    const double u = rng.uniform();
    x = u < 0.1 ? -0.0 : u < 0.2 ? 0.0 : rng.uniform(-1.0, 2.0);
  }
  if (poison && n > 1) {
    m[(n - 1) * n] = std::numeric_limits<double>::infinity();
    m[n / 2] = std::numeric_limits<double>::quiet_NaN();
  }
  for (std::size_t i = 0; i < n; ++i) {
    m[i * n + i] = std::numeric_limits<double>::quiet_NaN();
  }
  return m;
}

TEST(SimdOffDiagonalSums, BothBodiesMatchTheWrittenOutSums) {
  Rng rng(1618);
  for (const std::size_t n : sweep_sizes()) {
    for (const bool poison : {false, true}) {
      const std::vector<double> m = line_sum_case(n, poison, rng);
      std::vector<double> expected(n);
      for (std::size_t r = 0; r < n; ++r) {
        double total = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
          if (c != r) total += m[c * n + r];
        }
        expected[r] = total;
      }
      const std::string context =
          "n=" + std::to_string(n) + " poison=" + std::to_string(poison);
      std::vector<double> scalar(n, 7.0);
      simd::detail::off_diagonal_sums_scalar(m.data(), n, scalar.data());
      for (std::size_t r = 0; r < n; ++r) {
        EXPECT_TRUE(same_double(expected[r], scalar[r]))
            << context << " scalar sum " << r;
      }
#if defined(TDP_HAVE_AVX2)
      if (simd::avx2_supported()) {
        std::vector<double> vector(n, 7.0);
        simd::detail::off_diagonal_sums_avx2(m.data(), n, vector.data());
        for (std::size_t r = 0; r < n; ++r) {
          EXPECT_TRUE(same_double(scalar[r], vector[r]))
              << context << " avx2 sum " << r;
        }
      }
#endif
    }
  }
}

// ---- KernelPlan vector outflow path ------------------------------------------

/// The same power-law class list every period. Nonlinear gammas keep the
/// plan off its linear fast path, so evaluate() walks the scalar column
/// fill; both kinds share the vector outflow reduction under test.
DemandProfile uniform_profile(std::size_t n, bool linear,
                              LagNormalization normalization,
                              double max_reward) {
  std::vector<WaitingFunctionPtr> wfs;
  for (std::size_t s = 0; s < 3; ++s) {
    const double beta = 0.6 + static_cast<double>(s) * 0.9;
    const double gamma = linear ? 1.0 : 0.6 + 0.15 * static_cast<double>(s);
    wfs.push_back(std::make_shared<PowerLawWaitingFunction>(
        beta, n, max_reward, gamma, normalization));
  }
  DemandProfile profile(n);
  Rng rng(91 + n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& wf : wfs) {
      profile.add_class(i, SessionClass{wf, 1.0 + rng.uniform(0.0, 4.0)});
    }
  }
  return profile;
}

math::Vector random_rewards(Rng& rng, std::size_t n, double cap) {
  math::Vector rewards(n);
  for (double& r : rewards) {
    const double u = rng.uniform();
    r = u < 0.15 ? 0.0 : rng.uniform(0.0, cap);  // exercise the p <= 0 gate
  }
  return rewards;
}

void expect_states_bitwise_equal(const FlowState& a, const FlowState& b,
                                 std::size_t n, const char* context) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.inflow[i], b.inflow[i]) << context << " inflow " << i;
    EXPECT_EQ(a.outflow[i], b.outflow[i]) << context << " outflow " << i;
    if (a.has_derivatives && b.has_derivatives) {
      EXPECT_EQ(a.inflow_derivative[i], b.inflow_derivative[i])
          << context << " dinflow " << i;
    }
    for (std::size_t j = 0; j < n; ++j) {
      // pair is column-major, pair_derivative row-major.
      EXPECT_EQ(a.pair[j * n + i], b.pair[j * n + i])
          << context << " pair " << i << "->" << j;
      if (a.has_derivatives && b.has_derivatives) {
        EXPECT_EQ(a.pair_derivative[i * n + j], b.pair_derivative[i * n + j])
            << context << " dpair " << i << "->" << j;
      }
    }
  }
}

/// The one nonlinear shape a bench builds: Table VIII's 12-period mix at
/// gamma = 0.7, whose class lists differ by period.
DemandProfile table8_nonlinear_profile(LagNormalization normalization) {
  return paper::make_profile(paper::table8_mix_12(),
                             paper::kStaticNormalizationReward, normalization,
                             /*gamma=*/0.7);
}

TEST(KernelPlanSimd, EvaluateIsBitIdenticalScalarVsAvx2) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  Rng rng(777);
  for (const LagConvention convention :
       {LagConvention::kPeriodStart, LagConvention::kUniformArrival}) {
    const LagNormalization norm = convention == LagConvention::kPeriodStart
                                      ? LagNormalization::kDiscrete
                                      : LagNormalization::kContinuous;
    std::vector<std::pair<std::string, DemandProfile>> profiles;
    for (const std::size_t n : {std::size_t{6}, std::size_t{12},
                                std::size_t{48}}) {
      profiles.emplace_back("n=" + std::to_string(n),
                            uniform_profile(n, /*linear=*/false, norm, 1.5));
    }
    profiles.emplace_back("table8", table8_nonlinear_profile(norm));
    for (const auto& [name, profile] : profiles) {
      const DeferralKernel kernel(profile, convention);
      const std::size_t n = kernel.periods();
      const auto plan = kernel.plan();
      ASSERT_NE(plan, nullptr);
      ASSERT_FALSE(plan->linear());

      for (const bool with_derivatives : {false, true}) {
        const math::Vector rewards = random_rewards(rng, n, 1.5);
        FlowState scalar_state, simd_state;
        {
          ModeGuard guard(simd::Mode::kScalar);
          plan->evaluate(rewards, with_derivatives, scalar_state);
        }
        {
          ModeGuard guard(simd::Mode::kAvx2);
          plan->evaluate(rewards, with_derivatives, simd_state);
        }
        const std::string context =
            name + " deriv=" + std::to_string(with_derivatives);
        expect_states_bitwise_equal(scalar_state, simd_state, n,
                                    context.c_str());

        // Absolute correctness, not just scalar-agreement: the vector
        // result must still match the reference kernel's per-pair path.
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(kernel.inflow(i, rewards[i]), simd_state.inflow[i])
              << context << " vs reference, period " << i;
          EXPECT_EQ(kernel.outflow(i, rewards), simd_state.outflow[i])
              << context << " vs reference outflow, period " << i;
        }
      }
    }
  }
}

TEST(KernelPlanSimd, LinearEvaluateIsBitIdenticalScalarVsAvx2) {
  // Linear plans scale their columns from the column-major unit table and
  // reduce outflows through the vector path.
  if (!simd::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  Rng rng(778);
  for (const std::size_t n : {std::size_t{6}, std::size_t{12},
                              std::size_t{48}}) {
    const DeferralKernel kernel(
        uniform_profile(n, /*linear=*/true, LagNormalization::kContinuous,
                        1.5),
        LagConvention::kUniformArrival);
    const auto plan = kernel.plan();
    ASSERT_NE(plan, nullptr);
    ASSERT_TRUE(plan->linear());
    for (const bool with_derivatives : {false, true}) {
      math::Vector rewards = random_rewards(rng, n, 1.5);
      rewards[n - 1] = -0.25;  // a negative reward takes the p <= 0 gate too
      FlowState scalar_state, simd_state;
      {
        ModeGuard guard(simd::Mode::kScalar);
        plan->evaluate(rewards, with_derivatives, scalar_state);
      }
      {
        ModeGuard guard(simd::Mode::kAvx2);
        plan->evaluate(rewards, with_derivatives, simd_state);
      }
      const std::string context = "linear n=" + std::to_string(n) +
                                  " deriv=" + std::to_string(with_derivatives);
      expect_states_bitwise_equal(scalar_state, simd_state, n,
                                  context.c_str());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(kernel.outflow(i, rewards), simd_state.outflow[i])
            << context << " vs reference outflow, period " << i;
      }
    }
  }
}

/// Bit pattern of every outflow (so a -0.0 would not pass for +0.0).
std::vector<std::uint64_t> outflow_bits(const FlowState& state) {
  std::vector<std::uint64_t> bits;
  for (const double v : state.outflow) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return bits;
}

TEST(KernelPlanSimd, LinearOutflowsMatchReferenceAcrossEvaluatesAndUpdates) {
  // Every row's outflow, after full evaluates and after chains of
  // coordinate updates, in both modes: against DeferralKernel::outflow and
  // against each other. Sizes cover whole vector blocks (12, 48) and rows
  // past the last whole vector (13, 49); rewards include 0, -0.0 and
  // negatives.
  Rng rng(4711);
  const bool avx2 = simd::avx2_supported();
  for (const std::size_t n : {std::size_t{12}, std::size_t{13},
                              std::size_t{48}, std::size_t{49}}) {
    const DeferralKernel kernel(
        uniform_profile(n, /*linear=*/true, LagNormalization::kContinuous,
                        1.5),
        LagConvention::kUniformArrival);
    const auto plan = kernel.plan();
    ASSERT_TRUE(plan->linear());
    const auto draw = [&] {
      const double u = rng.uniform();
      if (u < 0.1) return 0.0;
      if (u < 0.2) return -0.0;
      if (u < 0.3) return -rng.uniform(0.0, 1.0);
      return rng.uniform(0.0, 1.5);
    };
    math::Vector rewards(n);
    for (double& r : rewards) r = draw();
    rewards[0] = -0.0;

    const auto reference = [&] {
      std::vector<std::uint64_t> bits;
      for (std::size_t i = 0; i < n; ++i) {
        bits.push_back(
            std::bit_cast<std::uint64_t>(kernel.outflow(i, rewards)));
      }
      return bits;
    };
    FlowState scalar_chain, vector_chain;
    {
      ModeGuard guard(simd::Mode::kScalar);
      plan->evaluate(rewards, /*with_derivatives=*/false, scalar_chain);
    }
    if (avx2) {
      ModeGuard guard(simd::Mode::kAvx2);
      plan->evaluate(rewards, /*with_derivatives=*/false, vector_chain);
    }
    for (int step = 0; step <= 80; ++step) {
      const std::string context =
          "n=" + std::to_string(n) + " step " + std::to_string(step);
      if (step > 0) {
        const std::size_t m = static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(n)) % n;
        rewards[m] = draw();
        {
          ModeGuard guard(simd::Mode::kScalar);
          plan->update_coordinate(m, rewards[m], false, scalar_chain);
        }
        if (avx2) {
          ModeGuard guard(simd::Mode::kAvx2);
          plan->update_coordinate(m, rewards[m], false, vector_chain);
        }
      }
      const std::vector<std::uint64_t> expected = reference();
      EXPECT_EQ(expected, outflow_bits(scalar_chain))
          << context << " scalar chain";
      FlowState scalar_full;
      {
        ModeGuard guard(simd::Mode::kScalar);
        plan->evaluate(rewards, /*with_derivatives=*/false, scalar_full);
      }
      EXPECT_EQ(expected, outflow_bits(scalar_full))
          << context << " scalar full";
      if (!avx2) continue;
      FlowState vector_full;
      {
        ModeGuard guard(simd::Mode::kAvx2);
        plan->evaluate(rewards, /*with_derivatives=*/false, vector_full);
      }
      EXPECT_EQ(expected, outflow_bits(vector_chain))
          << context << " avx2 chain";
      EXPECT_EQ(expected, outflow_bits(vector_full))
          << context << " avx2 full";
      expect_states_bitwise_equal(scalar_chain, vector_chain, n,
                                  context.c_str());
    }
  }
}

TEST(KernelPlanSimd, CoordinateUpdatesAreBitIdenticalScalarVsAvx2) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  Rng rng(31337);
  const DeferralKernel kernels[] = {
      DeferralKernel(uniform_profile(48, /*linear=*/false,
                                     LagNormalization::kContinuous, 1.5),
                     LagConvention::kUniformArrival),
      DeferralKernel(table8_nonlinear_profile(LagNormalization::kContinuous),
                     LagConvention::kUniformArrival),
  };
  for (const DeferralKernel& kernel : kernels) {
    const std::size_t n = kernel.periods();
    const auto plan = kernel.plan();
    ASSERT_FALSE(plan->linear());

    math::Vector rewards = random_rewards(rng, n, 1.5);
    FlowState scalar_state, simd_state;
    {
      ModeGuard guard(simd::Mode::kScalar);
      plan->evaluate(rewards, /*with_derivatives=*/true, scalar_state);
    }
    {
      ModeGuard guard(simd::Mode::kAvx2);
      plan->evaluate(rewards, /*with_derivatives=*/true, simd_state);
    }
    for (int step = 0; step < 60; ++step) {
      const std::size_t m = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(n)) % n;
      const double u = rng.uniform();
      rewards[m] = u < 0.2 ? 0.0 : rng.uniform(0.0, 1.5);
      {
        ModeGuard guard(simd::Mode::kScalar);
        plan->update_coordinate(m, rewards[m], /*with_derivatives=*/true,
                                scalar_state);
      }
      {
        ModeGuard guard(simd::Mode::kAvx2);
        plan->update_coordinate(m, rewards[m], /*with_derivatives=*/true,
                                simd_state);
      }
      expect_states_bitwise_equal(scalar_state, simd_state, n, "update");
    }
  }
}

// ---- Branchless deferral-lag search ---------------------------------------

TEST(DeferralTableSearch, BranchlessFindLagMatchesTheLinearScan) {
  fleet::PopulationConfig pop_config;
  pop_config.users = 200;
  pop_config.periods = 48;
  pop_config.seed = 20110611;
  const fleet::Population pop(pop_config);

  // A non-trivial published schedule so every class has deferral mass.
  math::Vector schedule(48);
  Rng sched_rng(7);
  for (double& r : schedule) r = sched_rng.uniform(0.05, 0.9);
  std::vector<const math::Vector*> schedules(pop.patience_classes(),
                                             &schedule);
  const fleet::DeferralTable table(pop, schedules, /*period=*/5);
  const std::size_t n = table.periods();

  Rng rng(987654321);
  for (std::uint32_t c = 0;
       c < static_cast<std::uint32_t>(pop.patience_classes()); ++c) {
    const double total = table.cumulative(c, n - 1);
    if (total <= 0.0) continue;  // nobody defers: find_lag is unreachable
    for (int trial = 0; trial < 10000; ++trial) {
      // uniform() < 1, so draw < total — the caller's stay-threshold
      // precondition.
      const double draw = rng.uniform() * total;
      std::size_t lag = 1;
      while (draw >= table.cumulative(c, lag)) ++lag;
      ASSERT_EQ(lag, table.find_lag(c, draw))
          << "class " << c << " draw " << draw;
    }
  }
}

}  // namespace
}  // namespace tdp
