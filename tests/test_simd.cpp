// Scalar-vs-SIMD bitwise property tests of the kernels (common/simd,
// core/kernel_plan, the deferral table's lag search). Whole fleet days and
// horizon runs under forced scalar dispatch are the invariance battery's
// simd cells (test_invariance.cpp).
//
// The vector kernels' contract is *bitwise* identity with the scalar path
// — every comparison here is EXPECT_EQ on raw doubles / bytes, never a
// tolerance. Tests that need the AVX2 path skip cleanly on hosts whose
// CPU (or build) lacks it; the scalar assertions always run.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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

TEST(SimdDispatch, ReportsAValidModeAndHostIsa) {
  const std::string mode = simd::mode_name();
  EXPECT_TRUE(mode == "scalar" || mode == "avx2") << mode;
  const std::string isa = simd::host_isa();
  EXPECT_TRUE(isa == "sse2" || isa == "avx2" || isa == "avx512") << isa;
  if (!simd::avx2_supported()) {
    EXPECT_EQ(simd::mode(), simd::Mode::kScalar);
    EXPECT_THROW(simd::set_mode(simd::Mode::kAvx2), std::exception);
  }
}

// ---- Batched RNG kernels --------------------------------------------------

// Screens spanning the interesting cases: never-active (+inf),
// always-active (-1; a uniform in [0,1) is never <= -1), and two ordinary
// thresholds.
const double kScreens[4] = {std::numeric_limits<double>::infinity(), -1.0,
                            0.25, 0.9};

TEST(RngBatch, ScalarKernelMatchesTheRngReference) {
  constexpr std::size_t kCount = 1337;  // deliberately not a lane multiple
  constexpr std::uint64_t kStream = 7;
  constexpr std::size_t kWords = (kCount + 63) / 64;
  std::vector<std::uint64_t> state(kCount);
  std::vector<std::uint32_t> cls(kCount);
  Rng seeder(20110611);
  for (std::size_t i = 0; i < kCount; ++i) {
    state[i] = seeder.next();
    cls[i] = static_cast<std::uint32_t>(seeder.next() % 4);
  }

  std::vector<double> u1(kCount);
  std::vector<std::uint64_t> out(kCount);
  std::vector<std::uint64_t> mask(kWords, ~0ull);  // the kernel clears it
  simd::detail::fork_uniform_screen_batch_scalar(
      state.data(), kCount, kStream, cls.data(), kScreens, u1.data(),
      out.data(), mask.data());
  for (std::size_t i = 0; i < kCount; ++i) {
    Rng child = Rng(state[i]).fork_stream(kStream);
    const double u = child.uniform();
    EXPECT_EQ(u, u1[i]) << "u1 " << i;
    EXPECT_EQ(child.state(), out[i]) << "resume state " << i;
    // Resuming from the stored state replays the child's tail sequence.
    Rng resumed(out[i]);
    EXPECT_EQ(child.next(), resumed.next()) << "tail " << i;
    const bool active = (mask[i / 64] >> (i % 64)) & 1u;
    EXPECT_EQ(active, u > kScreens[cls[i]]) << "mask " << i;
  }
  // Trailing bits past kCount stay clear.
  EXPECT_EQ(mask.back() >> (kCount % 64), 0ull);
}

TEST(RngBatch, Avx2KernelsAreBitIdenticalToScalar) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
#if defined(TDP_HAVE_AVX2)
  constexpr std::size_t kCount = 1027;
  constexpr std::uint64_t kStream = 3;
  constexpr std::size_t kWords = (kCount + 63) / 64;
  std::vector<std::uint64_t> state(kCount);
  std::vector<std::uint32_t> cls(kCount);
  Rng seeder(42);
  for (std::size_t i = 0; i < kCount; ++i) {
    state[i] = seeder.next();
    cls[i] = static_cast<std::uint32_t>(seeder.next() % 4);
  }

  std::vector<double> u_a(kCount), u_b(kCount);
  std::vector<std::uint64_t> s_a(kCount), s_b(kCount);
  std::vector<std::uint64_t> mask_a(kWords, ~0ull), mask_b(kWords, ~0ull);
  simd::detail::fork_uniform_screen_batch_scalar(
      state.data(), kCount, kStream, cls.data(), kScreens, u_a.data(),
      s_a.data(), mask_a.data());
  simd::detail::fork_uniform_screen_batch_avx2(
      state.data(), kCount, kStream, cls.data(), kScreens, u_b.data(),
      s_b.data(), mask_b.data());
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(u_a[i], u_b[i]) << "screened uniform " << i;
    EXPECT_EQ(s_a[i], s_b[i]) << "screened state " << i;
  }
  for (std::size_t w = 0; w < kWords; ++w) {
    EXPECT_EQ(mask_a[w], mask_b[w]) << "mask word " << w;
  }
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
