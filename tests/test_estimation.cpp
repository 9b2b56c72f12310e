#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/cyclic.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/waiting_function.hpp"
#include "estimation/tip_estimator.hpp"
#include "estimation/wf_estimator.hpp"

namespace tdp {
namespace {

/// The paper's Table III ground truth: 2 types, 3 periods.
PatienceMix table3_truth() {
  PatienceMix truth(3, 2, 1.0);
  truth.set(0, 0, 0.17, 1.0);
  truth.set(0, 1, 0.83, 2.0);
  truth.set(1, 0, 0.50, 1.0);
  truth.set(1, 1, 0.50, 2.33);
  truth.set(2, 0, 0.83, 1.0);
  truth.set(2, 1, 0.17, 2.67);
  return truth;
}

std::vector<EstimationDataset> table3_data(
    const WaitingFunctionEstimator& est, const PatienceMix& truth,
    const std::vector<double>& demand, int datasets, double noise = 0.0) {
  // "We generate data for the estimation by evaluating (8) at sets of
  // offered rewards p_i in [0, 1]."
  Rng rng(2011);
  std::vector<EstimationDataset> data;
  for (int d = 0; d < datasets; ++d) {
    math::Vector rewards(3);
    for (double& p : rewards) p = rng.uniform(0.0, 1.0);
    data.push_back(est.synthesize(truth, demand, rewards, noise,
                                  1000 + static_cast<std::uint64_t>(d)));
  }
  return data;
}

/// Worst-case percent error between two mixes' aggregate waiting values.
double max_waiting_percent_error(const PatienceMix& truth,
                                 const PatienceMix& fitted) {
  double worst = 0.0;
  for (std::size_t i = 0; i < truth.periods(); ++i) {
    for (std::size_t k = 0; k < truth.periods(); ++k) {
      if (k == i) continue;
      for (double p = 0.1; p <= 1.001; p += 0.1) {
        const double actual = truth.omega(i, k, p);
        if (actual < 1e-12) continue;
        const double estimated = fitted.omega(i, k, p);
        worst = std::max(worst,
                         100.0 * std::abs(actual - estimated) / actual);
      }
    }
  }
  return worst;
}

TEST(PatienceMix, NetOutflowSumsToZero) {
  // Eq. 7 with sum_i T_i = 0 ("sessions never disappear").
  const PatienceMix truth = table3_truth();
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    math::Vector rewards(3);
    for (double& p : rewards) p = rng.uniform(0.0, 1.0);
    double total = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      total += truth.net_outflow(i, demand, rewards);
    }
    EXPECT_NEAR(total, 0.0, 1e-10);
  }
}

// ---- Eq. 6 written out ----------------------------------------------------
//
// PatienceMix tabulates its powers; these write eq. 6 out term by term with
// one std::pow per term (and lag_sum for C(beta)), in the order the mix
// evaluated before it kept tables. Every comparison is EXPECT_EQ.

double eq6_omega(const PatienceMix& mix, std::size_t from, std::size_t to,
                 double reward) {
  if (reward <= 0.0) return 0.0;
  const std::size_t n = mix.periods();
  const double lag = static_cast<double>(cyclic_lag(from, to, n));
  double total = 0.0;
  for (std::size_t j = 0; j < mix.types(); ++j) {
    const double beta = mix.beta(from, j);
    const double c =
        1.0 / (mix.max_reward() * PowerLawWaitingFunction::lag_sum(beta, n));
    total += mix.alpha(from, j) * c * reward * std::pow(lag + 1.0, -beta);
  }
  return total;
}

double eq6_net_outflow(const PatienceMix& mix, std::size_t period,
                       const std::vector<double>& demand,
                       const math::Vector& rewards) {
  double out = 0.0;
  double in = 0.0;
  for (std::size_t k = 0; k < mix.periods(); ++k) {
    if (k == period) continue;
    out += demand[period] * eq6_omega(mix, period, k, rewards[k]);
    in += demand[k] * eq6_omega(mix, k, period, rewards[period]);
  }
  return out - in;
}

void expect_mix_matches_eq6(const PatienceMix& mix, Rng& rng,
                            const std::string& context) {
  const std::size_t n = mix.periods();
  std::vector<double> demand(n);
  math::Vector rewards(n);
  for (std::size_t k = 0; k < n; ++k) {
    demand[k] = k == 1 ? 0.0 : rng.uniform(1.0, 30.0);
    // Zero and negative rewards take eq. 6's p <= 0 branch.
    rewards[k] = k % 5 == 0   ? 0.0
                 : k % 7 == 3 ? -rng.uniform(0.0, 0.5)
                              : rng.uniform(0.0, 1.5);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      if (k == i) continue;
      EXPECT_EQ(mix.omega(i, k, rewards[k]), eq6_omega(mix, i, k, rewards[k]))
          << context << " omega " << i << "->" << k;
      EXPECT_EQ(mix.deferred(i, k, demand[i], rewards[k]),
                demand[i] * eq6_omega(mix, i, k, rewards[k]))
          << context << " deferred " << i << "->" << k;
    }
    EXPECT_EQ(mix.net_outflow(i, demand, rewards),
              eq6_net_outflow(mix, i, demand, rewards))
        << context << " net outflow " << i;
  }
}

TEST(PatienceMix, TabulatedMixMatchesEq6WrittenOut) {
  for (const std::size_t n : {std::size_t{12}, std::size_t{48}}) {
    Rng rng(60 + n);
    // Tied m = 1: the horizon's fit, one patience index for every period.
    PatienceMix tied(n, 1, 1.5);
    for (std::size_t i = 0; i < n; ++i) tied.set(i, 0, 1.0, 2.4235450098180569);
    expect_mix_matches_eq6(tied, rng, "tied n=" + std::to_string(n));

    // Untied m = 2: an index per (period, type), some shared.
    PatienceMix untied(n, 2, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double alpha = rng.uniform(0.0, 1.0);
      untied.set(i, 0, alpha, i % 3 == 0 ? 1.0 : rng.uniform(0.05, 8.0));
      untied.set(i, 1, 1.0 - alpha, rng.uniform(0.05, 8.0));
    }
    expect_mix_matches_eq6(untied, rng, "untied n=" + std::to_string(n));

    // Re-set every index, so rows that lost their last user are rewritten
    // for new indices, then tie the mix back to one index.
    for (std::size_t i = 0; i < n; ++i) {
      untied.set(i, 0, untied.alpha(i, 0), rng.uniform(0.05, 8.0));
      untied.set(i, 1, untied.alpha(i, 1), rng.uniform(0.05, 8.0));
    }
    expect_mix_matches_eq6(untied, rng, "re-set n=" + std::to_string(n));
    for (std::size_t i = 0; i < n; ++i) {
      untied.set(i, 0, untied.alpha(i, 0), 0.7);
      untied.set(i, 1, untied.alpha(i, 1), 0.7);
    }
    expect_mix_matches_eq6(untied, rng, "re-tied n=" + std::to_string(n));
  }
}

TEST(PatienceMix, NegativeOrNanDemandStillThrows) {
  const PatienceMix truth = table3_truth();
  const math::Vector rewards = {0.4, 0.6, 0.2};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {-1.0, nan}) {
    for (std::size_t where = 0; where < 3; ++where) {
      std::vector<double> demand = {22.0, 13.0, 8.0};
      demand[where] = bad;
      for (std::size_t period = 0; period < 3; ++period) {
        EXPECT_THROW(truth.net_outflow(period, demand, rewards),
                     PreconditionError)
            << "demand " << bad << " at " << where << ", period " << period;
      }
    }
    EXPECT_THROW(truth.deferred(0, 1, bad, 0.5), PreconditionError);
  }
  EXPECT_THROW(truth.net_outflow(3, {22.0, 13.0, 8.0}, rewards),
               PreconditionError);
}

TEST(Estimation, Table3ReducedEstimatorUnder12PercentError) {
  // Table III: "The percent difference between actual and estimated waiting
  // functions for each period remains small at under 12 percent."
  const PatienceMix truth = table3_truth();
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  const WaitingFunctionEstimator est(3, 2, 1.0);
  const auto data = table3_data(est, truth, demand, 60);
  const auto fit = est.estimate_reduced3(demand, data);
  ASSERT_TRUE(fit.converged);
  EXPECT_LT(max_waiting_percent_error(truth, fit.mix), 12.0);
  // Patience indices land near the truth even when the proportions alias
  // (the paper's Table III shows the same alpha misidentification).
  EXPECT_NEAR(fit.mix.beta(0, 0), 1.0, 0.35);
}

TEST(Estimation, FullEstimatorRecoversWaitingFunctions) {
  const PatienceMix truth = table3_truth();
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  const WaitingFunctionEstimator est(3, 2, 1.0);
  const auto data = table3_data(est, truth, demand, 60);
  const auto fit = est.estimate(demand, data);
  ASSERT_TRUE(fit.converged);
  EXPECT_LT(max_waiting_percent_error(truth, fit.mix), 1.0);
  EXPECT_LT(fit.residual_norm2, 1e-12);
}

class NoisyEstimation : public ::testing::TestWithParam<double> {};

TEST_P(NoisyEstimation, DegradesGracefullyWithNoise) {
  const double noise = GetParam();
  const PatienceMix truth = table3_truth();
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  const WaitingFunctionEstimator est(3, 2, 1.0);
  const auto data = table3_data(est, truth, demand, 120, noise);
  const auto fit = est.estimate(demand, data);
  // Noise is in demand units (~1% to ~5% of T magnitudes).
  EXPECT_LT(max_waiting_percent_error(truth, fit.mix), 8.0 + 400.0 * noise);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoisyEstimation,
                         ::testing::Values(0.005, 0.02, 0.05));

TEST(Estimation, TiedEstimatorRecoversSharedParameters) {
  // Ground truth with the same (alpha, beta) in every period.
  const std::size_t n = 6;
  PatienceMix truth(n, 2, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    truth.set(i, 0, 0.3, 0.8);
    truth.set(i, 1, 0.7, 2.5);
  }
  std::vector<double> demand = {20.0, 12.0, 8.0, 10.0, 16.0, 22.0};
  const WaitingFunctionEstimator est(n, 2, 1.0);
  Rng rng(31);
  std::vector<EstimationDataset> data;
  for (int d = 0; d < 10; ++d) {
    math::Vector rewards(n);
    for (double& p : rewards) p = rng.uniform(0.0, 1.0);
    data.push_back(est.synthesize(truth, demand, rewards));
  }
  const auto fit = est.estimate_tied(demand, data);
  EXPECT_LT(max_waiting_percent_error(truth, fit.mix), 1.0);
}

TEST(Estimation, PaperScaleTiedFitTenTypes) {
  // Full paper scale: 12 periods, all ten Table IV patience indices, tied
  // parameters. The estimator must recover the aggregate waiting behaviour
  // from a week of trial windows.
  const std::size_t n = 12;
  const std::size_t m = 10;
  PatienceMix truth(n, m, 1.5);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      truth.set(i, j, 1.0 / static_cast<double>(m),
                0.5 + 0.5 * static_cast<double>(j));
    }
  }
  std::vector<double> demand = {22, 13, 8, 8, 11, 19, 20, 23, 24, 25, 23, 26};
  const WaitingFunctionEstimator est(n, m, 1.5);
  Rng rng(61);
  std::vector<EstimationDataset> data;
  for (int d = 0; d < 7; ++d) {
    math::Vector rewards(n);
    for (double& p : rewards) p = rng.uniform(0.0, 1.5);
    data.push_back(est.synthesize(truth, demand, rewards));
  }
  const auto fit = est.estimate_tied(demand, data);
  // With ten overlapping power laws the individual parameters alias
  // heavily; the identifiable object is the aggregate waiting function,
  // which must fit tightly.
  EXPECT_LT(max_waiting_percent_error(truth, fit.mix), 5.0);
}

TEST(Estimation, MultiStartIsDeterministicAcrossThreadCounts) {
  // Same starts, same seeds -> same LM trajectories regardless of how the
  // starts are scheduled onto threads. Bitwise comparison on purpose.
  const PatienceMix truth = table3_truth();
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  const WaitingFunctionEstimator est(3, 2, 1.0);
  const auto data = table3_data(est, truth, demand, 30);

  WaitingFunctionEstimator::MultiStartOptions serial;
  serial.starts = 6;
  serial.seed = 7;
  serial.threads = 1;
  WaitingFunctionEstimator::MultiStartOptions parallel = serial;
  parallel.threads = 4;

  const auto fit1 = est.estimate_multistart(demand, data, serial);
  const auto fit4 = est.estimate_multistart(demand, data, parallel);
  EXPECT_EQ(fit1.residual_norm2, fit4.residual_norm2);
  EXPECT_EQ(fit1.iterations, fit4.iterations);
  EXPECT_EQ(fit1.converged, fit4.converged);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(fit1.mix.alpha(i, j), fit4.mix.alpha(i, j))
          << "alpha(" << i << "," << j << ")";
      EXPECT_EQ(fit1.mix.beta(i, j), fit4.mix.beta(i, j))
          << "beta(" << i << "," << j << ")";
    }
  }
}

TEST(Estimation, MultiStartNeverLosesToTheDefaultStart) {
  // Start 0 IS the default start, so the multi-start winner's residual can
  // only improve on the plain estimator.
  const PatienceMix truth = table3_truth();
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  const WaitingFunctionEstimator est(3, 2, 1.0);
  const auto data = table3_data(est, truth, demand, 30);

  const auto single = est.estimate(demand, data);
  WaitingFunctionEstimator::MultiStartOptions options;
  options.starts = 6;
  options.seed = 7;
  const auto multi = est.estimate_multistart(demand, data, options);
  EXPECT_LE(multi.residual_norm2, single.residual_norm2 + 1e-15);
}

TEST(Estimation, MultiStartTiedMode) {
  const std::size_t n = 6;
  PatienceMix truth(n, 2, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    truth.set(i, 0, 0.3, 0.8);
    truth.set(i, 1, 0.7, 2.5);
  }
  std::vector<double> demand = {20.0, 12.0, 8.0, 10.0, 16.0, 22.0};
  const WaitingFunctionEstimator est(n, 2, 1.0);
  Rng rng(31);
  std::vector<EstimationDataset> data;
  for (int d = 0; d < 10; ++d) {
    math::Vector rewards(n);
    for (double& p : rewards) p = rng.uniform(0.0, 1.0);
    data.push_back(est.synthesize(truth, demand, rewards));
  }
  WaitingFunctionEstimator::MultiStartOptions options;
  options.starts = 4;
  options.tied = true;
  const auto fit = est.estimate_multistart(demand, data, options);
  EXPECT_LT(max_waiting_percent_error(truth, fit.mix), 1.0);
}

TEST(Estimation, TipBaselineRecovery) {
  // Eq. 9: with known waiting functions, X is recovered from TDP usage.
  const PatienceMix truth = table3_truth();
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  Rng rng(47);
  std::vector<TipObservation> windows;
  for (int d = 0; d < 6; ++d) {
    math::Vector rewards(3);
    for (double& p : rewards) p = rng.uniform(0.2, 1.0);
    windows.push_back({rewards, predict_tdp_usage(truth, demand, rewards)});
  }
  const math::Vector recovered = estimate_tip_baseline(truth, windows);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(recovered[i], demand[i], 1e-8);
  }
}

TEST(Estimation, TipBaselineAveragesNoisyWindows) {
  const PatienceMix truth = table3_truth();
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  Rng rng(53);
  std::vector<TipObservation> windows;
  for (int d = 0; d < 40; ++d) {
    math::Vector rewards(3);
    for (double& p : rewards) p = rng.uniform(0.2, 1.0);
    math::Vector usage = predict_tdp_usage(truth, demand, rewards);
    for (double& u : usage) u += rng.normal(0.0, 0.2);
    windows.push_back({rewards, usage});
  }
  const math::Vector recovered = estimate_tip_baseline(truth, windows);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(recovered[i], demand[i], 0.5);
  }
}

TEST(Estimation, PredictTdpUsageConservesTraffic) {
  const PatienceMix truth = table3_truth();
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  const math::Vector usage = predict_tdp_usage(truth, demand, {0.5, 0.9, 0.2});
  double total = 0.0;
  for (double u : usage) total += u;
  EXPECT_NEAR(total, 43.0, 1e-10);
}

TEST(Estimation, RejectsBadSetups) {
  const WaitingFunctionEstimator est(3, 2, 1.0);
  EXPECT_THROW(est.estimate({1.0, 2.0}, {}), PreconditionError);
  const WaitingFunctionEstimator est4(4, 2, 1.0);
  std::vector<EstimationDataset> dummy(1);
  dummy[0].rewards = math::Vector(4, 0.5);
  dummy[0].usage_change = math::Vector(4, 0.0);
  EXPECT_THROW(est4.estimate_reduced3({1, 2, 3, 4}, dummy),
               PreconditionError);
  EXPECT_THROW(WaitingFunctionEstimator(1, 2, 1.0), PreconditionError);
  EXPECT_THROW(WaitingFunctionEstimator(3, 0, 1.0), PreconditionError);
}

}  // namespace
}  // namespace tdp
