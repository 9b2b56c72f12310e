#include "estimation/wf_estimator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "math/levenberg_marquardt.hpp"

namespace tdp {
namespace {

constexpr double kBetaLower = 0.05;
constexpr double kBetaUpper = 8.0;

}  // namespace

WaitingFunctionEstimator::WaitingFunctionEstimator(std::size_t periods,
                                                   std::size_t types,
                                                   double max_reward)
    : periods_(periods), types_(types), max_reward_(max_reward) {
  TDP_REQUIRE(periods >= 2, "need at least two periods");
  TDP_REQUIRE(types >= 1, "need at least one type");
  TDP_REQUIRE(max_reward > 0.0, "max reward must be positive");
}

EstimationDataset WaitingFunctionEstimator::synthesize(
    const PatienceMix& truth, const std::vector<double>& tip_demand,
    const math::Vector& rewards, double noise_stddev,
    std::uint64_t seed) const {
  TDP_REQUIRE(truth.periods() == periods_, "mix period mismatch");
  TDP_REQUIRE(tip_demand.size() == periods_, "demand vector size mismatch");
  TDP_REQUIRE(rewards.size() == periods_, "reward vector size mismatch");
  TDP_REQUIRE(noise_stddev >= 0.0, "noise must be nonnegative");

  Rng rng(seed);
  EstimationDataset dataset;
  dataset.rewards = rewards;
  dataset.usage_change.assign(periods_, 0.0);
  for (std::size_t i = 0; i < periods_; ++i) {
    double t = truth.net_outflow(i, tip_demand, rewards);
    if (noise_stddev > 0.0) t += rng.normal(0.0, noise_stddev);
    dataset.usage_change[i] = t;
  }
  return dataset;
}

std::size_t WaitingFunctionEstimator::parameter_count(bool tied) const {
  // Per period (or once when tied): m-1 free proportions + m patience
  // indices.
  const std::size_t per_block = 2 * types_ - 1;
  return tied ? per_block : periods_ * per_block;
}

PatienceMix WaitingFunctionEstimator::unpack(const math::Vector& theta,
                                             bool tied) const {
  TDP_REQUIRE(theta.size() == parameter_count(tied), "theta size mismatch");
  PatienceMix mix(periods_, types_, max_reward_);
  const std::size_t stride = 2 * types_ - 1;
  for (std::size_t i = 0; i < periods_; ++i) {
    const std::size_t base = tied ? 0 : i * stride;
    double alpha_sum = 0.0;
    for (std::size_t j = 0; j + 1 < types_; ++j) {
      alpha_sum += theta[base + j];
    }
    for (std::size_t j = 0; j < types_; ++j) {
      // Clamp defensively: finite-difference probes step slightly past the
      // box bounds when forming the numeric Jacobian.
      const double alpha = (j + 1 < types_)
                               ? std::clamp(theta[base + j], 0.0, 1.0)
                               : std::max(1.0 - alpha_sum, 0.0);
      const double beta = std::max(theta[base + (types_ - 1) + j], 0.0);
      mix.set(i, j, alpha, beta);
    }
  }
  return mix;
}

math::Vector WaitingFunctionEstimator::default_theta(bool tied) const {
  math::Vector theta(parameter_count(tied), 0.0);
  const std::size_t stride = 2 * types_ - 1;
  const std::size_t blocks = tied ? 1 : periods_;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j + 1 < types_; ++j) {
      theta[b * stride + j] = 1.0 / static_cast<double>(types_);
    }
    for (std::size_t j = 0; j < types_; ++j) {
      // Spread initial betas so types are distinguishable to the fit.
      theta[b * stride + (types_ - 1) + j] = 1.0 + static_cast<double>(j);
    }
  }
  return theta;
}

void WaitingFunctionEstimator::parameter_bounds(bool tied,
                                                math::Vector& lower,
                                                math::Vector& upper) const {
  lower.assign(parameter_count(tied), 0.0);
  upper.assign(parameter_count(tied), 0.0);
  const std::size_t stride = 2 * types_ - 1;
  const std::size_t blocks = tied ? 1 : periods_;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j + 1 < types_; ++j) {
      lower[b * stride + j] = 0.0;
      upper[b * stride + j] = 1.0;
    }
    for (std::size_t j = 0; j < types_; ++j) {
      lower[b * stride + (types_ - 1) + j] = kBetaLower;
      upper[b * stride + (types_ - 1) + j] = kBetaUpper;
    }
  }
}

void WaitingFunctionEstimator::validate_fit_inputs(
    const std::vector<double>& tip_demand,
    const std::vector<EstimationDataset>& data, bool reduced3) const {
  TDP_REQUIRE(tip_demand.size() == periods_, "demand vector size mismatch");
  TDP_REQUIRE(!data.empty(), "need at least one dataset");
  if (reduced3) {
    TDP_REQUIRE(periods_ == 3,
                "the reduced estimator is the paper's 3-period illustration");
  }
  for (const EstimationDataset& d : data) {
    TDP_REQUIRE(d.rewards.size() == periods_ &&
                    d.usage_change.size() == periods_,
                "dataset size mismatch");
  }
}

WaitingFunctionEstimate WaitingFunctionEstimator::fit_from(
    const std::vector<double>& tip_demand,
    const std::vector<EstimationDataset>& data, const math::Vector& theta0,
    bool reduced3, bool tied) const {
  const auto residuals = [this, &tip_demand, &data, reduced3,
                          tied](const math::Vector& theta) {
    const PatienceMix mix = unpack(theta, tied);
    math::Vector r;
    r.reserve(data.size() * (reduced3 ? 1 : periods_ - 1));
    for (const EstimationDataset& d : data) {
      if (reduced3) {
        // Eq. 8 (0-based periods): T_2 = Q_23 - Q_32 - (T_1 + Q_31 - Q_13).
        const double q23 = mix.deferred(1, 2, tip_demand[1], d.rewards[2]);
        const double q32 = mix.deferred(2, 1, tip_demand[2], d.rewards[1]);
        const double q31 = mix.deferred(2, 0, tip_demand[2], d.rewards[0]);
        const double q13 = mix.deferred(0, 2, tip_demand[0], d.rewards[2]);
        const double predicted =
            q23 - q32 - (d.usage_change[0] + q31 - q13);
        r.push_back(predicted - d.usage_change[1]);
      } else {
        // All independent balance equations (the n-th is redundant).
        for (std::size_t i = 0; i + 1 < periods_; ++i) {
          r.push_back(mix.net_outflow(i, tip_demand, d.rewards) -
                      d.usage_change[i]);
        }
      }
    }
    return r;
  };

  math::LmOptions lm;
  lm.max_iterations = 400;
  math::Vector lower;
  math::Vector upper;
  parameter_bounds(tied, lower, upper);
  lm.lower_bounds = lower;
  lm.upper_bounds = upper;

  const math::LmResult fit =
      math::minimize_levenberg_marquardt(residuals, theta0, lm);

  WaitingFunctionEstimate out{unpack(fit.parameters, tied),
                              fit.residual_norm2, fit.iterations,
                              fit.converged};
  return out;
}

WaitingFunctionEstimate WaitingFunctionEstimator::run_fit(
    const std::vector<double>& tip_demand,
    const std::vector<EstimationDataset>& data, bool reduced3,
    bool tied) const {
  validate_fit_inputs(tip_demand, data, reduced3);
  return fit_from(tip_demand, data, default_theta(tied), reduced3, tied);
}

WaitingFunctionEstimate WaitingFunctionEstimator::estimate_multistart(
    const std::vector<double>& tip_demand,
    const std::vector<EstimationDataset>& data,
    const MultiStartOptions& options) const {
  validate_fit_inputs(tip_demand, data, /*reduced3=*/false);
  TDP_REQUIRE(options.starts >= 1, "need at least one start");

  math::Vector lower;
  math::Vector upper;
  parameter_bounds(options.tied, lower, upper);
  const Rng parent(options.seed);

  std::vector<WaitingFunctionEstimate> fits;
  fits.reserve(options.starts);
  for (std::size_t s = 0; s < options.starts; ++s) {
    fits.emplace_back(WaitingFunctionEstimate{
        PatienceMix(periods_, types_, max_reward_), 0.0, 0, false});
  }
  parallel_for(
      options.starts,
      [&](std::size_t s) {
        math::Vector theta0;
        if (s == 0) {
          theta0 = default_theta(options.tied);
        } else {
          // Each start owns stream s of the shared parent; the draw order
          // inside a start is fixed, so theta0 — and the whole LM
          // trajectory behind it — never depends on scheduling.
          Rng stream = parent.fork_stream(s);
          theta0.resize(lower.size());
          for (std::size_t k = 0; k < theta0.size(); ++k) {
            theta0[k] = stream.uniform(lower[k], upper[k]);
          }
        }
        fits[s] = fit_from(tip_demand, data, theta0, /*reduced3=*/false,
                           options.tied);
      },
      options.threads);

  // Lowest residual wins; ties go to the earliest start index, so the
  // selection is a pure function of the fit results.
  std::size_t best = 0;
  for (std::size_t s = 1; s < options.starts; ++s) {
    if (fits[s].residual_norm2 < fits[best].residual_norm2) best = s;
  }
  TDP_LOG_DEBUG << "multi-start LM: " << options.starts << " starts, best #"
                << best << " residual " << fits[best].residual_norm2;
  return fits[best];
}

WaitingFunctionEstimate WaitingFunctionEstimator::estimate(
    const std::vector<double>& tip_demand,
    const std::vector<EstimationDataset>& data) const {
  return run_fit(tip_demand, data, /*reduced3=*/false, /*tied=*/false);
}

WaitingFunctionEstimate WaitingFunctionEstimator::estimate_tied(
    const std::vector<double>& tip_demand,
    const std::vector<EstimationDataset>& data) const {
  return run_fit(tip_demand, data, /*reduced3=*/false, /*tied=*/true);
}

WaitingFunctionEstimate WaitingFunctionEstimator::estimate_reduced3(
    const std::vector<double>& tip_demand,
    const std::vector<EstimationDataset>& data) const {
  return run_fit(tip_demand, data, /*reduced3=*/true, /*tied=*/false);
}

}  // namespace tdp
