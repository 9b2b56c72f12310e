// Waiting-function estimation (Section IV).
//
// Given observations of aggregate demand under TIP and TDP — per-period net
// traffic changes T_i = (TIP demand) - (TDP usage) at known offered rewards
// — estimate each period's session-type proportions alpha_ji and patience
// indices beta_ji by nonlinear least squares. "Our proposed algorithm
// requires only aggregate usage data under TIP and TDP."
//
// Two fitting modes:
//  - estimate(): fit all parameters against every independent balance
//    equation (i = 1..n-1; the n-th is redundant since sum_i T_i = 0) from
//    every dataset. This is the library's primary estimator.
//  - estimate_reduced3(): the paper's illustration for n = 3 — eliminate
//    Q_12 and Q_21 and fit the single remaining equation (eq. 8). Used to
//    reproduce Table III / Fig. 2 faithfully, including the estimator's
//    characteristic alpha misidentification under short-lag ambiguity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "estimation/patience_mix.hpp"
#include "math/vector_ops.hpp"

namespace tdp {

/// One controlled observation: rewards offered for a stretch of time and
/// the measured per-period difference T_i between TIP and TDP demand.
struct EstimationDataset {
  math::Vector rewards;        ///< p_k per period
  math::Vector usage_change;   ///< T_i per period (sums to ~0)
};

struct WaitingFunctionEstimate {
  PatienceMix mix;             ///< fitted parameters
  double residual_norm2 = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

class WaitingFunctionEstimator {
 public:
  /// @param periods     n
  /// @param types       m session types per period
  /// @param max_reward  normalization point P for the power laws
  WaitingFunctionEstimator(std::size_t periods, std::size_t types,
                           double max_reward);

  /// Generate a synthetic dataset from a ground-truth mix (used by tests,
  /// benches and market-trial planning): evaluates T_i at the rewards and
  /// adds optional Gaussian noise of the given standard deviation.
  EstimationDataset synthesize(const PatienceMix& truth,
                               const std::vector<double>& tip_demand,
                               const math::Vector& rewards,
                               double noise_stddev = 0.0,
                               std::uint64_t seed = 1) const;

  /// Full estimator: fit alpha/beta for every period against all datasets.
  /// The search starts from the default start: in every period the m
  /// proportions are uniform (1/m each) and the patience indices are
  /// spread 1, 2, ..., m so the types are distinguishable to the fit.
  WaitingFunctionEstimate estimate(
      const std::vector<double>& tip_demand,
      const std::vector<EstimationDataset>& data) const;

  /// Time-invariant variant: one (alpha_j, beta_j) per session type shared
  /// by every period — "the profiling engine estimates a patience index for
  /// each traffic class". Far fewer parameters, so it stays identifiable
  /// with few observation windows.
  WaitingFunctionEstimate estimate_tied(
      const std::vector<double>& tip_demand,
      const std::vector<EstimationDataset>& data) const;

  /// The paper's single-equation reduction for n = 3 (eq. 8), from the
  /// same default start as estimate().
  WaitingFunctionEstimate estimate_reduced3(
      const std::vector<double>& tip_demand,
      const std::vector<EstimationDataset>& data) const;

  /// Multi-start configuration for estimate_multistart.
  struct MultiStartOptions {
    /// Total starts: start 0 is the deterministic default start, starts
    /// 1..starts-1 are drawn uniformly inside the parameter box.
    std::size_t starts = 8;
    /// Seed for the random starts. Start i draws from fork_stream(i) of a
    /// generator seeded with this, so each start's initial point — and
    /// hence its whole LM trajectory — is independent of thread count.
    std::uint64_t seed = 1;
    /// Parallelism for the independent fits; 0 = default_thread_count().
    std::size_t threads = 0;
    /// Fit the tied (time-invariant) parameterization instead of the full.
    bool tied = false;
  };

  /// Multi-start Levenberg-Marquardt: run `starts` independent fits in
  /// parallel and return the lowest-residual one (ties broken by start
  /// index, so the result is deterministic for any thread count). The
  /// estimation objective is nonconvex in (alpha, beta); restarts are the
  /// standard defense against the local minima the paper's Table III
  /// alpha-aliasing hints at.
  WaitingFunctionEstimate estimate_multistart(
      const std::vector<double>& tip_demand,
      const std::vector<EstimationDataset>& data,
      const MultiStartOptions& options) const;
  WaitingFunctionEstimate estimate_multistart(
      const std::vector<double>& tip_demand,
      const std::vector<EstimationDataset>& data) const {
    return estimate_multistart(tip_demand, data, MultiStartOptions());
  }

  std::size_t periods() const { return periods_; }
  std::size_t types() const { return types_; }
  double max_reward() const { return max_reward_; }

 private:
  /// theta <-> PatienceMix packing: per period (or once, when tied),
  /// (m-1) free proportions (the last is 1 - sum) followed by m patience
  /// indices.
  std::size_t parameter_count(bool tied) const;
  PatienceMix unpack(const math::Vector& theta, bool tied) const;
  /// The default start (see estimate()).
  math::Vector default_theta(bool tied) const;
  void parameter_bounds(bool tied, math::Vector& lower,
                        math::Vector& upper) const;

  void validate_fit_inputs(const std::vector<double>& tip_demand,
                           const std::vector<EstimationDataset>& data,
                           bool reduced3) const;

  /// One LM fit from an explicit start (inputs already validated). Pure in
  /// theta0, so concurrent calls over shared data are safe.
  WaitingFunctionEstimate fit_from(
      const std::vector<double>& tip_demand,
      const std::vector<EstimationDataset>& data, const math::Vector& theta0,
      bool reduced3, bool tied) const;

  WaitingFunctionEstimate run_fit(
      const std::vector<double>& tip_demand,
      const std::vector<EstimationDataset>& data, bool reduced3,
      bool tied) const;

  std::size_t periods_;
  std::size_t types_;
  double max_reward_;
};

}  // namespace tdp
