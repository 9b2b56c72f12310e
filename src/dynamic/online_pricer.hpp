// The online price-determination algorithm (Section III-B).
//
//   1. Start with rewards for the next n periods from the offline model.
//   2. After each period, update the demand estimate with the measured
//      arrivals and recompute the optimal reward for the n-th period after
//      the current one, holding the other n-1 rewards fixed.
//
// Holding all but one reward fixed makes each step a 1-D convex problem,
// solved exactly by golden section on the true (unsmoothed) dynamic cost —
// "while sub-optimal, this algorithm is easy to implement and avoids the
// high dimensionality of a full dynamic programming solution."
//
// One observation changes one period of the model, and pays for about
// that much: the period's volumes are rescaled in place and the kernel is
// rebuilt from its predecessor (DynamicModel::rescale_period), which
// recomputes that period's unit-table row and shares the rest; each
// golden-section candidate then rewrites one column of the cached pair
// matrix and runs the backlog recursion only until the candidate's
// warmup day rejoins the day before (DynamicModel::
// total_cost_with_coordinate).
//
// Guarded observe path: a production pricer's inputs degrade — measurements
// get synthesized by the guard, solves get starved of iterations, demand
// shifts under it. `observe_period` wraps the step with (a) a per-step
// iteration budget, (b) a trust-region clamp on how far one observation may
// move a reward, and (c) keep-previous-reward when the solve fails — and
// drives an explicit health ladder:
//
//   HEALTHY --bad observation--> DEGRADED --fallback_after bad--> FALLBACK
//      ^                            |  ^                             |
//      +--- recover_after good ----+  +----- recover_after good ----+
//
// A "bad" observation is a degraded/synthesized input, a missed one, or a
// failed solve. In FALLBACK the pricer freezes its schedule on degraded
// input (last-known-good rewards keep publishing) and only probes the model
// again when a clean measurement arrives. The default PricerGuardConfig
// guards nothing (infinite trust region, a 200-iteration budget, failed
// solves accepted at their best point), so a zero-fault plan publishes
// exactly what the bare 1-D re-solve would; the ladder still *tracks*
// health either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/health.hpp"
#include "dynamic/dynamic_model.hpp"
#include "dynamic/dynamic_optimizer.hpp"
#include "math/golden_section.hpp"

namespace tdp {

/// Degradation policy for the guarded observe path. The default guards
/// nothing: no step is clamped, no reward is kept back, and every solve
/// gets the full budget.
struct PricerGuardConfig {
  /// Iteration budget per 1-D solve (golden section max_iterations).
  std::size_t solver_max_iterations = 200;
  /// Trust region: one observation may move a reward by at most this
  /// fraction of the reward cap. Infinity = unclamped.
  double trust_region_fraction = std::numeric_limits<double>::infinity();
  /// Keep the previous reward when a solve fails (budget exhausted or a
  /// non-finite result). False = accept the best-so-far point.
  bool keep_reward_on_failure = false;
  /// Consecutive bad observations before DEGRADED escalates to FALLBACK.
  std::size_t fallback_after = 3;
  /// Consecutive good observations to climb one rung back toward HEALTHY.
  std::size_t recover_after = 2;

  /// The armed preset chaos runs use: tight trust region, failures keep
  /// the previous reward.
  static PricerGuardConfig protective();
};

/// Monotone counters for the health ladder (all-zero on a clean run except
/// healthy_observations).
struct PricerHealthStats {
  std::uint64_t healthy_observations = 0;
  std::uint64_t degraded_observations = 0;  ///< observed while DEGRADED
  std::uint64_t fallback_observations = 0;  ///< observed while FALLBACK
  std::uint64_t transitions = 0;            ///< state changes
  std::uint64_t solve_failures = 0;
  std::uint64_t clamped_steps = 0;       ///< trust region bound
  std::uint64_t skipped_updates = 0;     ///< FALLBACK froze the schedule
  std::uint64_t missed_observations = 0; ///< observe_missed calls
  std::uint64_t recoveries = 0;          ///< returns to HEALTHY
  std::uint64_t max_recovery_periods = 0;///< longest excursion from HEALTHY
};

struct OnlinePricerState;

class OnlinePricer {
 public:
  /// Initializes rewards by solving the offline dynamic model.
  /// `incremental` runs each 1-D solve on the kernel plan's cached pair
  /// matrix (core/kernel_plan): the first candidate primes or resyncs the
  /// matrix and every later candidate is an O(n) column update instead of a
  /// full O(n^2) cost evaluation. Published rewards are bitwise identical
  /// either way (the incremental objective is property-tested against the
  /// reference); disable to run the reference path.
  explicit OnlinePricer(DynamicModel model,
                        DynamicOptimizerOptions offline_options = {},
                        PricerGuardConfig guard = {},
                        bool incremental = true);

  OnlinePricer(const OnlinePricer&) = delete;
  OnlinePricer& operator=(const OnlinePricer&) = delete;

  std::size_t periods() const { return model_.periods(); }

  /// Rewards currently published for the next day (cyclic by period index).
  const math::Vector& rewards() const { return rewards_; }

  /// The model with all demand updates applied so far.
  const DynamicModel& model() const { return model_; }

  struct StepResult {
    std::size_t period = 0;       ///< period index whose reward was updated
    double old_reward = 0.0;
    double new_reward = 0.0;
    double expected_cost = 0.0;   ///< daily cost at the updated rewards
    bool solve_failed = false;    ///< budget exhausted / non-finite result
    bool clamped = false;         ///< trust region bound the step
    bool skipped = false;         ///< FALLBACK froze the schedule
  };

  /// Report the arrivals measured in `period` (demand units under TIP, i.e.
  /// what the waiting-function estimator attributes to the baseline). The
  /// period's demand estimate is rescaled to match, and the reward for that
  /// period index — which next binds one full day ahead — is re-optimized
  /// with the other n-1 rewards fixed.
  ///
  /// `degraded_input` marks a synthesized or altered measurement (see
  /// MeasurementGuard); `iteration_budget` caps this step's 1-D solve and
  /// defaults to guard().solver_max_iterations (an explicit 0 is rejected).
  StepResult observe_period(
      std::size_t period, double measured_arrivals,
      bool degraded_input = false,
      std::optional<std::size_t> iteration_budget = std::nullopt);

  /// The period's measurement never arrived at all (TTL-expired blackout):
  /// advance the health ladder with a bad observation, keep the schedule.
  void observe_missed(std::size_t period);

  /// Daily cost of the current rewards under the current demand estimate.
  /// Evaluated through the KernelPlan (bitwise identical to the reference
  /// DeferralKernel path, ~50x cheaper than the per-pair virtual walk).
  double expected_cost() const {
    return model_.total_cost(rewards_, cost_scratch_);
  }

  bool incremental() const { return incremental_; }

  const PricerGuardConfig& guard() const { return guard_; }
  PricerHealth health() const { return health_; }
  const PricerHealthStats& health_stats() const { return health_stats_; }

  struct HealthTransition {
    std::uint64_t observation = 0;  ///< 0-based observe counter
    PricerHealth from = PricerHealth::kHealthy;
    PricerHealth to = PricerHealth::kHealthy;
  };
  /// First kMaxTransitionLog transitions (diagnostics; bounded memory).
  const std::vector<HealthTransition>& health_transitions() const {
    return health_log_;
  }

  // ---- Long-horizon hooks (checkpoint/restore, daily re-anchoring) -------

  /// Snapshot everything observe_period / observe_missed mutate: the
  /// published rewards, the per-period demand volumes (the only part of the
  /// model online updates change), and the health ladder.
  OnlinePricerState export_state() const;

  /// Rebuild a pricer from the *baseline* fluid model (same construction as
  /// the original run's) plus a state snapshot, skipping the offline solve:
  /// volumes and rewards are installed bit-for-bit, so the restored pricer's
  /// next observation is bitwise identical to the uninterrupted one's.
  static std::unique_ptr<OnlinePricer> restore(
      DynamicModel baseline, const OnlinePricerState& state,
      PricerGuardConfig guard = {}, bool incremental = true);

  /// Replace the fluid model (the multi-day driver's daily re-anchor after
  /// re-estimating the population) and publish `solved_rewards`, the
  /// caller's offline solve of `model` under `offline_options`, but keep
  /// the health ladder and its statistics — re-anchoring is maintenance,
  /// not recovery.
  void adopt_model(DynamicModel model,
                   const DynamicOptimizerOptions& offline_options,
                   math::Vector solved_rewards);

 private:
  struct RestoreTag {};
  OnlinePricer(RestoreTag, DynamicModel model, const OnlinePricerState& state,
               PricerGuardConfig guard, bool incremental);

  static constexpr std::size_t kMaxTransitionLog = 256;

  /// The synchronous 1-D step: minimize the daily cost over `period`'s
  /// reward with the others fixed at `rewards` (reference path).
  static math::GoldenSectionResult solve_period(const DynamicModel& model,
                                                math::Vector rewards,
                                                std::size_t period,
                                                double reward_cap,
                                                std::size_t max_iterations);

  /// Incremental variant: primes (or resyncs) `scratch`'s cached pair
  /// matrix, then evaluates every golden-section candidate through
  /// total_cost_with_coordinate. Bitwise identical to solve_period.
  static math::GoldenSectionResult solve_period_incremental(
      const DynamicModel& model, const math::Vector& rewards,
      std::size_t period, double reward_cap, std::size_t max_iterations,
      FlowState& scratch);

  /// Rescale `period`'s demand estimate to a measurement (clamped to the
  /// 2% stability margin) in place (DynamicModel::rescale_period: one
  /// period's volumes, one kernel row, no profile copy) and, when
  /// incremental_, build the new kernel's plan.
  void update_demand(std::size_t period, double measured_arrivals);

  /// Re-solve `period` on the current model and rewards, dispatching on
  /// incremental_ with this pricer's member scratch.
  math::GoldenSectionResult run_solve(std::size_t period,
                                      std::size_t max_iterations);

  /// Advance the health ladder after one observation.
  void update_health(bool bad);

  DynamicModel model_;
  math::Vector rewards_;
  double reward_cap_;
  PricerGuardConfig guard_;

  PricerHealth health_ = PricerHealth::kHealthy;
  PricerHealthStats health_stats_;
  std::vector<HealthTransition> health_log_;
  std::uint64_t observation_count_ = 0;
  std::uint64_t consecutive_bad_ = 0;
  std::uint64_t consecutive_good_ = 0;
  std::uint64_t excursion_periods_ = 0;  ///< observations since HEALTHY

  bool incremental_ = true;
  /// Pair-matrix cache reused across solves. The resync in
  /// solve_period_incremental only applies when the demand update was a
  /// confirmed-forecast no-op (the rebuilt kernel shares its predecessor's
  /// state); any deviating measurement builds a new plan, and the solve
  /// reprimes.
  FlowState solve_scratch_;
  /// Scratch for the plan-based full-cost evaluations (expected_cost and
  /// the skip / failure / trust-region-probe paths in observe_period).
  /// Distinct from solve_scratch_ so expected_cost() never invalidates a
  /// primed solver state; mutable because expected_cost() is const.
  mutable FlowState cost_scratch_;
};

/// The serializable slice of an OnlinePricer (see export_state / restore).
struct OnlinePricerState {
  math::Vector rewards;
  double reward_cap = 0.0;
  /// volumes[p] = period p's per-class demand volumes, in class order.
  std::vector<std::vector<double>> volumes;
  PricerHealth health = PricerHealth::kHealthy;
  PricerHealthStats stats;
  std::vector<OnlinePricer::HealthTransition> log;
  std::uint64_t observation_count = 0;
  std::uint64_t consecutive_bad = 0;
  std::uint64_t consecutive_good = 0;
  std::uint64_t excursion_periods = 0;
};

}  // namespace tdp
