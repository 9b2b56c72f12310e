// Price determination for the static model: smoothing continuation + FISTA.
//
// The exact objective is convex but nonsmooth (f has kinks at capacity).
// We minimize the mu-smoothed objective — also convex, with an analytic
// gradient — and shrink mu geometrically, warm-starting each stage from the
// previous solution. The smoothing gap is bounded by f's total slope jump
// times mu/2 per period, so the final stage's solution is within a provable
// tolerance of the true optimum guaranteed by Prop. 3.
#pragma once

#include <cstddef>

#include "core/static_model.hpp"
#include "math/fista.hpp"

namespace tdp {

struct StaticOptimizerOptions {
  /// Smoothing continuation: mu runs from initial to final, multiplied by
  /// decay at each stage.
  double mu_initial = 1.0;
  double mu_final = 1e-5;
  double mu_decay = 0.1;
  /// Reward upper bound as a multiple of the model's max_reward() (P).
  /// 1.0 is correct for the static model (no rational reward exceeds P).
  double reward_cap_factor = 1.0;
  /// Optional warm start: when non-empty (and sized to the model's period
  /// count) the continuation begins from this reward vector, projected onto
  /// the box, instead of zeros. The problem is convex, so the optimum is
  /// unchanged; a start near the solution just cuts FISTA iterations. The
  /// batch engine feeds each task's warm start deterministically.
  math::Vector initial_rewards;
  math::FistaOptions fista;
  /// Evaluate the continuation stages through the fused kernel plan
  /// (core/kernel_plan): one structure-of-arrays flow evaluation per FISTA
  /// value/gradient instead of O(n^2) per-class kernel walks. Bitwise
  /// identical to the reference path (property-tested); disable to run the
  /// reference objective as the oracle.
  bool fused = true;

  StaticOptimizerOptions() {
    fista.max_iterations = 4000;
    fista.step_tolerance = 1e-10;
  }
};

struct PricingSolution {
  math::Vector rewards;       ///< optimal p_i (money units)
  math::Vector usage;         ///< x_i under those rewards (demand units)
  double total_cost = 0.0;    ///< exact objective at `rewards`
  double reward_cost = 0.0;   ///< sum p_i * (deferred into i)
  double capacity_cost = 0.0; ///< sum f(x_i - A_i)
  double tip_cost = 0.0;      ///< baseline cost with no rewards
  std::size_t iterations = 0; ///< total FISTA iterations over all stages
  bool converged = false;
};

/// Solve the static model's price optimization (globally, per Prop. 3).
PricingSolution optimize_static_prices(
    const StaticModel& model, const StaticOptimizerOptions& options = {});

}  // namespace tdp
