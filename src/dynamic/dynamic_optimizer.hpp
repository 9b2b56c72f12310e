// Price determination for the offline dynamic model.
//
// The static optimizer's smoothing-continuation + FISTA loop
// (core/continuation.hpp); the reward box is wider because carry-over lets
// one deferred unit save backlog cost across a whole congested run (the
// static P = max f' cap no longer binds — the paper's "breaking the $0.15
// barrier").
#pragma once

#include "dynamic/dynamic_model.hpp"
#include "math/fista.hpp"

namespace tdp {

struct DynamicOptimizerOptions {
  double mu_initial = 1.0;
  double mu_final = 1e-5;
  double mu_decay = 0.1;
  /// Upper bound on rewards, in multiples of the model's reward_cap().
  /// The cap itself already over-approximates the rational maximum.
  double reward_cap_factor = 1.0;
  math::FistaOptions fista;
  /// Evaluate the continuation stages through the fused kernel plan
  /// (bitwise identical to the reference objective; disable to run the
  /// reference path as the oracle).
  bool fused = true;

  DynamicOptimizerOptions() {
    fista.max_iterations = 6000;
    fista.step_tolerance = 1e-10;
  }
};

struct DynamicPricingSolution {
  math::Vector rewards;
  DynamicModel::Evaluation evaluation;  ///< steady-state day at `rewards`
  double tip_cost = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

DynamicPricingSolution optimize_dynamic_prices(
    const DynamicModel& model, const DynamicOptimizerOptions& options = {});

}  // namespace tdp
