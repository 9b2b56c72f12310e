#include "core/static_optimizer.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/continuation.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp {

PricingSolution optimize_static_prices(const StaticModel& model,
                                       const StaticOptimizerOptions& options) {
  TDP_OBS_SPAN("solver.static");
  ContinuationResult run = minimize_by_continuation(
      model, options, model.max_reward(), options.initial_rewards, "static");

  PricingSolution solution;
  solution.rewards = std::move(run.rewards);
  solution.usage = model.usage(solution.rewards);
  solution.reward_cost = model.reward_cost(solution.rewards);
  solution.capacity_cost = model.capacity_cost_value(solution.usage);
  solution.total_cost = solution.reward_cost + solution.capacity_cost;
  solution.tip_cost = model.tip_cost();
  solution.iterations = run.iterations;
  solution.converged = run.converged;

  static obs::Counter& solves =
      obs::Registry::global().counter("solver.static_solves_total");
  static obs::Counter& iterations =
      obs::Registry::global().counter("solver.static_iterations_total");
  solves.add(1);
  iterations.add(solution.iterations);
  obs::journal_record(
      "solver.converged", -1, -1,
      run.converged ? "static solve converged" : "static solve hit cap",
      {{"iterations", static_cast<double>(solution.iterations)},
       {"cost", solution.total_cost},
       {"converged", run.converged ? 1.0 : 0.0}});
  return solution;
}

math::GoldenSectionResult resolve_static_coordinate(
    const StaticModel& model, math::Vector& rewards, std::size_t period,
    FlowState& state, double reward_cap, double tolerance,
    std::size_t max_iterations) {
  const std::size_t n = model.periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  TDP_REQUIRE(period < n, "period out of range");
  TDP_REQUIRE(reward_cap > 0.0, "reward cap must be positive");

  const KernelPlan* plan = model.kernel().plan().get();
  if (state.plan != plan || state.plan_serial != plan->serial()) {
    model.prime_flow_state(rewards, /*with_derivatives=*/false, state);
  }
  const auto objective = [&model, &state, period](double candidate) {
    return model.total_cost_with_coordinate(period, candidate, state);
  };
  const math::GoldenSectionResult result = math::minimize_golden_section(
      objective, 0.0, reward_cap, tolerance, max_iterations);
  rewards[period] = result.x;
  // Leave the cached matrix at the accepted reward, not the last probe.
  model.total_cost_with_coordinate(period, result.x, state);
  return result;
}

}  // namespace tdp
