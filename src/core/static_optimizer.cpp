#include "core/static_optimizer.hpp"

#include <utility>

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

}  // namespace tdp
