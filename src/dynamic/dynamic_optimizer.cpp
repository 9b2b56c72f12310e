#include "dynamic/dynamic_optimizer.hpp"

#include <utility>

#include "core/continuation.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp {

DynamicPricingSolution optimize_dynamic_prices(
    const DynamicModel& model, const DynamicOptimizerOptions& options) {
  TDP_OBS_SPAN("solver.dynamic");
  ContinuationResult run = minimize_by_continuation(
      model, options, model.reward_cap(), {}, "dynamic");

  DynamicPricingSolution solution;
  solution.rewards = std::move(run.rewards);
  solution.evaluation = model.evaluate(solution.rewards);
  solution.tip_cost = model.tip_cost();
  solution.iterations = run.iterations;
  solution.converged = run.converged;

  static obs::Counter& solves =
      obs::Registry::global().counter("solver.dynamic_solves_total");
  static obs::Counter& iterations =
      obs::Registry::global().counter("solver.dynamic_iterations_total");
  solves.add(1);
  iterations.add(solution.iterations);
  obs::journal_record(
      "solver.converged", -1, -1,
      run.converged ? "dynamic solve converged" : "dynamic solve hit cap",
      {{"iterations", static_cast<double>(solution.iterations)},
       {"cost", solution.evaluation.total_cost},
       {"converged", run.converged ? 1.0 : 0.0}});
  return solution;
}

}  // namespace tdp
