#include "core/batch_solver.hpp"

#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp {

BatchSolver::BatchSolver(BatchSolveOptions options)
    : options_(std::move(options)) {}

std::vector<PricingSolution> BatchSolver::solve(
    const std::vector<StaticModel>& models) {
  return run(models.size(),
             [&models](std::size_t i, std::optional<StaticModel>&)
                 -> const StaticModel& { return models[i]; });
}

std::vector<PricingSolution> BatchSolver::solve_generated(
    std::size_t count,
    const std::function<StaticModel(std::size_t)>& factory) {
  TDP_REQUIRE(factory != nullptr, "solve_generated needs a factory");
  return run(count,
             [&factory](std::size_t i, std::optional<StaticModel>& slot)
                 -> const StaticModel& {
               slot.emplace(factory(i));
               return *slot;
             });
}

std::vector<PricingSolution> BatchSolver::run(
    std::size_t count, const GetModel& get_model) {
  TDP_OBS_SPAN("batch.solve");
  timing_ = BatchTiming{};
  timing_.tasks = count;
  std::size_t threads =
      options_.threads == 0 ? default_thread_count() : options_.threads;
  if (threads > count && count > 0) threads = count;
  timing_.threads = count == 0 ? 0 : threads;
  std::vector<PricingSolution> results(count);
  if (count == 0) return results;

  const auto start = std::chrono::steady_clock::now();

  // Anchor: task 0, solved first on the calling thread. Its solution seeds
  // every other task's warm start, which keeps the warm-start inputs — and
  // therefore every FISTA iterate — independent of scheduling order.
  math::Vector anchor_rewards;
  std::size_t anchor_periods = 0;
  {
    std::optional<StaticModel> slot;
    const StaticModel& model = get_model(0, slot);
    results[0] = optimize_static_prices(model, options_.optimizer);
    anchor_rewards = results[0].rewards;
    anchor_periods = model.periods();
    timing_.anchor_iterations = results[0].iterations;
  }

  if (count > 1) {
    StaticOptimizerOptions task_options = options_.optimizer;
    if (options_.warm_start) task_options.initial_rewards = anchor_rewards;
    parallel_for(
        count - 1,
        [&](std::size_t offset) {
          const std::size_t i = offset + 1;
          std::optional<StaticModel> slot;
          const StaticModel& model = get_model(i, slot);
          if (options_.warm_start && model.periods() == anchor_periods) {
            results[i] = optimize_static_prices(model, task_options);
          } else {
            results[i] = optimize_static_prices(model, options_.optimizer);
          }
        },
        threads);
  }

  for (const PricingSolution& solution : results) {
    timing_.total_iterations += solution.iterations;
  }
  timing_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  TDP_LOG_INFO << "batch solve: " << timing_.tasks << " tasks on "
               << timing_.threads << " threads, "
               << timing_.total_iterations << " FISTA iterations ("
               << timing_.anchor_iterations << " anchor) in "
               << timing_.wall_seconds << " s";
  static obs::Counter& batches =
      obs::Registry::global().counter("batch.solves_total");
  static obs::Counter& tasks =
      obs::Registry::global().counter("batch.tasks_total");
  batches.add(1);
  tasks.add(timing_.tasks);
  obs::journal_record(
      "batch.solve", -1, -1, "batch solve finished",
      {{"tasks", static_cast<double>(timing_.tasks)},
       {"threads", static_cast<double>(timing_.threads)},
       {"iterations", static_cast<double>(timing_.total_iterations)},
       {"wall_seconds", timing_.wall_seconds}});
  return results;
}

}  // namespace tdp
