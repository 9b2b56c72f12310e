// Micro-benchmarks for the paper's runtime claims and the library's hot
// paths (google-benchmark).
//
// Paper claims: static optimization "under 10 seconds on a standard
// laptop"; online price determination (12 periods, 10 types) "in less than
// 5 seconds"; waiting-function estimation (3 periods, 2 types) "in under 25
// seconds".
//
// Run with --benchmark_out=BENCH_micro.json --benchmark_out_format=json to
// persist the numbers; the batch benchmarks attach per-batch counters
// (tasks, threads, FISTA iterations, speedup-relevant wall time) that land
// in that JSON.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/batch_solver.hpp"
#include "core/paper_data.hpp"
#include "core/static_optimizer.hpp"
#include "dynamic/dynamic_optimizer.hpp"
#include "dynamic/online_pricer.hpp"
#include "dynamic/paper_dynamic.hpp"
#include "dynamic/stochastic_sim.hpp"
#include "estimation/wf_estimator.hpp"
#include "tube/tube_system.hpp"

namespace {

using namespace tdp;

void BM_StaticOptimize48(benchmark::State& state) {
  const StaticModel model = paper::static_model_48();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_static_prices(model));
  }
}
BENCHMARK(BM_StaticOptimize48)->Unit(benchmark::kMillisecond);

void BM_StaticOptimize12(benchmark::State& state) {
  const StaticModel model = paper::static_model_12();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_static_prices(model));
  }
}
BENCHMARK(BM_StaticOptimize12)->Unit(benchmark::kMillisecond);

void BM_StaticCostEvaluation(benchmark::State& state) {
  const StaticModel model = paper::static_model_48();
  const math::Vector rewards(48, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.total_cost(rewards));
  }
}
BENCHMARK(BM_StaticCostEvaluation);

void BM_StaticGradient(benchmark::State& state) {
  const StaticModel model = paper::static_model_48();
  const math::Vector rewards(48, 0.5);
  math::Vector grad(48, 0.0);
  for (auto _ : state) {
    model.smoothed_gradient(rewards, 1e-3, grad);
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_StaticGradient);

void BM_DynamicOptimize48(benchmark::State& state) {
  const DynamicModel model = paper::dynamic_model_48();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_dynamic_prices(model));
  }
}
BENCHMARK(BM_DynamicOptimize48)->Unit(benchmark::kMillisecond);

void BM_OnlinePriceStep(benchmark::State& state) {
  // The paper's "online price determination completed in < 5 s" step.
  OnlinePricer pricer(paper::dynamic_model_48());
  std::size_t period = 0;
  for (auto _ : state) {
    const double forecast = pricer.model().arrivals().tip_demand(period);
    benchmark::DoNotOptimize(pricer.observe_period(period, forecast));
    period = (period + 1) % 48;
  }
}
BENCHMARK(BM_OnlinePriceStep)->Unit(benchmark::kMillisecond);

void BM_WaitingFunctionEstimation(benchmark::State& state) {
  // The paper's "< 25 s" case: 3 periods, 2 types.
  PatienceMix truth(3, 2, 1.0);
  truth.set(0, 0, 0.17, 1.0);
  truth.set(0, 1, 0.83, 2.0);
  truth.set(1, 0, 0.50, 1.0);
  truth.set(1, 1, 0.50, 2.33);
  truth.set(2, 0, 0.83, 1.0);
  truth.set(2, 1, 0.17, 2.67);
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  const WaitingFunctionEstimator estimator(3, 2, 1.0);
  Rng rng(2011);
  std::vector<EstimationDataset> data;
  for (int d = 0; d < 60; ++d) {
    math::Vector rewards(3);
    for (double& p : rewards) p = rng.uniform(0.0, 1.0);
    data.push_back(estimator.synthesize(truth, demand, rewards));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate_reduced3(demand, data));
  }
}
BENCHMARK(BM_WaitingFunctionEstimation)->Unit(benchmark::kMillisecond);

void BM_StochasticDay48(benchmark::State& state) {
  const DynamicModel model = paper::dynamic_model_48();
  const math::Vector rewards(48, 0.2);
  StochasticSimOptions options;
  options.days = 1;
  options.warmup_days = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_stochastic(model, rewards, options));
  }
}
BENCHMARK(BM_StochasticDay48)->Unit(benchmark::kMillisecond);

void BM_TubeHourTip(benchmark::State& state) {
  set_log_level(LogLevel::kOff);
  for (auto _ : state) {
    TubeSystem tube;
    benchmark::DoNotOptimize(tube.run_tip(1));
  }
}
BENCHMARK(BM_TubeHourTip)->Unit(benchmark::kMillisecond);

void BM_DeferralKernelBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<paper::MixRow> mix(n, paper::table8_mix_12()[0]);
  for (auto _ : state) {
    DemandProfile profile = paper::make_profile(mix, 1.5);
    benchmark::DoNotOptimize(
        DeferralKernel(profile, LagConvention::kPeriodStart));
  }
}
BENCHMARK(BM_DeferralKernelBuild)->Arg(12)->Arg(48)->Arg(96);

void BM_BatchSolvePerturbations12(benchmark::State& state) {
  // Table VI's workload shape: the 12-period baseline plus nine demand
  // perturbations, batched. Arg = thread count (1 vs hardware gives the
  // parallel speedup; outputs are bit-identical either way).
  BatchSolveOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  BatchSolver solver(options);
  BatchTiming timing;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.solve_generated(10, [](std::size_t task) -> StaticModel {
          if (task == 0) return paper::static_model_12();
          const int units = 18 + static_cast<int>(task) - 1;
          return paper::static_model_12_with_period1(
              paper::table11_period1_mix(units));
        }));
    timing = solver.last_timing();
  }
  state.counters["tasks"] = static_cast<double>(timing.tasks);
  state.counters["threads"] = static_cast<double>(timing.threads);
  state.counters["fista_iters"] =
      static_cast<double>(timing.total_iterations);
  state.counters["anchor_iters"] =
      static_cast<double>(timing.anchor_iterations);
  state.counters["batch_wall_s"] = timing.wall_seconds;
}
BENCHMARK(BM_BatchSolvePerturbations12)
    ->Arg(1)
    ->Arg(static_cast<long>(hardware_threads()))
    ->Unit(benchmark::kMillisecond);

void BM_BatchSolveCostSweep48(benchmark::State& state) {
  // Fig. 6's workload shape: nine capacity-cost scales of the 48-period
  // model. Models are built once; only the solves are timed.
  const auto base_cost = math::PiecewiseLinearCost::hinge(3.0);
  std::vector<StaticModel> models;
  for (double log_a = -2.0; log_a <= 2.01; log_a += 0.5) {
    models.emplace_back(
        paper::make_profile(paper::table7_mix_48(),
                            paper::kStaticNormalizationReward),
        paper::kStaticCapacityUnits,
        base_cost.scaled(std::pow(10.0, log_a)));
  }
  BatchSolveOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  BatchSolver solver(options);
  BatchTiming timing;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(models));
    timing = solver.last_timing();
  }
  state.counters["tasks"] = static_cast<double>(timing.tasks);
  state.counters["threads"] = static_cast<double>(timing.threads);
  state.counters["fista_iters"] =
      static_cast<double>(timing.total_iterations);
  state.counters["anchor_iters"] =
      static_cast<double>(timing.anchor_iterations);
  state.counters["batch_wall_s"] = timing.wall_seconds;
}
BENCHMARK(BM_BatchSolveCostSweep48)
    ->Arg(1)
    ->Arg(static_cast<long>(hardware_threads()))
    ->Unit(benchmark::kMillisecond);

void BM_MultiStartEstimation(benchmark::State& state) {
  // Parallel multi-start LM over the Table III setup. Arg = thread count.
  PatienceMix truth(3, 2, 1.0);
  truth.set(0, 0, 0.17, 1.0);
  truth.set(0, 1, 0.83, 2.0);
  truth.set(1, 0, 0.50, 1.0);
  truth.set(1, 1, 0.50, 2.33);
  truth.set(2, 0, 0.83, 1.0);
  truth.set(2, 1, 0.17, 2.67);
  const std::vector<double> demand = {22.0, 13.0, 8.0};
  const WaitingFunctionEstimator estimator(3, 2, 1.0);
  Rng rng(2011);
  std::vector<EstimationDataset> data;
  for (int d = 0; d < 20; ++d) {
    math::Vector rewards(3);
    for (double& p : rewards) p = rng.uniform(0.0, 1.0);
    data.push_back(estimator.synthesize(truth, demand, rewards));
  }
  WaitingFunctionEstimator::MultiStartOptions options;
  options.starts = 8;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.estimate_multistart(demand, data, options));
  }
  state.counters["starts"] = static_cast<double>(options.starts);
  state.counters["threads"] = static_cast<double>(options.threads);
}
BENCHMARK(BM_MultiStartEstimation)
    ->Arg(1)
    ->Arg(static_cast<long>(hardware_threads()))
    ->Unit(benchmark::kMillisecond);

}  // namespace
