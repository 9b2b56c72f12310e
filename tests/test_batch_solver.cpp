// Determinism and correctness of the parallel batch-solve engine.
//
// The engine's contract is strict: for the same batch, any thread count
// produces bit-identical PricingSolutions. These tests compare doubles with
// EXPECT_EQ on purpose — "close enough" would hide scheduling-dependent
// arithmetic, which is exactly the bug class the contract forbids.
#include "core/batch_solver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/paper_data.hpp"

namespace tdp {
namespace {

std::vector<StaticModel> perturbation_batch() {
  std::vector<StaticModel> models;
  models.push_back(paper::static_model_12());
  for (int units = 18; units <= 26; units += 2) {
    models.push_back(paper::static_model_12_with_period1(
        paper::table11_period1_mix(units)));
  }
  return models;
}

void expect_bit_identical(const PricingSolution& a, const PricingSolution& b) {
  ASSERT_EQ(a.rewards.size(), b.rewards.size());
  for (std::size_t i = 0; i < a.rewards.size(); ++i) {
    EXPECT_EQ(a.rewards[i], b.rewards[i]) << "reward " << i;
    EXPECT_EQ(a.usage[i], b.usage[i]) << "usage " << i;
  }
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.reward_cost, b.reward_cost);
  EXPECT_EQ(a.capacity_cost, b.capacity_cost);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(BatchSolver, OneThreadVsManyThreadsBitIdentical) {
  const std::vector<StaticModel> models = perturbation_batch();

  BatchSolveOptions serial;
  serial.threads = 1;
  BatchSolveOptions parallel;
  parallel.threads = 4;

  const auto serial_sols = BatchSolver(serial).solve(models);
  const auto parallel_sols = BatchSolver(parallel).solve(models);
  ASSERT_EQ(serial_sols.size(), parallel_sols.size());
  for (std::size_t t = 0; t < serial_sols.size(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    expect_bit_identical(serial_sols[t], parallel_sols[t]);
  }
}

TEST(BatchSolver, ColdStartMatchesDirectSolves) {
  // With warm-start off, every task is exactly the single-solve path, so
  // the batch must reproduce optimize_static_prices bit for bit.
  const std::vector<StaticModel> models = perturbation_batch();
  BatchSolveOptions options;
  options.threads = 4;
  options.warm_start = false;
  const auto batch_sols = BatchSolver(options).solve(models);
  for (std::size_t t = 0; t < models.size(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    expect_bit_identical(batch_sols[t], optimize_static_prices(models[t]));
  }
}

TEST(BatchSolver, WarmStartReachesTheSameOptimum) {
  // Warm-started tasks take a different FISTA trajectory but the problem
  // is convex: the optimum value must agree to solver tolerance, and the
  // warm path must not cost more iterations than the cold path overall.
  const std::vector<StaticModel> models = perturbation_batch();
  BatchSolveOptions warm;
  warm.threads = 1;
  BatchSolveOptions cold = warm;
  cold.warm_start = false;

  BatchSolver warm_solver(warm);
  BatchSolver cold_solver(cold);
  const auto warm_sols = warm_solver.solve(models);
  const auto cold_sols = cold_solver.solve(models);
  for (std::size_t t = 0; t < models.size(); ++t) {
    EXPECT_NEAR(warm_sols[t].total_cost, cold_sols[t].total_cost,
                1e-7 * (1.0 + cold_sols[t].total_cost))
        << "task " << t;
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(warm_sols[t].rewards[i], cold_sols[t].rewards[i], 1e-4);
    }
  }
  // The perturbations live in the anchor's basin, so warm starts must cut
  // the non-anchor iteration budget.
  EXPECT_LT(warm_solver.last_timing().total_iterations,
            cold_solver.last_timing().total_iterations);
}

TEST(BatchSolver, GeneratedBatchMatchesMaterializedBatch) {
  const std::vector<StaticModel> models = perturbation_batch();
  BatchSolveOptions options;
  options.threads = 4;
  const auto from_vector = BatchSolver(options).solve(models);
  const auto from_factory = BatchSolver(options).solve_generated(
      models.size(), [&models](std::size_t t) { return models[t]; });
  ASSERT_EQ(from_vector.size(), from_factory.size());
  for (std::size_t t = 0; t < from_vector.size(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    expect_bit_identical(from_vector[t], from_factory[t]);
  }
}

TEST(BatchSolver, ConcurrentRescaledBuildsMatchUnsharedBuilds) {
  // Every task rescales one period of one shared profile, the online
  // pricer's rebuild pattern, so the concurrent kernel builds read the
  // same waiting-function objects from four threads at once. Each build
  // owns its state, so no thread may see another's rows or weights. The
  // reference builds each task from its own fresh objects, serially.
  const StaticModel shared = paper::static_model_12();
  const auto rescaled = [](DemandProfile profile, std::size_t t) {
    profile.scale_period(t % profile.periods(),
                         0.9 + 0.02 * static_cast<double>(t));
    return profile;
  };
  const auto shared_task = [&](std::size_t t) {
    return StaticModel(rescaled(shared.demand(), t), shared.capacity(),
                       shared.capacity_cost());
  };
  const auto fresh_task = [&](std::size_t t) {
    return StaticModel(rescaled(paper::static_model_12().demand(), t),
                       shared.capacity(), shared.capacity_cost());
  };
  BatchSolveOptions parallel;
  parallel.threads = 4;
  BatchSolveOptions serial;
  serial.threads = 1;
  const std::size_t tasks = 16;
  const auto concurrent = BatchSolver(parallel).solve_generated(tasks,
                                                               shared_task);
  const auto reference = BatchSolver(serial).solve_generated(tasks,
                                                            fresh_task);
  ASSERT_EQ(concurrent.size(), reference.size());
  for (std::size_t t = 0; t < tasks; ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    expect_bit_identical(concurrent[t], reference[t]);
  }
}

TEST(BatchSolver, TimingIsPopulated) {
  const std::vector<StaticModel> models = perturbation_batch();
  BatchSolveOptions options;
  options.threads = 2;
  BatchSolver solver(options);
  solver.solve(models);
  const BatchTiming& timing = solver.last_timing();
  EXPECT_EQ(timing.tasks, models.size());
  EXPECT_EQ(timing.threads, 2u);
  EXPECT_GT(timing.total_iterations, 0u);
  EXPECT_GT(timing.anchor_iterations, 0u);
  EXPECT_LE(timing.anchor_iterations, timing.total_iterations);
  EXPECT_GT(timing.wall_seconds, 0.0);
}

TEST(BatchSolver, EmptyBatch) {
  BatchSolver solver;
  EXPECT_TRUE(solver.solve({}).empty());
  EXPECT_EQ(solver.last_timing().tasks, 0u);
}

TEST(BatchSolver, MoreThreadsThanTasksIsClamped) {
  std::vector<StaticModel> models;
  models.push_back(paper::static_model_12());
  models.push_back(paper::static_model_12());
  BatchSolveOptions options;
  options.threads = 16;
  // Cold starts so both copies of the identical model take the identical
  // trajectory (warm-started task 1 would differ from the anchor).
  options.warm_start = false;
  BatchSolver solver(options);
  const auto sols = solver.solve(models);
  EXPECT_EQ(solver.last_timing().threads, 2u);
  expect_bit_identical(sols[0], sols[1]);
}

}  // namespace
}  // namespace tdp
