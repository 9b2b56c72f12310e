// Kernel perf suite: named microbenches for the fused SoA deferral-kernel
// paths, emitting BENCH_JSON lines plus a machine-readable BENCH_kernel.json
// for the CI perf gate (tools/check_bench_regression.py).
//
//   kernel_eval          one full flows+derivatives evaluation, reference
//                        DeferralKernel queries vs KernelPlan::evaluate
//   static_solve         nonlinear (gamma < 1) 12-period static FISTA solve,
//                        reference objective vs fused value_and_gradient
//   online_resolve       one online 1-D re-solve period, full-recompute
//                        golden section vs the incremental column updates
//   online_observe       whole OnlinePricer::observe_period calls on the
//                        fleet's 48-period model (in-place demand rescale,
//                        kernel rebuild, solve) vs the solve alone; the
//                        same-process ratio is gated by a ceiling, and the
//                        update and solve are reported in us per
//                        observation
//   dynamic_solve        the fleet's 48-period offline dynamic solve (the
//                        horizon's re-anchor re-solve), reference objective
//                        vs the fused plan, plus the fused per-call cost of
//                        smoothed_cost and smoothed_cost_and_gradient, and
//                        the CPUs each side ran on
//   deferral_table_build fleet per-period DeferralTable, lag_weight calls
//                        vs the table (one pow per distinct schedule and
//                        gamma, the waiting functions' tabulated node
//                        powers)
//   screen_batch         simd::fork_uniform_screen_batch over 10k users in
//                        the shard's 256-user calls, every body the host
//                        runs (scalar, AVX2, AVX-512) in alternating
//                        rounds: ns per user of each and the AVX-512
//                        body's speedup over the AVX2 one
//   fleet_shard_step     one shard simulating one period of a 20k-user day
//   fleet_sweep          a 10k-user fleet day (128 slices, 64 shards) on 1
//                        thread vs 4, in alternating rounds: ms per period
//                        of each side and their ratio, parallel_speedup,
//                        and the CPUs each side's threads ran on
//
// Every reference/fused pair is bitwise identical (tests/test_kernel_plan);
// the suite records wall time per side and the speedup ratio. Ratios are
// machine-independent and gate the ISSUE's speedup floors; absolute times
// are normalized by calibration_seconds (a fixed reference workload timed in
// the same process) before baseline comparison, so the 15% regression gate
// tolerates host-speed differences.
//
//   ./bench/bench_kernel_suite --out BENCH_kernel.json [--reps N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "core/deferral_kernel.hpp"
#include "core/kernel_plan.hpp"
#include "core/paper_data.hpp"
#include "core/static_model.hpp"
#include "core/static_optimizer.hpp"
#include "dynamic/dynamic_model.hpp"
#include "dynamic/dynamic_optimizer.hpp"
#include "dynamic/online_pricer.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/population.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/control_loop.hpp"
#include "fleet/shard.hpp"
#include "math/golden_section.hpp"
#include "math/piecewise_linear.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace {

using Clock = std::chrono::steady_clock;

/// The paper's 12-period mix with concave (gamma < 1) reward sensitivity:
/// the configuration where the kernel cannot fall back to linear unit
/// tables, i.e. where the fused pow-hoisting actually pays.
tdp::StaticModel nonlinear_static_model() {
  return tdp::StaticModel(
      tdp::paper::make_profile(tdp::paper::table8_mix_12(),
                               tdp::paper::kStaticNormalizationReward,
                               tdp::LagNormalization::kDiscrete,
                               /*gamma=*/0.7),
      tdp::paper::kStaticCapacityUnits,
      tdp::math::PiecewiseLinearCost::hinge(tdp::paper::kStaticCostSlope,
                                            0.0));
}

tdp::DynamicModel nonlinear_dynamic_model() {
  return tdp::DynamicModel(
      tdp::paper::make_profile(tdp::paper::table8_mix_12(),
                               tdp::paper::kStaticNormalizationReward,
                               tdp::LagNormalization::kContinuous,
                               /*gamma=*/0.7),
      tdp::paper::kDynamicCapacityUnits,
      tdp::math::PiecewiseLinearCost::hinge(tdp::paper::kDynamicCostSlope,
                                            0.0));
}

tdp::math::Vector mid_rewards(std::size_t n, double level) {
  return tdp::math::Vector(n, level);
}

/// Whether two linear kernels' unit tables hold the same bits.
bool same_unit_tables(const tdp::DeferralKernel& a,
                      const tdp::DeferralKernel& b) {
  const auto ta = a.unit_tables();
  const auto tb = b.unit_tables();
  if (ta == nullptr || tb == nullptr) return ta == tb;
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return same(ta->by_row, tb->by_row) && same(ta->by_column, tb->by_column) &&
         same(ta->inflow, tb->inflow);
}

/// The CPU the calling thread runs on; -1 where the platform cannot tell.
int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// How many distinct CPUs `cpus` names (0 when none is known).
std::size_t distinct_cpus(std::vector<int> cpus) {
  cpus.erase(std::remove(cpus.begin(), cpus.end(), -1), cpus.end());
  std::sort(cpus.begin(), cpus.end());
  return static_cast<std::size_t>(
      std::unique(cpus.begin(), cpus.end()) - cpus.begin());
}

/// How many distinct CPUs `threads` threads run on: a batch of 64 short
/// tasks on them (the global pool when `threads` is its size, inline on
/// the caller for 1), each recording its CPU after spinning 2 us. 0 where
/// the platform cannot tell.
std::size_t cpus_used(std::size_t threads) {
  constexpr std::size_t kTasks = 64;
  std::vector<int> cpu(kTasks, -1);
  tdp::parallel_for(
      kTasks,
      [&cpu](std::size_t i) {
        const auto until = Clock::now() + std::chrono::microseconds(2);
        while (Clock::now() < until) {
        }
        cpu[i] = current_cpu();
      },
      threads);
  return distinct_cpus(std::move(cpu));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp;

  std::string out_path;
  std::size_t reps = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    }
  }

  bench::banner("kernel_suite",
                "fused SoA kernel vs reference path microbenches");

  std::vector<bench::SuiteEntry> entries;

  const double calibration = bench::calibration_seconds();

  // ---- kernel_eval: full flows + derivatives, reference vs plan ----------
  {
    const StaticModel model = nonlinear_static_model();
    const DeferralKernel& kernel = model.kernel();
    const std::size_t n = kernel.periods();
    const math::Vector rewards = mid_rewards(n, 0.8);

    double sink = 0.0;
    const double reference_seconds = bench::time_reps(reps, [&] {
      // The per-iteration kernel work of the reference smoothed cost +
      // gradient: inflow, inflow derivative and outflow per period, plus
      // the n^2 pair-volume derivatives the gradient sums.
      for (std::size_t i = 0; i < n; ++i) {
        sink += kernel.inflow(i, rewards[i]);
        sink += kernel.inflow_derivative(i, rewards[i]);
        sink += kernel.outflow(i, rewards);
        for (std::size_t m = 0; m < n; ++m) {
          if (m == i) continue;
          sink += kernel.pair_volume_derivative(i, m, rewards[m]);
        }
      }
    });

    const auto plan = kernel.plan();
    FlowState state;
    const double fused_seconds = bench::time_reps(reps, [&] {
      plan->evaluate(rewards, /*with_derivatives=*/true, state);
      sink += state.inflow[0];
    });
    if (sink < 0.0) std::printf("?\n");

    const double speedup = fused_seconds > 0.0
                               ? reference_seconds / fused_seconds
                               : 0.0;
    std::printf("  kernel_eval          ref %.3f ms  fused %.3f ms  (%.1fx)\n",
                1e3 * reference_seconds / static_cast<double>(reps),
                1e3 * fused_seconds / static_cast<double>(reps), speedup);
    bench::BenchReport report("kernel_eval");
    report.add("reps", static_cast<std::uint64_t>(reps));
    report.add("reference_seconds", reference_seconds);
    report.add("fused_seconds", fused_seconds);
    report.add("speedup", speedup);
    report.emit();
    entries.push_back({"kernel_eval",
                       {{"reference_seconds", reference_seconds},
                        {"fused_seconds", fused_seconds},
                        {"speedup", speedup}}});
  }

  // ---- static_solve: nonlinear FISTA solve, reference vs fused -----------
  {
    const StaticModel model = nonlinear_static_model();
    StaticOptimizerOptions reference_options;
    reference_options.fused = false;
    StaticOptimizerOptions fused_options;
    fused_options.fused = true;

    auto start = Clock::now();
    const PricingSolution reference =
        optimize_static_prices(model, reference_options);
    const double reference_seconds = bench::seconds_since(start);

    start = Clock::now();
    const PricingSolution fused = optimize_static_prices(model, fused_options);
    const double fused_seconds = bench::seconds_since(start);

    // The two solves are bitwise identical; any drift here is a bug.
    if (reference.total_cost != fused.total_cost) {
      std::fprintf(stderr,
                   "FATAL: fused static solve diverged from reference\n");
      return 1;
    }
    const double speedup =
        fused_seconds > 0.0 ? reference_seconds / fused_seconds : 0.0;
    std::printf("  static_solve         ref %.3f s   fused %.3f s   (%.1fx)\n",
                reference_seconds, fused_seconds, speedup);
    bench::BenchReport report("static_solve");
    report.add("reference_seconds", reference_seconds);
    report.add("fused_seconds", fused_seconds);
    report.add("speedup", speedup);
    report.add("iterations", static_cast<std::uint64_t>(fused.iterations));
    report.emit();
    entries.push_back({"static_solve",
                       {{"reference_seconds", reference_seconds},
                        {"fused_seconds", fused_seconds},
                        {"speedup", speedup}}});
  }

  // ---- online_resolve: one period's 1-D re-solve, ref vs incremental -----
  {
    const DynamicModel model = nonlinear_dynamic_model();
    const std::size_t n = model.periods();
    const double cap = model.reward_cap();
    math::Vector rewards = mid_rewards(n, 0.4);

    const std::size_t solve_reps = 24;  // two full days of period solves
    double sink = 0.0;
    std::size_t period = 0;
    const double reference_seconds = bench::time_reps(solve_reps, [&] {
      // Reference online step: golden section where every candidate is a
      // full O(n^2) total_cost.
      const auto objective = [&](double candidate) {
        math::Vector probe = rewards;
        probe[period] = candidate;
        return model.total_cost(probe);
      };
      sink += math::minimize_golden_section(objective, 0.0, cap, 1e-7, 200).x;
      period = (period + 1) % n;
    });

    FlowState scratch;
    model.prime_flow_state(rewards, /*with_derivatives=*/false, scratch);
    period = 0;
    const double incremental_seconds = bench::time_reps(solve_reps, [&] {
      const auto objective = [&](double candidate) {
        return model.total_cost_with_coordinate(period, candidate, scratch);
      };
      const double best =
          math::minimize_golden_section(objective, 0.0, cap, 1e-7, 200).x;
      // Leave the cached matrix at the original schedule, as the pricer
      // leaves it at the accepted reward.
      model.total_cost_with_coordinate(period, rewards[period], scratch);
      sink += best;
      period = (period + 1) % n;
    });
    if (sink < 0.0) std::printf("?\n");

    const double speedup = incremental_seconds > 0.0
                               ? reference_seconds / incremental_seconds
                               : 0.0;
    std::printf(
        "  online_resolve       ref %.3f ms  incr %.3f ms  (%.1fx)\n",
        1e3 * reference_seconds / static_cast<double>(solve_reps),
        1e3 * incremental_seconds / static_cast<double>(solve_reps), speedup);
    bench::BenchReport report("online_resolve");
    report.add("reps", static_cast<std::uint64_t>(solve_reps));
    report.add("reference_seconds", reference_seconds);
    report.add("incremental_seconds", incremental_seconds);
    report.add("speedup", speedup);
    report.emit();
    entries.push_back({"online_resolve",
                       {{"reference_seconds", reference_seconds},
                        {"incremental_seconds", incremental_seconds},
                        {"speedup", speedup}}});
  }

  // ---- online_observe: whole observe_period calls vs the solve alone -----
  {
    fleet::PopulationConfig config;
    config.users = 1000;  // the fluid model only reads the demand shape
    config.periods = 48;
    const fleet::Population population(config);
    const DynamicModel baseline = fleet::baseline_fluid_model(population);
    const std::size_t n = baseline.periods();
    OnlinePricer pricer(baseline);

    const double cap =
        baseline.reward_cap() * DynamicOptimizerOptions{}.reward_cap_factor;

    // Alternate one day of observations (each within +-20% of the baseline
    // forecast, so each rescales its period and rebuilds the kernel) with
    // the same day's demand updates alone, replayed on a copy of the model
    // the day started from, and the day's golden sections alone, run the
    // way online_resolve times them: on the pricer's model from a primed
    // scratch. The best day of each side is kept, so a host slowdown
    // during one round skews neither the times nor their ratio.
    const std::size_t rounds = 5;
    Rng rng(13);
    double observe_seconds = 0.0;
    double update_seconds = 0.0;
    double solve_seconds = 0.0;
    double sink = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      std::vector<double> measured(n);
      for (std::size_t p = 0; p < n; ++p) {
        measured[p] = baseline.arrivals().tip_demand(p) * rng.uniform(0.8, 1.2);
      }
      DynamicModel replica = pricer.model();
      auto start = Clock::now();
      for (std::size_t p = 0; p < n; ++p) {
        sink += pricer.observe_period(p, measured[p]).new_reward;
      }
      const double observe_day = bench::seconds_since(start);

      // The pricer's update: the period rescaled to its measurement (no
      // observation here reaches the stability clamp) and the new
      // kernel's plan.
      start = Clock::now();
      for (std::size_t p = 0; p < n; ++p) {
        replica.rescale_period(p,
                               measured[p] / replica.arrivals().tip_demand(p));
        replica.kernel().plan();
      }
      const double update_day = bench::seconds_since(start);

      // The updates rescale in place; with_arrivals rebuilds the same
      // kernel from a copy of the profile. Any difference is a bug.
      if (!same_unit_tables(
              pricer.model().kernel(),
              baseline.with_arrivals(pricer.model().arrivals()).kernel())) {
        std::fprintf(stderr,
                     "FATAL: in-place demand update diverged from "
                     "with_arrivals\n");
        return 1;
      }

      const DynamicModel& model = pricer.model();
      const math::Vector rewards = pricer.rewards();
      FlowState scratch;
      model.prime_flow_state(rewards, /*with_derivatives=*/false, scratch);
      start = Clock::now();
      for (std::size_t p = 0; p < n; ++p) {
        const auto objective = [&](double candidate) {
          return model.total_cost_with_coordinate(p, candidate, scratch);
        };
        sink += math::minimize_golden_section(objective, 0.0, cap, 1e-7, 200).x;
        model.total_cost_with_coordinate(p, rewards[p], scratch);
      }
      const double solve_day = bench::seconds_since(start);
      if (round == 0 || observe_day < observe_seconds) {
        observe_seconds = observe_day;
      }
      if (round == 0 || update_day < update_seconds) {
        update_seconds = update_day;
      }
      if (round == 0 || solve_day < solve_seconds) solve_seconds = solve_day;
    }
    if (sink < 0.0) std::printf("?\n");

    const double observe_per_solve =
        solve_seconds > 0.0 ? observe_seconds / solve_seconds : 0.0;
    const double update_us = 1e6 * update_seconds / static_cast<double>(n);
    const double solve_us = 1e6 * solve_seconds / static_cast<double>(n);
    std::printf(
        "  online_observe       observe %.3f ms  solve %.3f ms  (%.2fx; "
        "update %.2f us, solve %.2f us per observation)\n",
        1e3 * observe_seconds / static_cast<double>(n),
        1e3 * solve_seconds / static_cast<double>(n), observe_per_solve,
        update_us, solve_us);
    bench::BenchReport report("online_observe");
    report.add("reps", static_cast<std::uint64_t>(n));
    report.add("rounds", static_cast<std::uint64_t>(rounds));
    report.add("observe_seconds", observe_seconds);
    report.add("solve_seconds", solve_seconds);
    report.add("observe_per_solve", observe_per_solve);
    report.add("update_us", update_us);
    report.add("solve_us", solve_us);
    report.emit();
    entries.push_back({"online_observe",
                       {{"observe_seconds", observe_seconds},
                        {"solve_seconds", solve_seconds},
                        {"observe_per_solve", observe_per_solve},
                        {"update_us", update_us},
                        {"solve_us", solve_us}}});
  }

  // ---- dynamic_solve: the fleet's offline dynamic solve, ref vs fused -----
  {
    fleet::PopulationConfig config;
    config.users = 1000;  // the fluid model only reads the demand shape
    config.periods = 48;
    const fleet::Population population(config);
    const DynamicModel model = fleet::baseline_fluid_model(population);
    DynamicOptimizerOptions reference_options;
    reference_options.fused = false;
    const DynamicOptimizerOptions fused_options;

    // Alternating rounds, best solve of each side kept, so a host slowdown
    // during one round skews neither the times nor their ratio. Seven, as
    // fleet_sweep runs: with three the speedup's spread reached its floor.
    // Each side's CPU is read as each of its rounds starts and ends, so a
    // low speedup shows whether either side moved between CPUs.
    const std::size_t rounds = 7;
    double reference_seconds = 0.0;
    double fused_seconds = 0.0;
    DynamicPricingSolution reference;
    DynamicPricingSolution fused;
    std::vector<int> reference_cpus;
    std::vector<int> fused_cpus;
    for (std::size_t round = 0; round < rounds; ++round) {
      reference_cpus.push_back(current_cpu());
      auto start = Clock::now();
      reference = optimize_dynamic_prices(model, reference_options);
      const double reference_round = bench::seconds_since(start);
      reference_cpus.push_back(current_cpu());
      fused_cpus.push_back(current_cpu());
      start = Clock::now();
      fused = optimize_dynamic_prices(model, fused_options);
      const double fused_round = bench::seconds_since(start);
      fused_cpus.push_back(current_cpu());
      if (round == 0 || reference_round < reference_seconds) {
        reference_seconds = reference_round;
      }
      if (round == 0 || fused_round < fused_seconds) {
        fused_seconds = fused_round;
      }
    }
    // The two solves are bitwise identical; any drift here is a bug.
    if (reference.rewards != fused.rewards ||
        reference.iterations != fused.iterations) {
      std::fprintf(stderr,
                   "FATAL: fused dynamic solve diverged from reference\n");
      return 1;
    }
    const double speedup =
        fused_seconds > 0.0 ? reference_seconds / fused_seconds : 0.0;

    // One fused call of each objective at the solution, best of five
    // batches.
    const std::size_t call_reps = 200;
    const double mu = fused_options.mu_final;
    math::Vector grad(model.periods(), 0.0);
    FlowState state;
    double sink = 0.0;
    double cost_seconds = 0.0;
    double gradient_seconds = 0.0;
    for (std::size_t batch = 0; batch < 5; ++batch) {
      const double cost_batch = bench::time_reps(call_reps, [&] {
        sink += model.smoothed_cost(fused.rewards, mu, state);
      });
      const double gradient_batch = bench::time_reps(call_reps, [&] {
        sink += model.smoothed_cost_and_gradient(fused.rewards, mu, grad,
                                                 state);
      });
      if (batch == 0 || cost_batch < cost_seconds) cost_seconds = cost_batch;
      if (batch == 0 || gradient_batch < gradient_seconds) {
        gradient_seconds = gradient_batch;
      }
    }
    if (sink < 0.0) std::printf("?\n");
    const double cost_call_us =
        1e6 * cost_seconds / static_cast<double>(call_reps);
    const double gradient_call_us =
        1e6 * gradient_seconds / static_cast<double>(call_reps);

    const std::size_t reference_cpus_used =
        distinct_cpus(std::move(reference_cpus));
    const std::size_t fused_cpus_used = distinct_cpus(std::move(fused_cpus));
    std::printf(
        "  dynamic_solve        ref %.1f ms  fused %.1f ms  (%.1fx, %zu "
        "iterations; cost %.2f us, cost+grad %.2f us per call; on %zu and "
        "%zu CPUs)\n",
        1e3 * reference_seconds, 1e3 * fused_seconds, speedup,
        fused.iterations, cost_call_us, gradient_call_us,
        reference_cpus_used, fused_cpus_used);
    bench::BenchReport report("dynamic_solve");
    report.add("rounds", static_cast<std::uint64_t>(rounds));
    report.add("iterations", static_cast<std::uint64_t>(fused.iterations));
    report.add("reference_seconds", reference_seconds);
    report.add("fused_seconds", fused_seconds);
    report.add("speedup", speedup);
    report.add("cost_call_us", cost_call_us);
    report.add("cost_and_gradient_call_us", gradient_call_us);
    report.add("reference_cpus_used",
               static_cast<std::uint64_t>(reference_cpus_used));
    report.add("fused_cpus_used", static_cast<std::uint64_t>(fused_cpus_used));
    report.emit();
    entries.push_back(
        {"dynamic_solve",
         {{"reference_seconds", reference_seconds},
          {"fused_seconds", fused_seconds},
          {"speedup", speedup},
          {"cost_call_us", cost_call_us},
          {"cost_and_gradient_call_us", gradient_call_us},
          {"reference_cpus_used", static_cast<double>(reference_cpus_used)},
          {"fused_cpus_used", static_cast<double>(fused_cpus_used)}}});
  }

  // ---- deferral_table_build: fleet per-period table, ref vs table --------
  {
    fleet::PopulationConfig config;
    config.users = 1000;  // table cost is user-count independent
    config.periods = 48;
    const fleet::Population population(config);
    const std::size_t n = population.periods();
    const std::size_t classes = population.patience_classes();
    const math::Vector schedule = mid_rewards(n, 0.6);
    std::vector<const math::Vector*> schedules(classes, &schedule);

    double sink = 0.0;
    const std::size_t table_reps = 100;
    const double reference_seconds = bench::time_reps(table_reps, [&] {
      // The pre-table construction loop: one lag_weight quadrature per
      // (class, lag).
      for (std::size_t c = 0; c < classes; ++c) {
        const PowerLawWaitingFunction& w =
            *population.waiting(static_cast<std::uint32_t>(c));
        for (std::size_t lag = 1; lag < n; ++lag) {
          sink += lag_weight(w, schedule[(lag) % n], lag,
                             LagConvention::kUniformArrival);
        }
      }
    });
    const double table_seconds = bench::time_reps(table_reps, [&] {
      const fleet::DeferralTable table(population, schedules, 0);
      sink += table.cumulative(0, 1);
    });
    if (sink < 0.0) std::printf("?\n");

    const double speedup =
        table_seconds > 0.0 ? reference_seconds / table_seconds : 0.0;
    std::printf(
        "  deferral_table_build ref %.3f ms  table %.3f ms (%.1fx)\n",
        1e3 * reference_seconds / static_cast<double>(table_reps),
        1e3 * table_seconds / static_cast<double>(table_reps), speedup);
    bench::BenchReport report("deferral_table_build");
    report.add("reps", static_cast<std::uint64_t>(table_reps));
    report.add("reference_seconds", reference_seconds);
    report.add("table_seconds", table_seconds);
    report.add("speedup", speedup);
    report.emit();
    entries.push_back({"deferral_table_build",
                       {{"reference_seconds", reference_seconds},
                        {"table_seconds", table_seconds},
                        {"speedup", speedup}}});
  }

  // ---- screen_batch: the per-user stream screen, every body the host runs -
  {
    // 10k users in the shard's 256-user calls, one batch's output buffers
    // reused per call as the shard reuses them, so u1 and the resume states
    // stay in L1.
    constexpr std::size_t kUsers = 10000;
    constexpr std::size_t kBatch = 256;
    constexpr std::size_t kClasses = 32;
    using Body = void (*)(const std::uint64_t*, std::size_t, std::uint64_t,
                          const std::uint32_t*, const double*, double*,
                          std::uint64_t*, std::uint64_t*);
    struct Side {
      const char* name;
      Body body;
      double seconds = 0.0;
    };
    std::vector<Side> sides = {
        {"scalar", &simd::detail::fork_uniform_screen_batch_scalar}};
#if defined(TDP_HAVE_AVX2)
    if (simd::avx2_supported()) {
      sides.push_back({"avx2", &simd::detail::fork_uniform_screen_batch_avx2});
    }
#endif
#if defined(TDP_HAVE_AVX512)
    if (simd::avx512_supported()) {
      sides.push_back(
          {"avx512", &simd::detail::fork_uniform_screen_batch_avx512});
    }
#endif
    std::vector<std::uint64_t> parents(kUsers);
    std::vector<std::uint32_t> cls(kUsers);
    std::vector<double> screen(kClasses);
    Rng rng(20110611);
    for (std::size_t i = 0; i < kUsers; ++i) {
      parents[i] = rng.next();
      cls[i] = static_cast<std::uint32_t>(rng.uniform_index(kClasses));
    }
    // Most user-periods screen out, as with the paper's mixes.
    for (double& threshold : screen) threshold = rng.uniform(0.8, 1.0);

    std::vector<double> u1(kUsers);
    std::vector<std::uint64_t> resume(kUsers);
    std::vector<std::uint64_t> mask((kUsers + 63) / 64);
    std::uint64_t sink = 0;
    // Every user in the shard's batches; `whole` keeps each batch's
    // outputs at its users' offsets (the bitwise check), else one batch's
    // buffers are reused.
    const auto walk = [&](Body body, std::uint64_t stream, bool whole) {
      for (std::size_t base = 0; base < kUsers; base += kBatch) {
        const std::size_t len = std::min(kBatch, kUsers - base);
        const std::size_t out = whole ? base : 0;
        body(parents.data() + base, len, stream, cls.data() + base,
             screen.data(), u1.data() + out, resume.data() + out,
             mask.data() + out / 64);
        sink += mask[out / 64];
      }
    };
    // Every body writes the scalar twin's bits; a drift is a bug.
    walk(sides[0].body, 7, true);
    const std::vector<double> u1_ref = u1;
    const std::vector<std::uint64_t> resume_ref = resume;
    const std::vector<std::uint64_t> mask_ref = mask;
    for (const Side& side : sides) {
      if (&side == &sides[0]) continue;
      walk(side.body, 7, true);
      if (std::memcmp(u1.data(), u1_ref.data(), kUsers * sizeof(double)) !=
              0 ||
          resume != resume_ref || mask != mask_ref) {
        std::fprintf(stderr, "FATAL: %s screen body diverged from scalar\n",
                     side.name);
        return 1;
      }
    }

    // Alternating rounds, the order reversed every other round, best
    // round of each body kept.
    const std::size_t rounds = 7;
    const std::size_t walks = 100;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t k = 0; k < sides.size(); ++k) {
        Side& side = sides[round % 2 == 0 ? k : sides.size() - 1 - k];
        std::uint64_t stream = 0;
        const double seconds = bench::time_reps(
            walks, [&] { walk(side.body, stream++, false); });
        if (round == 0 || seconds < side.seconds) side.seconds = seconds;
      }
    }
    if (sink == 1) std::printf("?\n");

    bench::BenchReport report("screen_batch");
    report.add("rounds", static_cast<std::uint64_t>(rounds));
    report.add("users", static_cast<std::uint64_t>(kUsers));
    bench::SuiteEntry entry{"screen_batch", {}};
    std::printf("  screen_batch        ");
    double avx2_seconds = 0.0;
    double avx512_seconds = 0.0;
    for (const Side& side : sides) {
      const double ns =
          1e9 * side.seconds / static_cast<double>(walks * kUsers);
      const std::string field = std::string(side.name) + "_ns_per_user";
      report.add(field, ns);
      entry.fields.emplace_back(field, ns);
      std::printf(" %s %.2f ns", side.name, ns);
      if (std::strcmp(side.name, "avx2") == 0) avx2_seconds = side.seconds;
      if (std::strcmp(side.name, "avx512") == 0) avx512_seconds = side.seconds;
    }
    std::printf(" per user");
    if (avx2_seconds > 0.0 && avx512_seconds > 0.0) {  // both bodies ran
      const double speedup = avx2_seconds / avx512_seconds;
      report.add("avx512_speedup", speedup);
      entry.fields.emplace_back("avx512_speedup", speedup);
      std::printf(" (avx512 %.2fx avx2)", speedup);
    }
    std::printf("\n");
    report.emit();
    entries.push_back(std::move(entry));
  }

  // ---- fleet_shard_step: one shard, one period, 20k users ---------------
  {
    fleet::PopulationConfig config;
    config.users = 20000;
    config.periods = 48;
    const fleet::Population population(config);
    const std::size_t classes = population.patience_classes();
    const math::Vector schedule = mid_rewards(population.periods(), 0.6);
    std::vector<const math::Vector*> schedules(classes, &schedule);
    const fleet::DeferralTable table(population, schedules, 0);

    fleet::Shard shard(population, 0, 1, 1);  // one slice covering all users
    fleet::StripedAggregator aggregator(1, population.periods());
    double sink = 0.0;
    const std::size_t shard_reps = 10;
    const double shard_seconds = bench::time_reps(shard_reps, [&] {
      shard.simulate_period(0, 0, table, aggregator);
      sink += aggregator.stripe(0, 0).offered_work;
    });
    if (sink < 0.0) std::printf("?\n");

    std::printf("  fleet_shard_step     %.3f ms per 20k-user period\n",
                1e3 * shard_seconds / static_cast<double>(shard_reps));
    bench::BenchReport report("fleet_shard_step");
    report.add("reps", static_cast<std::uint64_t>(shard_reps));
    report.add("users", static_cast<std::uint64_t>(config.users));
    report.add("shard_seconds", shard_seconds);
    report.emit();
    entries.push_back(
        {"fleet_shard_step", {{"shard_seconds", shard_seconds}}});
  }

  // ---- fleet_sweep: a 10k-user fleet day on 1 thread vs 4 ----------------
  {
    // The small-fleet period loop, where the pool's dispatch competes with
    // ~2 us shard tasks. The process default is set to the parallel
    // side's count so its sweeps run on the global pool, as perfbench's
    // do, not on a transient pool per sweep.
    constexpr std::size_t kThreads = 4;
    const std::size_t original_default = default_thread_count();
    set_default_thread_count(kThreads);
    const auto run_day = [](std::size_t threads) {
      fleet::FleetDriverConfig config;
      config.population.users = 10000;
      config.population.periods = 48;
      config.slices = 128;
      config.shards = 64;
      config.threads = threads;
      fleet::FleetDriver driver(config);
      return driver.run_day();
    };
    const auto ms_per_period = [](const fleet::FleetMetrics& m) {
      return 1e3 * m.wall_seconds /
             static_cast<double>(m.days * m.periods);
    };
    // Alternating rounds, best day of each side kept, so a host slowdown
    // during one round skews neither the times nor their ratio.
    // After each day a short batch on the same threads records the CPUs
    // they run on (cpus_used); each side reports its best day's count, so
    // a failing parallel_speedup shows whether its threads shared a CPU.
    const std::size_t rounds = 7;
    double serial_ms = 0.0;
    double parallel_ms = 0.0;
    std::size_t serial_cpus = 0;
    std::size_t parallel_cpus = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
      const fleet::FleetMetrics serial = run_day(1);
      const std::size_t serial_round_cpus = cpus_used(1);
      const fleet::FleetMetrics parallel = run_day(kThreads);
      const std::size_t parallel_round_cpus = cpus_used(kThreads);
      // Any thread count yields the same aggregates; a drift is a bug.
      if (serial.offered_units != parallel.offered_units ||
          serial.realized_units != parallel.realized_units ||
          serial.sessions != parallel.sessions) {
        std::fprintf(stderr,
                     "FATAL: fleet day differs between 1 and %zu threads\n",
                     kThreads);
        return 1;
      }
      if (round == 0 || ms_per_period(serial) < serial_ms) {
        serial_ms = ms_per_period(serial);
        serial_cpus = serial_round_cpus;
      }
      if (round == 0 || ms_per_period(parallel) < parallel_ms) {
        parallel_ms = ms_per_period(parallel);
        parallel_cpus = parallel_round_cpus;
      }
    }
    set_default_thread_count(original_default);
    const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;

    std::printf(
        "  fleet_sweep          1 thread %.4f ms  %zu threads %.4f ms per "
        "10k-user period (%.2fx; on %zu and %zu CPUs)\n",
        serial_ms, kThreads, parallel_ms, speedup, serial_cpus,
        parallel_cpus);
    bench::BenchReport report("fleet_sweep");
    report.set_threads_used(kThreads);
    report.add("rounds", static_cast<std::uint64_t>(rounds));
    report.add("users", static_cast<std::uint64_t>(10000));
    report.add("threads", static_cast<std::uint64_t>(kThreads));
    report.add("serial_ms_per_period", serial_ms);
    report.add("parallel_ms_per_period", parallel_ms);
    report.add("parallel_speedup", speedup);
    report.add("serial_cpus_used", static_cast<std::uint64_t>(serial_cpus));
    report.add("parallel_cpus_used",
               static_cast<std::uint64_t>(parallel_cpus));
    report.emit();
    entries.push_back({"fleet_sweep",
                       {{"threads", static_cast<double>(kThreads)},
                        {"serial_ms_per_period", serial_ms},
                        {"parallel_ms_per_period", parallel_ms},
                        {"parallel_speedup", speedup},
                        {"serial_cpus_used", static_cast<double>(serial_cpus)},
                        {"parallel_cpus_used",
                         static_cast<double>(parallel_cpus)}}});
  }

  if (!out_path.empty() &&
      !bench::write_suite_json(out_path, calibration, entries)) {
    return 1;
  }
  return 0;
}
