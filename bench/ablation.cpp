// Ablations for the design choices DESIGN.md calls out:
//  A1  FISTA acceleration vs plain projected gradient
//  A2  smoothing continuation vs solving a single fixed mu
//  A3  smoothing accuracy: objective gap vs mu
//  A4  carry-over on/off: what the dynamic model adds over the static one
//  A5  fluid-vs-stochastic optimality gap at the dynamic optimum
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "core/paper_data.hpp"
#include "core/static_optimizer.hpp"
#include "dynamic/dynamic_optimizer.hpp"
#include "dynamic/paper_dynamic.hpp"
#include "dynamic/stochastic_sim.hpp"

int main() {
  using namespace tdp;
  bench::banner("Ablations", "design-choice studies");

  const StaticModel model = paper::static_model_48();

  // A1: acceleration.
  {
    StaticOptimizerOptions accel;
    StaticOptimizerOptions plain;
    plain.fista.accelerated = false;
    plain.fista.max_iterations = 20000;
    auto t0 = std::chrono::steady_clock::now();
    const auto fast = optimize_static_prices(model, accel);
    const double fast_s = bench::seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    const auto slow = optimize_static_prices(model, plain);
    const double slow_s = bench::seconds_since(t0);
    std::printf("\nA1  FISTA vs plain projected gradient (48p static):\n");
    TextTable t({"Solver", "Iterations", "Time (s)", "Final cost"});
    t.add_row({"FISTA", std::to_string(fast.iterations),
               TextTable::num(fast_s, 3), TextTable::num(fast.total_cost, 4)});
    t.add_row({"PGD", std::to_string(slow.iterations),
               TextTable::num(slow_s, 3), TextTable::num(slow.total_cost, 4)});
    bench::print_table(t);
  }

  // A2/A3: continuation vs fixed mu.
  {
    std::printf("\nA2/A3  smoothing continuation vs fixed mu:\n");
    TextTable t({"Schedule", "Iterations", "Exact cost",
                 "gap vs best (money units)"});
    StaticOptimizerOptions continuation;
    const auto best = optimize_static_prices(model, continuation);
    t.add_row({"continuation 1 -> 1e-5", std::to_string(best.iterations),
               TextTable::num(best.total_cost, 4), "0 (reference)"});
    for (double mu : {1.0, 0.1, 1e-3, 1e-5}) {
      StaticOptimizerOptions fixed;
      fixed.mu_initial = mu;
      fixed.mu_final = mu;
      const auto sol = optimize_static_prices(model, fixed);
      t.add_row({"fixed mu = " + TextTable::num(mu, 5),
                 std::to_string(sol.iterations),
                 TextTable::num(sol.total_cost, 4),
                 TextTable::num(sol.total_cost - best.total_cost, 4)});
    }
    bench::print_table(t);
  }

  // A4: carry-over on/off.
  {
    std::printf("\nA4  carry-over ablation (same inputs, A = 210 MBps):\n");
    // Static view of the dynamic inputs: cost per period with no backlog
    // memory vs the dynamic steady state.
    DemandProfile profile = paper::make_profile(
        paper::table7_mix_48(), paper::kStaticNormalizationReward,
        LagNormalization::kContinuous);
    const StaticModel static_like(
        profile, paper::kDynamicCapacityUnits,
        math::PiecewiseLinearCost::hinge(paper::kDynamicCostSlope));
    const auto static_sol = optimize_static_prices(static_like);
    const DynamicModel dynamic = paper::dynamic_model_48();
    const auto dynamic_sol = optimize_dynamic_prices(dynamic);
    TextTable t({"Model", "TIP cost", "TDP cost", "Savings (%)",
                 "Max reward"});
    double ms = 0.0;
    double md = 0.0;
    for (double p : static_sol.rewards) ms = std::max(ms, p);
    for (double p : dynamic_sol.rewards) md = std::max(md, p);
    t.add_row({"no carry-over (static)",
               TextTable::num(static_sol.tip_cost, 1),
               TextTable::num(static_sol.total_cost, 1),
               TextTable::num(100.0 * (static_sol.tip_cost -
                                       static_sol.total_cost) /
                                  std::max(static_sol.tip_cost, 1e-9),
                              1),
               TextTable::num(ms, 3)});
    t.add_row({"carry-over (dynamic)",
               TextTable::num(dynamic_sol.tip_cost, 1),
               TextTable::num(dynamic_sol.evaluation.total_cost, 1),
               TextTable::num(100.0 * (dynamic_sol.tip_cost -
                                       dynamic_sol.evaluation.total_cost) /
                                  dynamic_sol.tip_cost,
                              1),
               TextTable::num(md, 3)});
    bench::print_table(t);
    std::printf("  carry-over amplifies both the TIP cost and the value of "
                "deferral\n");

    // A5: fluid vs stochastic at the dynamic optimum.
    std::printf("\nA5  fluid-optimal rewards evaluated stochastically:\n");
    StochasticSimOptions options;
    options.days = 50;
    const auto stoch =
        simulate_stochastic(dynamic, dynamic_sol.rewards, options);
    TextTable t5({"Metric", "Fluid model", "Stochastic sessions"});
    t5.add_row({"reward cost/day",
                TextTable::num(dynamic_sol.evaluation.reward_cost, 1),
                TextTable::num(stoch.mean_reward_cost, 1)});
    t5.add_row({"backlog cost/day",
                TextTable::num(dynamic_sol.evaluation.backlog_cost, 1),
                TextTable::num(stoch.mean_backlog_cost, 1)});
    bench::print_table(t5);
    std::printf(
        "  the fluid optimum runs the link at its capacity knife edge, so\n"
        "  Poisson/exponential variance re-creates backlog the fluid model\n"
        "  ignores — the gap a field deployment must budget for (and one\n"
        "  reason the paper keeps a 'cushion of excess capacity').\n");
  }
  return 0;
}
