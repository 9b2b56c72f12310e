// Mechanism arena: identical seeded fleets, one per pricing mechanism,
// compared on the quantities the arena exists to rank — peak-to-average
// reduction, ISP cost, rebate budget, user welfare (DESIGN.md §13).
//
// Every mechanism runs the same FleetDriver configuration (same population
// seed, same shard/slice layout, same warmup) differing ONLY in
// FleetDriverConfig::mechanism, so metric differences are attributable to
// the pricing scheme alone. Each run is re-executed on 1 thread and
// checked bit-identical to the all-threads run (the determinism contract
// every mechanism inherits; the enforced version is tests/test_mech.cpp).
//
// Per-mechanism metrics:
//   p2a_reduction       (P2A_tip - P2A_tdp) / P2A_tip on the measured day
//   isp_cost_units      steady-state backlog cost of the *measured*
//                       realized profile (mech::profile_backlog_cost on the
//                       baseline fluid model's capacity/cost) + rewards paid
//   user_welfare_units  0.5 x rewards paid (uniform-rent approximation:
//                       a marginal deferrer keeps none of the reward, an
//                       infra-marginal one keeps almost all of it)
//   rebate_*            the daily pool and today's payout (budgeted
//                       mechanisms; zero elsewhere)
//
// The expected ordering — day_ahead_oracle >= tube_online >= flat_tip on
// p2a_reduction — is enforced by tools/check_bench_regression.py --suite
// mechanism against bench/baselines/BENCH_mechanism.baseline.json.
//
//   ./bench/bench_mechanism_arena [--out BENCH_mechanism.json]
//                                 [--users N] [--threads N]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_metrics.hpp"
#include "mech/mechanism.hpp"

namespace {

using Clock = std::chrono::steady_clock;

tdp::fleet::FleetDriverConfig arena_config(std::uint64_t users,
                                           std::size_t threads,
                                           tdp::mech::MechanismKind kind) {
  tdp::fleet::FleetDriverConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.population.seed = 20110611;
  config.slices = 64;  // fixed layout: same reduction order at any threads
  config.threads = threads;
  config.warmup_days = 3;
  config.online_pricing = true;
  config.mechanism.kind = kind;
  return config;
}

bool identical_profiles(const tdp::fleet::FleetMetrics& a,
                        const tdp::fleet::FleetMetrics& b) {
  return a.offered_units == b.offered_units &&
         a.realized_units == b.realized_units && a.sessions == b.sessions &&
         a.deferred_sessions == b.deferred_sessions &&
         a.reward_paid_units == b.reward_paid_units;
}

struct ArenaRow {
  std::string name;
  tdp::fleet::FleetMetrics metrics;
  double p2a_reduction = 0.0;
  double isp_cost = 0.0;
  double welfare = 0.0;
  double run_seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp;

  std::string out_path;
  std::uint64_t users = 100000;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    }
  }

  bench::banner("mechanism_arena",
                "pricing mechanisms on bit-identical seeded fleets");

  const double calibration = bench::calibration_seconds();

  const mech::MechanismKind kinds[] = {
      mech::MechanismKind::kFlatTip,
      mech::MechanismKind::kTubeOnline,
      mech::MechanismKind::kFixedBudgetRebate,
      mech::MechanismKind::kDayAheadOracle,
  };

  std::vector<ArenaRow> rows;
  for (const mech::MechanismKind kind : kinds) {
    ArenaRow row;
    row.name = mech::to_string(kind);

    bench::BenchReport report(std::string("arena_") + row.name);
    report.set_mechanism(row.name);

    const auto start = Clock::now();
    fleet::FleetDriver driver(arena_config(users, threads, kind));
    // The cost model every mechanism is judged against: the shared
    // baseline fluid model (capacity + backlog cost), NOT the mechanism's
    // own view — comparisons are on what the fleet actually did.
    const DynamicModel judge = fleet::baseline_fluid_model(driver.population());
    row.metrics = driver.run_day();
    row.run_seconds = bench::seconds_since(start);

    {
      // Thread-count invariance: the same day on 1 thread must reproduce
      // the aggregates bitwise — for every mechanism, not just TubeOnline.
      fleet::FleetDriver serial(arena_config(users, 1, kind));
      const fleet::FleetMetrics serial_metrics = serial.run_day();
      if (!identical_profiles(row.metrics, serial_metrics)) {
        std::printf("  ERROR: %s aggregates differ across thread counts\n",
                    row.name.c_str());
        return 1;
      }
    }

    row.p2a_reduction =
        row.metrics.peak_to_average_tip > 0.0
            ? (row.metrics.peak_to_average_tip -
               row.metrics.peak_to_average_tdp) /
                  row.metrics.peak_to_average_tip
            : 0.0;
    row.isp_cost = mech::profile_backlog_cost(
                       row.metrics.realized_units, judge.capacity(),
                       judge.backlog_cost(), judge.warmup_days()) +
                   row.metrics.reward_paid_units;
    row.welfare = 0.5 * row.metrics.reward_paid_units;

    report.add("users", static_cast<std::uint64_t>(users));
    report.add("periods", static_cast<std::uint64_t>(row.metrics.periods));
    report.add("p2a_tip", row.metrics.peak_to_average_tip);
    report.add("p2a_tdp", row.metrics.peak_to_average_tdp);
    report.add("p2a_reduction", row.p2a_reduction);
    report.add("isp_cost_units", row.isp_cost);
    report.add("reward_paid_units", row.metrics.reward_paid_units);
    report.add("user_welfare_units", row.welfare);
    report.add("rebate_budget_pool", row.metrics.rebate_budget_pool);
    report.add("rebate_budget_spent", row.metrics.rebate_budget_spent);
    report.add("run_seconds", row.run_seconds);
    report.emit();
    rows.push_back(std::move(row));
  }

  TextTable table({"mechanism", "P2A tip", "P2A tdp", "reduction",
                   "ISP cost", "rewards", "pool", "welfare", "wall s"});
  for (const ArenaRow& row : rows) {
    table.add_row({row.name, TextTable::num(row.metrics.peak_to_average_tip),
                   TextTable::num(row.metrics.peak_to_average_tdp),
                   TextTable::num(row.p2a_reduction),
                   TextTable::num(row.isp_cost),
                   TextTable::num(row.metrics.reward_paid_units),
                   TextTable::num(row.metrics.rebate_budget_pool),
                   TextTable::num(row.welfare),
                   TextTable::num(row.run_seconds)});
  }
  bench::print_table(table);

  if (!out_path.empty()) {
    std::vector<bench::SuiteEntry> entries;
    for (const ArenaRow& row : rows) {
      entries.push_back({"arena_" + row.name,
                         {{"p2a_reduction", row.p2a_reduction},
                          {"isp_cost_units", row.isp_cost},
                          {"user_welfare_units", row.welfare},
                          {"run_seconds", row.run_seconds}}});
    }
    if (!bench::write_suite_json(out_path, calibration, entries)) return 1;
  }
  return 0;
}
