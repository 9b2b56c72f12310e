// Surviving a storm: a week of operations under correlated fault storms
// (seeded Markov blackout/channel/solver regimes) with the full storm-mode
// resilience stack turned on — health-gated §IV re-estimation, hysteretic
// re-anchoring behind a predicted-objective guard, and streaming v2
// checkpoints committed atomically every few periods. Halfway through the
// worst of it the process "crashes"; the restart recovers whichever of the
// committed file / torn tmp parses cleanly, restores onto a smaller host,
// and finishes the week bitwise identical to a run that never died.
//
//   ./examples/storm_week [checkpoint-path]
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/online_pricer.hpp"
#include "horizon/checkpoint.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "horizon/multi_day_driver.hpp"

namespace {

tdp::horizon::HorizonConfig storm_week_config() {
  tdp::horizon::HorizonConfig config;
  config.population.users = 20000;
  config.population.periods = 48;
  config.population.seed = 20110611;
  config.slices = 16;
  config.shards = 16;
  config.warmup_days = 1;
  config.horizon_days = 5;
  config.estimation_window = 4;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;

  // Background i.i.d. chaos plus three correlated storm regimes at ~20%
  // duty (onset 0.125, persist 0.5: mean burst 2 periods, occasional long
  // ones). Each regime is its own seeded Markov chain — a pure function of
  // (seed, domain, tick) — so every run, restore, and thread layout sees
  // the same weather.
  config.fault.price_pull_drop = 0.02;
  config.fault.seed = 11;
  config.fault.storm_blackout = {0.125, 0.5, 1.0};
  config.fault.storm_channel = {0.125, 0.5, 0.5};
  config.fault.storm_solver = {0.125, 0.5, 1.0};

  // Storm-mode health gating: never fit measurements taken while the
  // pricer sat in FALLBACK, wait out a healthy streak before re-anchoring,
  // and let the objective guard roll back a re-fit that would make the
  // schedule worse by more than 5%. The ladder tolerates bursts shorter
  // than 6 periods, so only days that catch a long storm burst go
  // FALLBACK (and get frozen out of the fit window).
  tdp::PricerGuardConfig guard = tdp::PricerGuardConfig::protective();
  guard.fallback_after = 6;
  config.pricer_guard = guard;
  config.estimation_health_gate = true;
  config.reanchor_healthy_periods = 2;
  config.reanchor_objective_guard = true;
  config.reanchor_guard_tolerance = 0.05;
  return config;
}

double total(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum;
}

void print_days(const tdp::horizon::HorizonMetrics& m) {
  std::printf("  day  realized(u)  P2A(tdp)  fallback  frozen  est  "
              "reanchor\n");
  for (const auto& d : m.days) {
    const char* reanchor = d.reanchored             ? "adopted"
                           : d.reanchor_rolled_back ? "rolledback"
                           : d.estimated            ? "deferred"
                                                    : "-";
    std::printf("  %3llu  %11.1f  %8.3f  %8llu  %6s  %3s  %s\n",
                static_cast<unsigned long long>(d.day),
                total(d.realized_units), d.peak_to_average_tdp,
                static_cast<unsigned long long>(d.fallback_periods),
                d.estimation_frozen ? "yes" : "-",
                d.estimated ? "yes" : "-", reanchor);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp::horizon;

  const std::string path = argc > 1 ? argv[1] : "storm_week_checkpoint.tdpc";
  HorizonConfig config = storm_week_config();

  std::printf("=== storm week: %llu users, %zu measured days, 20%%-duty "
              "correlated storms, health gates on ===\n",
              static_cast<unsigned long long>(config.population.users),
              config.horizon_days);

  // The uninterrupted week, for comparison (no streaming).
  MultiDayDriver reference(config);
  const HorizonMetrics uninterrupted = reference.run();

  // The same week streaming incremental v2 checkpoints every 6 periods,
  // killed at 60% of the horizon — the driver is simply dropped, leaving
  // whatever the last atomic commit (or a torn tmp beside it) holds.
  HorizonConfig streaming = config;
  streaming.checkpoint_path = path;
  streaming.checkpoint_every_periods = 6;
  const std::size_t total_periods =
      (config.warmup_days + config.horizon_days) * config.population.periods;
  const std::size_t kill_step = (total_periods * 3) / 5;
  {
    MultiDayDriver victim(streaming);
    for (std::size_t step = 0; step < kill_step; ++step) victim.step_period();
  }  // crash: no final checkpoint, no flush — only streamed commits survive

  // The restart: torn-write-tolerant recovery picks whichever of the
  // committed file and its .tmp validates (later simulated clock wins),
  // then restore regroups the checkpointed slices onto a smaller host.
  const CheckpointData recovered = load_checkpoint_file_recover(path);
  unsigned version_byte = 0;  // framing: magic[4], then version u32 LE
  {
    std::ifstream in(path, std::ios::binary);
    char header[5] = {};
    if (in.read(header, 5)) version_byte = static_cast<unsigned char>(header[4]);
  }
  std::printf("\n  crashed at step %zu — recovered checkpoint at day %llu "
              "period %llu (format v%u)\n",
              kill_step, static_cast<unsigned long long>(recovered.day),
              static_cast<unsigned long long>(recovered.period), version_byte);

  HorizonConfig restart = config;
  restart.shards = 4;  // the replacement host is smaller
  std::unique_ptr<MultiDayDriver> second_process =
      MultiDayDriver::restore(restart, recovered);
  const HorizonMetrics resumed = second_process->run();

  std::printf("\n  uninterrupted storm week:\n");
  print_days(uninterrupted);
  std::printf("\n  crashed-and-recovered week (restored on %zu shards):\n",
              second_process->shard_count());
  print_days(resumed);

  bool identical = uninterrupted.days.size() == resumed.days.size();
  for (std::size_t d = 0; identical && d < resumed.days.size(); ++d) {
    const auto& a = uninterrupted.days[d];
    const auto& b = resumed.days[d];
    identical = a.rewards == b.rewards &&
                a.realized_units == b.realized_units &&
                a.beta_estimate == b.beta_estimate &&
                a.fallback_periods == b.fallback_periods &&
                a.estimation_frozen == b.estimation_frozen &&
                a.reanchored == b.reanchored &&
                a.reanchor_rolled_back == b.reanchor_rolled_back;
  }
  std::printf("\n  recovered week bitwise identical to uninterrupted: %s\n",
              identical ? "yes" : "NO");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return identical ? 0 : 1;
}
