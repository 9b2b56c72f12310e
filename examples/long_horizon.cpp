// A week of operations: the multi-day control loop with the §IV estimator
// re-fitting the fleet's patience index every day while the population
// drifts, killed by a simulated crash halfway through and restored from a
// checkpoint file the way a real process restart would — the resumed week
// finishes bitwise identical to a run that was never interrupted.
//
//   ./examples/long_horizon [checkpoint-path]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "horizon/checkpoint.hpp"
#include "horizon/multi_day_driver.hpp"

namespace {

tdp::horizon::HorizonConfig week_config() {
  tdp::horizon::HorizonConfig config;
  config.population.users = 20000;
  config.population.periods = 48;
  config.slices = 16;
  config.shards = 16;
  config.warmup_days = 1;
  config.horizon_days = 6;
  // The population's patience index creeps up 2%/day: yesterday's fitted
  // model goes stale, and the daily re-estimate is what keeps the reward
  // schedule anchored to reality.
  config.fault.drift_beta_rate = 0.02;
  config.fault.seed = 7;
  config.estimation_window = 4;
  config.estimation_min_days = 2;
  return config;
}

double total(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum;
}

void print_days(const tdp::horizon::HorizonMetrics& m) {
  std::printf("  day  offered(u)  realized(u)  P2A(tdp)  beta_est  "
              "reanchored\n");
  for (const auto& d : m.days) {
    std::printf("  %3llu  %10.1f  %11.1f  %8.3f  %8.4f  %s\n",
                static_cast<unsigned long long>(d.day),
                total(d.offered_units), total(d.realized_units),
                d.peak_to_average_tdp, d.estimated ? d.beta_estimate : 0.0,
                d.reanchored ? "yes" : "-");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp::horizon;

  const std::string path =
      argc > 1 ? argv[1] : "long_horizon_checkpoint.tdpc";
  const HorizonConfig config = week_config();

  std::printf("=== long horizon: %llu users, %zu warmup + %zu measured "
              "days, 2%%/day patience drift ===\n",
              static_cast<unsigned long long>(config.population.users),
              config.warmup_days, config.horizon_days);

  // The uninterrupted week, for comparison.
  MultiDayDriver reference(config);
  const HorizonMetrics uninterrupted = reference.run();

  // The same week, "crashed" mid-way: simulate half the horizon, write the
  // checkpoint to disk, and drop the driver — everything in memory is gone.
  MultiDayDriver first_process(config);
  const std::size_t total_periods =
      (config.warmup_days + config.horizon_days) * config.population.periods;
  for (std::size_t step = 0; step < total_periods / 2; ++step) {
    first_process.step_period();
  }
  save_checkpoint_file(path, first_process.checkpoint());
  std::printf("\n  crash at day %llu period %zu — checkpoint written to "
              "%s\n",
              static_cast<unsigned long long>(first_process.day()),
              first_process.period(), path.c_str());

  // The restarted process: load the file, restore, and finish the week.
  // Restore may regroup slices onto a different shard/thread count —
  // values cannot change.
  HorizonConfig restart = config;
  restart.shards = 4;  // the replacement host is smaller
  const CheckpointData data = load_checkpoint_file(path);
  std::unique_ptr<MultiDayDriver> second_process =
      MultiDayDriver::restore(restart, data);
  const HorizonMetrics resumed = second_process->run();

  std::printf("\n  uninterrupted week:\n");
  print_days(uninterrupted);
  std::printf("\n  crashed-and-restored week (restored on %zu shards):\n",
              second_process->shard_count());
  print_days(resumed);

  bool identical = uninterrupted.days.size() == resumed.days.size();
  for (std::size_t d = 0; identical && d < resumed.days.size(); ++d) {
    identical = uninterrupted.days[d].rewards == resumed.days[d].rewards &&
                uninterrupted.days[d].offered_units ==
                    resumed.days[d].offered_units &&
                uninterrupted.days[d].realized_units ==
                    resumed.days[d].realized_units &&
                uninterrupted.days[d].beta_estimate ==
                    resumed.days[d].beta_estimate;
  }
  std::printf("\n  resumed week bitwise identical to uninterrupted: %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
