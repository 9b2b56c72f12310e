// Where does a fleet day's wall time go? Runs the 100k-user online-pricing
// day and prints the driver's per-phase timing breakdown: schedule publish +
// fan-out, deferral-table builds, the sharded user walks, stripe merges, and
// the online pricer's incremental 1-D re-solves.
//
// The phases are instrumented inside the shared period loop
// (fleet/control_loop; FleetMetrics *_seconds fields), so the same numbers
// are available from any fleet run's JSON — this example just renders them.
#include <cstdio>

#include "fleet/fleet_driver.hpp"

int main() {
  using namespace tdp::fleet;

  FleetDriverConfig config;
  config.population.users = 100000;
  config.population.periods = 48;
  config.shards = 64;
  config.threads = 0;
  config.warmup_days = 1;

  std::printf("=== profile day: %llu users, %zu periods, %zu warmup day ===\n",
              static_cast<unsigned long long>(config.population.users),
              config.population.periods, config.warmup_days);
  FleetDriver driver(config);
  const FleetMetrics m = driver.run_day();

  std::printf("\n  %llu sessions over %zu periods x %zu days on %zu "
              "threads; %.2f s wall\n\n",
              static_cast<unsigned long long>(m.sessions), m.periods, m.days,
              m.threads, m.wall_seconds);
  print_phase_table(m);

  std::printf("\n  throughput: %.2fM sessions/s, %.1fM user-periods/s\n",
              m.sessions_per_second / 1e6, m.user_periods_per_second / 1e6);
  std::printf("  peak-to-average: %.3f (TIP) -> %.3f (TDP)\n",
              m.peak_to_average_tip, m.peak_to_average_tdp);
  return 0;
}
