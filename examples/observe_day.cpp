// Observe day: a 100,000-user fleet day with faults injected — the chaos_day
// scenario — run with every telemetry surface enabled. The run emits four
// artifacts:
//
//   observe_day_trace.json    Chrome trace_event timeline (chrome://tracing
//                             or Perfetto) of the full control loop: publish
//                             -> tables -> simulate -> aggregate -> pricer,
//                             per period, with per-shard spans inside the
//                             simulate fan-out.
//   observe_day_journal.json  structured event journal: pricer health-ladder
//                             transitions, channel fallbacks/recoveries,
//                             measurement repairs, solver records.
//   observe_day_metrics.json  merged registry snapshot: one name-sorted
//                             "counters" map.
//   observe_day_metrics.prom  the same snapshot as Prometheus text.
//
// Usage: observe_day [users] [output_dir]  (defaults: 100000 users, cwd).
// ctest ToolsTrace.ObserveDayArtifacts and CI run it small and
// schema-check the artifacts with tools/validate_trace.py.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/fault.hpp"
#include "dynamic/online_pricer.hpp"
#include "fleet/fleet_driver.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using namespace tdp;
  using namespace tdp::fleet;

  const std::uint64_t users =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000ull;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  // Journal and trace on, regardless of environment (counters always
  // count): this binary exists to produce inspectable artifacts.
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);

  std::printf("=== observe day: %llu users, 5%% price-pull drops, one "
              "measurement blackout, full telemetry ===\n",
              static_cast<unsigned long long>(users));

  FleetDriverConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.shards = 64;
  config.threads = 0;
  config.warmup_days = 1;
  config.fault.price_pull_drop = 0.05;
  // Whole-fleet telemetry blackout mid-way through the measured day.
  config.fault.measurement_blackouts = {48 + 24};

  FleetDriver driver(config);
  const FleetMetrics m = driver.run_day();

  std::printf("-- health-transition timeline (observation: from -> to) --\n");
  for (const auto& t : driver.pricer().health_transitions()) {
    std::printf("  obs %4llu: %s -> %s\n",
                static_cast<unsigned long long>(t.observation),
                to_string(t.from), to_string(t.to));
  }
  std::printf("  final health: %s; %llu health transitions, %llu degraded + "
              "%llu fallback observations\n",
              m.final_health.c_str(),
              static_cast<unsigned long long>(m.health_transitions),
              static_cast<unsigned long long>(m.degraded_observations),
              static_cast<unsigned long long>(m.fallback_observations));
  std::printf("  channel: %zu drops, %zu stale, %zu fallback, %zu recovered; "
              "measurements: %zu gaps, %zu repaired\n",
              m.price_pull_drops, m.price_stale_periods,
              m.price_fallback_periods, m.price_recoveries,
              m.measurement_gaps, m.measurement_repairs);
  std::printf("  wall %.3f s (publish %.3f, tables %.3f, simulate %.3f, "
              "aggregate %.3f, pricer %.3f, draw wait %.3f)\n",
              m.wall_seconds, m.publish_seconds, m.table_seconds,
              m.simulate_seconds, m.aggregate_seconds, m.pricer_seconds,
              m.draw_wait_seconds);

  const std::string trace_path = out_dir + "/observe_day_trace.json";
  const std::string journal_path = out_dir + "/observe_day_journal.json";
  const std::string metrics_path = out_dir + "/observe_day_metrics.json";
  const std::string prom_path = out_dir + "/observe_day_metrics.prom";

  bool ok = true;
  ok = obs::write_chrome_trace(trace_path) && ok;
  ok = obs::Journal::global().write_json(journal_path) && ok;
  const std::string metrics = obs::metrics_json();
  ok = obs::write_file(metrics_path, metrics.data(), metrics.size()) && ok;
  const std::string prom = obs::prometheus_text();
  ok = obs::write_file(prom_path, prom.data(), prom.size()) && ok;
  if (!ok) {
    std::fprintf(stderr, "failed to write an artifact under %s\n",
                 out_dir.c_str());
    return 1;
  }

  std::printf("-- artifacts --\n");
  std::printf("  %s (%zu trace events)\n", trace_path.c_str(),
              obs::trace_event_count());
  std::printf("  %s (%llu journal events, %llu dropped)\n",
              journal_path.c_str(),
              static_cast<unsigned long long>(obs::Journal::global().appended()),
              static_cast<unsigned long long>(obs::Journal::global().dropped()));
  std::printf("  %s\n  %s\n", metrics_path.c_str(), prom_path.c_str());
  std::printf("open the trace in chrome://tracing or https://ui.perfetto.dev\n");
  return 0;
}
