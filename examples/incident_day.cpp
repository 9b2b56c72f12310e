// Incident day: a stormy multi-day horizon run with the incident engine
// watching the control loop. Emits the triage artifacts the playbook in
// README.md walks through:
//
//   incident_journal.jsonl  the structured journal in JSONL form, one event
//                           per line — incident.alert / incident.open /
//                           incident.close / incident.advisory included.
//   incident_dump.tdpi      the flight-recorder dump ("TDPI" framing):
//                           config echo, detector posture, incidents with
//                           attribution, the recorder ring, and (since this
//                           binary passes include_wall=true) the wall-clock
//                           extras. Render it with tools/tdp_triage.py.
//
// Usage: incident_day [users] [output_dir]  (defaults: 20000 users, cwd).
// CI runs it small, schema-checks the journal with tools/validate_trace.py
// and renders the dump with tools/tdp_triage.py.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/fault.hpp"
#include "dynamic/online_pricer.hpp"
#include "horizon/multi_day_driver.hpp"
#include "obs/incident/incident.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"

int main(int argc, char** argv) {
  using namespace tdp;
  using namespace tdp::horizon;
  namespace inc = tdp::obs::incident;

  const std::uint64_t users =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000ull;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  // Journal on so the incident.* events land in the JSONL artifact; the
  // alert stream itself is deterministic with or without it.
  obs::set_metrics_enabled(true);

  std::printf("=== incident day: %llu users, 20%%-duty correlated storms, "
              "incident engine on ===\n",
              static_cast<unsigned long long>(users));

  HorizonConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.population.seed = 20110611;
  config.slices = 16;
  config.shards = 16;
  config.warmup_days = 1;
  config.horizon_days = 4;
  config.estimation_window = 4;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;

  // Background i.i.d. chaos plus three correlated storm regimes — the
  // storm_week weather, shortened.
  config.fault.price_pull_drop = 0.02;
  config.fault.measurement_loss = 0.02;
  config.fault.seed = 424242;
  config.fault.storm_blackout = {0.06, 0.76, 1.0};
  config.fault.storm_channel = {0.06, 0.76, 0.5};
  config.fault.storm_solver = {0.06, 0.76, 1.0};

  // Health ladder + gates on, so the engine sees FSM edges during the
  // long bursts; a tight channel-fallback budget (group-periods per day)
  // so the fallback objective sees pressure too.
  PricerGuardConfig guard = PricerGuardConfig::protective();
  guard.fallback_after = 6;
  config.pricer_guard = guard;
  config.estimation_health_gate = true;
  config.reanchor_healthy_periods = 2;

  config.incident.enabled = true;
  config.incident.slo_max_fallback_per_day = 2;
  config.incident.dump_path = out_dir + "/incident_dump.tdpi";

  MultiDayDriver driver(config);
  driver.run();

  const inc::IncidentEngine* engine = driver.incident_engine();
  std::printf("-- alert stream (%llu alerts, %llu dropped) --\n",
              static_cast<unsigned long long>(engine->alerts_emitted()),
              static_cast<unsigned long long>(engine->alerts_dropped()));
  for (const inc::Alert& alert : engine->alerts()) {
    std::printf("  [%llu] t=%llu day %llu: %s value=%.3f threshold=%.3f\n",
                static_cast<unsigned long long>(alert.seq),
                static_cast<unsigned long long>(alert.abs_period),
                static_cast<unsigned long long>(alert.day),
                to_string(alert.kind), alert.value, alert.threshold);
  }

  std::printf("-- incidents (%llu opened, %llu closed) --\n",
              static_cast<unsigned long long>(engine->incidents_opened()),
              static_cast<unsigned long long>(engine->incidents_closed()));
  for (const inc::Incident& incident : engine->incidents()) {
    std::printf("  #%llu %s %s open@t=%llu %s storms[%s%s%s] health=%s\n",
                static_cast<unsigned long long>(incident.id),
                to_string(incident.objective), to_string(incident.severity),
                static_cast<unsigned long long>(incident.open_abs_period),
                incident.closed ? "closed" : "OPEN",
                incident.storm_blackout ? "B" : "-",
                incident.storm_channel ? "C" : "-",
                incident.storm_solver ? "S" : "-",
                to_string(incident.health));
  }

  const std::string journal_path = out_dir + "/incident_journal.jsonl";
  const std::string dump_path = out_dir + "/incident_dump.tdpi";
  bool ok = obs::Journal::global().write_jsonl(journal_path);
  // Final dump with the wall extras — the per-incident dumps the engine
  // wrote along the way are deterministic-sections-only.
  ok = engine->write_dump(dump_path, /*include_wall=*/true) && ok;
  if (!ok) {
    std::fprintf(stderr, "failed to write an artifact under %s\n",
                 out_dir.c_str());
    return 1;
  }

  std::printf("-- artifacts --\n");
  std::printf("  %s (%llu journal events)\n", journal_path.c_str(),
              static_cast<unsigned long long>(
                  obs::Journal::global().appended()));
  std::printf("  %s\n", dump_path.c_str());
  std::printf("render with: tools/tdp_triage.py %s --journal-jsonl %s\n",
              dump_path.c_str(), journal_path.c_str());
  return 0;
}
