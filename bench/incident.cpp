// Incident-engine bench: what the deterministic anomaly detectors cost the
// multi-day loop and how fast they catch injected storm onsets — emitting
// BENCH_JSON lines and a machine-readable BENCH_incident.json for the CI
// perf gate (tools/check_bench_regression.py --suite incident).
//
//   incident_calm       the calm run (2% i.i.d. chaos, no storms) with the
//                       engine on: false_incidents counts incidents opened
//                       where nothing regime-scale happened (gated == 0;
//                       sensitive *alerts* are fine and expected)
//   incident_detection  the reference 20%-duty storm run: every injected
//                       regime onset (replayed from the seeded Markov
//                       chains, domain by domain) must be answered by an
//                       alert of the matching detector within
//                       --max-detection-lag periods (default 4); the bench
//                       reports max/mean lag and fails on a missed onset
//   incident_overhead   the same storm run with the engine off vs on,
//                       alternating over five rounds in this process:
//                       incident_overhead_fraction = best on / best off
//                       - 1 is gated <= 0.15, and every round's two runs'
//                       DayMetrics must be bitwise identical (the engine
//                       is a pure observer — a divergence fails the bench)
//
// Absolute times are normalized by calibration_seconds (the same fixed
// reference workload as bench_kernel_suite, timed in this process) before
// baseline comparison, so the regression gate measures code changes rather
// than host-speed changes.
//
//   ./bench/bench_incident [--out BENCH_incident.json] [--users N] [--days N]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/fault.hpp"
#include "horizon/multi_day_driver.hpp"
#include "obs/incident/incident.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace inc = tdp::obs::incident;

/// The 20%-duty storm plan the acceptance criteria are written against
/// (same constants as bench_storm_recovery).
tdp::StormRegime twenty_duty(double intensity) {
  tdp::StormRegime regime;
  regime.onset = 0.06;
  regime.persist = 0.76;
  regime.intensity = intensity;
  return regime;
}

tdp::horizon::HorizonConfig storm_config(std::uint64_t users,
                                         std::size_t days, bool storms,
                                         bool engine) {
  tdp::horizon::HorizonConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.population.seed = 20110611;
  config.slices = 32;
  config.shards = 32;
  config.warmup_days = 1;
  config.horizon_days = days;
  config.estimation_window = 4;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;
  config.fault.price_pull_drop = 0.02;
  config.fault.measurement_loss = 0.02;
  config.fault.seed = 424242;
  if (storms) {
    config.fault.storm_blackout = twenty_duty(1.0);
    config.fault.storm_channel = twenty_duty(0.5);
    config.fault.storm_solver = twenty_duty(1.0);
  }
  config.incident.enabled = engine;
  return config;
}

bool days_bitwise_equal(const std::vector<tdp::horizon::DayMetrics>& a,
                        const std::vector<tdp::horizon::DayMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t d = 0; d < a.size(); ++d) {
    if (a[d].rewards != b[d].rewards) return false;
    if (a[d].offered_units != b[d].offered_units) return false;
    if (a[d].realized_units != b[d].realized_units) return false;
    if (a[d].sessions != b[d].sessions) return false;
    if (a[d].deferred_sessions != b[d].deferred_sessions) return false;
    if (a[d].beta_estimate != b[d].beta_estimate) return false;
  }
  return true;
}

/// Ground-truth regime onsets, replayed from the same seeded Markov chains
/// the run drew from: period t is an onset when the chain is ON at t and
/// was OFF at t-1 (or t == 0).
std::vector<std::uint64_t> regime_onsets(const tdp::FaultInjector& injector,
                                         tdp::FaultInjector::StormDomain dom,
                                         std::size_t total_periods) {
  std::vector<std::uint64_t> onsets;
  bool prev = false;
  for (std::size_t t = 0; t < total_periods; ++t) {
    const bool on = injector.storm_active(dom, t);
    if (on && !prev) onsets.push_back(t);
    prev = on;
  }
  return onsets;
}

/// The detector that answers for a storm domain.
inc::AlertKind domain_kind(tdp::FaultInjector::StormDomain dom) {
  switch (dom) {
    case tdp::FaultInjector::StormDomain::kBlackout:
      return inc::AlertKind::kMeasurementCusum;
    case tdp::FaultInjector::StormDomain::kChannel:
      return inc::AlertKind::kChannelCusum;
    default:
      return inc::AlertKind::kSolverCusum;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp;

  std::string out_path;
  std::uint64_t users = 20000;
  std::size_t days = 4;
  std::size_t max_lag = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--max-detection-lag") == 0 &&
               i + 1 < argc) {
      max_lag =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    }
  }

  bench::banner("incident",
                "incident-engine detection lead/lag vs injected storm "
                "onsets + pure-observer overhead");

  std::vector<bench::SuiteEntry> entries;

  const double calibration = bench::calibration_seconds();

  const std::size_t total_periods = (1 + days) * 48;

  // ---- incident_calm: zero false incidents where nothing happened ---------
  {
    bench::BenchReport report("incident_calm");
    horizon::MultiDayDriver driver(storm_config(users, days, false, true));
    const auto start = Clock::now();
    while (!driver.done()) driver.step_period();
    const double calm_wall = bench::seconds_since(start);

    const inc::IncidentEngine& engine = *driver.incident_engine();
    const double false_incidents =
        static_cast<double>(engine.incidents_opened());
    report.add("users", static_cast<std::uint64_t>(users));
    report.add("days", static_cast<std::uint64_t>(days));
    report.add("calm_wall_seconds", calm_wall);
    report.add("calm_alerts", engine.alerts_emitted());
    report.add("false_incidents", engine.incidents_opened());
    report.emit();
    entries.push_back(
        {"incident_calm",
         {{"calm_wall_seconds", calm_wall},
          {"calm_alerts", static_cast<double>(engine.alerts_emitted())},
          {"false_incidents", false_incidents}}});
    std::printf("  incident_calm      %llu alerts, %.0f incidents on the "
                "calm run, %.3f s\n",
                static_cast<unsigned long long>(engine.alerts_emitted()),
                false_incidents, calm_wall);
  }

  // ---- incident_overhead + incident_detection on the reference storm ------
  // Alternating engine-off and engine-on runs in this process, the best run
  // of each side kept, so a host slowdown during one round skews neither
  // wall time nor their ratio. Every engine-on run must reproduce the
  // engine-off days bit for bit; the last one feeds incident_detection.
  const std::size_t rounds = 5;
  double off_wall = 0.0;
  double on_wall = 0.0;
  std::unique_ptr<horizon::MultiDayDriver> stormy;
  for (std::size_t round = 0; round < rounds; ++round) {
    horizon::MultiDayDriver off(storm_config(users, days, true, false));
    auto start = Clock::now();
    while (!off.done()) off.step_period();
    const double off_round = bench::seconds_since(start);

    stormy = std::make_unique<horizon::MultiDayDriver>(
        storm_config(users, days, true, true));
    start = Clock::now();
    while (!stormy->done()) stormy->step_period();
    const double on_round = bench::seconds_since(start);

    if (!days_bitwise_equal(off.completed_days(), stormy->completed_days())) {
      std::printf("  ERROR: engine-on storm run diverged from engine-off "
                  "(the incident engine must be a pure observer)\n");
      return 1;
    }
    if (round == 0 || off_round < off_wall) off_wall = off_round;
    if (round == 0 || on_round < on_wall) on_wall = on_round;
  }

  {
    bench::BenchReport report("incident_overhead");
    const double overhead = off_wall > 0.0 ? on_wall / off_wall - 1.0 : 0.0;
    report.add("rounds", static_cast<std::uint64_t>(rounds));
    report.add("engine_off_wall_seconds", off_wall);
    report.add("engine_on_wall_seconds", on_wall);
    report.add("incident_overhead_fraction", overhead);
    report.emit();
    entries.push_back({"incident_overhead",
                       {{"engine_off_wall_seconds", off_wall},
                        {"engine_on_wall_seconds", on_wall},
                        {"incident_overhead_fraction", overhead}}});
    std::printf("  incident_overhead  %.3f s on vs %.3f s off "
                "(%.2f%% overhead, best of %zu), day metrics bit-identical: "
                "yes\n",
                on_wall, off_wall, 1e2 * overhead, rounds);
  }

  {
    bench::BenchReport report("incident_detection");
    const FaultInjector truth(storm_config(users, days, true, false).fault);
    const inc::IncidentEngine& engine = *stormy->incident_engine();

    const FaultInjector::StormDomain domains[] = {
        FaultInjector::StormDomain::kBlackout,
        FaultInjector::StormDomain::kChannel,
        FaultInjector::StormDomain::kSolver,
    };
    std::size_t onsets_total = 0;
    std::size_t onsets_detected = 0;
    std::uint64_t lag_max = 0;
    double lag_sum = 0.0;
    for (const FaultInjector::StormDomain dom : domains) {
      const inc::AlertKind kind = domain_kind(dom);
      for (const std::uint64_t t0 :
           regime_onsets(truth, dom, total_periods)) {
        // Onsets in the last stretch have no room for a timely answer
        // before the run ends; skip them rather than gate on truncation.
        if (t0 + max_lag >= total_periods) continue;
        ++onsets_total;
        bool detected = false;
        for (const inc::Alert& alert : engine.alerts()) {
          if (alert.kind != kind || alert.abs_period < t0) continue;
          if (alert.abs_period - t0 <= max_lag) {
            detected = true;
            const std::uint64_t lag = alert.abs_period - t0;
            if (lag > lag_max) lag_max = lag;
            lag_sum += static_cast<double>(lag);
          }
          break;  // alerts are in abs_period order; first answer decides
        }
        if (detected) {
          ++onsets_detected;
        } else {
          std::printf("  MISSED %s onset at t=%llu (no %s alert within "
                      "%zu periods)\n",
                      dom == FaultInjector::StormDomain::kBlackout ? "blackout"
                      : dom == FaultInjector::StormDomain::kChannel ? "channel"
                                                                    : "solver",
                      static_cast<unsigned long long>(t0), to_string(kind),
                      max_lag);
        }
      }
    }
    const double lag_mean =
        onsets_detected ? lag_sum / static_cast<double>(onsets_detected) : 0.0;

    report.add("onsets_total", static_cast<std::uint64_t>(onsets_total));
    report.add("onsets_detected",
               static_cast<std::uint64_t>(onsets_detected));
    report.add("max_detection_lag_periods", lag_max);
    report.add("mean_detection_lag_periods", lag_mean);
    report.add("storm_alerts", engine.alerts_emitted());
    report.add("storm_incidents", engine.incidents_opened());
    report.emit();
    entries.push_back(
        {"incident_detection",
         {{"onsets_total", static_cast<double>(onsets_total)},
          {"onsets_detected", static_cast<double>(onsets_detected)},
          {"max_detection_lag_periods", static_cast<double>(lag_max)},
          {"mean_detection_lag_periods", lag_mean},
          {"storm_alerts", static_cast<double>(engine.alerts_emitted())},
          {"storm_incidents",
           static_cast<double>(engine.incidents_opened())}}});
    std::printf("  incident_detection %zu/%zu onsets answered, lag max %llu "
                "mean %.2f periods; %llu alerts, %llu incidents\n",
                onsets_detected, onsets_total,
                static_cast<unsigned long long>(lag_max), lag_mean,
                static_cast<unsigned long long>(engine.alerts_emitted()),
                static_cast<unsigned long long>(engine.incidents_opened()));
    if (onsets_detected != onsets_total) return 1;
  }

  if (!out_path.empty() &&
      !bench::write_suite_json(out_path, calibration, entries)) {
    return 1;
  }
  return 0;
}
