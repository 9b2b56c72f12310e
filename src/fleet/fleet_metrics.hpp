// Fleet-run metrics: throughput, peak-to-average, cost — JSON-exportable so
// the fleet becomes a tracked perf axis alongside solver speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tdp::fleet {

/// One day's traffic totals (demand units per period), folded period by
/// period by the control loop; horizon::DayMetrics extends them.
struct DayTotals {
  std::vector<double> offered_units;   ///< pre-deferral (TIP baseline)
  std::vector<double> realized_units;  ///< post-deferral (under TDP)
  /// Reward each period's index published when the period ran.
  std::vector<double> rewards;
  std::uint64_t sessions = 0;
  std::uint64_t deferred_sessions = 0;
  double reward_paid_units = 0.0;
};

/// What every run of the period loop reports: its layout, and where the
/// wall time went (the times are NOT deterministic; bitwise comparisons
/// exclude them).
struct LoopMetrics {
  std::uint64_t users = 0;
  std::size_t periods = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  double wall_seconds = 0.0;  ///< the run's loop, end to end

  // Per-phase wall time (seconds). The phases cover the period loop end to
  // end; the rest of wall_seconds is day work (settle, and on a horizon
  // estimation, re-anchoring and checkpoint commits).
  double publish_seconds = 0.0;    ///< schedule publish + fan-out sync
  double table_seconds = 0.0;      ///< per-period DeferralTable builds
  double simulate_seconds = 0.0;   ///< sharded user walks (thread pool)
  double aggregate_seconds = 0.0;  ///< stripe merges + day folds
  double pricer_seconds = 0.0;     ///< telemetry, guard, online re-solve
};

/// A fleet run: the loop's metrics, the measured (final) day's totals, and
/// the fleet's own accounting.
struct FleetMetrics : LoopMetrics, DayTotals {
  std::size_t days = 0;  ///< total days simulated (incl. warmup)

  // Throughput over the whole run (all days).
  double sessions_per_second = 0.0;
  double user_periods_per_second = 0.0;

  // Measured day.
  double peak_to_average_tip = 0.0;
  double peak_to_average_tdp = 0.0;
  double pricer_expected_cost = 0.0;  ///< model's view after all updates

  // Mechanism arena (DESIGN.md §13).
  std::string mechanism = "tube_online";  ///< active pricing mechanism
  double rebate_budget_pool = 0.0;   ///< daily pool (0 = unbudgeted)
  double rebate_budget_spent = 0.0;  ///< measured day's settle payout

  // Fan-out accounting.
  std::size_t price_groups = 0;
  std::uint64_t price_server_fetches = 0;

  // Robustness accounting (all days; zero on a fault-free run).
  std::uint64_t price_pull_drops = 0;       ///< dropped fetch attempts
  std::uint64_t price_pull_retries = 0;     ///< extra attempts after a drop
  std::uint64_t price_stale_periods = 0;    ///< group-periods on stale cache
  std::uint64_t price_fallback_periods = 0; ///< group-periods on flat-TIP
  std::uint64_t price_skewed_periods = 0;   ///< group-periods lost to skew
  std::uint64_t price_recoveries = 0;       ///< fetch succeeded after misses
  std::uint64_t shard_stripes_lost = 0;     ///< shard telemetry never arrived
  std::uint64_t measurement_gaps = 0;       ///< whole-aggregate losses
  std::uint64_t measurement_repairs = 0;    ///< guard-sanitized samples
  std::uint64_t solver_failures = 0;
  std::uint64_t reward_clamps = 0;        ///< trust-region bound steps
  std::uint64_t skipped_updates = 0;      ///< FALLBACK froze the schedule
  std::uint64_t health_transitions = 0;
  std::uint64_t degraded_observations = 0;
  std::uint64_t fallback_observations = 0;
  std::uint64_t pricer_recoveries = 0;
  std::uint64_t max_recovery_periods = 0;
  std::string final_health = "HEALTHY";

  // Incident engine (zero when the engine is off). Deterministic counts
  // of the engine's alert/incident streams over the whole run.
  std::uint64_t incident_alerts = 0;
  std::uint64_t incidents_opened = 0;
  std::uint64_t incidents_closed = 0;

  /// Compact single-object JSON (profiles included as arrays).
  std::string to_json() const;
};

namespace json {

/// One JSON object built field by field — {"key":value,...} with no
/// whitespace; doubles print round-trip exact (%.17g), strings verbatim
/// (callers pass identifiers). FleetMetrics and horizon::HorizonMetrics
/// serialize through it.
class Object {
 public:
  Object& field(const char* name, double value);
  Object& field(const char* name, std::uint64_t value);
  Object& field(const char* name, bool value);
  Object& field(const char* name, const std::string& value);
  Object& field(const char* name, const std::vector<double>& values);
  /// A value that is already JSON (a nested object or array).
  Object& raw(const char* name, const std::string& json);
  std::string str() const { return out_ + '}'; }

 private:
  std::string& key(const char* name);
  std::string out_ = "{";
};

}  // namespace json

/// max(profile) / mean(profile); 0 for an empty or all-zero profile.
double peak_to_average(const std::vector<double>& profile);

/// Print a run's per-phase table to stdout: seconds, share of the phase
/// total and a bar per phase, then the total's coverage of the wall time.
/// examples/profile_day and bench_horizon print it.
void print_phase_table(const LoopMetrics& metrics);

}  // namespace tdp::fleet
