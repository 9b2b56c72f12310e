#include "fleet/fleet_driver.hpp"

#include <chrono>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace tdp::fleet {

FleetDriver::FleetDriver(FleetDriverConfig config) : loop_(std::move(config)) {
  // Any offline solve happens here (inside the mechanism's constructor),
  // planning against the population's expected aggregate.
  loop_.build_mechanism(baseline_fluid_model(loop_.population()));
  TDP_LOG_INFO << "fleet: " << loop_.population().users() << " users over "
               << loop_.slice_count() << " slices in " << loop_.shard_count()
               << " shards, " << loop_.thread_count() << " threads, "
               << loop_.population().periods() << " periods, "
               << loop_.mechanism().name() << " mechanism";
}

FleetMetrics FleetDriver::run_day() {
  TDP_REQUIRE(!ran_, "FleetDriver instances are single-shot");
  ran_ = true;
  TDP_OBS_SPAN("fleet.run_day");

  const std::size_t n = loop_.population().periods();
  const std::size_t total_days = loop_.config().warmup_days + 1;

  FleetMetrics metrics;
  std::uint64_t all_day_sessions = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t day = 0; day < total_days; ++day) {
    while (!loop_.day_complete()) loop_.step_period();
    const mech::SettleInfo settle = loop_.settle_day();
    loop_.close_day();
    const DayTotals& totals = loop_.day_totals();
    all_day_sessions += totals.sessions;
    if (day + 1 == total_days) {
      static_cast<DayTotals&>(metrics) = totals;
      metrics.rebate_budget_spent = settle.budget_spent;
      metrics.rebate_budget_pool = settle.budget_pool;
    }
  }

  const auto elapsed = std::chrono::steady_clock::now() - start;
  static_cast<LoopMetrics&>(metrics) = loop_.metrics();
  metrics.wall_seconds = std::chrono::duration<double>(elapsed).count();
  metrics.days = total_days;
  metrics.price_groups = loop_.fanout().groups();
  const double user_periods = static_cast<double>(metrics.users) *
                              static_cast<double>(n) *
                              static_cast<double>(total_days);
  if (metrics.wall_seconds > 0.0) {
    metrics.sessions_per_second =
        static_cast<double>(all_day_sessions) / metrics.wall_seconds;
    metrics.user_periods_per_second = user_periods / metrics.wall_seconds;
  }
  metrics.peak_to_average_tip = peak_to_average(metrics.offered_units);
  metrics.peak_to_average_tdp = peak_to_average(metrics.realized_units);
  const mech::PricingMechanism& mechanism = loop_.mechanism();
  metrics.pricer_expected_cost = mechanism.expected_cost();
  metrics.mechanism = mechanism.name();

  // The robustness fields count this run only: each is read from the
  // component that owns it (a driver is single-shot, so its components'
  // counts are the run's), never from the process-wide registry.
  const SubscriberTelemetry channel = loop_.fanout().total_telemetry();
  metrics.price_server_fetches = channel.fetches;
  metrics.price_pull_drops = channel.dropped_attempts;
  metrics.price_pull_retries = channel.retries;
  metrics.price_stale_periods = channel.stale_periods;
  metrics.price_fallback_periods = channel.fallback_periods;
  metrics.price_skewed_periods = channel.skewed_periods;
  metrics.price_recoveries = channel.recoveries;
  const ControlLoop::FaultTallies& tallies = loop_.fault_tallies();
  metrics.shard_stripes_lost = tallies.stripes_lost;
  metrics.measurement_gaps = tallies.measurement_gaps;
  metrics.measurement_repairs = tallies.measurement_repairs;
  // Mechanisms without a health ladder count nothing.
  const PricerHealthStats health = mechanism.health_stats() != nullptr
                                       ? *mechanism.health_stats()
                                       : PricerHealthStats{};
  metrics.solver_failures = health.solve_failures;
  metrics.reward_clamps = health.clamped_steps;
  metrics.skipped_updates = health.skipped_updates;
  metrics.health_transitions = health.transitions;
  metrics.degraded_observations = health.degraded_observations;
  metrics.fallback_observations = health.fallback_observations;
  metrics.pricer_recoveries = health.recoveries;
  metrics.max_recovery_periods = health.max_recovery_periods;
  metrics.final_health = to_string(mechanism.health());
  if (const obs::incident::IncidentEngine* incident = incident_engine()) {
    metrics.incident_alerts = incident->alerts_emitted();
    metrics.incidents_opened = incident->incidents_opened();
    metrics.incidents_closed = incident->incidents_closed();
  }
  return metrics;
}

}  // namespace tdp::fleet
