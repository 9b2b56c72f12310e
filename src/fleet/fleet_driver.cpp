#include "fleet/fleet_driver.hpp"

#include <chrono>
#include <iterator>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp::fleet {
namespace {

/// FleetMetrics fields that are per-run deltas of registry counters (the
/// components bump them at their event sites).
struct RunCounter {
  const char* name;
  std::uint64_t FleetMetrics::*field;
};
constexpr RunCounter kRunCounters[] = {
    {"channel.fetches_total", &FleetMetrics::price_server_fetches},
    {"channel.dropped_attempts_total", &FleetMetrics::price_pull_drops},
    {"channel.retries_total", &FleetMetrics::price_pull_retries},
    {"channel.stale_periods_total", &FleetMetrics::price_stale_periods},
    {"channel.fallback_periods_total", &FleetMetrics::price_fallback_periods},
    {"channel.skewed_periods_total", &FleetMetrics::price_skewed_periods},
    {"channel.recoveries_total", &FleetMetrics::price_recoveries},
    {"fleet.shard_stripes_lost_total", &FleetMetrics::shard_stripes_lost},
    {"fleet.measurement_gaps_total", &FleetMetrics::measurement_gaps},
    {"fleet.measurement_repairs_total", &FleetMetrics::measurement_repairs},
    {"pricer.solve_failures_total", &FleetMetrics::solver_failures},
    {"pricer.clamped_steps_total", &FleetMetrics::reward_clamps},
    {"pricer.skipped_updates_total", &FleetMetrics::skipped_updates},
    {"pricer.health_transitions_total", &FleetMetrics::health_transitions},
    {"pricer.degraded_observations_total",
     &FleetMetrics::degraded_observations},
    {"pricer.fallback_observations_total",
     &FleetMetrics::fallback_observations},
    {"pricer.recoveries_total", &FleetMetrics::pricer_recoveries},
};

}  // namespace

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

  // FleetMetrics' robustness fields are per-run views over the
  // process-wide registry: capture each counter's baseline now, read the
  // deltas after the loop. Safe because a driver is single-shot and nothing
  // else exercises this channel/pricer while run_day runs.
  obs::Registry& reg = obs::Registry::global();
  std::vector<obs::CounterDelta> deltas;
  deltas.reserve(std::size(kRunCounters));
  for (const RunCounter& c : kRunCounters) {
    deltas.emplace_back(reg.counter(c.name));
  }

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

  for (std::size_t i = 0; i < deltas.size(); ++i) {
    metrics.*kRunCounters[i].field = deltas[i].delta();
  }
  // The maximum and the final rung are state, not counts: read them from
  // the mechanism directly.
  const PricerHealthStats* health_stats = mechanism.health_stats();
  metrics.max_recovery_periods =
      health_stats != nullptr ? health_stats->max_recovery_periods : 0;
  metrics.final_health = to_string(mechanism.health());
  if (const obs::incident::IncidentEngine* incident = incident_engine()) {
    metrics.incident_alerts = incident->alerts_emitted();
    metrics.incidents_opened = incident->incidents_opened();
    metrics.incidents_closed = incident->incidents_closed();
  }
  return metrics;
}

}  // namespace tdp::fleet
