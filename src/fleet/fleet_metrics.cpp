#include "fleet/fleet_metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace tdp::fleet {
namespace json {

namespace {

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::string& Object::key(const char* name) {
  if (out_.size() > 1) out_ += ',';
  out_ += '"';
  out_ += name;
  out_ += "\":";
  return out_;
}

Object& Object::field(const char* name, double value) {
  key(name) += number(value);
  return *this;
}

Object& Object::field(const char* name, std::uint64_t value) {
  key(name) += std::to_string(value);
  return *this;
}

Object& Object::field(const char* name, bool value) {
  key(name) += value ? "true" : "false";
  return *this;
}

Object& Object::field(const char* name, const std::string& value) {
  key(name) += '"' + value + '"';
  return *this;
}

Object& Object::field(const char* name, const std::vector<double>& values) {
  std::string array = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) array += ',';
    array += number(values[i]);
  }
  return raw(name, array + ']');
}

Object& Object::raw(const char* name, const std::string& json) {
  key(name) += json;
  return *this;
}

}  // namespace json

double peak_to_average(const std::vector<double>& profile) {
  if (profile.empty()) return 0.0;
  const double total =
      std::accumulate(profile.begin(), profile.end(), 0.0);
  if (total <= 0.0) return 0.0;
  const double peak = *std::max_element(profile.begin(), profile.end());
  return peak * static_cast<double>(profile.size()) / total;
}

std::string FleetMetrics::to_json() const {
  return json::Object()
      .field("users", users)
      .field("periods", std::uint64_t{periods})
      .field("shards", std::uint64_t{shards})
      .field("threads", std::uint64_t{threads})
      .field("days", std::uint64_t{days})
      .field("sessions", sessions)
      .field("deferred_sessions", deferred_sessions)
      .field("wall_seconds", wall_seconds)
      .field("sessions_per_second", sessions_per_second)
      .field("user_periods_per_second", user_periods_per_second)
      .field("publish_seconds", publish_seconds)
      .field("table_seconds", table_seconds)
      .field("simulate_seconds", simulate_seconds)
      .field("aggregate_seconds", aggregate_seconds)
      .field("pricer_seconds", pricer_seconds)
      .field("peak_to_average_tip", peak_to_average_tip)
      .field("peak_to_average_tdp", peak_to_average_tdp)
      .field("reward_paid_units", reward_paid_units)
      .field("pricer_expected_cost", pricer_expected_cost)
      .field("price_groups", std::uint64_t{price_groups})
      .field("price_server_fetches", price_server_fetches)
      .field("price_pull_drops", price_pull_drops)
      .field("price_pull_retries", price_pull_retries)
      .field("price_stale_periods", price_stale_periods)
      .field("price_fallback_periods", price_fallback_periods)
      .field("price_skewed_periods", price_skewed_periods)
      .field("price_recoveries", price_recoveries)
      .field("shard_stripes_lost", shard_stripes_lost)
      .field("measurement_gaps", measurement_gaps)
      .field("measurement_repairs", measurement_repairs)
      .field("solver_failures", solver_failures)
      .field("reward_clamps", reward_clamps)
      .field("skipped_updates", skipped_updates)
      .field("health_transitions", health_transitions)
      .field("degraded_observations", degraded_observations)
      .field("fallback_observations", fallback_observations)
      .field("pricer_recoveries", pricer_recoveries)
      .field("max_recovery_periods", max_recovery_periods)
      .field("incident_alerts", incident_alerts)
      .field("incidents_opened", incidents_opened)
      .field("incidents_closed", incidents_closed)
      .field("final_health", final_health)
      .field("mechanism", mechanism)
      .field("rebate_budget_pool", rebate_budget_pool)
      .field("rebate_budget_spent", rebate_budget_spent)
      .field("offered_units", offered_units)
      .field("realized_units", realized_units)
      .str();
}

void print_phase_table(const LoopMetrics& m) {
  const double total = m.publish_seconds + m.table_seconds +
                       m.simulate_seconds + m.aggregate_seconds +
                       m.pricer_seconds;
  const auto row = [total](const char* name, double seconds) {
    const double share = total > 0.0 ? 100.0 * seconds / total : 0.0;
    const int bar = static_cast<int>(share / 2.0 + 0.5);
    std::printf("  %-22s %8.3f s  %5.1f%%  %.*s\n", name, seconds, share, bar,
                "##################################################");
  };
  row("publish + fan-out", m.publish_seconds);
  row("deferral tables", m.table_seconds);
  row("shard simulation", m.simulate_seconds);
  row("aggregate merge", m.aggregate_seconds);
  row("online pricer", m.pricer_seconds);
  std::printf("  %-22s %8.3f s  (loop coverage %.1f%% of wall)\n",
              "phase total", total,
              m.wall_seconds > 0.0 ? 100.0 * total / m.wall_seconds : 0.0);
}

}  // namespace tdp::fleet
