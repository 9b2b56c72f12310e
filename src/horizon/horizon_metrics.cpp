#include "horizon/horizon_metrics.hpp"

namespace tdp::horizon {
namespace {

std::string day_json(const DayMetrics& day) {
  return fleet::json::Object()
      .field("day", day.day)
      .field("sessions", day.sessions)
      .field("deferred_sessions", day.deferred_sessions)
      .field("reward_paid_units", day.reward_paid_units)
      .field("peak_to_average_tip", day.peak_to_average_tip)
      .field("peak_to_average_tdp", day.peak_to_average_tdp)
      .field("estimated", day.estimated)
      .field("beta_estimate", day.beta_estimate)
      .field("estimate_residual", day.estimate_residual)
      .field("reanchored", day.reanchored)
      .field("fallback_periods", day.fallback_periods)
      .field("estimation_frozen", day.estimation_frozen)
      .field("reanchor_rolled_back", day.reanchor_rolled_back)
      .field("reward_step_linf", day.reward_step_linf)
      .field("offered_units", day.offered_units)
      .field("realized_units", day.realized_units)
      .field("rewards", day.rewards)
      .str();
}

}  // namespace

std::string HorizonMetrics::to_json() const {
  std::string day_list = "[";
  for (std::size_t i = 0; i < days.size(); ++i) {
    if (i) day_list += ',';
    day_list += day_json(days[i]);
  }
  return fleet::json::Object()
      .field("users", users)
      .field("periods", std::uint64_t{periods})
      .field("slices", std::uint64_t{slices})
      .field("shards", std::uint64_t{shards})
      .field("threads", std::uint64_t{threads})
      .field("warmup_days", std::uint64_t{warmup_days})
      .field("horizon_days", std::uint64_t{horizon_days})
      .field("wall_seconds", wall_seconds)
      .field("publish_seconds", publish_seconds)
      .field("table_seconds", table_seconds)
      .field("simulate_seconds", simulate_seconds)
      .field("aggregate_seconds", aggregate_seconds)
      .field("pricer_seconds", pricer_seconds)
      .field("final_health", final_health)
      .raw("days", day_list + ']')
      .str();
}

}  // namespace tdp::horizon
