#include "fleet/price_fanout.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tdp::fleet {

PriceFanout::PriceFanout(PriceChannel& channel, std::size_t groups)
    : channel_(&channel) {
  TDP_REQUIRE(groups >= 1, "need at least one group");
  subscribers_.reserve(groups);
  schedules_.resize(groups, math::Vector(channel.periods(), 0.0));
  for (std::size_t g = 0; g < groups; ++g) {
    subscribers_.push_back(channel_->subscribe());
  }
}

void PriceFanout::sync(std::size_t abs_period) {
  for (std::size_t g = 0; g < subscribers_.size(); ++g) {
    schedules_[g] = channel_->pull(subscribers_[g], abs_period);
  }
}

const math::Vector& PriceFanout::schedule(std::size_t group) const {
  TDP_REQUIRE(group < schedules_.size(), "unknown group");
  return schedules_[group];
}

std::size_t PriceFanout::total_server_fetches() const {
  std::size_t total = 0;
  for (std::size_t id : subscribers_) {
    total += channel_->server_fetches(id);
  }
  return total;
}

void PriceFanout::restore_schedules(
    const std::vector<math::Vector>& schedules) {
  TDP_REQUIRE(schedules.size() == schedules_.size(),
              "restored fan-out has a different group count");
  schedules_ = schedules;
}

SubscriberTelemetry PriceFanout::total_telemetry() const {
  SubscriberTelemetry total;
  for (std::size_t id : subscribers_) {
    const SubscriberTelemetry t = channel_->telemetry(id);
    total.fetches += t.fetches;
    total.cache_hits += t.cache_hits;
    total.dropped_attempts += t.dropped_attempts;
    total.retries += t.retries;
    total.stale_periods += t.stale_periods;
    total.fallback_periods += t.fallback_periods;
    total.skewed_periods += t.skewed_periods;
    total.recoveries += t.recoveries;
    total.missed_streak = std::max(total.missed_streak, t.missed_streak);
  }
  return total;
}

}  // namespace tdp::fleet
