// Group fan-out of the published reward schedule to a million users.
//
// The TUBE prototype's pull-once-per-period discipline is per GUI; cloning
// it per user would keep a cached schedule per subscriber — O(users) memory
// and O(users) server fetches per period. At fleet scale users are binned
// into *groups* (by patience class here): each group holds exactly one
// PriceChannel subscription, pulls once per period, and every user in the
// group reads the group's cache. Memory and server traffic are O(groups),
// independent of fleet size, while the channel's fetch accounting still
// proves the once-per-period discipline held.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/vector_ops.hpp"
#include "tube/price_channel.hpp"

namespace tdp::fleet {

class PriceFanout {
 public:
  /// Registers `groups` subscribers on the channel.
  PriceFanout(PriceChannel& channel, std::size_t groups);

  std::size_t groups() const { return subscribers_.size(); }

  /// Pull each group's schedule for absolute period `abs_period` (one
  /// server fetch per group; later syncs in the same period hit caches).
  void sync(std::size_t abs_period);

  /// The schedule group `group` saw at the last sync.
  const math::Vector& schedule(std::size_t group) const;

  /// Total server fetches across all groups — the fan-out's entire load on
  /// the price server; compare against users * periods for the savings.
  std::size_t total_server_fetches() const;

  /// All groups' degradation counters summed (missed_streak is the max
  /// across groups, not a sum — it is a level, not a count).
  SubscriberTelemetry total_telemetry() const;

  /// Snapshot each group's last-pulled schedule (checkpoint support; the
  /// subscriber-side state lives in the channel and is exported there).
  std::vector<math::Vector> export_schedules() const { return schedules_; }

  /// Install snapshotted schedules (group count must match).
  void restore_schedules(const std::vector<math::Vector>& schedules);

 private:
  PriceChannel* channel_;
  std::vector<std::size_t> subscribers_;     ///< channel subscriber ids
  std::vector<math::Vector> schedules_;      ///< per group, last pulled
};

}  // namespace tdp::fleet
