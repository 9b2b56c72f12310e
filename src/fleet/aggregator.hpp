// Striped per-period usage accumulators with a deterministic merge.
//
// During a period each canonical *slice* gets its own stripe — the shard
// that owns the slice writes it, so there is no sharing, no atomics, and no
// false sharing across the parallel section. The merge then folds stripes
// in ascending slice order, so the floating-point summation order is a
// function of the (fixed) slice layout alone — never of shard grouping,
// thread count, or scheduling: fleet totals are bit-identical for any
// number of worker threads *and any shard count that groups whole slices*,
// which is what lets a checkpoint restore onto a different shard/thread
// configuration without moving a single bit of the aggregates.
//
// (The slice *layout* is part of the configuration: changing the slice
// count regroups the sums and may move totals by rounding noise, just like
// re-chunking any floating-point reduction. Drivers therefore fix the
// layout independently of both the shard and the thread count, and every
// checkpoint records it.)
#pragma once

#include <cstddef>
#include <vector>

#include "fleet/shard.hpp"

namespace tdp::fleet {

class StripedAggregator {
 public:
  StripedAggregator(std::size_t stripes, std::size_t periods);

  /// Number of canonical slices (one stripe per slice per period).
  std::size_t stripes() const { return stripes_; }
  std::size_t periods() const { return periods_; }

  /// Record slice `slice`'s totals for `period`. Each slice is written only
  /// by its owning shard, so concurrent calls for distinct slices are
  /// race-free.
  void record(std::size_t slice, std::size_t period, const PeriodStats& stats);

  /// Fleet totals for one period: stripes folded in ascending slice order.
  PeriodStats merged(std::size_t period) const;

  /// One slice's recorded stripe (read-only). The fault-injecting drivers
  /// fold surviving stripes themselves — in the same ascending slice order
  /// — when slices act as measurement fault domains.
  const PeriodStats& stripe(std::size_t slice, std::size_t period) const;

 private:
  std::size_t stripes_;
  std::size_t periods_;
  std::vector<PeriodStats> stripes_data_;  ///< [slice * periods + period]
};

}  // namespace tdp::fleet
