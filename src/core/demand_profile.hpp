// Demand profiles: who wants how much bandwidth in each period, and how
// willing each slice of that demand is to wait.
//
// A period's demand is a mix of session classes; each class has an aggregate
// volume (in demand units, i.e. 10 MBps sustained for one period) and a
// waiting function. This matches the paper's setup where "waiting functions
// may ... represent an aggregate of users' willingnesses to wait, averaged
// over concurrent sessions" and the evaluation's per-patience-index mixes
// (Tables VII, VIII).
#pragma once

#include <cstddef>
#include <vector>

#include "core/waiting_function.hpp"

namespace tdp {

/// One homogeneous slice of a period's demand.
struct SessionClass {
  WaitingFunctionPtr waiting;  ///< never null
  double volume = 0.0;         ///< demand units originally in this period
};

/// Demand under time-independent pricing for all n periods.
class DemandProfile {
 public:
  explicit DemandProfile(std::size_t periods);

  std::size_t periods() const { return mixes_.size(); }

  /// Add a session class to period i (0-based). Its waiting function must
  /// be built for this profile's period count: its lag tables and
  /// normalization are sized to that n.
  void add_class(std::size_t period, SessionClass session_class);

  const std::vector<SessionClass>& classes(std::size_t period) const;

  /// X_i: total demand under TIP in period i.
  double tip_demand(std::size_t period) const;

  /// All X_i as a vector.
  std::vector<double> tip_demand_vector() const;

  /// Total daily demand (sum of X_i).
  double total_demand() const;

  /// Scale all class volumes in a period by `factor` >= 0. Used by the
  /// online algorithm when measured arrivals differ from the forecast.
  void scale_period(std::size_t period, double factor);

  /// Overwrite one class's volume exactly. Checkpoint restore rebuilds a
  /// baseline profile and installs the saved volumes bit-for-bit through
  /// this (scale_period cannot: a multiply round-trips through rounding).
  void set_volume(std::size_t period, std::size_t class_index, double volume);

 private:
  std::vector<std::vector<SessionClass>> mixes_;
};

}  // namespace tdp
