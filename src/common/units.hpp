// Units and conventions shared across the TDP library.
//
// The paper (ICDCS'11) works in two implicit units that we make explicit:
//   - money is measured in units of $0.10 ("For illustrative purposes, we use
//     monetary units of $0.10");
//   - demand is measured in units of 10 MBps (the unit of Tables VII-XV).
// With these conventions the static-model capacity cost is f(x) = 3*max(x,0)
// and the headline per-user daily costs ($4.26 TIP / $3.26 TDP) come out in
// dollars once multiplied by kDollarsPerMoneyUnit.
#pragma once

#include <cstddef>

namespace tdp {

/// One money unit equals $0.10.
inline constexpr double kDollarsPerMoneyUnit = 0.10;

/// One demand unit equals 10 MBps (the unit used by the paper's mix tables).
inline constexpr double kMBpsPerDemandUnit = 10.0;

/// A "typical period lasts a half hour" (Section II).
inline constexpr double kSecondsPerPeriod = 1800.0;

/// Number of users behind the bottleneck in the headline simulation
/// ("this is typical of a system with ten users").
inline constexpr std::size_t kPaperUserCount = 10;

/// Convert a money-unit amount to dollars.
constexpr double to_dollars(double money_units) {
  return money_units * kDollarsPerMoneyUnit;
}

/// Convert a demand-unit rate to MBps.
constexpr double to_mbps(double demand_units) {
  return demand_units * kMBpsPerDemandUnit;
}

/// Convert MBps to demand units.
constexpr double from_mbps(double mbps) { return mbps / kMBpsPerDemandUnit; }

}  // namespace tdp
