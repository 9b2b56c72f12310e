// Per-day and whole-run metrics for long-horizon operations.
//
// Every DayMetrics field is a deterministic function of the run's
// configuration: the kill-and-restore property tests compare DayMetrics
// with EXPECT_EQ on the raw doubles. Wall-clock timing lives only in
// HorizonMetrics' loop metrics (wall and phase seconds) and is explicitly
// excluded from bitwise comparisons.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_metrics.hpp"

namespace tdp::horizon {

/// One simulated day's deterministic outcomes: the loop's traffic totals
/// plus the horizon's own.
struct DayMetrics : fleet::DayTotals {
  std::uint64_t day = 0;  ///< absolute day index (warmup included)
  double peak_to_average_tip = 0.0;
  double peak_to_average_tdp = 0.0;

  // Online §IV estimation (when the sliding window was deep enough).
  bool estimated = false;
  double beta_estimate = 0.0;     ///< tied patience index fitted to the window
  double estimate_residual = 0.0; ///< squared residual norm of the fit
  bool reanchored = false;        ///< pricer re-solved on the estimated model

  // Storm-mode health gating (all zero unless the gates are configured, so
  // legacy runs serialize unchanged).
  std::uint64_t fallback_periods = 0;  ///< periods the pricer sat in FALLBACK
  bool estimation_frozen = false;      ///< day excluded from the fit window
  bool reanchor_rolled_back = false;   ///< objective guard rejected the re-fit

  /// L-inf distance between this day's starting reward schedule and the
  /// previous day's — the limit-cycle diagnostic (0 for the first day).
  double reward_step_linf = 0.0;
};

/// Whole-run summary. `days` holds the measured (post-warmup) days; the
/// loop's wall and phase times cover this driver instance's run() calls
/// and periods (a restored run counts from the restore).
struct HorizonMetrics : fleet::LoopMetrics {
  std::size_t slices = 0;
  std::size_t warmup_days = 0;
  std::size_t horizon_days = 0;

  std::vector<DayMetrics> days;
  std::string final_health = "HEALTHY";

  /// Compact single-object JSON (per-day profiles as arrays of arrays).
  std::string to_json() const;
};

}  // namespace tdp::horizon
