#include "tube/measurement_guard.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"

namespace tdp {
namespace {

/// Registry mirrors of the guard's repair counters. The guard's own fields
/// stay the per-instance source of truth; these aggregate across instances.
struct GuardCounters {
  obs::Counter& gaps = obs::Registry::global().counter("guard.gaps_filled_total");
  obs::Counter& nan_rejected =
      obs::Registry::global().counter("guard.nan_rejected_total");
  obs::Counter& negative_rejected =
      obs::Registry::global().counter("guard.negative_rejected_total");
  obs::Counter& spikes =
      obs::Registry::global().counter("guard.spikes_clamped_total");
};

GuardCounters& guard_counters() {
  static GuardCounters counters;
  return counters;
}

}  // namespace

MeasurementGuard::MeasurementGuard(std::vector<double> reference,
                                   MeasurementGuardConfig config)
    : reference_(std::move(reference)),
      config_(config),
      last_good_(reference_.size(), 0.0),
      has_last_good_(reference_.size(), false),
      gap_streak_(reference_.size(), 0) {
  TDP_REQUIRE(!reference_.empty(), "need at least one period");
  TDP_REQUIRE(config_.max_spike_factor > 1.0,
              "spike factor must exceed 1 or clean data would be clamped");
  TDP_REQUIRE(config_.carry_floor_fraction >= 0.0 &&
                  config_.carry_floor_fraction < 1.0,
              "carry floor fraction must lie in [0, 1)");
  for (double r : reference_) {
    TDP_REQUIRE(std::isfinite(r) && r >= 0.0,
                "reference profile must be finite and nonnegative");
  }
}

double MeasurementGuard::fill_gap(std::size_t period) {
  ++gaps_filled_;
  guard_counters().gaps.add(1);
  ++gap_streak_[period];
  if (has_last_good_[period] &&
      gap_streak_[period] <= config_.max_carry_forward) {
    return last_good_[period];
  }
  // Extended blackout (or no history yet): decay geometrically from the
  // last good sample toward the prior, clamped at the carry floor — over a
  // near-zero reference period an unclamped decay walks the carried value
  // to ~0, and the first post-blackout re-solve would see a demand cliff.
  if (has_last_good_[period]) {
    const double lg = last_good_[period];
    const double ref = reference_[period];
    const std::size_t over = gap_streak_[period] - config_.max_carry_forward;
    const double decayed =
        ref + (lg - ref) * std::pow(0.5, static_cast<double>(over));
    return std::max(decayed, config_.carry_floor_fraction * lg);
  }
  return reference_[period];
}

MeasurementGuard::Admitted MeasurementGuard::admit(
    std::size_t period, std::optional<double> measured) {
  TDP_REQUIRE(period < reference_.size(), "period out of range");
  Admitted out;

  if (!measured.has_value()) {
    out.value = fill_gap(period);
    out.degraded = true;
    return out;
  }
  const double raw = *measured;
  if (std::isnan(raw) || std::isinf(raw)) {
    ++nan_rejected_;
    guard_counters().nan_rejected.add(1);
    obs::journal_record("guard.repair", static_cast<std::int64_t>(period), -1,
                        "non-finite sample rejected");
    TDP_LOG_EVERY_POW2(::tdp::LogLevel::kWarn, nan_rejected_)
        << "measurement guard: non-finite sample for period " << period
        << "; filling gap (" << nan_rejected_ << " rejected so far)";
    out.value = fill_gap(period);
    out.degraded = true;
    return out;
  }
  if (raw < 0.0) {
    ++negative_rejected_;
    guard_counters().negative_rejected.add(1);
    obs::journal_record("guard.repair", static_cast<std::int64_t>(period), -1,
                        "negative sample rejected", {{"value", raw}});
    TDP_LOG_EVERY_POW2(::tdp::LogLevel::kWarn, negative_rejected_)
        << "measurement guard: negative sample " << raw << " for period "
        << period << "; filling gap (" << negative_rejected_
        << " rejected so far)";
    out.value = fill_gap(period);
    out.degraded = true;
    return out;
  }

  // The spike bound is anchored on the larger of the prior and the last
  // good sample, so legitimately-grown demand keeps headroom.
  const double anchor =
      has_last_good_[period]
          ? std::max(reference_[period], last_good_[period])
          : reference_[period];
  const double bound = config_.max_spike_factor * anchor;
  if (anchor > 0.0 && raw > bound) {
    ++spikes_clamped_;
    guard_counters().spikes.add(1);
    obs::journal_record("guard.repair", static_cast<std::int64_t>(period), -1,
                        "spike clamped", {{"value", raw}, {"bound", bound}});
    TDP_LOG_EVERY_POW2(::tdp::LogLevel::kWarn, spikes_clamped_)
        << "measurement guard: spike " << raw << " clamped to " << bound
        << " for period " << period << " (" << spikes_clamped_
        << " clamped so far)";
    out.value = bound;
    out.degraded = true;
    // A clamped sample is still evidence of elevated demand: remember the
    // clamped level, not the outlier.
    last_good_[period] = bound;
    has_last_good_[period] = true;
    gap_streak_[period] = 0;
    return out;
  }

  // Clean sample: pass through bit-identical.
  out.value = raw;
  out.degraded = false;
  last_good_[period] = raw;
  has_last_good_[period] = true;
  gap_streak_[period] = 0;
  return out;
}

MeasurementGuardState MeasurementGuard::export_state() const {
  MeasurementGuardState state;
  state.last_good = last_good_;
  state.has_last_good = has_last_good_;
  state.gap_streak.assign(gap_streak_.begin(), gap_streak_.end());
  state.gaps_filled = gaps_filled_;
  state.nan_rejected = nan_rejected_;
  state.negative_rejected = negative_rejected_;
  state.spikes_clamped = spikes_clamped_;
  return state;
}

void MeasurementGuard::restore_state(const MeasurementGuardState& state) {
  const std::size_t n = reference_.size();
  TDP_REQUIRE(state.last_good.size() == n && state.has_last_good.size() == n &&
                  state.gap_streak.size() == n,
              "restored guard state has the wrong period count");
  last_good_ = state.last_good;
  has_last_good_ = state.has_last_good;
  gap_streak_.assign(state.gap_streak.begin(), state.gap_streak.end());
  gaps_filled_ = static_cast<std::size_t>(state.gaps_filled);
  nan_rejected_ = static_cast<std::size_t>(state.nan_rejected);
  negative_rejected_ = static_cast<std::size_t>(state.negative_rejected);
  spikes_clamped_ = static_cast<std::size_t>(state.spikes_clamped);
}

}  // namespace tdp
