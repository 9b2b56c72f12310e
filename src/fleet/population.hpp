// Synthetic user population for fleet-scale day simulations.
//
// The paper's models work on *aggregate* demand mixes (Tables VII/VIII): so
// many demand units of patience class beta in each period. The fleet layer
// inverts that view: it synthesizes individual users whose expected behaviour
// reproduces those aggregates, so that a million-user day can be simulated
// and re-aggregated to drive the online pricer.
//
// Every per-user trait is a pure function of (population seed, user id),
// derived through non-mutating `Rng::fork_stream` splits. No draw depends on
// shard layout, thread count, or iteration order — the determinism contract
// the sharded driver and the 1-vs-N-thread bit-identity tests rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/demand_profile.hpp"
#include "core/waiting_function.hpp"

namespace tdp::fleet {

struct PopulationConfig {
  /// Fleet size. The aggregate expected demand profile is independent of
  /// this: more users means finer-grained, lower-variance aggregates.
  std::uint64_t users = 100000;
  /// Periods per day; must be 48 or 12 (the paper's published mixes).
  std::size_t periods = 48;
  std::uint64_t seed = 20110611;
  /// Expected sessions per user per day (sets session granularity, not
  /// aggregate volume — volumes are calibrated to the paper profile).
  double sessions_per_day = 4.0;
};

/// Immutable per-user traits, derived on demand from (seed, user id).
struct UserSpec {
  /// Index into the ten Table IV patience classes (waiting functions).
  std::uint32_t patience_class = 0;
  /// Multiplicative demand factor in [0.5, 1.5), population mean 1.0:
  /// individual users differ, aggregates stay calibrated in expectation.
  double activity = 1.0;
};

class Population {
 public:
  explicit Population(PopulationConfig config);

  std::uint64_t users() const { return config_.users; }
  std::size_t periods() const { return config_.periods; }
  std::size_t patience_classes() const { return waiting_.size(); }
  const PopulationConfig& config() const { return config_; }

  /// User traits; O(1), stateless, shard-independent.
  UserSpec spec(std::uint64_t user) const;

  /// The RNG stream for one user's draws in one period of the day. Distinct
  /// (user, period) pairs get statistically independent streams, so periods
  /// can be replayed or simulated in any grouping with identical results.
  Rng user_period_rng(std::uint64_t user, std::size_t period) const;

  /// The per-user parent stream: user_period_rng(u, p) equals
  /// user_rng(u).fork_stream(p) bitwise. Shards cache user_rng(u).state()
  /// so the session loop can fork period streams in SIMD batches.
  Rng user_rng(std::uint64_t user) const { return root_.fork_stream(user); }

  /// Expected sessions per period for a user of class `cls` with activity 1
  /// (scale by UserSpec::activity for a concrete user).
  double session_rate(std::uint32_t cls, std::size_t period) const;

  /// One period's class tables for the session draw (the screen,
  /// simd::fork_uniform_screen_batch, and the shard's walk),
  /// simd::kMaxClasses entries each. class_rates(p)[c] is
  /// session_rate(c, p), and 0 past the last class. class_screens(p)[c] is
  /// a first uniform at or below which no class-c user of any activity
  /// draws a session in period p (DESIGN.md §15.2): exp(-1.6 * rate) where
  /// that bound provably holds, -1.0 (screens nobody) where it may not,
  /// +infinity for a zero rate. Built once, at construction.
  const double* class_rates(std::size_t period) const;
  const double* class_screens(std::size_t period) const;

  /// Mean session size in user work units (exponentially distributed).
  double mean_session_size() const { return mean_session_size_; }

  /// Waiting function of each patience class (continuous-lag normalization,
  /// matching the dynamic model the aggregates feed). DeferralTable
  /// rebuilds read its tabulated uniform-arrival weights.
  const WaitingFunctionPtr& waiting(std::uint32_t cls) const {
    return waiting_[cls];
  }

  /// Waiting functions for per-class patience indices scaled by
  /// `beta_scale` (one factor per class, each > 0). A scale of exactly 1.0
  /// for every class is bitwise identical to waiting(). The long-horizon
  /// driver feeds these into DeferralTable's waiting_override to drift the
  /// population day by day without rebuilding the population. A scale
  /// whose drifted function cannot be normalized (an infinite index)
  /// throws PreconditionError.
  std::vector<WaitingFunctionPtr> scaled_waiting(
      const std::vector<double>& beta_scale) const;

  /// Fraction of users in each patience class (Table VII day totals).
  const std::vector<double>& class_shares() const { return class_share_; }

  /// Conversion factor from aggregate user work units to the paper's demand
  /// units: `aggregate_work * unit_calibration()` is directly comparable to
  /// the Table V/IX per-period demand the dynamic model is built from.
  double unit_calibration() const { return unit_calibration_; }

  /// Expected aggregate demand per period in demand units — by construction
  /// the paper's published per-period totals (Table V / Table IX).
  const std::vector<double>& expected_demand_units() const {
    return expected_units_;
  }

 private:
  PopulationConfig config_;
  Rng root_;  ///< never advanced; all streams fork off it
  double mean_session_size_ = 1.0;
  double unit_calibration_ = 1.0;
  std::vector<WaitingFunctionPtr> waiting_;
  std::vector<double> class_share_;      ///< per class, sums to 1
  std::vector<double> class_cdf_;        ///< cumulative shares
  std::vector<double> class_rate_;       ///< [period * kMaxClasses + cls]
  std::vector<double> class_screen_;     ///< [period * kMaxClasses + cls]
  std::vector<double> expected_units_;   ///< per period, demand units
};

}  // namespace tdp::fleet
