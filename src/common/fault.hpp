// Deterministic fault injection for the TUBE control loop.
//
// The prototype's control loop (GUIs pull prices once per period, the
// Optimizer re-prices from measured usage) is a distributed system: pulls
// can be dropped or arrive late, usage telemetry can be lost or corrupted,
// and a 1-D re-pricing solve can blow its iteration budget. A production
// pricer must keep publishing sane rewards through all of that, so this
// module makes those failures *reproducible*: a `FaultPlan` gives the rates,
// and a `FaultInjector` answers "does fault X hit site Y at time T?" as a
// pure function of (plan seed, fault domain, entity id, period, attempt).
//
// Determinism contract (mirrors the population's): every decision derives a
// private stream through non-mutating `Rng::fork_stream` chains, so the
// injector is stateless, const, and thread-safe, and the fault sequence for
// a given plan is independent of shard layout, thread count, and query
// order. A default-constructed (or all-zero-rate) injector never fires, and
// the consuming code paths are written so that a never-firing injector is
// bit-identical to no injector at all.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace tdp {

/// One correlated storm process: a seeded two-state Markov chain over
/// absolute periods. Each period the chain is ON or OFF; OFF->ON with
/// probability `onset`, ON stays ON with probability `persist`. While the
/// chain is ON, every site in the regime's fault domain fails independently
/// with probability `intensity` each period — so faults arrive in *bursts*
/// whose mean length is 1/(1-persist) periods, unlike the i.i.d. rates in
/// FaultPlan. The stationary on-fraction (the storm duty cycle) is
/// onset / (onset + 1 - persist).
///
/// The chain itself is a pure function of (plan seed, storm domain, tick):
/// one fork_stream draw per elapsed period, independent of entity, shard
/// layout, and query order — so storm plans inherit the full determinism
/// contract.
struct StormRegime {
  double onset = 0.0;      ///< P(OFF -> ON) per period; 0 disables the regime
  double persist = 0.0;    ///< P(ON -> ON) per period
  double intensity = 1.0;  ///< P(site fails | storm ON) per site per period

  bool enabled() const { return onset > 0.0; }
  bool operator==(const StormRegime&) const = default;
};

/// Rates and parameters of one chaos experiment. All probabilities are
/// per-site per-period (a "site" is a subscriber for the price path, a
/// fault domain — fleet shard or whole telemetry aggregate — for the
/// measurement path, and the solver itself for the solver path).
struct FaultPlan {
  // --- price publication path (per subscriber per period) ---
  double price_pull_drop = 0.0;   ///< P(one fetch attempt fails)
  double clock_skew = 0.0;        ///< P(subscriber's period clock is skewed
                                  ///< and it reads its stale cache instead
                                  ///< of fetching)

  // --- measurement path (per fault domain per period) ---
  double measurement_loss = 0.0;      ///< sample never arrives
  double measurement_nan = 0.0;       ///< sample arrives as NaN
  double measurement_negative = 0.0;  ///< sample arrives negative
  double measurement_spike = 0.0;     ///< sample multiplied by spike_factor
  double spike_factor = 8.0;          ///< outlier magnitude for spikes

  /// Absolute periods in which the whole measurement path is down (a
  /// scheduled blackout: every domain's sample is lost with certainty).
  std::vector<std::uint64_t> measurement_blackouts;

  // --- correlated storm regimes (independent Markov chains) ---
  /// Burst measurement blackouts: while ON, each measurement domain loses
  /// its sample with P(intensity) — at intensity 1 a full blackout window.
  StormRegime storm_blackout;
  /// Channel flapping: while ON, each price fetch attempt additionally
  /// fails with P(intensity), on top of the i.i.d. price_pull_drop rate.
  StormRegime storm_channel;
  /// Solver-starvation windows: while ON, the re-pricing solve is starved
  /// to solver_starved_budget with P(intensity) each period.
  StormRegime storm_solver;

  // --- price-determination path (per period) ---
  double solver_exhaustion = 0.0;  ///< P(the 1-D solve is cut off before
                                   ///< convergence — iteration budget
                                   ///< starved to solver_starved_budget)
  std::size_t solver_starved_budget = 2;

  // --- population drift (per day; long-horizon runs only) ---
  // Drift is NOT an observation fault: it perturbs the simulated users'
  // patience indices themselves, so the clean and the observed world drift
  // together. It therefore never arms guards and never contributes to
  // any(). The multi-day driver reads beta_drift_scale() and rebuilds the
  // deferral lag tables for each day; single-day drivers ignore it.
  /// Smooth geometric drift: every class's patience index is scaled by
  /// (1 + drift_beta_rate)^day. Must exceed -1.
  double drift_beta_rate = 0.0;
  /// One-time regime shift: from drift_step_day onward the scale gains an
  /// extra factor (1 + drift_beta_step). Must exceed -1.
  double drift_beta_step = 0.0;
  std::size_t drift_step_day = 0;

  std::uint64_t seed = 20110704;

  bool operator==(const FaultPlan&) const = default;

  /// True when any *observation* fault can ever fire under this plan
  /// (population drift deliberately excluded — see above).
  bool any() const;

  /// True when the plan drifts the population's patience indices.
  bool drifts() const {
    return drift_beta_rate != 0.0 || drift_beta_step != 0.0;
  }
};

class FaultInjector {
 public:
  /// Disabled injector: never fires, costs nothing.
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan);

  bool enabled() const { return enabled_; }
  const FaultPlan& plan() const { return plan_; }

  /// Entity id for "the one aggregate telemetry stream" (vs a shard id).
  static constexpr std::uint64_t kAggregateEntity = ~0ull;

  /// The three correlated storm processes a plan can carry.
  enum class StormDomain : std::uint64_t {
    kBlackout = 1,
    kChannel = 2,
    kSolver = 3,
  };

  /// Is `domain`'s storm chain ON in `abs_period`? Pure function of
  /// (plan seed, domain, abs_period): the chain starts OFF at period 0 and
  /// is replayed draw by draw, so any two queries — from any thread, in any
  /// order — agree. O(abs_period) per call; ticks are period counts
  /// (hundreds), so replay cost is noise next to a shard sweep.
  bool storm_active(StormDomain domain, std::uint64_t abs_period) const;

  /// Does fetch attempt `attempt` by `subscriber` in `abs_period` fail?
  bool drop_price_pull(std::uint64_t subscriber, std::uint64_t abs_period,
                       std::uint64_t attempt = 0) const;

  /// Is `subscriber`'s period clock skewed in `abs_period` (it believes the
  /// period has not rolled over and serves its cache without fetching)?
  bool skew_clock(std::uint64_t subscriber, std::uint64_t abs_period) const;

  enum class MeasurementFault { kNone, kLost, kNaN, kNegative, kSpike };

  /// What happens to fault domain `entity`'s sample for `abs_period`.
  MeasurementFault measurement_fault(std::uint64_t entity,
                                     std::uint64_t abs_period) const;

  /// Apply a measurement fault to a clean value (kLost has no corrupted
  /// value — the sample simply never arrives; callers handle it as a gap).
  double corrupt(MeasurementFault fault, double clean) const;

  /// Is the 1-D re-pricing solve starved of iterations in `abs_period`?
  bool exhaust_solver(std::uint64_t abs_period) const;

  /// Multiplicative scale on class `cls`'s patience index for `day`: a pure
  /// function of the plan alone (same for every class today; the class
  /// argument fixes the signature for per-class drift later). 1.0 when the
  /// plan carries no drift — including for a disabled injector.
  double beta_drift_scale(std::uint32_t cls, std::size_t day) const;

 private:
  enum Domain : std::uint64_t {
    kDomainPricePull = 1,
    kDomainClock = 2,
    kDomainMeasurement = 3,
    kDomainSolver = 4,
    // Storm streams get their own domains so they never collide with the
    // i.i.d. draws above: kDomainStormState carries the per-domain Markov
    // chain (entity = StormDomain id), the rest carry per-site intensity
    // draws while a chain is ON.
    kDomainStormState = 5,
    kDomainStormChannel = 6,
    kDomainStormMeasurement = 7,
    kDomainStormSolver = 8,
  };

  /// The private stream for one decision site; pure function of the
  /// arguments and the plan seed.
  Rng stream(Domain domain, std::uint64_t entity, std::uint64_t tick,
             std::uint64_t attempt) const;

  FaultPlan plan_{};
  Rng root_{};  ///< never advanced; all streams fork off it
  bool enabled_ = false;
};

const char* to_string(FaultInjector::MeasurementFault fault);

}  // namespace tdp
