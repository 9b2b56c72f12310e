// The TUBE per-period control loop: one engine behind both drivers.
//
//   ┌──────────────┐ publish ┌──────────────┐ pull/group ┌─────────────┐
//   │  Mechanism   ├────────►│ PriceChannel ├───────────►│ PriceFanout │
//   └─────▲────────┘         └──────────────┘            └──────┬──────┘
//         │ guarded aggregate (demand units)                    │ schedules
//   ┌─────┴────────┐  ordered merge   ┌────────┐  parallel      ▼
//   │ StripedAggreg│◄─────────────────┤ Shards │◄──── DeferralTable
//   └──────────────┘                  └────────┘      (per class)
//
// step_period() runs one period: publish the mechanism's schedule, fan it
// out (one server fetch per group), build the period's DeferralTable, sweep
// the shards on the thread pool (each applies the table to its drawn
// sessions), merge stripes in slice order, fold the merge into the day's
// totals, then hand the observed aggregate through the MeasurementGuard to
// the mechanism in one pool batch with the shards' draws of the day's next
// period, and feed the incident engine. Each phase is timed and traced
// (fleet.publish / table / simulate / aggregate / pricer, and the
// draw_wait after the pricer). settle_day() and close_day() end a day.
// FleetDriver runs warmup + 1 days on it; horizon::MultiDayDriver adds
// drift, estimation and checkpoints around it.
//
// Determinism: population draws depend only on (seed, user, day, period);
// the slice layout is fixed by configuration, never by the shard or thread
// count; stripes merge in slice order. Faults hit the *observation* paths
// only (price pulls, telemetry): slices are measurement fault domains, the
// aggregate stream one more on top, fan-out groups the price-pull domain.
// A zero-fault plan leaves every path bit-identical to no plan at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/fault.hpp"
#include "dynamic/dynamic_optimizer.hpp"
#include "dynamic/online_pricer.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/fleet_metrics.hpp"
#include "fleet/population.hpp"
#include "fleet/price_fanout.hpp"
#include "fleet/shard.hpp"
#include "mech/mechanism.hpp"
#include "obs/incident/incident.hpp"
#include "tube/measurement_guard.hpp"
#include "tube/price_channel.hpp"

namespace tdp::fleet {

/// The period loop's configuration; FleetDriverConfig and
/// horizon::HorizonConfig extend it (each with its own default layout).
struct LoopConfig {
  /// `default_layout` is the driver's default for both `shards` and
  /// `slices`.
  explicit LoopConfig(std::size_t default_layout)
      : shards(default_layout), slices(default_layout) {}

  PopulationConfig population;
  /// Shard count — the execution grouping of the per-period sweep: each
  /// shard runs a contiguous run of whole slices. Clamped to the slice
  /// count; never affects a value.
  std::size_t shards;
  /// Canonical slice count, in [1, users] (ControlLoop rejects any other
  /// value) — part of the experiment definition: it fixes the
  /// floating-point reduction order and the measurement fault domains.
  /// Never derived from the shard or thread count.
  std::size_t slices;
  /// Worker threads for the shard sweep; 0 = TDP_THREADS / hardware
  /// default. Any value yields bit-identical aggregates.
  std::size_t threads = 0;
  /// Days simulated before the measured day(s) to warm the deferral rings.
  std::size_t warmup_days = 1;
  /// Feed measured aggregates into the mechanism (off = the initial
  /// schedule is published unchanged).
  bool online_pricing = true;
  DynamicOptimizerOptions offline_options;
  /// Which pricing mechanism drives the loop (DESIGN.md §13).
  mech::MechanismConfig mechanism;
  /// Fault plan (default: nothing ever fires).
  FaultPlan fault;
  /// Staleness/retry policy for degraded price pulls.
  ChannelResilienceConfig resilience;
  /// Sanitization policy for the measured-aggregate feed.
  MeasurementGuardConfig measurement_guard;
  /// Pricer degradation policy; unset = PricerGuardConfig::protective()
  /// when the fault plan can fire, the no-op guard otherwise.
  std::optional<PricerGuardConfig> pricer_guard;
  /// Incident engine (off by default). A pure observer: enabling it never
  /// changes a simulated or priced value.
  obs::incident::IncidentConfig incident;
};

/// The loop's serializable state at a period boundary (horizon::
/// CheckpointData extends it).
struct LoopState {
  std::uint64_t day = 0;     ///< next day to simulate
  std::uint32_t period = 0;  ///< next period to simulate within `day`
  std::uint32_t ring_head = 0;
  /// Per-slice deferral rings, ascending slice order.
  std::vector<std::vector<double>> ring_work;
  std::vector<std::vector<double>> ring_reward;
  PriceChannelState channel;
  std::vector<math::Vector> fanout_schedules;
  MeasurementGuardState guard;
};

/// The fluid dynamic model whose expected arrivals match the population's:
/// the published mix on the continuous lag grid, at the paper's 48-period
/// load factor (capacity scales with mean demand so 12-period runs see the
/// same congestion regime).
DynamicModel baseline_fluid_model(const Population& population);

class ControlLoop {
 public:
  /// Builds every component but the mechanism (see build_mechanism /
  /// set_mechanism). Throws PreconditionError unless config.slices lies
  /// in [1, users].
  explicit ControlLoop(LoopConfig config);

  /// Build the configured mechanism planning against `model` (any offline
  /// solve runs here) and install it.
  mech::PricingMechanism& build_mechanism(DynamicModel model);
  /// Install a mechanism built elsewhere (a restored online pricer).
  void set_mechanism(std::unique_ptr<mech::PricingMechanism> mechanism);
  /// The pricer guard the config resolves to (see LoopConfig::pricer_guard).
  PricerGuardConfig pricer_guard() const;

  const LoopConfig& config() const { return config_; }
  const Population& population() const { return population_; }
  const FaultInjector& injector() const { return injector_; }
  const mech::PricingMechanism& mechanism() const { return *mechanism_; }
  mech::PricingMechanism& mechanism() { return *mechanism_; }
  /// The §III-B pricer — TubeOnline only (TDP_REQUIRE otherwise).
  const OnlinePricer& pricer() const;
  const PriceChannel& channel() const { return channel_; }
  const PriceFanout& fanout() const { return fanout_; }
  const obs::incident::IncidentEngine* incident_engine() const {
    return incident_.get();
  }
  obs::incident::IncidentEngine* incident_engine() { return incident_.get(); }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t slice_count() const { return aggregator_.stripes(); }
  std::size_t thread_count() const { return threads_; }

  /// Clock: the next period to simulate.
  std::uint64_t day() const { return day_; }
  std::size_t period() const { return period_; }
  /// True once every period of day() has run (settle, then close_day).
  bool day_complete() const { return period_ == population_.periods(); }

  /// Simulate period() of day(); a day's first period resets the day
  /// totals and journals the published schedule. `drifted` (one per
  /// patience class) replaces the population's waiting functions — the
  /// horizon's drifted patience indices.
  void step_period(const std::vector<WaitingFunctionPtr>* drifted = nullptr);

  /// Settle the completed day with the mechanism (journal, counters,
  /// incident settle signals).
  mech::SettleInfo settle_day();

  /// Feed the completed day's signals to the incident engine — shape and
  /// channel fallbacks from the day totals, the re-anchor flags from
  /// `flags` — and roll the clock to the next day.
  void close_day(const obs::incident::DaySignals& flags = {});

  const DayTotals& day_totals() const { return totals_; }
  /// Observation faults this loop absorbed since it was built (a restored
  /// loop counts from the restore). The registry's fleet.* counters count
  /// the same events for the whole process.
  struct FaultTallies {
    std::uint64_t stripes_lost = 0;         ///< slice stripes never arrived
    std::uint64_t measurement_gaps = 0;     ///< whole-aggregate losses
    std::uint64_t measurement_repairs = 0;  ///< guard-sanitized samples
  };
  const FaultTallies& fault_tallies() const { return tallies_; }
  /// Layout and per-phase seconds so far (wall_seconds is the caller's).
  LoopMetrics metrics() const;
  /// The day's fan-out group-periods served the channel's fallback
  /// schedule so far — DaySignals::fallback_periods. Counted only while
  /// the incident engine is on (its only reader).
  std::uint64_t day_channel_fallbacks() const { return channel_fallbacks_; }

  // -- checkpoint support --------------------------------------------------
  LoopState export_state() const;
  /// Reinstate a checkpointed loop: its state (rings regroup onto this
  /// loop's shards), the day so far, and the incident engine's state.
  void restore(const LoopState& state, const DayTotals& totals,
               std::uint64_t channel_fallbacks,
               const obs::incident::EngineState* incident);

 private:
  /// What telemetry reports for one period (nullopt = the aggregate sample
  /// never arrived), plus how many slice stripes were lost.
  struct Observation {
    std::optional<double> sample;
    std::size_t lost_stripes = 0;
  };
  Observation observe(std::uint64_t abs_period, double calibration,
                      const PeriodStats& merged) const;

  LoopConfig config_;
  Population population_;
  FaultInjector injector_;
  std::unique_ptr<mech::PricingMechanism> mechanism_;
  PriceChannel channel_;
  PriceFanout fanout_;
  MeasurementGuard guard_;
  /// Heap-held so construction can run on the pool workers (first-touch
  /// NUMA placement of each shard's arena; see Shard's ctor comment).
  std::vector<std::unique_ptr<Shard>> shards_;
  StripedAggregator aggregator_;
  std::size_t threads_;
  std::unique_ptr<obs::incident::IncidentEngine> incident_;

  std::uint64_t day_ = 0;
  std::size_t period_ = 0;
  DayTotals totals_;
  std::uint64_t channel_fallbacks_ = 0;
  FaultTallies tallies_;
  /// Per-phase wall seconds over the loop's lifetime (phase fields only).
  LoopMetrics phases_;
};

}  // namespace tdp::fleet
