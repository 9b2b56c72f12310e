#include "fleet/control_loop.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/paper_data.hpp"
#include "fleet/fleet_metrics.hpp"
#include "math/piecewise_linear.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp::fleet {
namespace {

/// The loop's registry counters. channel.* / pricer.* / guard.* are bumped
/// by those components at their event sites.
struct LoopCounters {
  // Wall-clock phase timers ("_ns": excluded from checkpoints, read by the
  // incident dump's wall section).
  obs::Counter& publish_ns =
      obs::Registry::global().counter("fleet.phase.publish_ns");
  obs::Counter& table_ns =
      obs::Registry::global().counter("fleet.phase.table_ns");
  obs::Counter& simulate_ns =
      obs::Registry::global().counter("fleet.phase.simulate_ns");
  obs::Counter& aggregate_ns =
      obs::Registry::global().counter("fleet.phase.aggregate_ns");
  obs::Counter& pricer_ns =
      obs::Registry::global().counter("fleet.phase.pricer_ns");
  obs::Counter& periods =
      obs::Registry::global().counter("fleet.periods_total");
  obs::Counter& stripes_lost =
      obs::Registry::global().counter("fleet.shard_stripes_lost_total");
  obs::Counter& measurement_gaps =
      obs::Registry::global().counter("fleet.measurement_gaps_total");
  obs::Counter& measurement_repairs =
      obs::Registry::global().counter("fleet.measurement_repairs_total");
  obs::Counter& mech_publishes =
      obs::Registry::global().counter("mech.publishes_total");
  obs::Counter& mech_settles =
      obs::Registry::global().counter("mech.settles_total");
};

LoopCounters& loop_counters() {
  static LoopCounters counters;
  return counters;
}

/// PricerHealth -> the incident engine's own health ladder (same rungs;
/// the engine sits below the pricing layers and keeps its own enum).
obs::incident::Health map_health(PricerHealth health) {
  switch (health) {
    case PricerHealth::kHealthy:
      return obs::incident::Health::kHealthy;
    case PricerHealth::kDegraded:
      return obs::incident::Health::kDegraded;
    case PricerHealth::kFallback:
      return obs::incident::Health::kFallback;
  }
  return obs::incident::Health::kHealthy;
}

/// Canonical slice count: an override (a checkpoint's layout) wins, then
/// config.slices, else one slice per shard; always clamped to [1, users].
std::size_t effective_slices(const LoopConfig& config,
                             std::size_t slice_override, std::uint64_t users) {
  std::size_t requested = slice_override;
  if (requested == 0) {
    requested = config.slices != 0 ? config.slices
                                   : std::max<std::size_t>(config.shards, 1);
  }
  return std::min<std::size_t>(std::max<std::size_t>(requested, 1),
                               static_cast<std::size_t>(users));
}

/// Phase timer: each lap charges the time since the last boundary to one
/// phase (the loop's own total and its registry counter) and closes that
/// phase's trace span. Pure observation.
class PhaseClock {
 public:
  void begin(std::string_view span) { span_.emplace(span); }
  void lap(double& seconds, obs::Counter& counter) {
    const auto now = std::chrono::steady_clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_)
            .count());
    seconds += static_cast<double>(ns) * 1e-9;
    counter.add_always(ns);
    mark_ = now;
    span_.reset();
  }

 private:
  std::chrono::steady_clock::time_point mark_ =
      std::chrono::steady_clock::now();
  std::optional<obs::Span> span_;
};

}  // namespace

DynamicModel baseline_fluid_model(const Population& population) {
  const std::size_t n = population.periods();
  DemandProfile arrivals = paper::make_profile(
      n == 48 ? paper::table7_mix_48() : paper::table8_mix_12(),
      paper::kStaticNormalizationReward, LagNormalization::kContinuous);
  const std::vector<double> demand48 = paper::table5_demand_48();
  const double mean48 =
      std::accumulate(demand48.begin(), demand48.end(), 0.0) /
      static_cast<double>(demand48.size());
  const std::vector<double>& expected = population.expected_demand_units();
  const double mean =
      std::accumulate(expected.begin(), expected.end(), 0.0) /
      static_cast<double>(expected.size());
  const double capacity =
      paper::kDynamicCapacityUnits * (mean / mean48);
  return DynamicModel(
      std::move(arrivals), capacity,
      math::PiecewiseLinearCost::hinge(paper::kDynamicCostSlope, 0.0));
}

ControlLoop::ControlLoop(LoopConfig config, std::size_t slice_override)
    : config_(std::move(config)),
      population_(config_.population),
      injector_(config_.fault),
      channel_(config_.population.periods),
      fanout_(channel_, paper::kPatienceIndices.size()),
      guard_(population_.expected_demand_units(), config_.measurement_guard),
      aggregator_(
          effective_slices(config_, slice_override, population_.users()),
          population_.periods()),
      threads_(config_.threads == 0 ? default_thread_count()
                                    : config_.threads) {
  channel_.set_resilience(config_.resilience);
  if (injector_.enabled()) channel_.set_fault_injector(&injector_);
  if (config_.incident.enabled) {
    incident_ =
        std::make_unique<obs::incident::IncidentEngine>(config_.incident);
  }

  // Shards group whole slices into contiguous near-equal runs; the slice
  // layout (and with it every reduction order) depends on users and slice
  // count only, never on the shard grouping. Built on the pool so each
  // shard's arena pages are first-touched by a worker; which worker builds
  // which shard does not matter, every per-user value is a pure function
  // of (seed, user id).
  const std::size_t slices = aggregator_.stripes();
  const std::size_t shard_count =
      std::min<std::size_t>(std::max<std::size_t>(config_.shards, 1), slices);
  shards_.resize(shard_count);
  parallel_for(
      shard_count,
      [&](std::size_t s) {
        const std::size_t begin = slices * s / shard_count;
        const std::size_t end = slices * (s + 1) / shard_count;
        shards_[s] = std::make_unique<Shard>(population_, begin, end, slices);
      },
      threads_);
}

PricerGuardConfig ControlLoop::pricer_guard() const {
  return config_.pricer_guard.value_or(injector_.enabled()
                                           ? PricerGuardConfig::protective()
                                           : PricerGuardConfig{});
}

mech::PricingMechanism& ControlLoop::build_mechanism(DynamicModel model) {
  set_mechanism(mech::make_mechanism(config_.mechanism, std::move(model),
                                     config_.offline_options, pricer_guard()));
  return *mechanism_;
}

void ControlLoop::set_mechanism(
    std::unique_ptr<mech::PricingMechanism> mechanism) {
  mechanism_ = std::move(mechanism);
}

const OnlinePricer& ControlLoop::pricer() const {
  const OnlinePricer* pricer = mechanism_->online_pricer();
  TDP_REQUIRE(pricer != nullptr,
              "pricer() needs the tube_online mechanism; use mechanism()");
  return *pricer;
}

ControlLoop::Observation ControlLoop::observe(
    std::uint64_t abs_period, double calibration,
    const PeriodStats& merged) const {
  Observation obs;
  if (!injector_.enabled()) {
    obs.sample = merged.offered_work * calibration;
    return obs;
  }
  // A lost slice's stripe never reaches telemetry. Surviving stripes fold
  // in the same ascending slice order as StripedAggregator::merged, so a
  // no-loss period reproduces the merged value bitwise — and fault draws
  // depend on the slice id, never on the shard grouping.
  PeriodStats survived;
  for (std::size_t s = 0; s < aggregator_.stripes(); ++s) {
    if (injector_.measurement_fault(s, abs_period) ==
        FaultInjector::MeasurementFault::kLost) {
      ++obs.lost_stripes;
      continue;
    }
    survived += aggregator_.stripe(s, period_);
  }
  const double value = survived.offered_work * calibration;
  // The aggregate stream is its own fault domain on top of slice loss.
  const FaultInjector::MeasurementFault fault = injector_.measurement_fault(
      FaultInjector::kAggregateEntity, abs_period);
  if (fault == FaultInjector::MeasurementFault::kLost) return obs;
  obs.sample = injector_.corrupt(fault, value);
  return obs;
}

void ControlLoop::step_period(
    const std::vector<UniformLagWeightTable>* lag_tables) {
  const std::size_t n = population_.periods();
  TDP_REQUIRE(period_ < n, "close the completed day before stepping on");
  LoopCounters& lc = loop_counters();
  if (period_ == 0) {
    totals_ = DayTotals{};
    channel_fallbacks_ = 0;
    totals_.offered_units.assign(n, 0.0);
    totals_.realized_units.assign(n, 0.0);
    totals_.rewards.assign(n, 0.0);
    const math::Vector& published = mechanism_->rewards();
    double mean_reward = 0.0;
    double max_reward = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      mean_reward += published[p];
      max_reward = std::max(max_reward, published[p]);
    }
    lc.mech_publishes.add(1);
    obs::journal_record(
        "mech.publish", -1, -1, mechanism_->name(),
        {{"day", static_cast<double>(day_)},
         {"mean_reward", mean_reward / static_cast<double>(n)},
         {"max_reward", max_reward}});
  }

  const obs::Span period_span("fleet.period");
  lc.periods.add(1);
  const std::size_t classes = population_.patience_classes();
  const double calibration = population_.unit_calibration();
  const std::uint64_t abs_period = day_ * n + period_;
  // Channel degradation counters are deterministic channel state: their
  // delta across this period's sync is the incident engine's price-channel
  // disturbance signal.
  SubscriberTelemetry chan_before;
  if (incident_ != nullptr) chan_before = fanout_.total_telemetry();

  PhaseClock phase;
  phase.begin("fleet.publish");
  channel_.publish(mechanism_->rewards());
  fanout_.sync(static_cast<std::size_t>(abs_period));
  std::vector<const math::Vector*> schedules(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    schedules[c] = &fanout_.schedule(c);
  }
  phase.lap(phases_.publish_seconds, lc.publish_ns);

  phase.begin("fleet.table");
  const DeferralTable table(population_, schedules, period_, lag_tables);
  phase.lap(phases_.table_seconds, lc.table_ns);

  phase.begin("fleet.simulate");
  parallel_for(
      shards_.size(),
      [&](std::size_t s) {
        TDP_OBS_SPAN("fleet.shard");
        shards_[s]->simulate_period(static_cast<std::size_t>(day_), period_,
                                   table, aggregator_);
      },
      threads_);
  phase.lap(phases_.simulate_seconds, lc.simulate_ns);

  phase.begin("fleet.aggregate");
  const PeriodStats merged = aggregator_.merged(period_);
  totals_.sessions += merged.sessions;
  totals_.deferred_sessions += merged.deferred_sessions;
  totals_.offered_units[period_] = merged.offered_work * calibration;
  totals_.realized_units[period_] = merged.realized_work * calibration;
  totals_.reward_paid_units += merged.reward_paid * calibration;
  // The reward this period published when it ran — the schedule users
  // responded to (the estimator's p_k), read before observe re-prices it.
  totals_.rewards[period_] = mechanism_->rewards()[period_];
  phase.lap(phases_.aggregate_seconds, lc.aggregate_ns);

  obs::incident::PeriodSignals sig;
  if (config_.online_pricing) {
    phase.begin("fleet.pricer");
    const Observation obs = observe(abs_period, calibration, merged);
    sig.lost_stripes = obs.lost_stripes;
    if (obs.lost_stripes > 0) {
      lc.stripes_lost.add_always(obs.lost_stripes);
      obs::journal_record(
          "fleet.stripe_lost", static_cast<std::int64_t>(period_), -1,
          "shard measurement stripes lost",
          {{"stripes", static_cast<double>(obs.lost_stripes)},
           {"abs_period", static_cast<double>(abs_period)}});
    }
    if (!obs.sample.has_value()) {
      // Total telemetry blackout: the mechanism is told explicitly and
      // freezes its schedule.
      sig.measurement_gap = true;
      lc.measurement_gaps.add_always(1);
      obs::journal_record("fleet.measurement_gap",
                          static_cast<std::int64_t>(period_), -1,
                          "telemetry blackout, schedule frozen",
                          {{"abs_period", static_cast<double>(abs_period)}});
      mechanism_->observe_missed(period_);
    } else {
      const MeasurementGuard::Admitted admitted =
          guard_.admit(period_, obs.sample);
      if (admitted.degraded) lc.measurement_repairs.add_always(1);
      sig.measurement_repaired = admitted.degraded;
      const std::size_t budget = injector_.exhaust_solver(abs_period)
                                     ? injector_.plan().solver_starved_budget
                                     : mechanism_->solver_budget();
      mechanism_->observe_period(period_, admitted.value,
                                 admitted.degraded || obs.lost_stripes > 0,
                                 budget);
    }
    phase.lap(phases_.pricer_seconds, lc.pricer_ns);
  }

  if (incident_ != nullptr) {
    // Fed before the clock moves, so a checkpoint taken at this period
    // boundary carries this period's alerts.
    const SubscriberTelemetry chan = fanout_.total_telemetry();
    const std::uint64_t fallbacks =
        chan.fallback_periods - chan_before.fallback_periods;
    channel_fallbacks_ += fallbacks;
    sig.day = day_;
    sig.period = static_cast<std::uint32_t>(period_);
    sig.abs_period = abs_period;
    sig.offered_units = totals_.offered_units[period_];
    sig.realized_units = totals_.realized_units[period_];
    sig.price_groups = fanout_.groups();
    sig.failed_attempts = chan.dropped_attempts - chan_before.dropped_attempts;
    sig.degraded_groups = (chan.stale_periods - chan_before.stale_periods) +
                          fallbacks +
                          (chan.skewed_periods - chan_before.skewed_periods);
    sig.solver_starved =
        config_.online_pricing && injector_.exhaust_solver(abs_period);
    sig.health = map_health(mechanism_->health());
    sig.storm_blackout = injector_.storm_active(
        FaultInjector::StormDomain::kBlackout, abs_period);
    sig.storm_channel = injector_.storm_active(
        FaultInjector::StormDomain::kChannel, abs_period);
    sig.storm_solver = injector_.storm_active(
        FaultInjector::StormDomain::kSolver, abs_period);
    incident_->observe_period(sig);
  }
  ++period_;
}

mech::SettleInfo ControlLoop::settle_day() {
  TDP_REQUIRE(day_complete(), "settle needs a completed day");
  mech::DaySettlement settlement;
  settlement.offered_units = totals_.offered_units;
  settlement.realized_units = totals_.realized_units;
  settlement.reward_paid_units = totals_.reward_paid_units;
  const mech::SettleInfo settle = mechanism_->settle_day(settlement);
  loop_counters().mech_settles.add(1);
  obs::Registry::global()
      .counter(std::string("mech.") + mechanism_->name() + ".days_total")
      .add(1);
  obs::journal_record(
      "mech.settle", -1, -1, mechanism_->name(),
      {{"day", static_cast<double>(day_)},
       {"budget_spent", settle.budget_spent},
       {"budget_pool", settle.budget_pool},
       {"schedule_changed", settle.schedule_changed ? 1.0 : 0.0}});
  if (incident_ != nullptr) {
    obs::incident::SettleSignals sig;
    sig.day = day_;
    sig.abs_period = (day_ + 1) * population_.periods() - 1;
    sig.schedule_changed = settle.schedule_changed;
    sig.books_held = settle.books_held;
    sig.budget_spent = settle.budget_spent;
    sig.budget_pool = settle.budget_pool;
    incident_->observe_settle(sig);
  }
  return settle;
}

void ControlLoop::close_day(const obs::incident::DaySignals& flags) {
  TDP_REQUIRE(day_complete(), "close_day needs a completed day");
  if (incident_ != nullptr) {
    obs::incident::DaySignals sig = flags;
    sig.day = day_;
    sig.abs_period = (day_ + 1) * population_.periods() - 1;
    sig.peak_to_average_tip = peak_to_average(totals_.offered_units);
    sig.peak_to_average_tdp = peak_to_average(totals_.realized_units);
    sig.peak_realized_units = *std::max_element(
        totals_.realized_units.begin(), totals_.realized_units.end());
    sig.fallback_periods = channel_fallbacks_;
    incident_->observe_day(sig);
  }
  ++day_;
  period_ = 0;
}

LoopMetrics ControlLoop::metrics() const {
  LoopMetrics m = phases_;
  m.users = population_.users();
  m.periods = population_.periods();
  m.shards = shards_.size();
  m.threads = threads_;
  return m;
}

LoopState ControlLoop::export_state() const {
  LoopState state;
  state.day = day_;
  state.period = static_cast<std::uint32_t>(period_);
  state.ring_head = static_cast<std::uint32_t>(shards_.front()->ring_head());
  for (const auto& shard : shards_) {
    for (std::size_t s = shard->begin_slice(); s < shard->end_slice(); ++s) {
      state.ring_work.emplace_back();
      state.ring_reward.emplace_back();
      shard->export_slice_rings(s, state.ring_work.back(),
                                state.ring_reward.back());
    }
  }
  state.channel = channel_.export_state();
  state.fanout_schedules = fanout_.export_schedules();
  state.guard = guard_.export_state();
  return state;
}

void ControlLoop::restore(const LoopState& state, const DayTotals& totals,
                          std::uint64_t channel_fallbacks,
                          const obs::incident::EngineState* incident) {
  // Per-slice rings regroup onto whatever shards this loop configured.
  for (const auto& shard : shards_) {
    for (std::size_t s = shard->begin_slice(); s < shard->end_slice(); ++s) {
      shard->restore_slice_rings(s, state.ring_work[s], state.ring_reward[s]);
    }
    shard->set_ring_head(state.ring_head);
  }
  channel_.restore_state(state.channel);
  fanout_.restore_schedules(state.fanout_schedules);
  guard_.restore_state(state.guard);
  day_ = state.day;
  period_ = state.period;
  totals_ = totals;
  channel_fallbacks_ = channel_fallbacks;
  // Detector accumulators, burn windows and the recorder ring resume
  // exactly where the checkpoint froze them.
  if (incident_ != nullptr && incident != nullptr) {
    incident_->restore_state(*incident);
  }
}

}  // namespace tdp::fleet
