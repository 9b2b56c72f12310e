// The fleet period loop driven from the benchmark through the same public
// components FleetDriver::run_day uses (publish + fan-out sync, deferral
// table, shard sweep on parallel_for, ordered merge, measurement guard,
// mechanism observe and settle), with a timestamp at every phase boundary
// and an obs::Span around every call into a layer.
//
// Only clean runs are replayed (no fault plan, no incident engine): that is
// the path run_day takes for the fleet workloads, and on it the loop must
// reproduce run_day's measured day and reward trajectory bitwise.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "core/paper_data.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/population.hpp"
#include "fleet/price_fanout.hpp"
#include "fleet/shard.hpp"
#include "mech/mechanism.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "tube/measurement_guard.hpp"
#include "tube/price_channel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One simulated period, phase by phase (milliseconds).
struct PeriodTiming {
  double publish = 0.0;
  double table = 0.0;
  double sweep = 0.0;       ///< parallel_for wall
  double shard_max = 0.0;   ///< slowest shard
  double shard_busy = 0.0;  ///< sum over shards
  double aggregate = 0.0;
  double guard = 0.0;
  double observe = 0.0;
  bool failed = false;    ///< the pricer's solve failed
  bool fallback = false;  ///< the pricer observed in FALLBACK
};

/// One simulated day's outputs, in the units FleetMetrics reports.
struct DayOutput {
  std::vector<double> offered_units;
  std::vector<double> realized_units;
  std::uint64_t sessions = 0;
  std::uint64_t deferred_sessions = 0;
  double reward_paid_units = 0.0;
  double settle_ms = 0.0;
  double wall_ms = 0.0;
};

/// The pricer's per-observation journal records (iterations, convergence,
/// expected cost and reward step): the reward trajectory as the library
/// itself reports it.
inline std::vector<std::vector<double>> pricer_trajectory() {
  std::vector<std::vector<double>> out;
  for (const tdp::obs::JournalEvent& e :
       tdp::obs::Journal::global().snapshot()) {
    if (e.kind != "pricer.solve") continue;
    std::vector<double> row{static_cast<double>(e.period)};
    for (const auto& field : e.fields) row.push_back(field.second);
    out.push_back(std::move(row));
  }
  return out;
}

/// Canonical slice count, by FleetDriver's rule.
inline std::size_t effective_slices(const tdp::fleet::FleetDriverConfig& c) {
  const std::size_t requested =
      c.slices != 0 ? c.slices : std::max<std::size_t>(c.shards, 1);
  return std::min<std::size_t>(std::max<std::size_t>(requested, 1),
                               static_cast<std::size_t>(c.population.users));
}

class FleetLoop {
 public:
  /// Builds the components in FleetDriver's order, timing the population
  /// and shard arenas apart from the mechanism's offline solve.
  explicit FleetLoop(const tdp::fleet::FleetDriverConfig& config)
      : threads_(config.threads == 0 ? tdp::default_thread_count()
                                     : config.threads) {
    TDP_REQUIRE(!tdp::FaultInjector(config.fault).enabled() &&
                    !config.incident.enabled &&
                    config.online_pricing,
                "the benchmark loop replays clean online runs only");
    const auto t0 = Clock::now();
    {
      tdp::obs::Span span("fleet.population");
      population_ = std::make_unique<tdp::fleet::Population>(config.population);
    }
    channel_ = std::make_unique<tdp::PriceChannel>(config.population.periods);
    fanout_ = std::make_unique<tdp::fleet::PriceFanout>(
        *channel_, tdp::paper::kPatienceIndices.size());
    guard_ = std::make_unique<tdp::MeasurementGuard>(
        population_->expected_demand_units(), config.measurement_guard);
    aggregator_ = std::make_unique<tdp::fleet::StripedAggregator>(
        effective_slices(config), population_->periods());
    channel_->set_resilience(config.resilience);
    const auto t1 = Clock::now();
    {
      tdp::obs::Span span("dynamic.offline_solve");
      tdp::obs::CounterDelta iterations(tdp::obs::Registry::global().counter(
          "solver.dynamic_iterations_total"));
      mechanism_ = tdp::mech::make_mechanism(
          config.mechanism, tdp::fleet::baseline_fluid_model(*population_),
          config.offline_options,
          config.pricer_guard.value_or(tdp::PricerGuardConfig{}));
      offline_iterations_ = iterations.delta();
    }
    const auto t2 = Clock::now();
    const std::size_t slices = aggregator_->stripes();
    const std::size_t count =
        std::min<std::size_t>(std::max<std::size_t>(config.shards, 1), slices);
    shards_.resize(count);
    {
      tdp::obs::Span span("fleet.shards");
      tdp::parallel_for(
          count,
          [&](std::size_t s) {
            shards_[s] = std::make_unique<tdp::fleet::Shard>(
                *population_, slices * s / count, slices * (s + 1) / count,
                slices);
          },
          threads_);
    }
    population_ms_ = ms_between(t0, t1) + ms_between(t2, Clock::now());
    offline_solve_ms_ = ms_between(t1, t2);
    busy_.assign(count, 0.0);
  }

  FleetLoop(const FleetLoop&) = delete;
  FleetLoop& operator=(const FleetLoop&) = delete;

  const tdp::mech::PricingMechanism& mechanism() const { return *mechanism_; }
  double population_ms() const { return population_ms_; }
  double offline_solve_ms() const { return offline_solve_ms_; }
  std::uint64_t offline_iterations() const { return offline_iterations_; }

  /// Simulate the next day; appends one PeriodTiming per period.
  DayOutput run_day(std::vector<PeriodTiming>& timings) {
    tdp::obs::Span day_span("fleet.day");
    const std::size_t n = population_->periods();
    const std::size_t classes = population_->patience_classes();
    const double calibration = population_->unit_calibration();
    tdp::obs::Registry& reg = tdp::obs::Registry::global();
    tdp::obs::Counter& solve_failures =
        reg.counter("pricer.solve_failures_total");
    tdp::obs::Counter& fallback_obs =
        reg.counter("pricer.fallback_observations_total");

    DayOutput day;
    day.offered_units.assign(n, 0.0);
    day.realized_units.assign(n, 0.0);
    const auto day_start = Clock::now();
    for (std::size_t period = 0; period < n; ++period) {
      tdp::obs::Span period_span("fleet.period");
      PeriodTiming t;
      const auto p0 = Clock::now();
      std::vector<const tdp::math::Vector*> schedules(classes);
      {
        tdp::obs::Span span("fleet.publish");
        channel_->publish(mechanism_->rewards());
        fanout_->sync(day_ * n + period);
        for (std::size_t c = 0; c < classes; ++c) {
          schedules[c] = &fanout_->schedule(c);
        }
      }
      const auto p1 = Clock::now();
      std::unique_ptr<tdp::fleet::DeferralTable> table;
      {
        tdp::obs::Span span("fleet.table");
        table = std::make_unique<tdp::fleet::DeferralTable>(*population_,
                                                            schedules, period);
      }
      const auto p2 = Clock::now();
      {
        tdp::obs::Span span("fleet.simulate");
        tdp::parallel_for(
            shards_.size(),
            [&](std::size_t s) {
              tdp::obs::Span shard_span("fleet.shard");
              const auto s0 = Clock::now();
              shards_[s]->simulate_period(day_, period, *table, *aggregator_);
              busy_[s] = ms_between(s0, Clock::now());
            },
            threads_);
      }
      const auto p3 = Clock::now();
      tdp::fleet::PeriodStats merged;
      {
        tdp::obs::Span span("fleet.aggregate");
        merged = aggregator_->merged(period);
        day.sessions += merged.sessions;
        day.deferred_sessions += merged.deferred_sessions;
        day.offered_units[period] = merged.offered_work * calibration;
        day.realized_units[period] = merged.realized_work * calibration;
        day.reward_paid_units += merged.reward_paid * calibration;
      }
      const auto p4 = Clock::now();
      tdp::MeasurementGuard::Admitted admitted;
      {
        tdp::obs::Span span("tube.guard");
        admitted = guard_->admit(period, merged.offered_work * calibration);
      }
      const auto p5 = Clock::now();
      const std::uint64_t failures_before = solve_failures.value();
      const std::uint64_t fallback_before = fallback_obs.value();
      {
        tdp::obs::Span span("mech.observe");
        mechanism_->observe_period(period, admitted.value, admitted.degraded,
                                   mechanism_->solver_budget());
      }
      const auto p6 = Clock::now();
      t.failed = solve_failures.value() != failures_before;
      t.fallback = fallback_obs.value() != fallback_before;
      t.publish = ms_between(p0, p1);
      t.table = ms_between(p1, p2);
      t.sweep = ms_between(p2, p3);
      for (double b : busy_) {
        t.shard_busy += b;
        t.shard_max = std::max(t.shard_max, b);
      }
      t.aggregate = ms_between(p3, p4);
      t.guard = ms_between(p4, p5);
      t.observe = ms_between(p5, p6);
      timings.push_back(t);
    }
    {
      tdp::obs::Span span("mech.settle");
      const auto s0 = Clock::now();
      tdp::mech::DaySettlement settlement;
      settlement.offered_units = day.offered_units;
      settlement.realized_units = day.realized_units;
      settlement.reward_paid_units = day.reward_paid_units;
      mechanism_->settle_day(settlement);
      day.settle_ms = ms_between(s0, Clock::now());
    }
    day.wall_ms = ms_between(day_start, Clock::now());
    ++day_;
    return day;
  }

 private:
  std::size_t threads_;
  std::unique_ptr<tdp::fleet::Population> population_;
  std::unique_ptr<tdp::PriceChannel> channel_;
  std::unique_ptr<tdp::fleet::PriceFanout> fanout_;
  std::unique_ptr<tdp::MeasurementGuard> guard_;
  std::unique_ptr<tdp::fleet::StripedAggregator> aggregator_;
  std::unique_ptr<tdp::mech::PricingMechanism> mechanism_;
  std::vector<std::unique_ptr<tdp::fleet::Shard>> shards_;
  std::vector<double> busy_;
  std::size_t day_ = 0;
  double population_ms_ = 0.0;
  double offline_solve_ms_ = 0.0;
  std::uint64_t offline_iterations_ = 0;
};

}  // namespace perfbench
