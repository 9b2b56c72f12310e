#include "tube/tube_system.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "tube/measurement_guard.hpp"
#include "math/piecewise_linear.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"

namespace tdp {

TubeConfig default_testbed_config() {
  TubeConfig cfg;
  cfg.classes = {
      // web: many small objects, time-sensitive browsing
      {"web", netsim::FlowKind::kElastic, /*arrivals_per_hour=*/300.0,
       /*mean_size_mb=*/2.0, 0.0, 0.0},
      // ftp: bulk transfers
      {"ftp", netsim::FlowKind::kElastic, /*arrivals_per_hour=*/60.0,
       /*mean_size_mb=*/30.0, 0.0, 0.0},
      // video: fixed-rate streams, exponential duration (Appendix G)
      {"video", netsim::FlowKind::kStreaming, /*arrivals_per_hour=*/6.0,
       /*mean_size_mb=*/0.0, /*rate_mbps=*/2.0, /*mean_duration_s=*/600.0},
  };
  cfg.user_intensity = {1.0, 1.0};
  // Group 1 is impatient across the board; group 2 is patient, most of all
  // for video ("watching videos for pleasure").
  cfg.patience = {{4.0, 4.5, 5.0},    // user 1: web, ftp, video
                  {2.0, 1.0, 0.5}};   // user 2
  // Fig. 11: traffic high at the start of the hour, lower at the end.
  cfg.profile.peak = 1.6;
  cfg.profile.multiplier = [](double t) {
    const double phase = std::fmod(t, 3600.0) / 3600.0;
    return 1.6 - 1.0 * phase;
  };
  cfg.background = {/*mean_on_s=*/30.0, /*mean_off_s=*/20.0,
                    /*min_rate_mbps=*/0.5, /*max_rate_mbps=*/3.0};
  return cfg;
}

TubeSystem::TubeSystem(TubeConfig config)
    : config_(std::move(config)),
      profiler_(config_.periods, config_.classes.size(), config_.max_reward),
      price_rrd_(config_.period_seconds, 24 * 12) {
  TDP_REQUIRE(config_.users >= 1, "need at least one user");
  TDP_REQUIRE(!config_.classes.empty(), "need at least one traffic class");
  TDP_REQUIRE(config_.user_intensity.size() == config_.users,
              "per-user intensity size mismatch");
  TDP_REQUIRE(config_.patience.size() == config_.users,
              "per-user patience size mismatch");
  for (const auto& p : config_.patience) {
    TDP_REQUIRE(p.size() == config_.classes.size(),
                "per-class patience size mismatch");
  }
  TDP_REQUIRE(config_.periods >= 2 && config_.period_seconds > 0.0,
              "invalid period structure");
}

TubeSystem::PhaseReport TubeSystem::run_phase(
    const math::Vector* fixed_rewards, OnlinePricer* pricer,
    std::size_t cycles) {
  TDP_REQUIRE(cycles >= 1, "need at least one cycle");
  const char* const phase_name = pricer != nullptr
                                     ? "tube.phase.optimized"
                                 : fixed_rewards != nullptr
                                     ? "tube.phase.trial"
                                     : "tube.phase.tip";
  TDP_OBS_SPAN(phase_name);
  {
    static obs::Counter& phases =
        obs::Registry::global().counter("tube.phases_total");
    static obs::Counter& cycle_counter =
        obs::Registry::global().counter("tube.cycles_total");
    phases.add(1);
    cycle_counter.add(cycles);
  }
  const std::size_t n = config_.periods;
  const std::size_t users = config_.users;
  const std::size_t classes = config_.classes.size();
  const double period_s = config_.period_seconds;
  const double horizon = static_cast<double>(cycles * n) * period_s;

  netsim::Simulator sim;
  netsim::BottleneckLink link(sim, config_.link_capacity_mbps);
  MeasurementEngine measurement(users, classes);
  PriceChannel channel(n);

  // Sanitization for the measured-arrivals feed into the pricer: the prior
  // is the pricer model's own expected TIP demand per period.
  std::unique_ptr<MeasurementGuard> guard;
  if (pricer != nullptr) {
    guard = std::make_unique<MeasurementGuard>(
        pricer->model().arrivals().tip_demand_vector());
  }

  // Publish the initial schedule.
  math::Vector schedule(n, 0.0);
  if (fixed_rewards != nullptr) schedule = *fixed_rewards;
  if (pricer != nullptr) schedule = pricer->rewards();
  channel.publish(schedule);
  if (pricer != nullptr && obs::metrics_enabled()) {
    obs::journal_record("mech.publish", -1, -1, "tube_online",
                        {{"cycles", static_cast<double>(cycles)}});
  }

  PhaseReport report;
  report.rewards = schedule;
  report.user_period_mb.assign(users, {});
  report.class_total_mb.assign(users, std::vector<double>(classes, 0.0));
  report.class_deferred_mb.assign(users, std::vector<double>(classes, 0.0));
  report.user_bill_dollars.assign(users, 0.0);
  report.user_reward_dollars.assign(users, 0.0);

  // Deterministic per-phase components. Arrival seeds depend only on the
  // base seed + (user, class), so TIP and TDP phases see identical
  // arrival processes; agent decision streams use a distinct stream.
  Rng seeder(config_.seed);
  std::vector<GuiAgent> agents;
  agents.reserve(users);
  std::vector<std::size_t> subscriptions;
  for (std::size_t u = 0; u < users; ++u) {
    agents.emplace_back(config_.patience[u], n, config_.max_reward,
                        config_.seed * 1315423911ull + 7u * u + 3u);
    subscriptions.push_back(channel.subscribe());
  }

  // Billing bookkeeping per started flow: reward rate earned if deferred.
  const double price = config_.base_price_per_mb;
  auto on_flow_done = [&report, price](netsim::FlowId, const
                                       netsim::FlowSpec& spec,
                                       double served_mb) {
    report.class_total_mb[spec.user][spec.traffic_class] += served_mb;
    report.user_bill_dollars[spec.user] += served_mb * price;
  };

  // Session intake: agent decides deferral against the rewards pulled once
  // in the current period.
  auto handle_session = [&, this](const netsim::FlowSpec& spec) {
    const double now = sim.now();
    const std::size_t abs_period =
        static_cast<std::size_t>(std::floor(now / period_s));
    const std::size_t period = abs_period % n;
    const math::Vector& rewards =
        channel.pull(subscriptions[spec.user], abs_period);
    const GuiAgent::Decision decision =
        agents[spec.user].decide(spec.traffic_class, period, rewards);
    ++report.sessions;

    if (decision.lag == 0) {
      link.start_flow(spec, on_flow_done);
      return;
    }
    ++report.deferrals;
    const double expected_mb =
        spec.kind == netsim::FlowKind::kElastic
            ? spec.size_mb
            : spec.rate_mbps * spec.duration_s;
    report.class_deferred_mb[spec.user][spec.traffic_class] += expected_mb;
    report.user_reward_dollars[spec.user] +=
        expected_mb * decision.reward_rate;

    const double target_time =
        (std::floor(now / period_s) + static_cast<double>(decision.lag)) *
        period_s;
    if (target_time >= horizon) return;  // deferred past the experiment
    const double reward_rate = decision.reward_rate;
    sim.at(target_time, [&link, &report, spec, on_flow_done, reward_rate,
                         price] {
      link.start_flow(spec, [&report, reward_rate, price](
                                netsim::FlowId,
                                const netsim::FlowSpec& s,
                                double served_mb) {
        report.class_total_mb[s.user][s.traffic_class] += served_mb;
        // Deferred traffic is billed at the discounted rate.
        report.user_bill_dollars[s.user] +=
            served_mb * std::max(price - reward_rate, 0.0);
      });
    });
  };

  // Traffic sources and background.
  std::vector<std::unique_ptr<netsim::SessionSource>> sources;
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t c = 0; c < classes; ++c) {
      netsim::TrafficClassConfig cls = config_.classes[c];
      cls.arrivals_per_hour *= config_.user_intensity[u];
      sources.push_back(std::make_unique<netsim::SessionSource>(
          sim, config_.seed + 97ull * u + 1009ull * c, u, c, cls,
          config_.profile, handle_session));
      sources.back()->start(horizon);
    }
  }
  netsim::BackgroundTraffic background(sim, link, config_.background,
                                       config_.seed ^ 0xBACC6D0Full);
  background.start(horizon);

  // Period boundaries: close measurements, track utilization, update and
  // publish prices (online mode).
  double utilization_acc = 0.0;
  std::size_t utilization_samples = 0;
  for (std::size_t k = 1; k <= cycles * n; ++k) {
    const double boundary = static_cast<double>(k) * period_s;
    sim.at(boundary - 1e-6, [&, k] {
      obs::trace_instant("tube.period");
      utilization_acc += link.utilization();
      ++utilization_samples;
      measurement.close_period(link);
      const std::size_t finished_period = (k - 1) % n;
      price_rrd_.add(elapsed_s_ + sim.now(), schedule[finished_period]);
      if (pricer != nullptr) {
        // Feed back measured arrivals (MB this period) through the guard
        // and republish.
        const MeasurementGuard::Admitted admitted = guard->admit(
            finished_period,
            measurement.total_usage_mb(measurement.periods_recorded() - 1));
        pricer->observe_period(finished_period, admitted.value,
                               admitted.degraded);
        schedule = pricer->rewards();
        channel.publish(schedule);
      }
    });
  }

  sim.run_until(horizon + 1.0);
  elapsed_s_ += horizon;
  // Report the schedule in force at the end (the pricer republishes every
  // period).
  report.rewards = schedule;

  // Collate per-period usage, averaged over cycles for the report.
  report.total_period_mb.assign(n, 0.0);
  for (std::size_t u = 0; u < users; ++u) {
    report.user_period_mb[u].assign(n, 0.0);
  }
  const std::size_t recorded = measurement.periods_recorded();
  for (std::size_t k = 0; k < recorded; ++k) {
    const std::size_t period = k % n;
    for (std::size_t u = 0; u < users; ++u) {
      report.user_period_mb[u][period] +=
          measurement.user_usage_mb(k, u) / static_cast<double>(cycles);
    }
    report.total_period_mb[period] +=
        measurement.total_usage_mb(k) / static_cast<double>(cycles);
  }
  report.mean_utilization =
      utilization_samples > 0
          ? utilization_acc / static_cast<double>(utilization_samples)
          : 0.0;

  // Hand the aggregate series to the profiler.
  std::vector<double> totals = report.total_period_mb;
  if (fixed_rewards == nullptr && pricer == nullptr) {
    profiler_.set_tip_baseline(std::move(totals));
  } else if (fixed_rewards != nullptr) {
    profiler_.add_tdp_window(*fixed_rewards, std::move(totals));
  }

  if (obs::metrics_enabled()) {
    obs::journal_record(
        "tube.phase", -1, -1, phase_name,
        {{"cycles", static_cast<double>(cycles)},
         {"sessions", static_cast<double>(report.sessions)},
         {"deferrals", static_cast<double>(report.deferrals)},
         {"mean_utilization", report.mean_utilization}});
  }
  return report;
}

TubeSystem::PhaseReport TubeSystem::run_tip(std::size_t cycles) {
  return run_phase(nullptr, nullptr, cycles);
}

TubeSystem::PhaseReport TubeSystem::run_trial(const math::Vector& rewards,
                                              std::size_t cycles) {
  TDP_REQUIRE(rewards.size() == config_.periods, "schedule size mismatch");
  return run_phase(&rewards, nullptr, cycles);
}

DynamicModel TubeSystem::build_priced_model() {
  // Profile waiting functions from the recorded TIP/TDP windows.
  const WaitingFunctionEstimate estimate = profiler_.profile();
  TDP_LOG_INFO << "TUBE profiling residual " << estimate.residual_norm2;

  DemandProfile demand = profiler_.to_demand_profile(
      estimate.mix, LagNormalization::kContinuous);

  // Price against the ISP's capacity target (80% of the physical link),
  // with the backlog-cost slope chosen so the rational reward bound equals
  // the configured max reward (slope = 2 P for linear waiting functions).
  const double capacity_mb_per_period = config_.link_capacity_mbps *
                                        config_.period_seconds *
                                        config_.capacity_target;
  const double slope = 2.0 * config_.max_reward;

  // Guard against infeasible profiles (estimated demand above capacity).
  const double total_capacity =
      capacity_mb_per_period * static_cast<double>(config_.periods);
  if (demand.total_demand() >= total_capacity) {
    const double shrink = 0.95 * total_capacity / demand.total_demand();
    for (std::size_t i = 0; i < demand.periods(); ++i) {
      demand.scale_period(i, shrink);
    }
    TDP_LOG_WARN << "profiled demand exceeds capacity; scaled by " << shrink;
  }

  return DynamicModel(std::move(demand), capacity_mb_per_period,
                      math::PiecewiseLinearCost::hinge(slope, 0.0));
}

TubeSystem::PhaseReport TubeSystem::run_optimized(std::size_t cycles) {
  OnlinePricer pricer(build_priced_model());
  return run_phase(nullptr, &pricer, cycles);
}

}  // namespace tdp
