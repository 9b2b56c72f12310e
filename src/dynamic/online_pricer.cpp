#include "dynamic/online_pricer.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "math/golden_section.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp {
namespace {

/// Registry mirrors of PricerHealthStats, summed over every pricer in the
/// process: bumped at the same sites as the per-instance stats, so a
/// pricer's health_stats() and its share of the registry never disagree.
struct PricerCounters {
  obs::Counter& solve_failures =
      obs::Registry::global().counter("pricer.solve_failures_total");
  obs::Counter& clamped_steps =
      obs::Registry::global().counter("pricer.clamped_steps_total");
  obs::Counter& skipped_updates =
      obs::Registry::global().counter("pricer.skipped_updates_total");
  obs::Counter& transitions =
      obs::Registry::global().counter("pricer.health_transitions_total");
  obs::Counter& recoveries =
      obs::Registry::global().counter("pricer.recoveries_total");
  obs::Counter& healthy_observations =
      obs::Registry::global().counter("pricer.healthy_observations_total");
  obs::Counter& degraded_observations =
      obs::Registry::global().counter("pricer.degraded_observations_total");
  obs::Counter& fallback_observations =
      obs::Registry::global().counter("pricer.fallback_observations_total");
  obs::Counter& missed_observations =
      obs::Registry::global().counter("pricer.missed_observations_total");
};

PricerCounters& pricer_counters() {
  static PricerCounters counters;
  return counters;
}

}  // namespace

PricerGuardConfig PricerGuardConfig::protective() {
  PricerGuardConfig guard;
  guard.trust_region_fraction = 0.1;
  guard.keep_reward_on_failure = true;
  return guard;
}

OnlinePricer::OnlinePricer(DynamicModel model,
                           DynamicOptimizerOptions offline_options,
                           PricerGuardConfig guard, bool incremental)
    : model_(std::move(model)), reward_cap_(0.0), guard_(guard),
      incremental_(incremental) {
  TDP_REQUIRE(guard_.solver_max_iterations >= 1,
              "solver budget must allow at least one iteration");
  TDP_REQUIRE(guard_.fallback_after >= 1 && guard_.recover_after >= 1,
              "health thresholds must be at least one observation");
  TDP_REQUIRE(guard_.trust_region_fraction > 0.0,
              "trust region must be positive");
  const DynamicPricingSolution offline =
      optimize_dynamic_prices(model_, offline_options);
  rewards_ = offline.rewards;
  reward_cap_ = model_.reward_cap() * offline_options.reward_cap_factor;
}

OnlinePricer::OnlinePricer(RestoreTag, DynamicModel model,
                           const OnlinePricerState& state,
                           PricerGuardConfig guard, bool incremental)
    : model_(std::move(model)), rewards_(state.rewards),
      reward_cap_(state.reward_cap), guard_(guard), health_(state.health),
      health_stats_(state.stats), health_log_(state.log),
      observation_count_(state.observation_count),
      consecutive_bad_(state.consecutive_bad),
      consecutive_good_(state.consecutive_good),
      excursion_periods_(state.excursion_periods), incremental_(incremental) {
  TDP_REQUIRE(rewards_.size() == model_.periods(),
              "restored rewards do not match the model's period count");
  TDP_REQUIRE(reward_cap_ > 0.0, "restored reward cap must be positive");
}

OnlinePricerState OnlinePricer::export_state() const {
  OnlinePricerState state;
  state.rewards = rewards_;
  state.reward_cap = reward_cap_;
  state.volumes.resize(model_.periods());
  for (std::size_t p = 0; p < model_.periods(); ++p) {
    for (const SessionClass& sc : model_.arrivals().classes(p)) {
      state.volumes[p].push_back(sc.volume);
    }
  }
  state.health = health_;
  state.stats = health_stats_;
  state.log = health_log_;
  state.observation_count = observation_count_;
  state.consecutive_bad = consecutive_bad_;
  state.consecutive_good = consecutive_good_;
  state.excursion_periods = excursion_periods_;
  return state;
}

std::unique_ptr<OnlinePricer> OnlinePricer::restore(
    DynamicModel baseline, const OnlinePricerState& state,
    PricerGuardConfig guard, bool incremental) {
  TDP_REQUIRE(state.volumes.size() == baseline.periods(),
              "restored volumes do not match the model's period count");
  // The online updates only ever rescale per-period volumes; installing the
  // saved volumes into the baseline profile therefore reproduces the
  // updated model exactly (set_volume is bit-exact, unlike a scale factor).
  DemandProfile profile = baseline.arrivals();
  for (std::size_t p = 0; p < baseline.periods(); ++p) {
    TDP_REQUIRE(state.volumes[p].size() == profile.classes(p).size(),
                "restored volumes do not match the model's class mix");
    for (std::size_t c = 0; c < state.volumes[p].size(); ++c) {
      profile.set_volume(p, c, state.volumes[p][c]);
    }
  }
  return std::unique_ptr<OnlinePricer>(
      new OnlinePricer(RestoreTag{}, baseline.with_arrivals(std::move(profile)),
                       state, guard, incremental));
}

void OnlinePricer::adopt_model(DynamicModel model,
                               const DynamicOptimizerOptions& offline_options,
                               math::Vector solved_rewards) {
  TDP_REQUIRE(solved_rewards.size() == model.periods(),
              "solved schedule does not match the adopted model");
  model_ = std::move(model);
  rewards_ = std::move(solved_rewards);
  reward_cap_ = model_.reward_cap() * offline_options.reward_cap_factor;
}

math::GoldenSectionResult OnlinePricer::solve_period(
    const DynamicModel& model, math::Vector rewards, std::size_t period,
    double reward_cap, std::size_t max_iterations) {
  const auto objective = [&model, &rewards, period](double candidate) {
    rewards[period] = candidate;
    return model.total_cost(rewards);
  };
  return math::minimize_golden_section(objective, 0.0, reward_cap, 1e-7,
                                       max_iterations);
}

math::GoldenSectionResult OnlinePricer::solve_period_incremental(
    const DynamicModel& model, const math::Vector& rewards,
    std::size_t period, double reward_cap, std::size_t max_iterations,
    FlowState& scratch) {
  // Resync instead of reprime when the scratch already holds this kernel's
  // pair matrix: after a confirmed-forecast update the rescaled demand is
  // bitwise unchanged, the rebuilt kernel shares its predecessor's state
  // and plan, and only the coordinates accepted since the last solve need
  // an O(n) column refresh.
  const KernelPlan* plan = model.kernel().plan().get();
  if (scratch.plan == plan && scratch.plan_serial == plan->serial() &&
      scratch.rewards.size() == rewards.size()) {
    for (std::size_t i = 0; i < rewards.size(); ++i) {
      if (scratch.rewards[i] != rewards[i]) {
        plan->update_coordinate(i, rewards[i], /*with_derivatives=*/false,
                                scratch);
      }
    }
  } else {
    model.prime_flow_state(rewards, /*with_derivatives=*/false, scratch);
  }
  const auto objective = [&model, &scratch, period](double candidate) {
    return model.total_cost_with_coordinate(period, candidate, scratch);
  };
  return math::minimize_golden_section(objective, 0.0, reward_cap, 1e-7,
                                       max_iterations);
}

math::GoldenSectionResult OnlinePricer::run_solve(
    std::size_t period, std::size_t max_iterations) {
  TDP_OBS_SPAN("pricer.solve");
  if (incremental_) {
    return solve_period_incremental(model_, rewards_, period, reward_cap_,
                                    max_iterations, solve_scratch_);
  }
  return solve_period(model_, rewards_, period, reward_cap_, max_iterations);
}

void OnlinePricer::update_demand(std::size_t period,
                                 double measured_arrivals) {
  TDP_OBS_SPAN("pricer.model_update");
  // Rescale the period's demand estimate to the measurement. A surge
  // measurement must not push total daily demand to (or past) total daily
  // capacity — the backlog would have no steady state — so the update is
  // clamped to keep a 2% stability margin; the excess is treated as
  // transient burst rather than recurring demand.
  // The model's cached TIP demand summed in period order is the profile's
  // total_demand() bit for bit, without walking every class.
  const math::Vector& tip = model_.tip_demand();
  const double previous = tip[period];
  if (previous > 0.0) {
    double total_demand = 0.0;
    for (double d : tip) total_demand += d;
    const double other_demand = total_demand - previous;
    const double max_period_demand =
        std::max(0.98 * model_.total_capacity() - other_demand, 0.0);
    const double target = std::min(measured_arrivals, max_period_demand);
    if (target < measured_arrivals) {
      TDP_LOG_WARN << "online update clamps period " << period
                   << " demand from " << measured_arrivals << " to "
                   << target << " to preserve a stable backlog";
    }
    model_.rescale_period(period, target / previous);
  }
  // The incremental solve reads the kernel's plan; building it here
  // charges the whole kernel rebuild to this span.
  if (incremental_) model_.kernel().plan();
}

void OnlinePricer::update_health(bool bad) {
  ++observation_count_;
  if (bad) {
    ++consecutive_bad_;
    consecutive_good_ = 0;
  } else {
    ++consecutive_good_;
    consecutive_bad_ = 0;
  }

  const PricerHealth prev = health_;
  PricerHealth next = prev;
  if (bad) {
    if (consecutive_bad_ >= guard_.fallback_after) {
      next = PricerHealth::kFallback;
    } else if (prev == PricerHealth::kHealthy) {
      next = PricerHealth::kDegraded;
    }
  } else if (consecutive_good_ >= guard_.recover_after) {
    // Climb one rung per recover_after-long clean streak.
    if (prev == PricerHealth::kFallback) {
      next = PricerHealth::kDegraded;
      consecutive_good_ = 0;
    } else if (prev == PricerHealth::kDegraded) {
      next = PricerHealth::kHealthy;
      consecutive_good_ = 0;
    }
  }

  if (prev != PricerHealth::kHealthy) ++excursion_periods_;
  if (next != prev) {
    ++health_stats_.transitions;
    pricer_counters().transitions.add(1);
    if (health_log_.size() < kMaxTransitionLog) {
      health_log_.push_back({observation_count_ - 1, prev, next});
    }
    obs::journal_record(
        "pricer.health", -1, -1,
        std::string(to_string(prev)) + "->" + to_string(next),
        {{"observation", static_cast<double>(observation_count_ - 1)}});
    TDP_LOG_INFO << "online pricer health: " << to_string(prev) << " -> "
                 << to_string(next) << " after observation "
                 << observation_count_ - 1;
    if (prev == PricerHealth::kHealthy) {
      excursion_periods_ = 1;  // this observation opened the excursion
    } else if (next == PricerHealth::kHealthy) {
      ++health_stats_.recoveries;
      pricer_counters().recoveries.add(1);
      health_stats_.max_recovery_periods = std::max(
          health_stats_.max_recovery_periods, excursion_periods_);
      excursion_periods_ = 0;
    }
  }
  health_ = next;

  switch (health_) {
    case PricerHealth::kHealthy:
      ++health_stats_.healthy_observations;
      pricer_counters().healthy_observations.add(1);
      break;
    case PricerHealth::kDegraded:
      ++health_stats_.degraded_observations;
      pricer_counters().degraded_observations.add(1);
      break;
    case PricerHealth::kFallback:
      ++health_stats_.fallback_observations;
      pricer_counters().fallback_observations.add(1);
      break;
  }
}

void OnlinePricer::observe_missed(std::size_t period) {
  TDP_REQUIRE(period < model_.periods(), "period out of range");
  ++health_stats_.missed_observations;
  pricer_counters().missed_observations.add(1);
  TDP_LOG_EVERY_POW2(::tdp::LogLevel::kWarn,
                     health_stats_.missed_observations)
      << "online pricer: no measurement for period " << period
      << "; schedule frozen (" << health_stats_.missed_observations
      << " missed so far)";
  update_health(/*bad=*/true);
}

OnlinePricer::StepResult OnlinePricer::observe_period(
    std::size_t period, double measured_arrivals, bool degraded_input,
    std::optional<std::size_t> iteration_budget) {
  TDP_OBS_SPAN("pricer.observe");
  TDP_REQUIRE(period < model_.periods(), "period out of range");
  TDP_REQUIRE(measured_arrivals >= 0.0, "arrivals must be nonnegative");
  const std::size_t budget =
      iteration_budget.value_or(guard_.solver_max_iterations);
  TDP_REQUIRE(budget >= 1, "need at least one solver iteration");

  StepResult result;
  result.period = period;
  result.old_reward = rewards_[period];

  // In FALLBACK a degraded input carries no trustworthy information: skip
  // the model update and the solve entirely and keep publishing the
  // last-known-good schedule. A clean measurement is the recovery probe
  // and takes the normal path below.
  if (health_ == PricerHealth::kFallback && degraded_input) {
    ++health_stats_.skipped_updates;
    pricer_counters().skipped_updates.add(1);
    result.new_reward = result.old_reward;
    result.expected_cost = model_.total_cost(rewards_, cost_scratch_);
    result.skipped = true;
    TDP_LOG_DEBUG << "online update period " << period
                  << " skipped (FALLBACK, degraded input)";
    update_health(/*bad=*/true);
    return result;
  }

  update_demand(period, measured_arrivals);

  // 1-D re-optimization of this period's reward, all others fixed.
  const math::GoldenSectionResult best = run_solve(period, budget);
  TDP_LOG_DEBUG << "online update period " << period << ": reward "
                << result.old_reward << " -> " << best.x;

  // Guarded acceptance: a failed solve (budget starved or non-finite) can
  // keep the previous reward; an accepted step can be trust-region bound.
  const bool failed = !best.converged || !std::isfinite(best.x) ||
                      !std::isfinite(best.value);
  if (failed) {
    ++health_stats_.solve_failures;
    pricer_counters().solve_failures.add(1);
  }
  if (failed && guard_.keep_reward_on_failure) {
    result.solve_failed = true;
    result.new_reward = result.old_reward;
    result.expected_cost = model_.total_cost(rewards_, cost_scratch_);
    TDP_LOG_EVERY_POW2(::tdp::LogLevel::kWarn, health_stats_.solve_failures)
        << "online update period " << period << ": solve failed, keeping "
        << "reward " << result.old_reward << " ("
        << health_stats_.solve_failures << " failed so far)";
  } else {
    result.solve_failed = failed;
    double accepted = best.x;
    double cost = best.value;
    const double max_step = guard_.trust_region_fraction * reward_cap_;
    if (std::isfinite(max_step) &&
        std::fabs(accepted - result.old_reward) > max_step) {
      accepted = std::clamp(accepted, result.old_reward - max_step,
                            result.old_reward + max_step);
      accepted = std::clamp(accepted, 0.0, reward_cap_);
      ++health_stats_.clamped_steps;
      result.clamped = true;
      math::Vector probe = rewards_;
      probe[period] = accepted;
      // Plan-based evaluation: bitwise identical to the reference
      // model_.total_cost(probe) (same pair volumes, same reduction and
      // assembly order) at a fraction of the virtual-dispatch cost.
      cost = model_.total_cost(probe, cost_scratch_);
      TDP_LOG_EVERY_POW2(::tdp::LogLevel::kWarn, health_stats_.clamped_steps)
          << "online update period " << period
          << ": trust region clamps reward step to " << accepted << " ("
          << health_stats_.clamped_steps << " clamped so far)";
    }
    if (result.clamped) pricer_counters().clamped_steps.add(1);
    rewards_[period] = accepted;
    result.new_reward = accepted;
    result.expected_cost = cost;
  }

  update_health(degraded_input || result.solve_failed);

  // journal_record checks the switch too; checking it here spares every
  // observation building a record while the journal is off.
  if (obs::metrics_enabled()) {
    obs::journal_record(
        "pricer.solve", static_cast<std::int64_t>(period), -1,
        result.solve_failed ? "period re-solve failed" : "period re-solve",
        {{"iterations", static_cast<double>(best.iterations)},
         {"converged", best.converged ? 1.0 : 0.0},
         {"cost", result.expected_cost},
         {"step", result.new_reward - result.old_reward}});
  }
  return result;
}

}  // namespace tdp
