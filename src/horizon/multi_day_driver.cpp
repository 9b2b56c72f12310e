#include "horizon/multi_day_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/paper_data.hpp"
#include "core/waiting_function.hpp"
#include "estimation/wf_estimator.hpp"
#include "fleet/fleet_metrics.hpp"
#include "mech/tube_online.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"

namespace tdp::horizon {
namespace {

struct HorizonCounters {
  obs::Counter& days = obs::Registry::global().counter("horizon.days_total");
  obs::Counter& estimates =
      obs::Registry::global().counter("horizon.estimates_total");
  obs::Counter& reanchors =
      obs::Registry::global().counter("horizon.reanchors_total");
  obs::Counter& checkpoints =
      obs::Registry::global().counter("horizon.checkpoints_total");
  obs::Counter& restores =
      obs::Registry::global().counter("horizon.restores_total");
  obs::Counter& adaptations =
      obs::Registry::global().counter("mech.adaptations_total");
  obs::Counter& frozen =
      obs::Registry::global().counter("horizon.estimation_frozen_total");
  obs::Counter& deferred =
      obs::Registry::global().counter("horizon.reanchor_deferred_total");
  obs::Counter& rollbacks =
      obs::Registry::global().counter("horizon.reanchor_rollbacks_total");
  obs::Counter& stream_commits =
      obs::Registry::global().counter("horizon.stream_commits_total");
};

HorizonCounters& horizon_counters() {
  static HorizonCounters counters;
  return counters;
}

double linf_distance(const math::Vector& a, const math::Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

/// Restore-time validation: the checkpoint must describe the same
/// experiment this config describes. Execution knobs (shards, threads) are
/// deliberately not compared.
HorizonConfig validate_restore(HorizonConfig config,
                               const CheckpointData& data) {
  TDP_REQUIRE(config.population.users == data.users &&
                  config.population.periods == data.periods &&
                  config.population.seed == data.population_seed &&
                  config.population.sessions_per_day == data.sessions_per_day,
              "checkpoint population does not match configuration");
  TDP_REQUIRE(config.slices == 0 || config.slices == data.slices,
              "checkpoint slice layout does not match configuration");
  TDP_REQUIRE(config.warmup_days == data.warmup_days &&
                  config.horizon_days == data.horizon_days,
              "checkpoint horizon does not match configuration");
  TDP_REQUIRE(config.online_pricing == data.online_pricing &&
                  config.estimation == data.estimation &&
                  config.estimation_window == data.estimation_window &&
                  config.estimation_min_days == data.estimation_min_days &&
                  config.estimation_starts == data.estimation_starts &&
                  config.reanchor == data.reanchor,
              "checkpoint estimation settings do not match configuration");
  TDP_REQUIRE(config.fault == data.fault,
              "checkpoint fault plan does not match configuration");
  TDP_REQUIRE(config.estimation_health_gate == data.estimation_health_gate &&
                  config.reanchor_healthy_periods ==
                      data.reanchor_healthy_periods &&
                  config.reanchor_objective_guard ==
                      data.reanchor_objective_guard &&
                  config.reanchor_guard_tolerance ==
                      data.reanchor_guard_tolerance,
              "checkpoint health gates do not match configuration");
  TDP_REQUIRE(config.resilience.staleness_ttl == data.staleness_ttl &&
                  config.resilience.max_retries == data.max_retries,
              "checkpoint resilience policy does not match configuration");
  TDP_REQUIRE(
      config.measurement_guard.max_spike_factor == data.max_spike_factor &&
          config.measurement_guard.max_carry_forward ==
              data.max_carry_forward &&
          config.measurement_guard.carry_floor_fraction ==
              data.carry_floor_fraction,
      "checkpoint guard policy does not match configuration");
  TDP_REQUIRE(data.day <= config.warmup_days + config.horizon_days,
              "checkpoint clock is past the configured horizon");
  TDP_REQUIRE(
      static_cast<std::uint32_t>(config.mechanism.kind) == data.mechanism_kind,
      "checkpoint mechanism does not match configuration");
  if (config.mechanism.kind == mech::MechanismKind::kFixedBudgetRebate) {
    TDP_REQUIRE(
        config.mechanism.rebate_pool == data.rebate_pool &&
            config.mechanism.rebate_share_blend == data.rebate_share_blend &&
            config.mechanism.rebate_inflow_floor == data.rebate_inflow_floor,
        "checkpoint rebate parameters do not match configuration");
  }
  if (config.mechanism.kind == mech::MechanismKind::kDayAheadOracle) {
    TDP_REQUIRE(config.mechanism.oracle_refine == data.oracle_refine &&
                    config.mechanism.oracle_capacity_target ==
                        data.oracle_capacity_target,
                "checkpoint oracle settings do not match configuration");
  }
  TDP_REQUIRE(config.adaptive_users == data.adaptive_users,
              "checkpoint adaptation mode does not match configuration");
  if (config.adaptive_users) {
    TDP_REQUIRE(config.adaptation_rate == data.adaptation_rate &&
                    config.adaptation_gain == data.adaptation_gain,
                "checkpoint adaptation settings do not match configuration");
  }
  TDP_REQUIRE(config.incident.enabled == data.incident_enabled,
              "checkpoint incident-engine mode does not match configuration");
  if (config.incident.enabled) {
    // Mismatched thresholds would fork the alert stream at the restore
    // point — the detectors carry accumulated state tuned to the echoed
    // config, so the restore must prove it is the same experiment.
    TDP_REQUIRE(
        obs::incident::config_echo_matches(config.incident,
                                           data.incident_config),
        "checkpoint incident thresholds do not match configuration");
  }
  return config;
}

}  // namespace

MultiDayDriver::MultiDayDriver(HorizonConfig config,
                               std::size_t slice_override)
    : config_(std::move(config)), loop_(config_, slice_override) {
  TDP_REQUIRE(config_.horizon_days >= 1, "horizon needs at least one day");
  TDP_REQUIRE(config_.estimation_window >= 1 &&
                  config_.estimation_min_days >= 1 &&
                  config_.estimation_starts >= 1,
              "estimation settings must be positive");
  TDP_REQUIRE(!config_.adaptive_users ||
                  (config_.adaptation_rate > 0.0 &&
                   config_.adaptation_rate <= 1.0 &&
                   config_.adaptation_gain >= 0.0),
              "adaptation settings out of range");
  adapt_scale_.assign(loop_.population().patience_classes(), 1.0);
  if (!config_.checkpoint_path.empty()) {
    stream_ = std::make_unique<CheckpointStream>(config_.checkpoint_path);
  }
}

MultiDayDriver::MultiDayDriver(HorizonConfig config)
    : MultiDayDriver(std::move(config), /*slice_override=*/0) {
  loop_.build_mechanism(fleet::baseline_fluid_model(loop_.population()));
  TDP_LOG_INFO << "horizon: " << loop_.population().users() << " users, "
               << config_.warmup_days << "+" << config_.horizon_days
               << " days over " << loop_.slice_count() << " slices in "
               << loop_.shard_count() << " shards under "
               << loop_.mechanism().name();
}

MultiDayDriver::MultiDayDriver(RestoreTag, HorizonConfig config,
                               const CheckpointData& data,
                               bool restore_counters)
    : MultiDayDriver(validate_restore(std::move(config), data), data.slices) {
  model_source_ = data.model_source;
  model_beta_ = data.model_beta;
  model_volumes_ = data.model_volumes;
  if (config_.mechanism.kind == mech::MechanismKind::kTubeOnline) {
    // The pricer section carries the full online-pricer state; rebuilding
    // through it keeps kill-and-restore bitwise.
    loop_.set_mechanism(std::make_unique<mech::TubeOnlineMechanism>(
        OnlinePricer::restore(rebuild_model(), data.pricer,
                              loop_.pricer_guard())));
  } else {
    loop_.build_mechanism(rebuild_model()).restore_state(data.mech_state);
  }
  if (config_.adaptive_users) {
    TDP_REQUIRE(
        data.adapt_scale.size() == loop_.population().patience_classes(),
        "checkpoint adaptive scale does not match the population");
    adapt_scale_ = data.adapt_scale;
  }

  loop_.restore(data, data.partial, data.day_channel_fallback_periods,
                data.incident_enabled ? &data.incident : nullptr);
  healthy_streak_periods_ = data.healthy_streak_periods;
  window_ = data.window;
  completed_days_ = data.completed_days;
  partial_ = data.partial;
  prev_day_start_rewards_ = data.prev_day_start_rewards;
  has_prev_day_start_ = data.has_prev_day_start;
  // Mid-day checkpoints resume into an already-started day: the day-start
  // bookkeeping ran before the checkpoint, only the (never-serialized)
  // drifted lag tables need rebuilding.
  if (period() > 0) build_drift_tables();

  if (restore_counters) {
    obs::Registry& registry = obs::Registry::global();
    for (const auto& [name, value] : data.counters) {
      registry.set_counter_value(name, value);
    }
  }
  horizon_counters().restores.add(1);
}

std::unique_ptr<MultiDayDriver> MultiDayDriver::restore(
    HorizonConfig config, const CheckpointData& data, bool restore_counters) {
  return std::unique_ptr<MultiDayDriver>(new MultiDayDriver(
      RestoreTag{}, std::move(config), data, restore_counters));
}

std::unique_ptr<MultiDayDriver> MultiDayDriver::restore(
    HorizonConfig config, const std::vector<std::uint8_t>& bytes,
    bool restore_counters) {
  return restore(std::move(config), decode(bytes), restore_counters);
}

DynamicModel MultiDayDriver::estimated_model(
    double beta, const std::vector<double>& volumes) const {
  const std::size_t n = loop_.population().periods();
  TDP_REQUIRE(volumes.size() == n, "estimated volumes size mismatch");
  DemandProfile profile(n);
  const WaitingFunctionPtr waiting =
      std::make_shared<PowerLawWaitingFunction>(
          beta, n, paper::kStaticNormalizationReward, 1.0,
          LagNormalization::kContinuous);
  for (std::size_t p = 0; p < n; ++p) {
    profile.add_class(p, SessionClass{waiting, volumes[p]});
  }
  const DynamicModel baseline =
      fleet::baseline_fluid_model(loop_.population());
  return DynamicModel(std::move(profile), baseline.capacity(),
                      baseline.backlog_cost(), baseline.warmup_days());
}

DynamicModel MultiDayDriver::rebuild_model() const {
  if (model_source_ == ModelSource::kEstimated) {
    return estimated_model(model_beta_, model_volumes_);
  }
  return fleet::baseline_fluid_model(loop_.population());
}

void MultiDayDriver::build_drift_tables() {
  drift_tables_.clear();
  const fleet::Population& population = loop_.population();
  const FaultInjector& injector = loop_.injector();
  const std::size_t classes = population.patience_classes();
  std::vector<double> scale(classes, 1.0);
  bool all_one = true;
  if (injector.plan().drifts()) {
    for (std::uint32_t c = 0; c < classes; ++c) {
      scale[c] = injector.beta_drift_scale(c, static_cast<std::size_t>(day()));
    }
  }
  // Adaptive users compose with injected drift: drift is the world
  // changing, adaptation is users responding to published rewards.
  for (std::size_t c = 0; c < classes; ++c) {
    scale[c] *= adapt_scale_[c];
    if (scale[c] != 1.0) all_one = false;
  }
  if (all_one) return;  // bitwise identical to an undrifted population
  drift_tables_ = population.scaled_lag_tables(scale);
}

void MultiDayDriver::start_day() {
  build_drift_tables();
  partial_ = DayMetrics{};
  partial_.day = day();
  const math::Vector& rewards = loop_.mechanism().rewards();
  if (has_prev_day_start_) {
    partial_.reward_step_linf =
        linf_distance(rewards, prev_day_start_rewards_);
  }
  prev_day_start_rewards_ = rewards;
  has_prev_day_start_ = true;
}

DayMetrics MultiDayDriver::current_day() const {
  DayMetrics m = partial_;
  static_cast<fleet::DayTotals&>(m) = loop_.day_totals();
  return m;
}

void MultiDayDriver::step_period() {
  TDP_REQUIRE(!done(), "the horizon is complete");
  if (period() == 0) start_day();
  loop_.step_period(drift_tables_.empty() ? nullptr : &drift_tables_);

  // Health tracking for the storm gates. Runs only when a gate is
  // configured so ungated runs keep fallback_periods/healthy_streak at
  // zero and their checkpoints stay byte-identical to format v1.
  if (health_gated() && config_.online_pricing) {
    switch (loop_.mechanism().health()) {
      case PricerHealth::kHealthy:
        ++healthy_streak_periods_;
        break;
      case PricerHealth::kFallback:
        ++partial_.fallback_periods;
        healthy_streak_periods_ = 0;
        break;
      default:  // DEGRADED: not fallback-tainted, but not healthy either
        healthy_streak_periods_ = 0;
        break;
    }
  }

  if (loop_.day_complete()) finish_day();
  maybe_stream_commit();
}

void MultiDayDriver::maybe_stream_commit() {
  if (stream_ == nullptr) return;
  // finish_day has already rolled the clock when this is a day boundary.
  const bool day_boundary = period() == 0;
  const bool periodic = config_.checkpoint_every_periods > 0 &&
                        period() % config_.checkpoint_every_periods == 0;
  if (!day_boundary && !periodic) return;
  const auto start = std::chrono::steady_clock::now();
  stream_->commit(checkpoint(), day_boundary);
  if (obs::incident::IncidentEngine* incident = loop_.incident_engine()) {
    // Wall clock — advisory only; never enters the deterministic streams.
    incident->note_commit_latency(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
  horizon_counters().stream_commits.add(1);
}

void MultiDayDriver::finish_day() {
  const std::size_t n = loop_.population().periods();
  partial_ = current_day();
  partial_.peak_to_average_tip =
      fleet::peak_to_average(partial_.offered_units);
  partial_.peak_to_average_tdp =
      fleet::peak_to_average(partial_.realized_units);

  // Settle the finished day with the mechanism first: a settle that moves
  // the schedule (the rebate's share re-fit) must land before estimation
  // so tomorrow's publishes and the next day-start L-inf see it.
  loop_.settle_day();

  // User adaptation: pull every class's patience index toward the target
  // implied by the day's mean published reward (higher rewards -> lower
  // beta scale -> more patient). Applied at day boundaries only, so the
  // day itself stays a pure function of its starting state.
  if (config_.adaptive_users) {
    double mean_reward = 0.0;
    for (std::size_t p = 0; p < n; ++p) mean_reward += partial_.rewards[p];
    mean_reward /= static_cast<double>(n);
    const double target =
        1.0 / (1.0 + config_.adaptation_gain * mean_reward /
                         paper::kStaticNormalizationReward);
    for (double& scale : adapt_scale_) {
      scale = (1.0 - config_.adaptation_rate) * scale +
              config_.adaptation_rate * target;
    }
    horizon_counters().adaptations.add(1);
  }

  // Measured days feed the estimator's sliding window; warmup days are the
  // rings filling up and would bias the fit.
  const bool measured = day() >= config_.warmup_days;
  bool reanchor_deferred = false;

  // Health gate: a day containing FALLBACK periods measured the safety
  // schedule's world, not the control loop's. Freezing re-estimation
  // excludes the whole day from the window — the model must provably
  // never be re-fit from fallback-window data.
  const bool tainted = config_.estimation_health_gate &&
                       partial_.fallback_periods > 0;
  if (measured && config_.estimation && tainted) {
    partial_.estimation_frozen = true;
    horizon_counters().frozen.add(1);
    obs::journal_record(
        "horizon.estimation_frozen", -1, -1, "fallback-tainted day",
        {{"day", static_cast<double>(day())},
         {"fallback_periods",
          static_cast<double>(partial_.fallback_periods)}});
  }
  if (measured && config_.estimation && !tainted) {
    DayRecord record;
    record.rewards = partial_.rewards;
    record.tip_demand = partial_.offered_units;
    record.usage_change.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      record.usage_change[p] =
          partial_.offered_units[p] - partial_.realized_units[p];
    }
    window_.push_back(std::move(record));
    while (window_.size() > config_.estimation_window) {
      window_.erase(window_.begin());
    }

    if (window_.size() >= config_.estimation_min_days) {
      // Tied m = 1 fit: one patience index shared by every period — the
      // profiling-engine parameterization that stays identifiable from a
      // handful of day records.
      std::vector<double> tip(n, 0.0);
      for (const DayRecord& r : window_) {
        for (std::size_t p = 0; p < n; ++p) tip[p] += r.tip_demand[p];
      }
      for (std::size_t p = 0; p < n; ++p) {
        tip[p] /= static_cast<double>(window_.size());
      }
      std::vector<EstimationDataset> data;
      data.reserve(window_.size());
      for (const DayRecord& r : window_) {
        data.push_back(EstimationDataset{r.rewards, r.usage_change});
      }
      WaitingFunctionEstimator estimator(n, /*types=*/1,
                                         paper::kStaticNormalizationReward);
      WaitingFunctionEstimator::MultiStartOptions options;
      options.starts = config_.estimation_starts;
      options.seed = 1;
      options.threads = loop_.thread_count();
      options.tied = true;
      const WaitingFunctionEstimate estimate =
          estimator.estimate_multistart(tip, data, options);
      partial_.estimated = true;
      partial_.beta_estimate = estimate.mix.beta(0, 0);
      partial_.estimate_residual = estimate.residual_norm2;
      horizon_counters().estimates.add(1);

      // Re-anchoring is an online-pricer concern; mechanisms without one
      // (flat, rebate, oracle) keep their own schedules.
      OnlinePricer* online = loop_.mechanism().online_pricer();
      if (config_.reanchor && config_.online_pricing && online != nullptr &&
          std::isfinite(partial_.beta_estimate) &&
          partial_.beta_estimate > 0.0) {
        if (config_.reanchor_healthy_periods > 0 &&
            healthy_streak_periods_ < config_.reanchor_healthy_periods) {
          // Hysteresis: a pricer freshly back from an excursion re-anchors
          // only after K consecutive healthy periods — one good reading is
          // not proof the storm has passed.
          reanchor_deferred = true;
          horizon_counters().deferred.add(1);
          obs::journal_record(
              "horizon.reanchor_deferred", -1, -1, "hysteresis",
              {{"day", static_cast<double>(day())},
               {"healthy_streak",
                static_cast<double>(healthy_streak_periods_)},
               {"required",
                static_cast<double>(config_.reanchor_healthy_periods)}});
        } else if (config_.reanchor_objective_guard) {
          // Predicted-objective guard: re-solve the candidate model and
          // adopt only when its own objective says the new schedule beats
          // the anchored one (within tolerance). A re-fit poisoned by
          // residual storm corruption predicts a worse day and rolls back.
          DynamicModel candidate = estimated_model(partial_.beta_estimate,
                                                   tip);
          const DynamicPricingSolution solved =
              optimize_dynamic_prices(candidate, config_.offline_options);
          const double candidate_cost = candidate.total_cost(solved.rewards);
          const double anchored_cost = candidate.total_cost(online->rewards());
          if (candidate_cost <=
              anchored_cost * (1.0 + config_.reanchor_guard_tolerance)) {
            model_beta_ = partial_.beta_estimate;
            model_volumes_ = tip;
            model_source_ = ModelSource::kEstimated;
            online->adopt_model(std::move(candidate),
                                config_.offline_options, solved.rewards);
            partial_.reanchored = true;
            horizon_counters().reanchors.add(1);
            obs::journal_record(
                "horizon.reanchor_adopted", -1, -1, "objective guard",
                {{"day", static_cast<double>(day())},
                 {"candidate_cost", candidate_cost},
                 {"anchored_cost", anchored_cost}});
          } else {
            partial_.reanchor_rolled_back = true;
            horizon_counters().rollbacks.add(1);
            obs::journal_record(
                "horizon.reanchor_rolledback", -1, -1, "objective guard",
                {{"day", static_cast<double>(day())},
                 {"candidate_cost", candidate_cost},
                 {"anchored_cost", anchored_cost}});
          }
        } else {
          model_beta_ = partial_.beta_estimate;
          model_volumes_ = tip;
          model_source_ = ModelSource::kEstimated;
          online->adopt_model(estimated_model(model_beta_, model_volumes_),
                              config_.offline_options);
          partial_.reanchored = true;
          horizon_counters().reanchors.add(1);
        }
      }
    }
  }

  // Day signals go out after estimation so they carry its decisions.
  obs::incident::DaySignals flags;
  flags.estimation_frozen = partial_.estimation_frozen;
  flags.reanchored = partial_.reanchored;
  flags.reanchor_deferred = reanchor_deferred;
  flags.reanchor_rolled_back = partial_.reanchor_rolled_back;
  loop_.close_day(flags);
  completed_days_.push_back(partial_);
  horizon_counters().days.add(1);
}

void MultiDayDriver::run_day() {
  TDP_REQUIRE(!done(), "the horizon is complete");
  const std::uint64_t current = day();
  while (!done() && day() == current) step_period();
}

HorizonMetrics MultiDayDriver::run() {
  const auto start = std::chrono::steady_clock::now();
  while (!done()) step_period();
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return metrics();
}

HorizonMetrics MultiDayDriver::metrics() const {
  HorizonMetrics m;
  static_cast<fleet::LoopMetrics&>(m) = loop_.metrics();
  m.slices = loop_.slice_count();
  m.warmup_days = config_.warmup_days;
  m.horizon_days = config_.horizon_days;
  const std::size_t skip =
      std::min(config_.warmup_days, completed_days_.size());
  m.days.assign(completed_days_.begin() + static_cast<std::ptrdiff_t>(skip),
                completed_days_.end());
  m.final_health = to_string(loop_.mechanism().health());
  m.wall_seconds = wall_seconds_;
  return m;
}

CheckpointData MultiDayDriver::checkpoint() const {
  CheckpointData d;
  const fleet::Population& population = loop_.population();
  d.users = population.users();
  d.periods = static_cast<std::uint32_t>(population.periods());
  d.population_seed = config_.population.seed;
  d.sessions_per_day = config_.population.sessions_per_day;
  d.slices = loop_.slice_count();
  d.warmup_days = static_cast<std::uint32_t>(config_.warmup_days);
  d.horizon_days = static_cast<std::uint32_t>(config_.horizon_days);
  d.online_pricing = config_.online_pricing;
  d.estimation = config_.estimation;
  d.estimation_window = static_cast<std::uint32_t>(config_.estimation_window);
  d.estimation_min_days =
      static_cast<std::uint32_t>(config_.estimation_min_days);
  d.estimation_starts = static_cast<std::uint32_t>(config_.estimation_starts);
  d.reanchor = config_.reanchor;
  d.fault = config_.fault;
  d.staleness_ttl = config_.resilience.staleness_ttl;
  d.max_retries = config_.resilience.max_retries;
  d.max_spike_factor = config_.measurement_guard.max_spike_factor;
  d.max_carry_forward = config_.measurement_guard.max_carry_forward;
  d.carry_floor_fraction = config_.measurement_guard.carry_floor_fraction;
  d.estimation_health_gate = config_.estimation_health_gate;
  d.reanchor_healthy_periods = config_.reanchor_healthy_periods;
  d.reanchor_objective_guard = config_.reanchor_objective_guard;
  d.reanchor_guard_tolerance = config_.reanchor_guard_tolerance;
  d.healthy_streak_periods = healthy_streak_periods_;

  static_cast<fleet::LoopState&>(d) = loop_.export_state();
  const mech::PricingMechanism& mechanism = loop_.mechanism();
  if (const OnlinePricer* online = mechanism.online_pricer()) {
    d.pricer = online->export_state();
  } else {
    // No online pricer behind this mechanism: the section still needs a
    // schedule so pre-arena readers keep a usable view.
    d.pricer.rewards = mechanism.rewards();
    d.pricer.reward_cap = mechanism.reward_cap();
  }
  d.model_source = model_source_;
  d.model_beta = model_beta_;
  d.model_volumes = model_volumes_;

  d.mechanism_kind = static_cast<std::uint32_t>(config_.mechanism.kind);
  d.rebate_pool = config_.mechanism.rebate_pool;
  d.rebate_share_blend = config_.mechanism.rebate_share_blend;
  d.rebate_inflow_floor = config_.mechanism.rebate_inflow_floor;
  d.oracle_refine = config_.mechanism.oracle_refine;
  d.oracle_capacity_target = config_.mechanism.oracle_capacity_target;
  if (config_.mechanism.kind != mech::MechanismKind::kTubeOnline) {
    d.mech_state = mechanism.export_state();
  }
  d.adaptive_users = config_.adaptive_users;
  d.adaptation_rate = config_.adaptation_rate;
  d.adaptation_gain = config_.adaptation_gain;
  if (config_.adaptive_users) d.adapt_scale = adapt_scale_;

  d.window = window_;
  d.completed_days = completed_days_;
  d.partial = current_day();
  d.prev_day_start_rewards = prev_day_start_rewards_;
  d.has_prev_day_start = has_prev_day_start_;

  d.incident_enabled = config_.incident.enabled;
  if (const obs::incident::IncidentEngine* incident = loop_.incident_engine()) {
    d.incident_config = config_.incident;
    d.incident = incident->state();
    d.day_channel_fallback_periods = loop_.day_channel_fallbacks();
  }

  // Wall-clock counters ("_ns", the loop's phase timers) stay out: a
  // checkpoint holds state, and their values differ run to run.
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  for (const obs::Snapshot::CounterRow& row : snap.counters) {
    if (!row.name.ends_with("_ns")) {
      d.counters.emplace_back(row.name, row.value);
    }
  }
  horizon_counters().checkpoints.add(1);
  return d;
}

std::vector<std::uint8_t> MultiDayDriver::checkpoint_bytes() const {
  return encode(checkpoint());
}

}  // namespace tdp::horizon
