#include "horizon/checkpoint.hpp"

#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "horizon/checkpoint_sections.hpp"
#include "obs/incident/incident.hpp"

namespace tdp::horizon {
namespace {

using detail::SectionTag;

/// Upper bound used only to reject absurd structural counts early; real
/// allocation safety comes from Reader's remaining-bytes bound.
constexpr std::size_t kMaxPeriods = 1 << 14;
constexpr std::size_t kMaxListed = 1 << 22;

void write_day_metrics(ser::Writer& w, const DayMetrics& m) {
  w.u64(m.day);
  w.vec_f64(m.offered_units);
  w.vec_f64(m.realized_units);
  w.vec_f64(m.rewards);
  w.u64(m.sessions);
  w.u64(m.deferred_sessions);
  w.f64(m.reward_paid_units);
  w.f64(m.peak_to_average_tip);
  w.f64(m.peak_to_average_tdp);
  w.boolean(m.estimated);
  w.f64(m.beta_estimate);
  w.f64(m.estimate_residual);
  w.boolean(m.reanchored);
  w.f64(m.reward_step_linf);
}

DayMetrics read_day_metrics(ser::Reader& r) {
  DayMetrics m;
  m.day = r.u64();
  m.offered_units = r.vec_f64(kMaxPeriods);
  m.realized_units = r.vec_f64(kMaxPeriods);
  m.rewards = r.vec_f64(kMaxPeriods);
  m.sessions = r.u64();
  m.deferred_sessions = r.u64();
  m.reward_paid_units = r.f64();
  m.peak_to_average_tip = r.f64();
  m.peak_to_average_tdp = r.f64();
  m.estimated = r.boolean();
  m.beta_estimate = r.f64();
  m.estimate_residual = r.f64();
  m.reanchored = r.boolean();
  m.reward_step_linf = r.f64();
  return m;
}

void write_telemetry(ser::Writer& w, const SubscriberTelemetry& t) {
  w.u64(t.fetches);
  w.u64(t.cache_hits);
  w.u64(t.dropped_attempts);
  w.u64(t.retries);
  w.u64(t.stale_periods);
  w.u64(t.fallback_periods);
  w.u64(t.skewed_periods);
  w.u64(t.recoveries);
  w.u64(t.missed_streak);
}

SubscriberTelemetry read_telemetry(ser::Reader& r) {
  SubscriberTelemetry t;
  t.fetches = static_cast<std::size_t>(r.u64());
  t.cache_hits = static_cast<std::size_t>(r.u64());
  t.dropped_attempts = static_cast<std::size_t>(r.u64());
  t.retries = static_cast<std::size_t>(r.u64());
  t.stale_periods = static_cast<std::size_t>(r.u64());
  t.fallback_periods = static_cast<std::size_t>(r.u64());
  t.skewed_periods = static_cast<std::size_t>(r.u64());
  t.recoveries = static_cast<std::size_t>(r.u64());
  t.missed_streak = static_cast<std::size_t>(r.u64());
  return t;
}

void write_health_stats(ser::Writer& w, const PricerHealthStats& s) {
  w.u64(s.healthy_observations);
  w.u64(s.degraded_observations);
  w.u64(s.fallback_observations);
  w.u64(s.transitions);
  w.u64(s.solve_failures);
  w.u64(s.clamped_steps);
  w.u64(s.skipped_updates);
  w.u64(s.missed_observations);
  w.u64(s.recoveries);
  w.u64(s.max_recovery_periods);
}

PricerHealthStats read_health_stats(ser::Reader& r) {
  PricerHealthStats s;
  s.healthy_observations = r.u64();
  s.degraded_observations = r.u64();
  s.fallback_observations = r.u64();
  s.transitions = r.u64();
  s.solve_failures = r.u64();
  s.clamped_steps = r.u64();
  s.skipped_updates = r.u64();
  s.missed_observations = r.u64();
  s.recoveries = r.u64();
  s.max_recovery_periods = r.u64();
  return s;
}

PricerHealth read_health(ser::Reader& r) {
  const std::uint8_t raw = r.u8();
  if (raw > 2) throw ser::FormatError("checkpoint: invalid health rung");
  return static_cast<PricerHealth>(raw);
}

}  // namespace

namespace detail {

bool needs_v2(const CheckpointData& data) {
  return data.fault.storm_blackout.enabled() ||
         data.fault.storm_channel.enabled() ||
         data.fault.storm_solver.enabled() ||
         data.carry_floor_fraction != 0.5 || data.estimation_health_gate ||
         data.reanchor_healthy_periods != 0 ||
         data.reanchor_objective_guard ||
         data.reanchor_guard_tolerance != 0.0 || data.incident_enabled;
}

std::uint32_t format_version_for(const CheckpointData& data) {
  return needs_v2(data) ? kCheckpointVersion : 1u;
}

bool section_present(SectionTag tag, const CheckpointData& data) {
  switch (tag) {
    case kSecMech:
      return data.mechanism_kind != 0 || data.adaptive_users;
    case kSecStorm:
      return needs_v2(data);
    case kSecIncident:
      return data.incident_enabled;
    default:
      return true;
  }
}

bool section_dirty_within_day(SectionTag tag) {
  switch (tag) {
    case kSecConfig:  // pure config echo, fixed for the whole run
    case kSecWindow:  // estimation window only moves at finish_day
    case kSecDays:    // completed-day list only grows at finish_day
    case kSecMech:    // settle/adaptation only run at finish_day
      return false;
    default:
      // kSecIncident is deliberately dirty: the CUSUM accumulators and the
      // recorder ring move every observed period.
      return true;
  }
}

void write_section(ser::Writer& w, SectionTag tag,
                   const CheckpointData& data) {
  const std::size_t s = w.begin_section(tag);
  switch (tag) {
    case kSecConfig:
      w.u64(data.users);
      w.u32(data.periods);
      w.u64(data.population_seed);
      w.f64(data.sessions_per_day);
      w.u64(data.slices);
      w.u32(data.warmup_days);
      w.u32(data.horizon_days);
      w.boolean(data.online_pricing);
      w.boolean(data.estimation);
      w.u32(data.estimation_window);
      w.u32(data.estimation_min_days);
      w.u32(data.estimation_starts);
      w.boolean(data.reanchor);
      w.f64(data.fault.price_pull_drop);
      w.f64(data.fault.clock_skew);
      w.f64(data.fault.measurement_loss);
      w.f64(data.fault.measurement_nan);
      w.f64(data.fault.measurement_negative);
      w.f64(data.fault.measurement_spike);
      w.f64(data.fault.spike_factor);
      w.vec_u64(data.fault.measurement_blackouts);
      w.f64(data.fault.solver_exhaustion);
      w.u64(data.fault.solver_starved_budget);
      w.f64(data.fault.drift_beta_rate);
      w.f64(data.fault.drift_beta_step);
      w.u64(data.fault.drift_step_day);
      w.u64(data.fault.seed);
      w.u64(data.staleness_ttl);
      w.u64(data.max_retries);
      w.f64(data.max_spike_factor);
      w.u64(data.max_carry_forward);
      break;
    case kSecClock:
      w.u64(data.day);
      w.u32(data.period);
      w.u32(data.ring_head);
      break;
    case kSecRings:
      w.u64(data.ring_work.size());
      for (std::size_t i = 0; i < data.ring_work.size(); ++i) {
        w.vec_f64(data.ring_work[i]);
        w.vec_f64(data.ring_reward[i]);
      }
      break;
    case kSecChannel:
      w.vec_f64(data.channel.published);
      w.u64(data.channel.publish_count);
      w.u64(data.channel.subscribers.size());
      for (const PriceChannelState::Subscriber& sub :
           data.channel.subscribers) {
        w.vec_f64(sub.cache);
        w.u64(sub.last_pull_period);
        w.boolean(sub.pulled_ever);
        write_telemetry(w, sub.stats);
      }
      break;
    case kSecFanout:
      w.u64(data.fanout_schedules.size());
      for (const math::Vector& schedule : data.fanout_schedules) {
        w.vec_f64(schedule);
      }
      break;
    case kSecGuard: {
      w.vec_f64(data.guard.last_good);
      std::vector<std::uint64_t> flags(data.guard.has_last_good.size());
      for (std::size_t i = 0; i < flags.size(); ++i) {
        flags[i] = data.guard.has_last_good[i] ? 1 : 0;
      }
      w.vec_u64(flags);
      w.vec_u64(data.guard.gap_streak);
      w.u64(data.guard.gaps_filled);
      w.u64(data.guard.nan_rejected);
      w.u64(data.guard.negative_rejected);
      w.u64(data.guard.spikes_clamped);
      break;
    }
    case kSecPricer:
      w.vec_f64(data.pricer.rewards);
      w.f64(data.pricer.reward_cap);
      w.u64(data.pricer.volumes.size());
      for (const std::vector<double>& v : data.pricer.volumes) w.vec_f64(v);
      w.u8(static_cast<std::uint8_t>(data.pricer.health));
      write_health_stats(w, data.pricer.stats);
      w.u64(data.pricer.log.size());
      for (const OnlinePricer::HealthTransition& t : data.pricer.log) {
        w.u64(t.observation);
        w.u8(static_cast<std::uint8_t>(t.from));
        w.u8(static_cast<std::uint8_t>(t.to));
      }
      w.u64(data.pricer.observation_count);
      w.u64(data.pricer.consecutive_bad);
      w.u64(data.pricer.consecutive_good);
      w.u64(data.pricer.excursion_periods);
      w.u32(static_cast<std::uint32_t>(data.model_source));
      w.f64(data.model_beta);
      w.vec_f64(data.model_volumes);
      break;
    case kSecWindow:
      w.u64(data.window.size());
      for (const DayRecord& record : data.window) {
        w.vec_f64(record.rewards);
        w.vec_f64(record.usage_change);
        w.vec_f64(record.tip_demand);
      }
      break;
    case kSecDays:
      w.u64(data.completed_days.size());
      for (const DayMetrics& m : data.completed_days) {
        write_day_metrics(w, m);
      }
      break;
    case kSecPartial:
      write_day_metrics(w, data.partial);
      w.vec_f64(data.prev_day_start_rewards);
      w.boolean(data.has_prev_day_start);
      break;
    case kSecObs:
      w.u64(data.counters.size());
      for (const auto& [name, value] : data.counters) {
        w.str(name);
        w.u64(value);
      }
      break;
    case kSecMech:
      w.u32(data.mechanism_kind);
      w.f64(data.rebate_pool);
      w.f64(data.rebate_share_blend);
      w.f64(data.rebate_inflow_floor);
      w.boolean(data.oracle_refine);
      w.f64(data.oracle_capacity_target);
      w.vec_f64(data.mech_state.rewards);
      w.vec_f64(data.mech_state.scalars);
      w.u64(data.mech_state.vectors.size());
      for (const std::vector<double>& v : data.mech_state.vectors) {
        w.vec_f64(v);
      }
      w.boolean(data.adaptive_users);
      w.f64(data.adaptation_rate);
      w.f64(data.adaptation_gain);
      w.vec_f64(data.adapt_scale);
      break;
    case kSecStorm: {
      w.f64(data.fault.storm_blackout.onset);
      w.f64(data.fault.storm_blackout.persist);
      w.f64(data.fault.storm_blackout.intensity);
      w.f64(data.fault.storm_channel.onset);
      w.f64(data.fault.storm_channel.persist);
      w.f64(data.fault.storm_channel.intensity);
      w.f64(data.fault.storm_solver.onset);
      w.f64(data.fault.storm_solver.persist);
      w.f64(data.fault.storm_solver.intensity);
      w.f64(data.carry_floor_fraction);
      w.boolean(data.estimation_health_gate);
      w.u64(data.reanchor_healthy_periods);
      w.boolean(data.reanchor_objective_guard);
      w.f64(data.reanchor_guard_tolerance);
      w.u64(data.healthy_streak_periods);
      // Per-day health extras: parallel arrays over kSecDays plus one
      // trailing entry for the partial day.
      w.u64(data.completed_days.size() + 1);
      const auto write_extra = [&w](const DayMetrics& m) {
        w.u64(m.fallback_periods);
        std::uint8_t flags = 0;
        if (m.estimation_frozen) flags |= 1;
        if (m.reanchor_rolled_back) flags |= 2;
        w.u8(flags);
      };
      for (const DayMetrics& m : data.completed_days) write_extra(m);
      write_extra(data.partial);
      break;
    }
    case kSecIncident:
      obs::incident::write_config_echo(w, data.incident_config);
      obs::incident::write_state(w, data.incident);
      w.u64(data.day_channel_fallback_periods);
      break;
  }
  w.end_section(s);
}

}  // namespace detail

std::vector<std::uint8_t> encode(const CheckpointData& data) {
  ser::Writer w(kCheckpointMagic, detail::format_version_for(data));
  for (const SectionTag tag : detail::kSectionOrder) {
    if (detail::section_present(tag, data)) {
      detail::write_section(w, tag, data);
    }
  }
  return w.finish();
}

CheckpointData decode(const std::uint8_t* bytes, std::size_t size) {
  ser::Reader r(bytes, size, kCheckpointMagic, 1, kCheckpointVersion);
  CheckpointData data;
  bool seen[15] = {};

  while (!r.at_end()) {
    const std::uint32_t tag = r.begin_section();
    if (tag >= 1 && tag <= 14 && seen[tag]) {
      throw ser::FormatError("checkpoint: duplicate section");
    }
    switch (tag) {
      case detail::kSecConfig:
        data.users = r.u64();
        data.periods = r.u32();
        data.population_seed = r.u64();
        data.sessions_per_day = r.f64();
        data.slices = r.u64();
        data.warmup_days = r.u32();
        data.horizon_days = r.u32();
        data.online_pricing = r.boolean();
        data.estimation = r.boolean();
        data.estimation_window = r.u32();
        data.estimation_min_days = r.u32();
        data.estimation_starts = r.u32();
        data.reanchor = r.boolean();
        data.fault.price_pull_drop = r.f64();
        data.fault.clock_skew = r.f64();
        data.fault.measurement_loss = r.f64();
        data.fault.measurement_nan = r.f64();
        data.fault.measurement_negative = r.f64();
        data.fault.measurement_spike = r.f64();
        data.fault.spike_factor = r.f64();
        data.fault.measurement_blackouts = r.vec_u64(kMaxListed);
        data.fault.solver_exhaustion = r.f64();
        data.fault.solver_starved_budget =
            static_cast<std::size_t>(r.u64());
        data.fault.drift_beta_rate = r.f64();
        data.fault.drift_beta_step = r.f64();
        data.fault.drift_step_day = static_cast<std::size_t>(r.u64());
        data.fault.seed = r.u64();
        data.staleness_ttl = r.u64();
        data.max_retries = r.u64();
        data.max_spike_factor = r.f64();
        data.max_carry_forward = r.u64();
        if (data.periods < 2 || data.periods > kMaxPeriods) {
          throw ser::FormatError("checkpoint: implausible period count");
        }
        if (data.users == 0 || data.slices == 0 ||
            data.slices > data.users) {
          throw ser::FormatError("checkpoint: implausible slice layout");
        }
        break;
      case detail::kSecClock:
        data.day = r.u64();
        data.period = r.u32();
        data.ring_head = r.u32();
        break;
      case detail::kSecRings: {
        const std::uint64_t count = r.u64();
        if (count > kMaxListed) {
          throw ser::FormatError("checkpoint: implausible ring count");
        }
        data.ring_work.reserve(static_cast<std::size_t>(count));
        data.ring_reward.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
          data.ring_work.push_back(r.vec_f64_finite(kMaxPeriods));
          data.ring_reward.push_back(r.vec_f64_finite(kMaxPeriods));
        }
        break;
      }
      case detail::kSecChannel: {
        data.channel.published = r.vec_f64(kMaxPeriods);
        data.channel.publish_count = r.u64();
        const std::uint64_t count = r.u64();
        if (count > kMaxListed) {
          throw ser::FormatError("checkpoint: implausible subscriber count");
        }
        data.channel.subscribers.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
          PriceChannelState::Subscriber sub;
          sub.cache = r.vec_f64(kMaxPeriods);
          sub.last_pull_period = r.u64();
          sub.pulled_ever = r.boolean();
          sub.stats = read_telemetry(r);
          data.channel.subscribers.push_back(std::move(sub));
        }
        break;
      }
      case detail::kSecFanout: {
        const std::uint64_t count = r.u64();
        if (count > kMaxListed) {
          throw ser::FormatError("checkpoint: implausible group count");
        }
        data.fanout_schedules.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
          data.fanout_schedules.push_back(r.vec_f64(kMaxPeriods));
        }
        break;
      }
      case detail::kSecGuard: {
        data.guard.last_good = r.vec_f64(kMaxPeriods);
        const std::vector<std::uint64_t> flags = r.vec_u64(kMaxPeriods);
        data.guard.has_last_good.resize(flags.size());
        for (std::size_t i = 0; i < flags.size(); ++i) {
          if (flags[i] > 1) {
            throw ser::FormatError("checkpoint: invalid guard flag");
          }
          data.guard.has_last_good[i] = flags[i] != 0;
        }
        data.guard.gap_streak = r.vec_u64(kMaxPeriods);
        data.guard.gaps_filled = r.u64();
        data.guard.nan_rejected = r.u64();
        data.guard.negative_rejected = r.u64();
        data.guard.spikes_clamped = r.u64();
        break;
      }
      case detail::kSecPricer: {
        data.pricer.rewards = r.vec_f64_finite(kMaxPeriods);
        data.pricer.reward_cap = r.f64();
        const std::uint64_t vol_count = r.u64();
        if (vol_count > kMaxPeriods) {
          throw ser::FormatError("checkpoint: implausible volume count");
        }
        data.pricer.volumes.reserve(static_cast<std::size_t>(vol_count));
        for (std::uint64_t i = 0; i < vol_count; ++i) {
          data.pricer.volumes.push_back(r.vec_f64_finite(kMaxListed));
        }
        data.pricer.health = read_health(r);
        data.pricer.stats = read_health_stats(r);
        const std::uint64_t log_count = r.u64();
        if (log_count > kMaxListed) {
          throw ser::FormatError("checkpoint: implausible transition log");
        }
        data.pricer.log.reserve(static_cast<std::size_t>(log_count));
        for (std::uint64_t i = 0; i < log_count; ++i) {
          OnlinePricer::HealthTransition t;
          t.observation = r.u64();
          const std::uint8_t from = r.u8();
          const std::uint8_t to = r.u8();
          if (from > 2 || to > 2) {
            throw ser::FormatError("checkpoint: invalid health transition");
          }
          t.from = static_cast<PricerHealth>(from);
          t.to = static_cast<PricerHealth>(to);
          data.pricer.log.push_back(t);
        }
        data.pricer.observation_count = r.u64();
        data.pricer.consecutive_bad = r.u64();
        data.pricer.consecutive_good = r.u64();
        data.pricer.excursion_periods = r.u64();
        const std::uint32_t source = r.u32();
        if (source > 1) {
          throw ser::FormatError("checkpoint: unknown model source");
        }
        data.model_source = static_cast<ModelSource>(source);
        data.model_beta = r.f64();
        data.model_volumes = r.vec_f64(kMaxPeriods);
        break;
      }
      case detail::kSecWindow: {
        const std::uint64_t count = r.u64();
        if (count > kMaxListed) {
          throw ser::FormatError("checkpoint: implausible window depth");
        }
        data.window.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
          DayRecord record;
          record.rewards = r.vec_f64_finite(kMaxPeriods);
          record.usage_change = r.vec_f64_finite(kMaxPeriods);
          record.tip_demand = r.vec_f64_finite(kMaxPeriods);
          data.window.push_back(std::move(record));
        }
        break;
      }
      case detail::kSecDays: {
        const std::uint64_t count = r.u64();
        if (count > kMaxListed) {
          throw ser::FormatError("checkpoint: implausible day count");
        }
        data.completed_days.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
          data.completed_days.push_back(read_day_metrics(r));
        }
        break;
      }
      case detail::kSecPartial:
        data.partial = read_day_metrics(r);
        data.prev_day_start_rewards = r.vec_f64(kMaxPeriods);
        data.has_prev_day_start = r.boolean();
        break;
      case detail::kSecObs: {
        const std::uint64_t count = r.u64();
        if (count > kMaxListed) {
          throw ser::FormatError("checkpoint: implausible counter count");
        }
        data.counters.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
          std::string name = r.str();
          const std::uint64_t value = r.u64();
          data.counters.emplace_back(std::move(name), value);
        }
        break;
      }
      case detail::kSecMech: {
        data.mechanism_kind = r.u32();
        if (data.mechanism_kind > 3) {
          throw ser::FormatError("checkpoint: unknown mechanism kind");
        }
        data.rebate_pool = r.f64();
        data.rebate_share_blend = r.f64();
        data.rebate_inflow_floor = r.f64();
        data.oracle_refine = r.boolean();
        data.oracle_capacity_target = r.f64();
        data.mech_state.rewards = r.vec_f64_finite(kMaxPeriods);
        data.mech_state.scalars = r.vec_f64(kMaxPeriods);
        const std::uint64_t vec_count = r.u64();
        if (vec_count > kMaxPeriods) {
          throw ser::FormatError("checkpoint: implausible mech vectors");
        }
        data.mech_state.vectors.reserve(static_cast<std::size_t>(vec_count));
        for (std::uint64_t i = 0; i < vec_count; ++i) {
          data.mech_state.vectors.push_back(r.vec_f64_finite(kMaxPeriods));
        }
        data.adaptive_users = r.boolean();
        data.adaptation_rate = r.f64();
        data.adaptation_gain = r.f64();
        data.adapt_scale = r.vec_f64_finite(kMaxPeriods);
        break;
      }
      case detail::kSecStorm: {
        if (r.version() < 2) {
          // A version-1 reader does not know this tag: honor the
          // unknown-section policy so v1 semantics — skip v2-only
          // sections cleanly — are exercised for real (the compat test
          // patches the header version on genuine v2 bytes).
          r.skip_section();
          continue;
        }
        data.fault.storm_blackout.onset = r.f64();
        data.fault.storm_blackout.persist = r.f64();
        data.fault.storm_blackout.intensity = r.f64();
        data.fault.storm_channel.onset = r.f64();
        data.fault.storm_channel.persist = r.f64();
        data.fault.storm_channel.intensity = r.f64();
        data.fault.storm_solver.onset = r.f64();
        data.fault.storm_solver.persist = r.f64();
        data.fault.storm_solver.intensity = r.f64();
        data.carry_floor_fraction = r.f64();
        data.estimation_health_gate = r.boolean();
        data.reanchor_healthy_periods = r.u64();
        data.reanchor_objective_guard = r.boolean();
        data.reanchor_guard_tolerance = r.f64();
        data.healthy_streak_periods = r.u64();
        const std::uint64_t count = r.u64();
        if (count != data.completed_days.size() + 1) {
          // The extras are parallel arrays over kSecDays + the partial
          // day, so kSecDays/kSecPartial must precede kSecStorm (the
          // canonical order) and the counts must line up.
          throw ser::FormatError(
              "checkpoint: storm extras do not match day count");
        }
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint64_t fallback = r.u64();
          const std::uint8_t flags = r.u8();
          if (flags > 3) {
            throw ser::FormatError("checkpoint: invalid storm day flags");
          }
          DayMetrics& m =
              (i + 1 == count)
                  ? data.partial
                  : data.completed_days[static_cast<std::size_t>(i)];
          m.fallback_periods = fallback;
          m.estimation_frozen = (flags & 1) != 0;
          m.reanchor_rolled_back = (flags & 2) != 0;
        }
        break;
      }
      case detail::kSecIncident: {
        if (r.version() < 2) {
          // Same v1-reader policy as kSecStorm: an unknown tag skips.
          r.skip_section();
          continue;
        }
        data.incident_config = obs::incident::read_config_echo(r);
        data.incident = obs::incident::read_state(r);
        data.incident_enabled = data.incident_config.enabled;
        if (r.remaining() > 0) data.day_channel_fallback_periods = r.u64();
        break;
      }
      default:
        // Unknown section from a future writer: skip under the documented
        // compatibility policy (skip_section also closes the section).
        r.skip_section();
        continue;
    }
    r.end_section();
    if (tag >= 1 && tag <= 14) seen[tag] = true;
  }

  for (std::uint32_t tag = 1; tag <= 11; ++tag) {
    if (!seen[tag]) {
      throw ser::FormatError("checkpoint: missing required section");
    }
  }
  if (data.ring_work.size() != data.ring_reward.size() ||
      data.ring_work.size() != data.slices) {
    throw ser::FormatError("checkpoint: ring count does not match slices");
  }
  for (std::size_t i = 0; i < data.ring_work.size(); ++i) {
    if (data.ring_work[i].size() != data.periods ||
        data.ring_reward[i].size() != data.periods) {
      throw ser::FormatError("checkpoint: ring size does not match periods");
    }
  }
  if (data.ring_head >= data.periods || data.period >= data.periods) {
    throw ser::FormatError("checkpoint: clock out of range");
  }
  if (data.mechanism_kind != 0 &&
      data.mech_state.rewards.size() != data.periods) {
    throw ser::FormatError("checkpoint: mechanism rewards size mismatch");
  }
  return data;
}

CheckpointData decode(const std::vector<std::uint8_t>& bytes) {
  return decode(bytes.data(), bytes.size());
}

void save_checkpoint_file(const std::string& path,
                          const CheckpointData& data) {
  const std::vector<std::uint8_t> bytes = encode(data);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw Error("cannot open checkpoint file for writing: " + path);
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int close_err = std::fclose(f);
  if (written != bytes.size() || close_err != 0) {
    throw Error("short write to checkpoint file: " + path);
  }
}

CheckpointData load_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw Error("cannot open checkpoint file: " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw Error("read error on checkpoint file: " + path);
  return decode(bytes);
}

}  // namespace tdp::horizon
