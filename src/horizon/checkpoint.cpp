#include "horizon/checkpoint.hpp"

#include <cstdio>
#include <optional>
#include <utility>

#include <unistd.h>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "horizon/checkpoint_sections.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "obs/incident/incident.hpp"

namespace tdp::horizon {
namespace {

using detail::SectionTag;

/// Upper bound used only to reject absurd structural counts early; real
/// allocation safety comes from Reader's remaining-bytes bound.
constexpr std::size_t kMaxPeriods = 1 << 14;
constexpr std::size_t kMaxListed = 1 << 22;

// Field lists (common/serialize.hpp): each record's layout is spelled once.
// Run with a ser::Writer and a const record it encodes; run with a
// ser::Reader it decodes and validates.

template <class IO, class M>
void day_metrics_fields(IO& io, M& m) {
  io.u64(m.day);
  io.vec_f64(m.offered_units, kMaxPeriods);
  io.vec_f64(m.realized_units, kMaxPeriods);
  io.vec_f64(m.rewards, kMaxPeriods);
  io.u64(m.sessions);
  io.u64(m.deferred_sessions);
  io.f64(m.reward_paid_units);
  io.f64(m.peak_to_average_tip);
  io.f64(m.peak_to_average_tdp);
  io.boolean(m.estimated);
  io.f64(m.beta_estimate);
  io.f64(m.estimate_residual);
  io.boolean(m.reanchored);
  io.f64(m.reward_step_linf);
}

/// kSecStorm's per-day health extras (v2).
template <class IO, class M>
void storm_extra_fields(IO& io, M& m) {
  io.u64(m.fallback_periods);
  io.flags(m.estimation_frozen, m.reanchor_rolled_back);
}

template <class IO, class T>
void telemetry_fields(IO& io, T& t) {
  io.u64(t.fetches);
  io.u64(t.cache_hits);
  io.u64(t.dropped_attempts);
  io.u64(t.retries);
  io.u64(t.stale_periods);
  io.u64(t.fallback_periods);
  io.u64(t.skewed_periods);
  io.u64(t.recoveries);
  io.u64(t.missed_streak);
}

template <class IO, class S>
void health_stats_fields(IO& io, S& s) {
  io.u64(s.healthy_observations);
  io.u64(s.degraded_observations);
  io.u64(s.fallback_observations);
  io.u64(s.transitions);
  io.u64(s.solve_failures);
  io.u64(s.clamped_steps);
  io.u64(s.skipped_updates);
  io.u64(s.missed_observations);
  io.u64(s.recoveries);
  io.u64(s.max_recovery_periods);
}

template <class IO, class H>
void health_field(IO& io, H& health) {
  io.template enumerated<std::uint8_t>(health, 0, 2);
}

/// A size_t config count on the wire as u32.
template <class IO, class N>
void count32(IO& io, N& n) {
  std::uint32_t wire = static_cast<std::uint32_t>(n);
  io.u32(wire);
  if constexpr (IO::kReading) n = wire;
}

/// One section's fields, tag and length excluded. The config echo (every
/// d.config field below, DESIGN.md §12) is named here and nowhere else.
template <class IO, class Data>
void section_fields(IO& io, SectionTag tag, Data& d) {
  auto& c = d.config;
  switch (tag) {
    case detail::kSecConfig:
      io.u64(c.population.users);
      count32(io, c.population.periods);
      io.u64(c.population.seed);
      io.f64(c.population.sessions_per_day);
      io.u64(c.slices);
      count32(io, c.warmup_days);
      count32(io, c.horizon_days);
      io.boolean(c.online_pricing);
      io.boolean(c.estimation);
      count32(io, c.estimation_window);
      count32(io, c.estimation_min_days);
      count32(io, c.estimation_starts);
      io.boolean(c.reanchor);
      io.f64(c.fault.price_pull_drop);
      io.f64(c.fault.clock_skew);
      io.f64(c.fault.measurement_loss);
      io.f64(c.fault.measurement_nan);
      io.f64(c.fault.measurement_negative);
      io.f64(c.fault.measurement_spike);
      io.f64(c.fault.spike_factor);
      io.vec_u64(c.fault.measurement_blackouts, kMaxListed);
      io.f64(c.fault.solver_exhaustion);
      io.u64(c.fault.solver_starved_budget);
      io.f64(c.fault.drift_beta_rate);
      io.f64(c.fault.drift_beta_step);
      io.u64(c.fault.drift_step_day);
      io.u64(c.fault.seed);
      io.u64(c.resilience.staleness_ttl);
      io.u64(c.resilience.max_retries);
      io.f64(c.measurement_guard.max_spike_factor);
      io.u64(c.measurement_guard.max_carry_forward);
      io.check(c.population.periods >= 2 && c.population.periods <= kMaxPeriods,
               "checkpoint: implausible period count");
      io.check(c.population.users != 0 && c.slices != 0 &&
                   c.slices <= c.population.users,
               "checkpoint: implausible slice layout");
      break;
    case detail::kSecClock:
      io.u64(d.day);
      io.u32(d.period);
      io.u32(d.ring_head);
      break;
    case detail::kSecRings: {
      // Work and reward rings interleave under one count.
      std::size_t slice = 0;
      io.list(d.ring_work, kMaxListed, [&](auto& work) {
        if constexpr (IO::kReading) d.ring_reward.resize(d.ring_work.size());
        io.vec_f64_finite(work, kMaxPeriods);
        io.vec_f64_finite(d.ring_reward[slice++], kMaxPeriods);
      });
      break;
    }
    case detail::kSecChannel:
      io.vec_f64(d.channel.published, kMaxPeriods);
      io.u64(d.channel.publish_count);
      io.list(d.channel.subscribers, kMaxListed, [&io](auto& sub) {
        io.vec_f64_finite(sub.cache, kMaxPeriods);
        io.u64(sub.last_pull_period);
        io.boolean(sub.pulled_ever);
        telemetry_fields(io, sub.stats);
      });
      break;
    case detail::kSecFanout:
      io.list(d.fanout_schedules, kMaxListed,
              [&io](auto& schedule) { io.vec_f64(schedule, kMaxPeriods); });
      break;
    case detail::kSecGuard: {
      io.vec_f64(d.guard.last_good, kMaxPeriods);
      // std::vector<bool> hands out no references: the flags travel as u64.
      std::vector<std::uint64_t> flags(d.guard.has_last_good.begin(),
                                       d.guard.has_last_good.end());
      io.vec_u64(flags, kMaxPeriods);
      for (const std::uint64_t flag : flags) {
        io.check(flag <= 1, "checkpoint: invalid guard flag");
      }
      if constexpr (IO::kReading) {
        d.guard.has_last_good.assign(flags.begin(), flags.end());
      }
      io.vec_u64(d.guard.gap_streak, kMaxPeriods);
      io.u64(d.guard.gaps_filled);
      io.u64(d.guard.nan_rejected);
      io.u64(d.guard.negative_rejected);
      io.u64(d.guard.spikes_clamped);
      break;
    }
    case detail::kSecPricer:
      io.vec_f64_finite(d.pricer.rewards, kMaxPeriods);
      io.f64(d.pricer.reward_cap);
      io.list(d.pricer.volumes, kMaxPeriods,
              [&io](auto& volumes) { io.vec_f64_finite(volumes, kMaxListed); });
      health_field(io, d.pricer.health);
      health_stats_fields(io, d.pricer.stats);
      io.list(d.pricer.log, kMaxListed, [&io](auto& transition) {
        io.u64(transition.observation);
        health_field(io, transition.from);
        health_field(io, transition.to);
      });
      io.u64(d.pricer.observation_count);
      io.u64(d.pricer.consecutive_bad);
      io.u64(d.pricer.consecutive_good);
      io.u64(d.pricer.excursion_periods);
      io.template enumerated<std::uint32_t>(d.model_source, 0, 1);
      io.f64(d.model_beta);
      io.vec_f64(d.model_volumes, kMaxPeriods);
      break;
    case detail::kSecWindow:
      io.list(d.window, kMaxListed, [&io](auto& record) {
        io.vec_f64_finite(record.rewards, kMaxPeriods);
        io.vec_f64_finite(record.usage_change, kMaxPeriods);
        io.vec_f64_finite(record.tip_demand, kMaxPeriods);
      });
      break;
    case detail::kSecDays:
      io.list(d.completed_days, kMaxListed,
              [&io](auto& day) { day_metrics_fields(io, day); });
      break;
    case detail::kSecPartial:
      day_metrics_fields(io, d.partial);
      io.vec_f64(d.prev_day_start_rewards, kMaxPeriods);
      io.boolean(d.has_prev_day_start);
      break;
    case detail::kSecObs:  // retired: never written, skipped on read
      break;
    case detail::kSecMech:
      io.template enumerated<std::uint32_t>(c.mechanism.kind, 0, 3);
      io.f64(c.mechanism.rebate_pool);
      io.f64(c.mechanism.rebate_share_blend);
      io.f64(c.mechanism.rebate_inflow_floor);
      io.boolean(c.mechanism.oracle_refine);
      io.f64(c.mechanism.oracle_capacity_target);
      io.vec_f64_finite(d.mech_state.rewards, kMaxPeriods);
      io.vec_f64(d.mech_state.scalars, kMaxPeriods);
      io.list(d.mech_state.vectors, kMaxPeriods,
              [&io](auto& v) { io.vec_f64_finite(v, kMaxPeriods); });
      io.boolean(c.adaptive_users);
      io.f64(c.adaptation_rate);
      io.f64(c.adaptation_gain);
      io.vec_f64_finite(d.adapt_scale, kMaxPeriods);
      break;
    case detail::kSecStorm: {
      for (auto* regime : {&c.fault.storm_blackout, &c.fault.storm_channel,
                           &c.fault.storm_solver}) {
        io.f64(regime->onset);
        io.f64(regime->persist);
        io.f64(regime->intensity);
      }
      io.f64(c.measurement_guard.carry_floor_fraction);
      io.boolean(c.estimation_health_gate);
      io.u64(c.reanchor_healthy_periods);
      io.boolean(c.reanchor_objective_guard);
      io.f64(c.reanchor_guard_tolerance);
      io.u64(d.healthy_streak_periods);
      // Per-day health extras: parallel arrays over kSecDays plus one
      // trailing entry for the partial day, so kSecDays must precede this
      // section (the canonical order) and the counts must line up.
      std::uint64_t extras = d.completed_days.size() + 1;
      io.u64(extras);
      io.check(extras == d.completed_days.size() + 1,
               "checkpoint: storm extras do not match day count");
      for (auto& day : d.completed_days) storm_extra_fields(io, day);
      storm_extra_fields(io, d.partial);
      break;
    }
    case detail::kSecIncident:
      obs::incident::config_echo_fields(io, c.incident);
      obs::incident::state_fields(io, d.incident);
      // The fallback count trails the engine state; a section without it
      // decodes as 0.
      if constexpr (IO::kReading) {
        if (io.remaining() == 0) break;
      }
      io.u64(d.day_channel_fallback_periods);
      break;
  }
}

/// Whether this checkpoint writes `tag` at all: never the retired
/// kSecObs, and kSecIncident only when the engine is on.
bool section_present(SectionTag tag, const CheckpointData& data) {
  return tag != detail::kSecObs &&
         (tag != detail::kSecIncident || data.config.incident.enabled);
}

/// Encode exactly one tagged section, begin_section through end_section.
void write_section(ser::Writer& w, SectionTag tag,
                   const CheckpointData& data) {
  const std::size_t token = w.begin_section(tag);
  section_fields(w, tag, data);
  w.end_section(token);
}

/// The sections that carry config echo, named for restore's error.
constexpr std::pair<SectionTag, const char*> kEchoSections[] = {
    {detail::kSecConfig, "config"},
    {detail::kSecMech, "mechanism"},
    {detail::kSecStorm, "storm"},
    {detail::kSecIncident, "incident"},
};

/// One section of `d` as the writer emits it (empty when `d` writes none).
std::vector<std::uint8_t> section_bytes(SectionTag tag,
                                        const CheckpointData& d) {
  ser::Writer w(kCheckpointMagic, kCheckpointVersion);
  if (section_present(tag, d)) write_section(w, tag, d);
  return w.take_payload();
}

}  // namespace

const char* echo_mismatch(const HorizonConfig& a, const HorizonConfig& b) {
  // Two records whose state is all defaults: a section's bytes differ
  // exactly where the configs' echoes differ.
  CheckpointData echo_a;
  echo_a.config = a;
  CheckpointData echo_b;
  echo_b.config = b;
  for (const auto& [tag, name] : kEchoSections) {
    if (section_bytes(tag, echo_a) != section_bytes(tag, echo_b)) return name;
  }
  return nullptr;
}

std::vector<std::uint8_t> encode(const CheckpointData& data) {
  ser::Writer w(kCheckpointMagic, kCheckpointVersion);
  for (std::uint32_t tag = detail::kSecConfig; tag <= detail::kSecIncident;
       ++tag) {
    const auto section = static_cast<SectionTag>(tag);
    if (section_present(section, data)) write_section(w, section, data);
  }
  return w.finish();
}

CheckpointData decode(const std::uint8_t* bytes, std::size_t size) {
  ser::Reader r(bytes, size, kCheckpointMagic, 1, kCheckpointVersion);
  CheckpointData data;
  bool seen[detail::kSecIncident + 1] = {};

  while (!r.at_end()) {
    const std::uint32_t tag = r.begin_section();
    // Unknown sections from a future writer skip under the documented
    // compatibility policy, and so does the retired counter table that
    // older writers emitted. A version-1 reader does not know the v2 tags
    // either, so it skips them too — v1 semantics exercised for real (the
    // compat test patches the header version on genuine v2 bytes).
    if (tag < detail::kSecConfig || tag > detail::kSecIncident ||
        tag == detail::kSecObs ||
        (r.version() < 2 && tag >= detail::kSecStorm)) {
      r.skip_section();
      continue;
    }
    if (seen[tag]) throw ser::FormatError("checkpoint: duplicate section");
    section_fields(r, static_cast<SectionTag>(tag), data);
    r.end_section();
    seen[tag] = true;
  }

  for (std::uint32_t tag = detail::kSecConfig; tag <= detail::kSecPartial;
       ++tag) {
    if (!seen[tag]) {
      throw ser::FormatError("checkpoint: missing required section");
    }
  }
  const std::size_t periods = data.config.population.periods;
  if (data.ring_work.size() != data.ring_reward.size() ||
      data.ring_work.size() != data.config.slices) {
    throw ser::FormatError("checkpoint: ring count does not match slices");
  }
  for (std::size_t i = 0; i < data.ring_work.size(); ++i) {
    if (data.ring_work[i].size() != periods ||
        data.ring_reward[i].size() != periods) {
      throw ser::FormatError("checkpoint: ring size does not match periods");
    }
  }
  if (data.ring_head >= periods || data.period >= periods) {
    throw ser::FormatError("checkpoint: clock out of range");
  }
  if (data.config.mechanism.kind != mech::MechanismKind::kTubeOnline &&
      data.mech_state.rewards.size() != periods) {
    throw ser::FormatError("checkpoint: mechanism rewards size mismatch");
  }
  // The restored loop indexes these by period: the published schedule and
  // every subscriber cache, the partial day (empty only at period 0, where
  // a fresh driver writes it so), the day-start schedule once recorded,
  // and every estimation-window day.
  const auto whole = [periods](const std::vector<double>& v) {
    return v.size() == periods;
  };
  const auto partial = [&](const std::vector<double>& v) {
    return whole(v) || (data.period == 0 && v.empty());
  };
  bool shaped = whole(data.channel.published) &&
                partial(data.partial.offered_units) &&
                partial(data.partial.realized_units) &&
                partial(data.partial.rewards) &&
                (!data.has_prev_day_start || whole(data.prev_day_start_rewards));
  for (const auto& subscriber : data.channel.subscribers) {
    shaped = shaped && whole(subscriber.cache);
  }
  for (const DayRecord& record : data.window) {
    shaped = shaped && whole(record.rewards) && whole(record.usage_change) &&
             whole(record.tip_demand);
  }
  if (!shaped) {
    throw ser::FormatError("checkpoint: per-period vector length does not "
                           "match periods");
  }
  return data;
}

CheckpointData decode(const std::vector<std::uint8_t>& bytes) {
  return decode(bytes.data(), bytes.size());
}

void save_checkpoint_file(const std::string& path,
                          const CheckpointData& data) {
  const std::vector<std::uint8_t> bytes = encode(data);
  // Stage, fsync, rename: POSIX rename replaces the destination
  // atomically, so a reader (or a restart after a crash at any point) sees
  // the previous file or the new one, never a prefix of either.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw Error("cannot open checkpoint staging file: " + tmp);
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool ok = written == bytes.size() && std::fflush(f) == 0;
  if (ok) ok = ::fsync(fileno(f)) == 0;
  const int close_err = std::fclose(f);
  if (!ok || close_err != 0) {
    throw Error("short write to checkpoint staging file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error("cannot publish checkpoint: rename failed for " + path);
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

namespace {

std::optional<CheckpointData> try_load(const std::string& path) {
  try {
    return load_checkpoint_file(path);
  } catch (const Error&) {
    // Missing, unreadable, torn, truncated or corrupt — exactly what
    // recovery must tolerate.
    return std::nullopt;
  }
}

}  // namespace

CheckpointData load_checkpoint_file_recover(const std::string& path) {
  std::optional<CheckpointData> committed = try_load(path);
  std::optional<CheckpointData> staged = try_load(path + ".tmp");
  if (committed.has_value() && staged.has_value()) {
    // Both complete: the crash landed between fsync and rename. Resume
    // from the later simulated clock; on a tie the committed file wins
    // (the tmp is then a byte-identical re-commit in flight).
    const bool staged_newer =
        staged->day > committed->day ||
        (staged->day == committed->day && staged->period > committed->period);
    return staged_newer ? std::move(*staged) : std::move(*committed);
  }
  if (committed.has_value()) return std::move(*committed);
  if (staged.has_value()) return std::move(*staged);
  throw Error("no recoverable checkpoint at " + path +
              " (committed and staged copies both unreadable)");
}

}  // namespace tdp::horizon
