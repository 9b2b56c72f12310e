// Byte codec for the incident engine: the engine state and the
// determinism-relevant config echo, each spelled once as a field list
// (state_fields / config_echo_fields) that encodes when run with a
// ser::Writer and decodes and validates when run with a ser::Reader; the
// checkpoint section kSecIncident and the self-contained "TDPI"
// flight-recorder dump both run them. Field order is frozen — these bytes
// are part of the determinism contract (dumps are compared bitwise across
// thread counts and kill/restore) and the pure-Python reader in
// tools/tdp_triage.py mirrors this layout exactly.
#include <cstdint>
#include <vector>

#include "obs/incident/incident.hpp"

namespace tdp::obs::incident {
namespace {

// Section tags inside a "TDPI" dump.
constexpr std::uint32_t kDumpSecMeta = 1;
constexpr std::uint32_t kDumpSecConfig = 2;
constexpr std::uint32_t kDumpSecState = 3;
constexpr std::uint32_t kDumpSecWall = 4;

/// Cap on the trailing-window vectors (list counts are bounded by the bytes
/// remaining).
constexpr std::size_t kMaxWindow = 1 << 20;

template <class IO, class H>
void health_field(IO& io, H& health) {
  io.template enumerated<std::uint8_t>(health, 0, 2);
}

template <class IO, class R>
void reanchor_field(IO& io, R& reanchor) {
  io.template enumerated<std::int64_t>(reanchor, -1, 3);
}

template <class IO, class Dump>
void dump_section_fields(IO& io, std::uint32_t tag, Dump& d) {
  switch (tag) {
    case kDumpSecMeta:
      io.u64(d.day);
      io.u32(d.period);
      io.flags(d.has_wall);
      break;
    case kDumpSecConfig:
      config_echo_fields(io, d.config);
      break;
    case kDumpSecState:
      state_fields(io, d.state);
      break;
    case kDumpSecWall:
      io.list(d.wall_counters, SIZE_MAX, [&io](auto& counter) {
        io.str(counter.first);
        io.u64(counter.second);
      });
      io.vec_f64(d.wall_commit_latencies, kMaxWindow);
      break;
  }
}

}  // namespace

template <class IO, class Config>
void config_echo_fields(IO& io, Config& config) {
  io.boolean(config.enabled);
  io.f64(config.cusum_k);
  io.f64(config.cusum_h);
  io.f64(config.channel_cusum_k);
  io.f64(config.channel_cusum_h);
  io.f64(config.ewma_alpha);
  io.f64(config.ewma_z);
  io.u64(config.ewma_min_days);
  io.f64(config.pacing_max_ratio);
  io.u64(config.pacing_grace_days);
  io.u32(config.slo_short_window);
  io.u32(config.slo_long_window);
  io.f64(config.slo_short_burn);
  io.f64(config.slo_long_burn);
  io.u64(config.slo_max_fallback_per_day);
  io.f64(config.slo_p2a_floor);
  io.u32(config.slo_p2a_window_days);
  io.u32(config.recorder_capacity);
  io.u32(config.max_alerts);
}

template <class IO, class State>
void state_fields(IO& io, State& state) {
  io.u64(state.next_alert_seq);
  io.u64(state.alerts_dropped);
  io.list(state.alerts, SIZE_MAX, [&io](auto& alert) {
    io.u64(alert.seq);
    io.u64(alert.day);
    io.u32(alert.period);
    io.u64(alert.abs_period);
    io.template enumerated<std::uint8_t>(
        alert.kind, 0, static_cast<std::int64_t>(AlertKind::kPacingBound));
    io.f64(alert.value);
    io.f64(alert.threshold);
  });

  io.u64(state.next_incident_id);
  io.list(state.incidents, SIZE_MAX, [&io](auto& incident) {
    io.u64(incident.id);
    io.template enumerated<std::uint8_t>(
        incident.objective, 0, static_cast<std::int64_t>(kObjectiveCount) - 1);
    io.template enumerated<std::uint8_t>(
        incident.severity, 0, static_cast<std::int64_t>(Severity::kCritical));
    io.u64(incident.open_day);
    io.u32(incident.open_period);
    io.u64(incident.open_abs_period);
    io.boolean(incident.closed);
    io.u64(incident.close_abs_period);
    io.f64(incident.burn_short);
    io.f64(incident.burn_long);
    io.flags(incident.storm_blackout, incident.storm_channel,
             incident.storm_solver);
    health_field(io, incident.health);
    io.i64(incident.last_reanchor_day);
    reanchor_field(io, incident.last_reanchor);
  });

  // Detector state sits behind accessors; a decode restores it whole.
  for (auto* cusum :
       {&state.cusum_measurement, &state.cusum_channel, &state.cusum_solver}) {
    double s = cusum->value();
    std::uint64_t samples = cusum->samples();
    std::uint64_t firings = cusum->firings();
    io.f64(s);
    io.u64(samples);
    io.u64(firings);
    if constexpr (IO::kReading) cusum->restore(s, samples, firings);
  }
  for (auto* ewma : {&state.ewma_p2a, &state.ewma_peak}) {
    double mean = ewma->mean();
    double var = ewma->variance();
    std::uint64_t samples = ewma->samples();
    io.f64(mean);
    io.f64(var);
    io.u64(samples);
    if constexpr (IO::kReading) ewma->restore(mean, var, samples);
  }

  io.boolean(state.has_prev_health);
  health_field(io, state.prev_health);

  io.list(state.slo_window, SIZE_MAX, [&io](auto& bit) {
    io.u8(bit);
    io.check(bit <= 1, "bad slo window bit");
  });
  io.u32(state.slo_pos);
  io.check(state.slo_window.empty() || state.slo_pos < state.slo_window.size(),
           "slo position out of range");
  io.u64(state.slo_filled);
  io.vec_f64_finite(state.p2a_window, kMaxWindow);

  io.u64(state.settles_seen);
  io.u64(state.days_seen);
  io.u64(state.last_day);
  io.u32(state.last_period);
  io.u64(state.last_abs_period);

  io.flags(state.storm_blackout, state.storm_channel, state.storm_solver);
  health_field(io, state.health);
  io.i64(state.last_reanchor_day);
  reanchor_field(io, state.last_reanchor);

  io.list(state.recorder, SIZE_MAX, [&io](auto& entry) {
    io.u64(entry.abs_period);
    io.template enumerated<std::uint8_t>(
        entry.kind, 0, static_cast<std::int64_t>(RecorderKind::kReanchor));
    io.f64(entry.a);
    io.f64(entry.b);
  });
  io.u32(state.recorder_pos);
  io.check(state.recorder_pos <= state.recorder.size(),
           "recorder position out of range");
  io.u64(state.recorder_overwritten);
}

template void config_echo_fields(ser::Writer&, const IncidentConfig&);
template void config_echo_fields(ser::Reader&, IncidentConfig&);
template void state_fields(ser::Writer&, const EngineState&);
template void state_fields(ser::Reader&, EngineState&);

bool config_echo_matches(const IncidentConfig& a, const IncidentConfig& b) {
  const auto echo = [](const IncidentConfig& config) {
    ser::Writer w(kDumpMagic, kDumpVersion);
    config_echo_fields(w, config);
    return w.take_payload();
  };
  return echo(a) == echo(b);
}

std::vector<std::uint8_t> encode_dump(const DumpData& data) {
  ser::Writer w(kDumpMagic, kDumpVersion);
  for (const std::uint32_t tag :
       {kDumpSecMeta, kDumpSecConfig, kDumpSecState, kDumpSecWall}) {
    if (tag == kDumpSecWall && !data.has_wall) continue;
    const std::size_t token = w.begin_section(tag);
    dump_section_fields(w, tag, data);
    w.end_section(token);
  }
  return w.finish();
}

DumpData decode_dump(const std::uint8_t* data, std::size_t size) {
  ser::Reader r(data, size, kDumpMagic, kDumpVersion, kDumpVersion);
  DumpData out;
  bool seen[kDumpSecWall + 1] = {};
  while (!r.at_end()) {
    const std::uint32_t tag = r.begin_section();
    if (tag < kDumpSecMeta || tag > kDumpSecWall) {
      // Forward compatibility: a newer writer may add sections.
      r.skip_section();
      continue;
    }
    dump_section_fields(r, tag, out);
    r.end_section();
    seen[tag] = true;
  }
  if (!seen[kDumpSecMeta] || !seen[kDumpSecConfig] || !seen[kDumpSecState]) {
    throw ser::FormatError("dump missing required section");
  }
  return out;
}

DumpData decode_dump(const std::vector<std::uint8_t>& bytes) {
  return decode_dump(bytes.data(), bytes.size());
}

}  // namespace tdp::obs::incident
