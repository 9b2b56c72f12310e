#include "obs/incident/incident.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"

namespace tdp::obs::incident {

const char* to_string(AlertKind kind) {
  switch (kind) {
    case AlertKind::kMeasurementCusum:
      return "measurement_cusum";
    case AlertKind::kChannelCusum:
      return "channel_cusum";
    case AlertKind::kSolverCusum:
      return "solver_cusum";
    case AlertKind::kHealthEdge:
      return "health_edge";
    case AlertKind::kP2aZScore:
      return "p2a_zscore";
    case AlertKind::kPeakZScore:
      return "peak_zscore";
    case AlertKind::kPacingBound:
      return "pacing_bound";
  }
  return "?";
}

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kMinor:
      return "MINOR";
    case Severity::kMajor:
      return "MAJOR";
    case Severity::kCritical:
      return "CRITICAL";
  }
  return "?";
}

const char* to_string(Objective objective) {
  switch (objective) {
    case Objective::kLoopDisturbance:
      return "loop_disturbance";
    case Objective::kFallbackBudget:
      return "fallback_budget";
    case Objective::kP2aRegression:
      return "p2a_regression";
    case Objective::kPacing:
      return "pacing";
  }
  return "?";
}

IncidentEngine::IncidentEngine(IncidentConfig config)
    : config_(std::move(config)) {
  state_.slo_window.assign(std::max<std::uint32_t>(1, config_.slo_long_window),
                           0);
}

std::uint64_t IncidentEngine::incidents_closed() const {
  std::uint64_t closed = 0;
  for (const Incident& incident : state_.incidents) {
    if (incident.closed) ++closed;
  }
  return closed;
}

std::uint64_t IncidentEngine::open_incidents() const {
  return state_.incidents.size() > incidents_closed()
             ? state_.incidents.size() - incidents_closed()
             : 0;
}

std::vector<RecorderEntry> IncidentEngine::recorder() const {
  std::vector<RecorderEntry> out;
  out.reserve(state_.recorder.size());
  // Ring unwind: oldest entry sits at recorder_pos once the ring has
  // wrapped (recorder_overwritten > 0), else at index 0.
  const std::size_t n = state_.recorder.size();
  const std::size_t start = state_.recorder_overwritten > 0
                                ? state_.recorder_pos
                                : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(state_.recorder[(start + i) % n]);
  }
  return out;
}

void IncidentEngine::record(std::uint64_t abs_period, RecorderKind kind,
                            double a, double b) {
  RecorderEntry entry;
  entry.abs_period = abs_period;
  entry.kind = kind;
  entry.a = a;
  entry.b = b;
  const std::uint32_t capacity = std::max<std::uint32_t>(1,
                                                         config_.recorder_capacity);
  if (state_.recorder.size() < capacity) {
    state_.recorder.push_back(entry);
    state_.recorder_pos = static_cast<std::uint32_t>(state_.recorder.size() %
                                                     capacity);
  } else {
    state_.recorder[state_.recorder_pos] = entry;
    state_.recorder_pos = (state_.recorder_pos + 1) % capacity;
    ++state_.recorder_overwritten;
  }
}

void IncidentEngine::emit_alert(std::uint64_t day, std::uint32_t period,
                                std::uint64_t abs_period, AlertKind kind,
                                double value, double threshold) {
  Alert alert;
  alert.seq = state_.next_alert_seq++;
  alert.day = day;
  alert.period = period;
  alert.abs_period = abs_period;
  alert.kind = kind;
  alert.value = value;
  alert.threshold = threshold;
  if (state_.alerts.size() < config_.max_alerts) {
    state_.alerts.push_back(alert);
  } else {
    ++state_.alerts_dropped;
  }
  record(abs_period, RecorderKind::kAlert,
         static_cast<double>(static_cast<std::uint8_t>(kind)), value);
  journal_record("incident.alert", static_cast<std::int64_t>(abs_period), -1,
                 to_string(kind),
                 {{"seq", static_cast<double>(alert.seq)},
                  {"value", value},
                  {"threshold", threshold},
                  {"day", static_cast<double>(day)}});
}

Incident* IncidentEngine::find_open(Objective objective) {
  for (auto it = state_.incidents.rbegin(); it != state_.incidents.rend();
       ++it) {
    if (it->objective == objective && !it->closed) return &*it;
  }
  return nullptr;
}

void IncidentEngine::open_incident(Objective objective, Severity severity,
                                   std::uint64_t day, std::uint32_t period,
                                   std::uint64_t abs_period,
                                   double burn_short, double burn_long) {
  if (find_open(objective) != nullptr) return;
  Incident incident;
  incident.id = state_.next_incident_id++;
  incident.objective = objective;
  incident.severity = severity;
  incident.open_day = day;
  incident.open_period = period;
  incident.open_abs_period = abs_period;
  incident.burn_short = burn_short;
  incident.burn_long = burn_long;
  incident.storm_blackout = state_.storm_blackout;
  incident.storm_channel = state_.storm_channel;
  incident.storm_solver = state_.storm_solver;
  incident.health = state_.health;
  incident.last_reanchor_day = state_.last_reanchor_day;
  incident.last_reanchor = state_.last_reanchor;
  state_.incidents.push_back(incident);
  record(abs_period, RecorderKind::kIncidentOpen,
         static_cast<double>(incident.id),
         static_cast<double>(static_cast<std::uint8_t>(objective)));
  journal_record(
      "incident.open", static_cast<std::int64_t>(abs_period), -1,
      std::string(to_string(objective)) + " " + to_string(severity),
      {{"id", static_cast<double>(incident.id)},
       {"severity", static_cast<double>(static_cast<std::uint8_t>(severity))},
       {"burn_short", burn_short},
       {"burn_long", burn_long},
       {"day", static_cast<double>(day)}});
  maybe_write_dump();
}

void IncidentEngine::close_incident(Objective objective,
                                    std::uint64_t abs_period) {
  Incident* open = find_open(objective);
  if (open == nullptr) return;
  open->closed = true;
  open->close_abs_period = abs_period;
  const double duration =
      static_cast<double>(abs_period - open->open_abs_period);
  record(abs_period, RecorderKind::kIncidentClose,
         static_cast<double>(open->id), duration);
  journal_record("incident.close", static_cast<std::int64_t>(abs_period), -1,
                 to_string(objective),
                 {{"id", static_cast<double>(open->id)},
                  {"duration_periods", duration}});
}

void IncidentEngine::maybe_write_dump() {
  if (config_.dump_path.empty()) return;
  const bool ok = write_dump(config_.dump_path, /*include_wall=*/false);
  journal_record("incident.dump",
                 static_cast<std::int64_t>(state_.last_abs_period), -1,
                 config_.dump_path, {{"ok", ok ? 1.0 : 0.0}});
}

void IncidentEngine::observe_period(const PeriodSignals& s) {
  state_.last_day = s.day;
  state_.last_period = s.period;
  state_.last_abs_period = s.abs_period;

  // Attribution memory first: an alert emitted this period should snapshot
  // this period's regime/health state.
  state_.storm_blackout = s.storm_blackout;
  state_.storm_channel = s.storm_channel;
  state_.storm_solver = s.storm_solver;
  state_.health = s.health;

  // Health-FSM edge trigger: any rung change alerts immediately.
  if (state_.has_prev_health && state_.prev_health != s.health) {
    record(s.abs_period, RecorderKind::kHealthEdge,
           static_cast<double>(static_cast<std::uint8_t>(state_.prev_health)),
           static_cast<double>(static_cast<std::uint8_t>(s.health)));
    emit_alert(s.day, s.period, s.abs_period, AlertKind::kHealthEdge,
               static_cast<double>(static_cast<std::uint8_t>(s.health)),
               static_cast<double>(
                   static_cast<std::uint8_t>(state_.prev_health)));
  }
  state_.prev_health = s.health;
  state_.has_prev_health = true;

  // Measurement stream: a blackout period scores 1, a repaired/partially
  // lost one 0.5 (the guard absorbed it, but the loop ran on synthesized
  // data).
  const double x_meas =
      s.measurement_gap
          ? 1.0
          : ((s.measurement_repaired || s.lost_stripes > 0) ? 0.5 : 0.0);
  if (x_meas > 0.0) {
    record(s.abs_period, RecorderKind::kDisturbance, x_meas,
           static_cast<double>(s.lost_stripes));
  }
  const double s_meas =
      state_.cusum_measurement.update(x_meas, config_.cusum_k, config_.cusum_h);
  if (s_meas >= config_.cusum_h) {
    emit_alert(s.day, s.period, s.abs_period, AlertKind::kMeasurementCusum,
               s_meas, config_.cusum_h);
  }

  // Price-channel stream: fraction of the fan-out that failed or served
  // stale this period (failed attempts diluted by group count).
  const double x_chan =
      s.price_groups > 0
          ? std::min(1.0, static_cast<double>(s.failed_attempts +
                                              s.degraded_groups) /
                              static_cast<double>(s.price_groups))
          : 0.0;
  if (s.failed_attempts + s.degraded_groups > 0) {
    record(s.abs_period, RecorderKind::kChannelDegraded,
           static_cast<double>(s.failed_attempts),
           static_cast<double>(s.degraded_groups));
  }
  const double s_chan = state_.cusum_channel.update(
      x_chan, config_.channel_cusum_k, config_.channel_cusum_h);
  if (s_chan >= config_.channel_cusum_h) {
    emit_alert(s.day, s.period, s.abs_period, AlertKind::kChannelCusum,
               s_chan, config_.channel_cusum_h);
  }

  // Solver stream: starved re-pricing solves are rare and binary.
  if (s.solver_starved) {
    record(s.abs_period, RecorderKind::kSolverStarved, 1.0, 0.0);
  }
  const double s_solv = state_.cusum_solver.update(
      s.solver_starved ? 1.0 : 0.0, config_.cusum_k, config_.cusum_h);
  if (s_solv >= config_.cusum_h) {
    emit_alert(s.day, s.period, s.abs_period, AlertKind::kSolverCusum,
               s_solv, config_.cusum_h);
  }

  // SLO: loop-disturbance burn rate. A period is bad when its telemetry
  // was disturbed in any of the three ways the detectors watch.
  const bool bad =
      s.measurement_gap || s.solver_starved || s.degraded_groups > 0;
  const std::uint32_t long_window =
      static_cast<std::uint32_t>(state_.slo_window.size());
  state_.slo_window[state_.slo_pos] = bad ? 1 : 0;
  state_.slo_pos = (state_.slo_pos + 1) % long_window;
  if (state_.slo_filled < long_window) ++state_.slo_filled;

  if (state_.slo_filled >= long_window) {
    const std::uint32_t short_window =
        std::min(config_.slo_short_window, long_window);
    std::uint32_t bad_long = 0;
    std::uint32_t bad_short = 0;
    for (std::uint32_t i = 0; i < long_window; ++i) {
      // Walk backwards from the newest bit (just written at slo_pos - 1).
      const std::uint32_t idx =
          (state_.slo_pos + long_window - 1 - i) % long_window;
      bad_long += state_.slo_window[idx];
      if (i < short_window) bad_short += state_.slo_window[idx];
    }
    const double burn_short =
        short_window > 0
            ? static_cast<double>(bad_short) / short_window
            : 0.0;
    const double burn_long = static_cast<double>(bad_long) / long_window;
    Incident* open = find_open(Objective::kLoopDisturbance);
    if (open == nullptr) {
      if (burn_short >= config_.slo_short_burn &&
          burn_long >= config_.slo_long_burn) {
        Severity severity = Severity::kMinor;
        if (burn_long >= 2.0 * config_.slo_long_burn) {
          severity = Severity::kCritical;
        } else if (burn_short >= 1.0) {
          severity = Severity::kMajor;
        }
        open_incident(Objective::kLoopDisturbance, severity, s.day, s.period,
                      s.abs_period, burn_short, burn_long);
      }
    } else if (burn_short == 0.0) {
      // Hysteresis: close only once the short window is fully clean.
      close_incident(Objective::kLoopDisturbance, s.abs_period);
    }
  }
}

void IncidentEngine::observe_settle(const SettleSignals& s) {
  ++state_.settles_seen;
  record(s.abs_period, RecorderKind::kSettle, s.budget_spent,
         s.books_held ? -1.0 : s.budget_pool);
  if (s.books_held) return;  // blackout hold: the books are frozen, not late
  if (s.budget_pool <= 0.0) return;  // unbudgeted mechanism
  if (state_.settles_seen <= config_.pacing_grace_days) return;
  const double ratio = s.budget_spent / s.budget_pool;
  if (ratio > config_.pacing_max_ratio) {
    emit_alert(s.day, kDayScopedPeriod, s.abs_period,
               AlertKind::kPacingBound, ratio, config_.pacing_max_ratio);
    open_incident(Objective::kPacing,
                  ratio >= 2.0 * config_.pacing_max_ratio
                      ? Severity::kCritical
                      : Severity::kMajor,
                  s.day, kDayScopedPeriod, s.abs_period, ratio,
                  config_.pacing_max_ratio);
  } else {
    close_incident(Objective::kPacing, s.abs_period);
  }
}

void IncidentEngine::observe_day(const DaySignals& s) {
  ++state_.days_seen;
  const double reduction = s.peak_to_average_tip - s.peak_to_average_tdp;
  record(s.abs_period, RecorderKind::kDayEnd, reduction,
         static_cast<double>(s.fallback_periods));

  // Re-anchor attribution (before z-scores so a same-day alert sees it).
  ReanchorState decision = ReanchorState::kNone;
  if (s.estimation_frozen) {
    decision = ReanchorState::kFrozen;
  } else if (s.reanchor_rolled_back) {
    decision = ReanchorState::kRolledBack;
  } else if (s.reanchored) {
    decision = ReanchorState::kAdopted;
  } else if (s.reanchor_deferred) {
    decision = ReanchorState::kDeferred;
  }
  if (decision != ReanchorState::kNone) {
    state_.last_reanchor_day = static_cast<std::int64_t>(s.day);
    state_.last_reanchor = decision;
    record(s.abs_period, RecorderKind::kReanchor,
           static_cast<double>(static_cast<std::int8_t>(decision)),
           static_cast<double>(s.day));
  }

  // EWMA z-scores on the day-end shape metrics.
  const double z_p2a =
      state_.ewma_p2a.update(reduction, config_.ewma_alpha,
                             config_.ewma_min_days);
  if (std::abs(z_p2a) >= config_.ewma_z) {
    emit_alert(s.day, kDayScopedPeriod, s.abs_period, AlertKind::kP2aZScore,
               z_p2a, config_.ewma_z);
  }
  const double z_peak =
      state_.ewma_peak.update(s.peak_realized_units, config_.ewma_alpha,
                              config_.ewma_min_days);
  if (std::abs(z_peak) >= config_.ewma_z) {
    emit_alert(s.day, kDayScopedPeriod, s.abs_period, AlertKind::kPeakZScore,
               z_peak, config_.ewma_z);
  }

  // SLO: fallback budget per day.
  if (config_.slo_max_fallback_per_day != ~0ull) {
    if (s.fallback_periods > config_.slo_max_fallback_per_day) {
      open_incident(Objective::kFallbackBudget,
                    s.fallback_periods > 2 * config_.slo_max_fallback_per_day
                        ? Severity::kCritical
                        : Severity::kMajor,
                    s.day, kDayScopedPeriod, s.abs_period,
                    static_cast<double>(s.fallback_periods),
                    static_cast<double>(config_.slo_max_fallback_per_day));
    } else {
      close_incident(Objective::kFallbackBudget, s.abs_period);
    }
  }

  // SLO: P2A-reduction floor over the trailing window.
  if (config_.slo_p2a_floor > 0.0 && config_.slo_p2a_window_days > 0) {
    state_.p2a_window.push_back(reduction);
    if (state_.p2a_window.size() > config_.slo_p2a_window_days) {
      state_.p2a_window.erase(state_.p2a_window.begin());
    }
    if (state_.p2a_window.size() == config_.slo_p2a_window_days) {
      double mean = 0.0;
      for (double v : state_.p2a_window) mean += v;
      mean /= static_cast<double>(state_.p2a_window.size());
      if (mean < config_.slo_p2a_floor) {
        open_incident(Objective::kP2aRegression,
                      mean < 0.5 * config_.slo_p2a_floor ? Severity::kCritical
                                                         : Severity::kMajor,
                      s.day, kDayScopedPeriod, s.abs_period, mean,
                      config_.slo_p2a_floor);
      } else {
        close_incident(Objective::kP2aRegression, s.abs_period);
      }
    }
  }
}

void IncidentEngine::note_commit_latency(double seconds) {
  if (wall_commit_latencies_.size() < 4096) {
    wall_commit_latencies_.push_back(seconds);
  }
  if (seconds > config_.commit_latency_budget_seconds) {
    journal_record("incident.advisory",
                   static_cast<std::int64_t>(state_.last_abs_period), -1,
                   "checkpoint commit over latency budget",
                   {{"seconds", seconds},
                    {"budget_seconds", config_.commit_latency_budget_seconds}});
  }
}

void IncidentEngine::restore_state(EngineState state) {
  // The decoder bounds recorder_pos by the ring's size; a full ring also
  // needs it inside the ring, or the next record() writes past it.
  TDP_REQUIRE(state.recorder.size() <
                      std::max<std::uint32_t>(1, config_.recorder_capacity) ||
                  state.recorder_pos < state.recorder.size(),
              "incident recorder position outside its full ring");
  state_ = std::move(state);
  if (state_.slo_window.empty()) {
    state_.slo_window.assign(
        std::max<std::uint32_t>(1, config_.slo_long_window), 0);
  }
}

std::vector<std::uint8_t> IncidentEngine::dump(bool include_wall) const {
  DumpData data;
  data.day = state_.last_day;
  data.period = state_.last_period;
  data.has_wall = include_wall;
  data.config = config_;
  data.state = state_;
  if (include_wall) {
    Snapshot snapshot = Registry::global().snapshot();
    for (const Snapshot::CounterRow& row : snapshot.counters) {
      if (row.name.size() > 3 &&
          row.name.compare(row.name.size() - 3, 3, "_ns") == 0) {
        data.wall_counters.emplace_back(row.name, row.value);
      }
    }
    std::sort(data.wall_counters.begin(), data.wall_counters.end());
    data.wall_commit_latencies = wall_commit_latencies_;
  }
  return encode_dump(data);
}

bool IncidentEngine::write_dump(const std::string& path,
                                bool include_wall) const {
  const std::vector<std::uint8_t> bytes = dump(include_wall);
  return write_file(path, bytes.data(), bytes.size());
}

}  // namespace tdp::obs::incident
