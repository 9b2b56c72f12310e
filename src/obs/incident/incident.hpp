// Incident engine: deterministic anomaly detection, SLO burn-rate alerts,
// and a flight recorder for the TDP control loop (DESIGN.md §16).
//
// The telemetry substrate (obs::Registry / Journal / trace) answers "how
// many" and "what happened"; this layer answers "is the loop healthy, and
// if not, since when and why". It is wired through FleetDriver and
// MultiDayDriver as a pure observer: the drivers feed it one PeriodSignals
// per simulated period, one SettleSignals per mechanism settle, and one
// DaySignals per finished day — every field a deterministic aggregate the
// driver already computed — and the engine turns them into
//
//   * alerts       detector firings (EWMA z-scores on day-end P2A and peak
//                  demand, CUSUM accumulators on the measurement / price-
//                  channel / solver disturbance streams, health-FSM edge
//                  triggers, rebate pacing bound), each a pure function of
//                  the signal sequence;
//   * incidents    SLO objectives tracked via multi-window burn rates
//                  (short window catches the spike, long window proves it
//                  is not a blip), opened/closed with severity and an
//                  attribution snapshot (active storm regimes, health-FSM
//                  state, last re-anchor decision);
//   * a recorder   bounded ring of recent control-loop moments, snapshotted
//                  into a self-contained dump ("TDPI" framing of
//                  common/serialize) whenever an incident opens or the
//                  caller aborts — tools/tdp_triage.py renders it.
//
// Determinism contract: everything above except the wall-clock extras is a
// pure function of the observed signal sequence, so the alert stream, the
// incident list, and dump(include_wall=false) bytes are bitwise identical
// across thread counts, shard layouts, and kill/restore at any period
// boundary (the engine state serializes into checkpoint section
// kSecIncident). Wall-clock inputs — checkpoint-commit latency, per-phase
// timings — are advisory only: they surface as "incident.advisory" journal
// events and an optional dump section, never in the deterministic streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "obs/incident/detectors.hpp"

namespace tdp::obs::incident {

/// The pricer health ladder as the engine sees it. Mirrors
/// dynamic/online_pricer.hpp's PricerHealth without depending on it: the
/// engine sits below the pricing layers and drivers map the enum over.
enum class Health : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kFallback = 2,
};

const char* to_string(Health health);

/// Detector thresholds and SLO objectives. Every field above the
/// execution-knob divider is determinism-relevant: it shapes the alert
/// stream, is echoed into checkpoints, and restore rejects mismatches.
struct IncidentConfig {
  bool enabled = false;

  // -- CUSUM disturbance detectors (per period) ---------------------------
  // S = max(0, S + x - k), alert and reset when S >= h. The drift k absorbs
  // the i.i.d. chaos floor; h is low enough that one fully-disturbed
  // period (x = 1) fires — storm bursts can be a single period long and
  // the acceptance gate requires catching every onset.
  double cusum_k = 0.25;
  double cusum_h = 0.7;
  /// Channel stream sensitivity: the failed-attempt fraction is diluted by
  /// group count, so the channel CUSUM gets its own (lower) drift/threshold.
  double channel_cusum_k = 0.10;
  double channel_cusum_h = 0.10;

  // -- EWMA z-score detectors (per day) -----------------------------------
  double ewma_alpha = 0.3;          ///< weight of the newest day
  double ewma_z = 4.0;              ///< |z| that fires an alert
  std::uint64_t ewma_min_days = 3;  ///< warmup before z is meaningful

  // -- rebate pacing bound (per settle) -----------------------------------
  double pacing_max_ratio = 1.5;        ///< spend / pool ceiling
  std::uint64_t pacing_grace_days = 2;  ///< settles before the bound arms

  // -- SLO: loop-disturbance burn rate (per period) -----------------------
  // A period is "bad" when its telemetry was disturbed (gap, stale price
  // service, or a starved solve). The objective opens an incident when the
  // bad fraction clears both burn thresholds at once.
  std::uint32_t slo_short_window = 4;
  std::uint32_t slo_long_window = 16;
  double slo_short_burn = 1.0;  ///< bad fraction over the short window
  double slo_long_burn = 0.30;  ///< bad fraction over the long window

  // -- SLO: fallback budget (per day) -------------------------------------
  /// Max channel fallback group-periods per day (DaySignals::
  /// fallback_periods) before the objective opens (the "fallback periods
  /// <= Y/day" objective). ~0 disables.
  std::uint64_t slo_max_fallback_per_day = ~0ull;

  // -- SLO: P2A-reduction floor (per day, trailing window) ----------------
  /// Open when the mean day-end P2A reduction over the trailing window
  /// falls below this floor ("P2A reduction >= X over any W-day window").
  /// 0 disables.
  double slo_p2a_floor = 0.0;
  std::uint32_t slo_p2a_window_days = 8;

  // -- bounded retention --------------------------------------------------
  std::uint32_t recorder_capacity = 256;  ///< flight-recorder ring slots
  std::uint32_t max_alerts = 4096;        ///< retained alerts; then drops

  // -- execution knobs (never config-echoed; wall-clock / I/O only) -------
  /// Checkpoint-commit latency budget; slower commits emit an advisory
  /// journal event (wall clock — advisory only, see header comment).
  double commit_latency_budget_seconds = 0.25;
  /// When non-empty, every incident.open rewrites a flight-recorder dump
  /// at this path (deterministic sections only; pass include_wall=true to
  /// write_dump for the timing extras).
  std::string dump_path;
};

/// What one detector firing looked like.
enum class AlertKind : std::uint8_t {
  kMeasurementCusum = 0,  ///< measurement gaps / repairs / lost stripes
  kChannelCusum = 1,      ///< price-channel drops and stale service
  kSolverCusum = 2,       ///< starved re-pricing solves
  kHealthEdge = 3,        ///< health-FSM left or re-entered HEALTHY
  kP2aZScore = 4,         ///< day-end P2A reduction z-score
  kPeakZScore = 5,        ///< day-end realized peak z-score
  kPacingBound = 6,       ///< rebate spend vs pool pacing bound
};

const char* to_string(AlertKind kind);

/// Alert::period value for day-scoped alerts (settle / day-end detectors
/// have no single period of their own).
inline constexpr std::uint32_t kDayScopedPeriod = 0xFFFFFFFFu;

struct Alert {
  std::uint64_t seq = 0;  ///< position in the deterministic alert stream
  std::uint64_t day = 0;
  std::uint32_t period = 0;
  std::uint64_t abs_period = 0;
  AlertKind kind = AlertKind::kMeasurementCusum;
  double value = 0.0;      ///< the statistic that fired (S, z, ratio...)
  double threshold = 0.0;  ///< the configured bound it crossed

  bool operator==(const Alert&) const = default;
};

enum class Severity : std::uint8_t { kMinor = 0, kMajor = 1, kCritical = 2 };
enum class Objective : std::uint8_t {
  kLoopDisturbance = 0,
  kFallbackBudget = 1,
  kP2aRegression = 2,
  kPacing = 3,
};
inline constexpr std::size_t kObjectiveCount = 4;

const char* to_string(Severity severity);
const char* to_string(Objective objective);

/// The last re-anchor decision the engine heard about (attribution).
enum class ReanchorState : std::int8_t {
  kNone = -1,
  kAdopted = 0,
  kDeferred = 1,
  kRolledBack = 2,
  kFrozen = 3,
};

struct Incident {
  std::uint64_t id = 0;
  Objective objective = Objective::kLoopDisturbance;
  Severity severity = Severity::kMinor;
  std::uint64_t open_day = 0;
  std::uint32_t open_period = 0;
  std::uint64_t open_abs_period = 0;
  bool closed = false;
  std::uint64_t close_abs_period = 0;
  double burn_short = 0.0;  ///< short-window burn at open
  double burn_long = 0.0;   ///< long-window burn at open

  // -- attribution snapshot at open ---------------------------------------
  bool storm_blackout = false;  ///< blackout regime ON at open
  bool storm_channel = false;   ///< channel regime ON at open
  bool storm_solver = false;    ///< solver regime ON at open
  Health health = Health::kHealthy;
  std::int64_t last_reanchor_day = -1;
  ReanchorState last_reanchor = ReanchorState::kNone;

  bool operator==(const Incident&) const = default;
};

/// One flight-recorder moment (compact: a kind and two values).
enum class RecorderKind : std::uint8_t {
  kDisturbance = 0,    ///< a = gap(1)/repair(0.5), b = lost stripes
  kChannelDegraded = 1,///< a = failed attempts, b = degraded groups
  kSolverStarved = 2,  ///< a/b unused
  kHealthEdge = 3,     ///< a = from, b = to
  kAlert = 4,          ///< a = AlertKind, b = value
  kIncidentOpen = 5,   ///< a = id, b = Objective
  kIncidentClose = 6,  ///< a = id, b = open duration in periods
  kSettle = 7,         ///< a = budget spent, b = pool (b < 0: books held)
  kDayEnd = 8,         ///< a = p2a reduction, b = fallback periods
  kReanchor = 9,       ///< a = ReanchorState, b = day
};

const char* to_string(RecorderKind kind);

struct RecorderEntry {
  std::uint64_t abs_period = 0;
  RecorderKind kind = RecorderKind::kDisturbance;
  double a = 0.0;
  double b = 0.0;

  bool operator==(const RecorderEntry&) const = default;
};

// ---------------------------------------------------------------------------
// Driver-fed signals. Every field is a deterministic aggregate — never a
// gated obs counter, so the alert stream is identical under TDP_OBS=0.

struct PeriodSignals {
  std::uint64_t day = 0;
  std::uint32_t period = 0;
  std::uint64_t abs_period = 0;
  double offered_units = 0.0;
  double realized_units = 0.0;
  bool measurement_gap = false;       ///< aggregate sample never arrived
  bool measurement_repaired = false;  ///< guard synthesized/clamped it
  std::uint64_t lost_stripes = 0;     ///< measurement stripes lost
  std::uint64_t price_groups = 0;     ///< fan-out groups serving the fleet
  std::uint64_t failed_attempts = 0;  ///< price fetch attempts dropped
  std::uint64_t degraded_groups = 0;  ///< groups serving stale/fallback
  bool solver_starved = false;        ///< re-pricing solve budget cut
  Health health = Health::kHealthy;
  bool storm_blackout = false;  ///< ground-truth regime state (attribution)
  bool storm_channel = false;
  bool storm_solver = false;
};

struct SettleSignals {
  std::uint64_t day = 0;
  std::uint64_t abs_period = 0;  ///< last period of the settled day
  bool schedule_changed = false;
  bool books_held = false;  ///< blackout hold: pacing is frozen, not judged
  double budget_spent = 0.0;
  double budget_pool = 0.0;  ///< 0 = unbudgeted mechanism
};

struct DaySignals {
  std::uint64_t day = 0;
  std::uint64_t abs_period = 0;  ///< last period of the day
  double peak_to_average_tip = 0.0;
  double peak_to_average_tdp = 0.0;
  double peak_realized_units = 0.0;
  /// Price-channel fallback group-periods over the day: summed over
  /// periods, the fan-out groups served the channel's fallback schedule
  /// (SubscriberTelemetry::fallback_periods). Not the pricer FSM's
  /// FALLBACK periods (horizon::DayMetrics::fallback_periods).
  std::uint64_t fallback_periods = 0;
  bool estimation_frozen = false;
  bool reanchored = false;
  bool reanchor_deferred = false;
  bool reanchor_rolled_back = false;
};

// ---------------------------------------------------------------------------

/// The complete serializable engine state — everything the observe_* calls
/// mutate. Checkpoints embed it (section kSecIncident) so a restored run
/// continues the alert stream bitwise; dumps embed it so triage sees the
/// exact detector posture at the moment of capture.
struct EngineState {
  std::uint64_t next_alert_seq = 0;
  std::uint64_t alerts_dropped = 0;
  std::vector<Alert> alerts;

  std::uint64_t next_incident_id = 0;
  std::vector<Incident> incidents;

  CusumDetector cusum_measurement;
  CusumDetector cusum_channel;
  CusumDetector cusum_solver;
  EwmaDetector ewma_p2a;
  EwmaDetector ewma_peak;

  bool has_prev_health = false;
  Health prev_health = Health::kHealthy;

  /// Loop-disturbance burn window: ring of the last slo_long_window
  /// bad/good bits.
  std::vector<std::uint8_t> slo_window;
  std::uint32_t slo_pos = 0;
  std::uint64_t slo_filled = 0;

  /// Trailing day-end P2A reductions for the P2A-floor objective.
  std::vector<double> p2a_window;

  std::uint64_t settles_seen = 0;
  std::uint64_t days_seen = 0;

  // Last observed position (dump metadata).
  std::uint64_t last_day = 0;
  std::uint32_t last_period = 0;
  std::uint64_t last_abs_period = 0;

  // Attribution memory (refreshed every period / day).
  bool storm_blackout = false;
  bool storm_channel = false;
  bool storm_solver = false;
  Health health = Health::kHealthy;
  std::int64_t last_reanchor_day = -1;
  ReanchorState last_reanchor = ReanchorState::kNone;

  /// Flight-recorder ring, chronological; overwrites oldest past capacity.
  std::vector<RecorderEntry> recorder;
  std::uint32_t recorder_pos = 0;
  std::uint64_t recorder_overwritten = 0;
};

/// Serialize/parse the engine state field-for-field (shared by the
/// checkpoint section and the dump). read_state validates every enum and
/// count against the remaining payload; failures are ser::FormatError.
void write_state(ser::Writer& w, const EngineState& state);
EngineState read_state(ser::Reader& r);

/// Serialize/parse the determinism-relevant config echo (checkpoint and
/// dump both carry it so a restore or a triage run knows the thresholds).
void write_config_echo(ser::Writer& w, const IncidentConfig& config);
IncidentConfig read_config_echo(ser::Reader& r);

/// True when every determinism-relevant field matches (execution knobs —
/// dump_path, commit latency budget — excluded).
bool config_echo_matches(const IncidentConfig& a, const IncidentConfig& b);

class IncidentEngine {
 public:
  explicit IncidentEngine(IncidentConfig config);

  const IncidentConfig& config() const { return config_; }

  /// Feed one simulated period's aggregates (call once per period, after
  /// the period's pricer observation settled).
  void observe_period(const PeriodSignals& s);

  /// Feed one mechanism settle (call once per settled day).
  void observe_settle(const SettleSignals& s);

  /// Feed one finished day's shape metrics (call after settle).
  void observe_day(const DaySignals& s);

  /// Wall-clock advisory: a streamed checkpoint commit took `seconds`.
  /// Emits an "incident.advisory" journal event past the budget; never
  /// touches the deterministic streams.
  void note_commit_latency(double seconds);

  // -- the deterministic streams ------------------------------------------
  const std::vector<Alert>& alerts() const { return state_.alerts; }
  std::uint64_t alerts_emitted() const { return state_.next_alert_seq; }
  std::uint64_t alerts_dropped() const { return state_.alerts_dropped; }
  const std::vector<Incident>& incidents() const { return state_.incidents; }
  std::uint64_t incidents_opened() const { return state_.next_incident_id; }
  std::uint64_t incidents_closed() const;
  std::uint64_t open_incidents() const;

  /// Recorder entries in chronological order (unwound from the ring).
  std::vector<RecorderEntry> recorder() const;

  // -- flight-recorder dump ("TDPI") --------------------------------------
  /// Self-contained snapshot: config echo, engine state, and (optionally)
  /// the wall-clock extras — per-phase timings read from the global
  /// registry plus commit-latency advisories. include_wall=false bytes are
  /// bitwise deterministic.
  std::vector<std::uint8_t> dump(bool include_wall = false) const;
  bool write_dump(const std::string& path, bool include_wall = false) const;

  // -- checkpoint plumbing ------------------------------------------------
  const EngineState& state() const { return state_; }
  void restore_state(EngineState state);

 private:
  void emit_alert(std::uint64_t day, std::uint32_t period,
                  std::uint64_t abs_period, AlertKind kind, double value,
                  double threshold);
  void open_incident(Objective objective, Severity severity,
                     std::uint64_t day, std::uint32_t period,
                     std::uint64_t abs_period, double burn_short,
                     double burn_long);
  void close_incident(Objective objective, std::uint64_t abs_period);
  Incident* find_open(Objective objective);
  void record(std::uint64_t abs_period, RecorderKind kind, double a,
              double b);
  void maybe_write_dump();

  IncidentConfig config_;
  EngineState state_;
  /// Wall-clock advisory samples — deliberately OUTSIDE EngineState: they
  /// are machine-dependent, never checkpointed, never compared.
  std::vector<double> wall_commit_latencies_;
};

/// Parsed dump (tests and tooling).
struct DumpData {
  std::uint64_t day = 0;
  std::uint32_t period = 0;
  bool has_wall = false;
  IncidentConfig config;
  EngineState state;
  /// Wall extras (absent when has_wall is false): every registry counter
  /// whose name ends in "_ns" (per-phase timings), name-sorted, plus the
  /// commit-latency advisory samples.
  std::vector<std::pair<std::string, std::uint64_t>> wall_counters;
  std::vector<double> wall_commit_latencies;
};

inline constexpr char kDumpMagic[] = "TDPI";
inline constexpr std::uint32_t kDumpVersion = 1;

std::vector<std::uint8_t> encode_dump(const DumpData& data);
DumpData decode_dump(const std::uint8_t* data, std::size_t size);
DumpData decode_dump(const std::vector<std::uint8_t>& bytes);

}  // namespace tdp::obs::incident
