// The long-horizon checkpoint format (DESIGN.md §12).
//
// A checkpoint is a full snapshot of the control-loop state at a period
// boundary: the simulated clock, every canonical slice's deferral rings,
// the price channel and fan-out caches, the measurement guard, the online
// pricer (rewards, demand volumes, health ladder) and its model source,
// the estimator's sliding window, completed and in-progress day metrics,
// and the observability counters. A run killed after writing one and
// restored from it is bitwise identical to the uninterrupted run — under
// any shard or thread count that groups whole slices.
//
// Encoding: the versioned little-endian framing of common/serialize.hpp —
// magic "TDPC", tagged sections, CRC-32 trailer. decode() is safe on
// hostile bytes: every failure is a ser::FormatError, never UB (fuzzed in
// tests/test_horizon.cpp).
//
// Versioning (DESIGN.md §14): the writer emits format version 1 unless the
// run actually uses a storm-mode feature (storm regimes, guard carry
// floor, health-gated re-anchoring) — then it emits version 2, which
// appends one extra section (kSecStorm) that version-1 readers skip under
// the unknown-tag policy. Legacy configurations therefore keep producing
// byte-identical v1 checkpoints (golden-fixture tripwire), and v1 files
// decode into the v2 defaults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "dynamic/online_pricer.hpp"
#include "fleet/control_loop.hpp"
#include "horizon/horizon_metrics.hpp"
#include "math/vector_ops.hpp"
#include "mech/mechanism.hpp"
#include "obs/incident/incident.hpp"
#include "tube/measurement_guard.hpp"
#include "tube/price_channel.hpp"

namespace tdp::horizon {

inline constexpr char kCheckpointMagic[] = "TDPC";
/// Newest format this build writes; emitted only when a v2 feature is in
/// use (see the versioning note above).
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// How the pricer's *baseline* fluid model is rebuilt on restore.
enum class ModelSource : std::uint32_t {
  kBaseline = 0,   ///< population-derived (fleet::baseline_fluid_model)
  kEstimated = 1,  ///< rebuilt from a tied §IV estimate (beta + volumes)
};

/// One day of fleet aggregates retained for online §IV estimation.
struct DayRecord {
  math::Vector rewards;            ///< published reward per period
  math::Vector usage_change;       ///< T_i = offered - realized, demand units
  std::vector<double> tip_demand;  ///< offered (TIP) demand units per period
};

/// The complete serializable state of a MultiDayDriver: the period loop's
/// state (clock, per-slice rings, channel, fan-out, guard) plus the rest.
struct CheckpointData : fleet::LoopState {
  // -- configuration echo (determinism-relevant; validated on restore) ----
  std::uint64_t users = 0;
  std::uint32_t periods = 0;
  std::uint64_t population_seed = 0;
  double sessions_per_day = 0.0;
  std::uint64_t slices = 0;  ///< canonical layout; restore reuses this
  std::uint32_t warmup_days = 0;
  std::uint32_t horizon_days = 0;
  bool online_pricing = true;
  bool estimation = false;
  std::uint32_t estimation_window = 0;
  std::uint32_t estimation_min_days = 0;
  std::uint32_t estimation_starts = 0;
  bool reanchor = false;
  FaultPlan fault;  ///< full plan, drift + storm fields included
  std::uint64_t staleness_ttl = 0;
  std::uint64_t max_retries = 0;
  double max_spike_factor = 0.0;
  std::uint64_t max_carry_forward = 0;

  // -- storm-mode extensions (kSecStorm; serialized only at version 2) ----
  // Config echo: the guard's carry floor and the health-gate knobs.
  double carry_floor_fraction = 0.5;
  bool estimation_health_gate = false;
  std::uint64_t reanchor_healthy_periods = 0;
  bool reanchor_objective_guard = false;
  double reanchor_guard_tolerance = 0.0;
  // State: the re-anchor hysteresis counter (always 0 when ungated).
  std::uint64_t healthy_streak_periods = 0;

  // -- online pricer and its model source ---------------------------------
  OnlinePricerState pricer;
  ModelSource model_source = ModelSource::kBaseline;
  double model_beta = 0.0;                ///< kEstimated only
  std::vector<double> model_volumes;      ///< kEstimated only, per period

  // -- pricing mechanism (DESIGN.md §13) ----------------------------------
  // Serialized as an optional section: checkpoints written under the
  // default TubeOnline mechanism with no user adaptation omit it and stay
  // byte-identical to the pre-arena format (golden-fixture compatibility).
  std::uint32_t mechanism_kind = 0;  ///< mech::MechanismKind
  double rebate_pool = 0.0;
  double rebate_share_blend = 0.0;
  double rebate_inflow_floor = 0.0;
  bool oracle_refine = true;
  double oracle_capacity_target = 0.85;
  mech::MechanismState mech_state;  ///< non-TubeOnline internal state
  bool adaptive_users = false;
  double adaptation_rate = 0.0;
  double adaptation_gain = 0.0;
  std::vector<double> adapt_scale;  ///< per-class patience scale (EWMA)

  // -- online estimation sliding window -----------------------------------
  std::vector<DayRecord> window;

  // -- metrics ------------------------------------------------------------
  std::vector<DayMetrics> completed_days;
  DayMetrics partial;  ///< current day's accumulators
  math::Vector prev_day_start_rewards;
  bool has_prev_day_start = false;

  // -- incident engine (kSecIncident; serialized only when enabled) -------
  // Config echo (restore rejects threshold mismatches — they would fork
  // the alert stream) plus the complete engine state, so a restored run
  // continues the deterministic alert/incident streams bitwise.
  bool incident_enabled = false;
  obs::incident::IncidentConfig incident_config;
  obs::incident::EngineState incident;
  /// The current day's channel fallback group-periods so far — the
  /// engine's fallback-budget input at day end
  /// (fleet::ControlLoop::day_channel_fallbacks). Trails the engine state;
  /// a section without it decodes as 0.
  std::uint64_t day_channel_fallback_periods = 0;

  // -- observability counters (name, merged value) ------------------------
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Serialize to the framed byte format.
std::vector<std::uint8_t> encode(const CheckpointData& data);

/// Parse framed bytes. Throws ser::FormatError on any structural problem —
/// corruption, truncation, or version/magic mismatch — never crashes.
CheckpointData decode(const std::uint8_t* data, std::size_t size);
CheckpointData decode(const std::vector<std::uint8_t>& bytes);

/// File convenience wrappers (binary, whole-buffer). save throws tdp::Error
/// on I/O failure; load throws tdp::Error on I/O failure and
/// ser::FormatError on bad content.
void save_checkpoint_file(const std::string& path, const CheckpointData& data);
CheckpointData load_checkpoint_file(const std::string& path);

}  // namespace tdp::horizon
