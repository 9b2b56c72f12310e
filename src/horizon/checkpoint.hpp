// The long-horizon checkpoint format (DESIGN.md §12).
//
// A checkpoint is a full snapshot of the control-loop state at a period
// boundary: the simulated clock, every canonical slice's deferral rings,
// the price channel and fan-out caches, the measurement guard, the online
// pricer (rewards, demand volumes, health ladder) and its model source,
// the estimator's sliding window, and completed and in-progress day
// metrics — the run's state and nothing of the process, so the same run
// checkpoints to the same bytes whatever else ran before it. A run killed
// after writing one and restored from it is bitwise identical to the
// uninterrupted run — under any shard or thread count that groups whole
// slices.
//
// Encoding: the versioned little-endian framing of common/serialize.hpp —
// magic "TDPC", tagged sections, CRC-32 trailer. decode() is safe on
// hostile bytes: every failure is a ser::FormatError, and whatever it
// accepts has the shapes restore indexes by — ring and per-period vector
// lengths, clock in range (fuzzed with the CRC re-sealed in
// tests/test_horizon.cpp).
//
// Versioning (DESIGN.md §14): the writer always emits format version 2,
// with the mechanism (kSecMech) and storm (kSecStorm) sections on every
// run; version-1 readers skip the v2-only sections under the unknown-tag
// policy. Version-1 files are read, never written: the echo fields of the
// sections they lack decode to HorizonConfig's own defaults, and the state
// fields to the CheckpointData defaults below. The retired counter table
// (tag 11) that v1 and older v2 files carry is skipped on read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/online_pricer.hpp"
#include "fleet/control_loop.hpp"
#include "horizon/horizon_config.hpp"
#include "horizon/horizon_metrics.hpp"
#include "math/vector_ops.hpp"
#include "mech/mechanism.hpp"
#include "obs/incident/incident.hpp"
#include "tube/measurement_guard.hpp"
#include "tube/price_channel.hpp"

namespace tdp::horizon {

inline constexpr char kCheckpointMagic[] = "TDPC";
/// The format this build writes; the reader also accepts version 1.
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
  // -- configuration echo (DESIGN.md §12) ----------------------------------
  /// The run's configuration. The fields that define the experiment are
  /// encoded — each named once, in checkpoint.cpp's section field lists —
  /// and restore requires the caller's config to encode to the same bytes
  /// (echo_mismatch). Fields outside the echo (the execution knobs,
  /// pricer_guard, offline_options) decode to HorizonConfig's defaults.
  HorizonConfig config;

  // -- storm-mode state (kSecStorm) ----------------------------------------
  /// Consecutive HEALTHY periods, the re-anchor hysteresis input. A v1
  /// file has no kSecStorm, so it decodes as 0.
  std::uint64_t healthy_streak_periods = 0;

  // -- online pricer and its model source ---------------------------------
  OnlinePricerState pricer;
  ModelSource model_source = ModelSource::kBaseline;
  double model_beta = 0.0;                ///< kEstimated only
  std::vector<double> model_volumes;      ///< kEstimated only, per period

  // -- pricing mechanism (DESIGN.md §13; kSecMech) ------------------------
  mech::MechanismState mech_state;  ///< non-TubeOnline internal state
  std::vector<double> adapt_scale;  ///< per-class patience scale (EWMA)

  // -- online estimation sliding window -----------------------------------
  std::vector<DayRecord> window;

  // -- metrics ------------------------------------------------------------
  std::vector<DayMetrics> completed_days;
  DayMetrics partial;  ///< current day's accumulators
  math::Vector prev_day_start_rewards;
  bool has_prev_day_start = false;

  // -- incident engine (kSecIncident; serialized only when enabled) -------
  // The complete engine state beside config.incident's echo, so a restored
  // run continues the deterministic alert/incident streams bitwise.
  obs::incident::EngineState incident;
  /// The current day's channel fallback group-periods so far — the
  /// engine's fallback-budget input at day end
  /// (fleet::ControlLoop::day_channel_fallbacks). Trails the engine state;
  /// a section without it decodes as 0.
  std::uint64_t day_channel_fallback_periods = 0;
};

/// Serialize to the framed byte format.
std::vector<std::uint8_t> encode(const CheckpointData& data);

/// Parse framed bytes. Throws ser::FormatError on any structural problem —
/// corruption, truncation, version/magic mismatch, an out-of-range field,
/// or a ring or per-period vector whose length does not match the run —
/// never crashes.
CheckpointData decode(const std::uint8_t* data, std::size_t size);
CheckpointData decode(const std::vector<std::uint8_t>& bytes);

/// The first section whose config echo differs between `a` and `b` —
/// "config", "mechanism", "storm" or "incident" — or nullptr when every
/// echo encodes to the same bytes. Each section's echo runs the field
/// lists encode() runs; the incident echo is empty while the engine is off.
const char* echo_mismatch(const HorizonConfig& a, const HorizonConfig& b);

/// File convenience wrappers (binary, whole-buffer). save throws tdp::Error
/// on I/O failure; load throws tdp::Error on I/O failure and
/// ser::FormatError on bad content.
void save_checkpoint_file(const std::string& path, const CheckpointData& data);
CheckpointData load_checkpoint_file(const std::string& path);

}  // namespace tdp::horizon
