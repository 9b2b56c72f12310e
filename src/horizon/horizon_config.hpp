// The multi-day run's configuration (DESIGN.md §12).
//
// One struct defines a horizon run. A checkpoint carries the whole struct
// (CheckpointData::config) and encodes the fields that define the
// experiment in its kSecConfig, kSecMech, kSecStorm and kSecIncident
// sections; restore() requires the caller's config to encode to the same
// echo bytes, section by section. Not echoed: the execution knobs (shards,
// threads, the streaming knobs below, the incident engine's dump path and
// commit latency budget), and pricer_guard and offline_options, which do
// change a run (a known gap: echoing them changes the format).
#pragma once

#include <cstddef>
#include <string>

#include "fleet/control_loop.hpp"

namespace tdp::horizon {

struct HorizonConfig : fleet::LoopConfig {
  HorizonConfig() : LoopConfig(/*default_layout=*/8) {}

  // Horizon rule for the loop fields: the `fault` plan's drift_* fields
  // move the population's patience indices day by day.

  /// Measured days after the warmup days.
  std::size_t horizon_days = 7;

  /// Day-over-day user adaptation: after each settled day, every patience
  /// class's index is pulled toward a target set by the mean published
  /// reward (higher rewards -> lower beta -> more patient users). The
  /// EWMA'd scale composes multiplicatively with FaultPlan drift.
  bool adaptive_users = false;
  /// EWMA rate toward the target scale per day, in (0, 1].
  double adaptation_rate = 0.25;
  /// Sensitivity of the target scale to the mean reward.
  double adaptation_gain = 0.5;

  /// Run the §IV estimator over the sliding window after each measured day.
  bool estimation = true;
  /// Window depth in days (records beyond this age are dropped).
  std::size_t estimation_window = 5;
  /// Minimum records in the window before the first estimate.
  std::size_t estimation_min_days = 2;
  /// Multi-start count for estimate_multistart (start 0 is deterministic).
  std::size_t estimation_starts = 4;
  /// Rebuild + re-solve the pricer's fluid model from each estimate.
  bool reanchor = true;

  // -- storm-mode health gates (all off by default) -----------------------
  // The driver tracks pricer health on every run; these gates act on it.

  /// Freeze §IV re-estimation for any day during which the pricer FSM sat
  /// in FALLBACK: measurements from a fallback window describe the safety
  /// schedule's world, not the control loop's, and must never be fitted.
  bool estimation_health_gate = false;
  /// Hysteresis: re-anchor only after this many consecutive HEALTHY
  /// periods (0 = re-anchor as soon as an estimate lands, legacy).
  std::size_t reanchor_healthy_periods = 0;
  /// Guard adopt_model with a predicted-objective check: re-solve the
  /// candidate model and roll the re-fit back when its own objective says
  /// the new schedule is worse than the anchored one.
  bool reanchor_objective_guard = false;
  /// Relative slack for the objective guard: adopt while
  /// candidate_cost <= anchored_cost * (1 + tolerance).
  double reanchor_guard_tolerance = 0.0;

  // -- streaming checkpoints (execution knobs; never config-echoed) -------

  /// When non-empty, commit a v2 checkpoint to this path at period
  /// boundaries (save_checkpoint_file: atomic tmp-file/rename commits).
  std::string checkpoint_path;
  /// Commit every k-th period boundary in addition to day boundaries
  /// (0 = day boundaries only).
  std::size_t checkpoint_every_periods = 0;
};

}  // namespace tdp::horizon
