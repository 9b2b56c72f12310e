// Long-horizon operations: the multi-day control loop with online §IV
// re-estimation and versioned checkpoint/restore.
//
// A MultiDayDriver runs the shared period loop (fleet/control_loop.hpp —
// the same engine FleetDriver runs, so a clean day is bitwise FleetDriver's
// day) for many consecutive simulated days and adds only horizon work:
//
//   MultiDayDriver ── owns ──► fleet::ControlLoop
//     step_period():
//       day start   drifted lag tables, day-start reward step
//       loop        loop.step_period(drift tables)
//       health      HEALTHY streak / FALLBACK count (storm gates only)
//       day end     loop.settle_day() → adapt users → estimate/re-anchor
//                   → loop.close_day(re-anchor flags)
//       commit      streamed checkpoint at the new boundary
//
//   * Online estimation. Each finished day contributes one DayRecord of
//     fleet aggregates — published rewards, offered (TIP) demand and the
//     per-period usage change T_i = offered - realized — to a sliding
//     window. Once the window is deep enough, the §IV estimator re-fits a
//     tied patience index to the window (estimate_multistart, tied m = 1)
//     and, when re-anchoring is enabled, the pricer's fluid model is
//     rebuilt from the estimate and re-solved. The population may *drift*
//     (FaultPlan::drift_*): simulated users' patience indices move day by
//     day, and the estimator is how the control loop finds out.
//
//   * Checkpoint/restore. checkpoint() serializes the complete control-loop
//     state at any period boundary (horizon/checkpoint.hpp). restore()
//     rebuilds a driver from those bytes such that the continued run is
//     **bitwise identical** to the uninterrupted one — under any shard
//     count from 1 to the checkpointed slice count and any thread count:
//     the canonical slice layout is recorded in the checkpoint and shards
//     regroup whole slices on restore.
//
// Determinism: every DayMetrics field is a pure function of the
// configuration (population seed, fault plan, estimation settings). The
// kill-and-restore property tests compare EXPECT_EQ on raw doubles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/control_loop.hpp"
#include "horizon/checkpoint.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "horizon/horizon_metrics.hpp"

namespace tdp::horizon {

struct HorizonConfig : fleet::LoopConfig {
  HorizonConfig() : LoopConfig(/*default_shards=*/8) {}

  // Horizon rules for the loop fields: restore() reuses the checkpointed
  // `slices` (a restoring config leaves it 0 or repeats it); the `fault`
  // plan's drift_* fields move the population's patience indices day by
  // day; `incident` thresholds are config-echoed and must match on restore.

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

  // -- storm-mode health gating (all defaults preserve legacy behavior) ---

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

  /// When non-empty, stream incremental v2 checkpoints to this path at
  /// period boundaries (atomic tmp-file/rename commits).
  std::string checkpoint_path;
  /// Commit every k-th period boundary in addition to day boundaries
  /// (0 = day boundaries only).
  std::size_t checkpoint_every_periods = 0;
};

class MultiDayDriver {
 public:
  explicit MultiDayDriver(HorizonConfig config);

  /// Rebuild a driver from checkpoint bytes. The configuration must agree
  /// with the checkpoint's determinism-relevant echo (population, fault
  /// plan, estimation settings...); shards/threads are free to differ —
  /// that is the point. `restore_counters` additionally forces the global
  /// obs registry's counters to the checkpointed values (process-restart
  /// fidelity; leave off when other components share the process).
  static std::unique_ptr<MultiDayDriver> restore(HorizonConfig config,
                                                 const CheckpointData& data,
                                                 bool restore_counters = false);
  static std::unique_ptr<MultiDayDriver> restore(
      HorizonConfig config, const std::vector<std::uint8_t>& bytes,
      bool restore_counters = false);

  const fleet::Population& population() const { return loop_.population(); }
  /// The TubeOnline mechanism's online pricer. Requires the default
  /// (tube_online) mechanism; other mechanisms have no pricer.
  const OnlinePricer& pricer() const { return loop_.pricer(); }
  /// The active pricing mechanism (always present).
  const mech::PricingMechanism& mechanism() const { return loop_.mechanism(); }
  /// Per-class adaptive patience scale (all ones unless adaptive_users).
  const std::vector<double>& adaptive_scale() const { return adapt_scale_; }
  std::size_t slice_count() const { return loop_.slice_count(); }
  std::size_t shard_count() const { return loop_.shard_count(); }
  std::size_t thread_count() const { return loop_.thread_count(); }

  /// Simulated clock: the *next* period to simulate.
  std::uint64_t day() const { return loop_.day(); }
  std::size_t period() const { return loop_.period(); }
  bool done() const {
    return day() >= config_.warmup_days + config_.horizon_days;
  }

  /// Simulate exactly one period (precondition: !done()). Rolls the day
  /// over — including estimation and re-anchoring — when it was the day's
  /// last period.
  void step_period();

  /// Simulate to the end of the current day (at least one period).
  void run_day();

  /// Simulate to the end of the horizon and return the run summary.
  HorizonMetrics run();

  /// All finished days, warmup included (completed_days()[d].day == d).
  const std::vector<DayMetrics>& completed_days() const {
    return completed_days_;
  }

  /// Run summary so far (days = measured days only, warmup dropped).
  HorizonMetrics metrics() const;

  /// Serialize the complete control-loop state (period boundary).
  CheckpointData checkpoint() const;
  std::vector<std::uint8_t> checkpoint_bytes() const;

  /// The incident engine, or nullptr when not enabled.
  const obs::incident::IncidentEngine* incident_engine() const {
    return loop_.incident_engine();
  }

 private:
  struct RestoreTag {};
  MultiDayDriver(RestoreTag, HorizonConfig config, const CheckpointData& data,
                 bool restore_counters);

  /// Shared by both constructors: validates config, builds the loop's
  /// components. `slice_override` pins the canonical layout (the
  /// checkpointed value on restore; 0 = derive from config).
  MultiDayDriver(HorizonConfig config, std::size_t slice_override);

  void start_day();
  void finish_day();
  void build_drift_tables();
  /// True when any storm-mode health gate is configured. Health tracking
  /// (healthy_streak_periods_, DayMetrics::fallback_periods) runs only when
  /// gated, so ungated runs keep the new fields at zero and their
  /// checkpoints stay byte-identical to format v1.
  bool health_gated() const {
    return config_.estimation_health_gate ||
           config_.reanchor_healthy_periods > 0 ||
           config_.reanchor_objective_guard;
  }
  /// Stream a checkpoint commit if the clock warrants one.
  void maybe_stream_commit();
  /// The estimated fluid model: one tied class per period at the window's
  /// mean TIP volumes, with the baseline's capacity and cost.
  DynamicModel estimated_model(double beta,
                               const std::vector<double>& volumes) const;
  /// Baseline-or-estimated model per model_source_ (restore path).
  DynamicModel rebuild_model() const;
  /// The current day's metrics: partial_ plus the loop's day totals.
  DayMetrics current_day() const;

  HorizonConfig config_;
  /// The period loop (components, clock, day totals, incident engine).
  fleet::ControlLoop loop_;

  /// Current day's drifted lag tables (empty = no drift, use the
  /// population's own). Rebuilt each day, never serialized.
  std::vector<UniformLagWeightTable> drift_tables_;

  /// Per-class adaptive patience scale (EWMA; all ones when adaptation is
  /// off). Composes multiplicatively with the injector's drift scale.
  std::vector<double> adapt_scale_;

  // Online estimation state.
  std::vector<DayRecord> window_;
  ModelSource model_source_ = ModelSource::kBaseline;
  double model_beta_ = 0.0;
  std::vector<double> model_volumes_;

  /// Consecutive HEALTHY periods (tracked only when health_gated()).
  std::uint64_t healthy_streak_periods_ = 0;

  /// Streaming checkpoint writer (present when checkpoint_path is set).
  std::unique_ptr<CheckpointStream> stream_;

  // Metrics. partial_ holds the current day's horizon-only fields; its
  // traffic fields live in the loop's day totals until the day finishes.
  std::vector<DayMetrics> completed_days_;
  DayMetrics partial_;
  math::Vector prev_day_start_rewards_;
  bool has_prev_day_start_ = false;
  double wall_seconds_ = 0.0;
};

}  // namespace tdp::horizon
