// Long-horizon operations: the multi-day control loop with online §IV
// re-estimation and versioned checkpoint/restore.
//
// A MultiDayDriver runs the shared period loop (fleet/control_loop.hpp —
// the same engine FleetDriver runs, so a clean day is bitwise FleetDriver's
// day) for many consecutive simulated days and adds only horizon work:
//
//   MultiDayDriver ── owns ──► fleet::ControlLoop
//     step_period():
//       day start   drifted waiting functions, day-start reward step
//       loop        loop.step_period(drifted waiting functions)
//       health      HEALTHY streak / FALLBACK count (read by the gates)
//       day end     loop.settle_day() → adapt users → estimate/re-anchor
//                   → loop.close_day(re-anchor flags)
//       commit      checkpoint file at the new boundary
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
//     state at any period boundary (horizon/checkpoint.hpp), its config
//     included. restore() rebuilds a driver from those bytes such that the
//     continued run is **bitwise identical** to the uninterrupted one —
//     under any shard count from 1 to the slice count and any thread
//     count: the slice count is part of the echoed config and shards
//     regroup whole slices on restore.
//
// Determinism: every DayMetrics field is a pure function of the
// configuration (population seed, fault plan, estimation settings). The
// kill-and-restore property tests compare EXPECT_EQ on raw doubles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/control_loop.hpp"
#include "horizon/checkpoint.hpp"
#include "horizon/horizon_config.hpp"
#include "horizon/horizon_metrics.hpp"

namespace tdp::horizon {

class MultiDayDriver {
 public:
  explicit MultiDayDriver(HorizonConfig config);

  /// Rebuild a driver from checkpoint bytes. The configuration must encode
  /// to the checkpoint's config echo, section by section (echo_mismatch;
  /// PreconditionError naming the section otherwise); execution knobs such
  /// as shards and threads are free to differ — that is the point.
  static std::unique_ptr<MultiDayDriver> restore(HorizonConfig config,
                                                 const CheckpointData& data);
  static std::unique_ptr<MultiDayDriver> restore(
      HorizonConfig config, const std::vector<std::uint8_t>& bytes);

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
  MultiDayDriver(RestoreTag, HorizonConfig config, const CheckpointData& data);

  /// Shared by both constructors: validates config, builds the loop's
  /// components, all but the mechanism.
  struct ComponentsTag {};
  MultiDayDriver(ComponentsTag, HorizonConfig config);

  void start_day();
  void finish_day();
  void build_drift_waiting();
  /// Commit a checkpoint file (save_checkpoint_file) if the clock
  /// warrants one.
  void maybe_commit_checkpoint();
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

  /// Current day's drifted waiting functions (empty = no drift, use the
  /// population's own). Rebuilt each day, never serialized.
  std::vector<WaitingFunctionPtr> drift_waiting_;

  /// Per-class adaptive patience scale (EWMA; all ones when adaptation is
  /// off). Composes multiplicatively with the injector's drift scale.
  std::vector<double> adapt_scale_;

  // Online estimation state.
  std::vector<DayRecord> window_;
  ModelSource model_source_ = ModelSource::kBaseline;
  double model_beta_ = 0.0;
  std::vector<double> model_volumes_;

  /// Consecutive HEALTHY periods, updated every period. A v1 checkpoint
  /// carries none, so a run restored from one counts from the restore.
  std::uint64_t healthy_streak_periods_ = 0;

  // Metrics. partial_ holds the current day's horizon-only fields; its
  // traffic fields live in the loop's day totals until the day finishes.
  std::vector<DayMetrics> completed_days_;
  DayMetrics partial_;
  math::Vector prev_day_start_rewards_;
  bool has_prev_day_start_ = false;
  double wall_seconds_ = 0.0;
  std::uint64_t stream_commits_ = 0;
  double commit_seconds_ = 0.0;
  double commit_seconds_max_ = 0.0;
};

}  // namespace tdp::horizon
