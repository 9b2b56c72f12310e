// The fleet day: warmup + 1 days of the control loop (control_loop.hpp),
// reported as FleetMetrics for the measured final day.
//
//   FleetDriver ── owns ──► ControlLoop
//     run_day():  for each day { step_period() × periods;
//                                settle_day(); close_day(); }
//                 then FleetMetrics from the measured day's totals, the
//                 loop's phase times and per-run registry counter deltas.
//
// The first day(s) warm the deferral rings so the measured day sees the
// cyclic steady state the fluid model assumes. When any fault can fire,
// the pricer's guard is armed (trust region + keep-reward on failure)
// unless an explicit guard config is given.
#pragma once

#include <cstddef>

#include "fleet/control_loop.hpp"
#include "fleet/fleet_metrics.hpp"

namespace tdp::fleet {

struct FleetDriverConfig : LoopConfig {
  FleetDriverConfig() : LoopConfig(/*default_shards=*/64) {}
};

class FleetDriver {
 public:
  explicit FleetDriver(FleetDriverConfig config);

  const Population& population() const { return loop_.population(); }
  /// The §III-B pricer — TubeOnline runs only (TDP_REQUIRE otherwise);
  /// mechanism() is the kind-agnostic view.
  const OnlinePricer& pricer() const { return loop_.pricer(); }
  const mech::PricingMechanism& mechanism() const { return loop_.mechanism(); }
  const PriceChannel& channel() const { return loop_.channel(); }
  std::size_t shard_count() const { return loop_.shard_count(); }
  std::size_t slice_count() const { return loop_.slice_count(); }
  std::size_t thread_count() const { return loop_.thread_count(); }

  /// Simulate warmup_days + 1 days; returns metrics for the final day.
  /// Single-shot: a driver instance runs one experiment.
  FleetMetrics run_day();

  const FaultInjector& injector() const { return loop_.injector(); }

  /// The incident engine, or nullptr when not enabled.
  const obs::incident::IncidentEngine* incident_engine() const {
    return loop_.incident_engine();
  }

 private:
  ControlLoop loop_;
  bool ran_ = false;
};

}  // namespace tdp::fleet
