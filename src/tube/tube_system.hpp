// TUBE: the end-to-end TDP system (Section VI, Figs. 9-12).
//
// Wires together the network emulator (bottleneck link, per-user traffic
// sources, background traffic — the Fig. 10 topology), the TUBE Optimizer
// (measurement + profiling + price-determination engines) and the TUBE GUI
// agents (price pulls + deferral decisions) into the control loop of
// Fig. 1/9:
//
//   measure usage -> estimate waiting functions -> optimize prices ->
//   publish to GUIs -> users defer -> measure again ...
//
// A phase runs the emulated network for a number of hour-long cycles under
// one pricing regime and reports per-period traffic, per-class deferred
// volumes and billing — the quantities Figs. 11 and 12 plot. Phases reuse
// the same arrival seeds, so TIP and TDP runs are paired and differences
// are attributable to deferral alone.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dynamic/online_pricer.hpp"
#include "math/vector_ops.hpp"
#include "netsim/traffic.hpp"
#include "tube/gui_agent.hpp"
#include "tube/measurement.hpp"
#include "tube/price_channel.hpp"
#include "tube/profiling.hpp"
#include "tube/rrd.hpp"

namespace tdp {

struct TubeConfig {
  double link_capacity_mbps = 10.0;   ///< Fig. 10's bottleneck
  std::size_t periods = 12;           ///< pricing periods per cycle
  double period_seconds = 300.0;      ///< 5-minute periods, 1-hour cycle
  std::size_t users = 2;

  /// Shared class shapes (index = class id): web, ftp, video.
  std::vector<netsim::TrafficClassConfig> classes;
  /// Per-user arrival-intensity multiplier.
  std::vector<double> user_intensity;
  /// Per-user, per-class patience indices (behavioural ground truth).
  std::vector<std::vector<double>> patience;

  /// Time-of-day intensity profile within a cycle (Fig. 11: high early,
  /// low late).
  netsim::RateProfile profile;

  netsim::BackgroundTraffic::Config background;

  double max_reward = 0.01;        ///< P, $ per MB (= base usage price)
  double base_price_per_mb = 0.01; ///< TIP usage price, $ per MB

  /// Fraction of link capacity the ISP prices against. Below the paper's
  /// 80% rule-of-thumb because the testbed's background traffic (not billed
  /// or priced) also occupies the link.
  double capacity_target = 0.7;

  std::uint64_t seed = 20110620;
};

/// The standard testbed configuration used in Section VI's experiment.
TubeConfig default_testbed_config();

class TubeSystem {
 public:
  explicit TubeSystem(TubeConfig config = default_testbed_config());

  struct PhaseReport {
    math::Vector rewards;  ///< schedule in force ($/MB; zeros under TIP)
    std::vector<std::vector<double>> user_period_mb;  ///< [user][period]
    std::vector<double> total_period_mb;
    std::vector<std::vector<double>> class_total_mb;    ///< [user][class]
    std::vector<std::vector<double>> class_deferred_mb; ///< [user][class]
    std::vector<double> user_bill_dollars;
    std::vector<double> user_reward_dollars;
    std::size_t sessions = 0;
    std::size_t deferrals = 0;
    double mean_utilization = 0.0;
  };

  /// Baseline phase: flat (time-independent) pricing. Records the TIP
  /// aggregate into the profiling engine. Fig. 11.
  PhaseReport run_tip(std::size_t cycles);

  /// Control-trial phase: fixed reward schedule, recorded as a TDP window
  /// for waiting-function estimation.
  PhaseReport run_trial(const math::Vector& rewards, std::size_t cycles);

  /// Profile waiting functions from the recorded windows, build the
  /// dynamic pricing model, and run with online-optimized prices (the
  /// §III-B OnlinePricer). Fig. 12.
  PhaseReport run_optimized(std::size_t cycles);

  const ProfilingEngine& profiler() const { return profiler_; }
  const TubeConfig& config() const { return config_; }

  /// Price history RRD (per-period average published reward).
  const RrdStore& price_history() const { return price_rrd_; }

 private:
  PhaseReport run_phase(const math::Vector* fixed_rewards,
                        OnlinePricer* pricer, std::size_t cycles);

  /// The profiled dynamic model run_optimized prices against (waiting
  /// functions from the recorded TIP/TDP windows, ISP capacity target,
  /// infeasibility shrink).
  DynamicModel build_priced_model();

  TubeConfig config_;
  ProfilingEngine profiler_;
  RrdStore price_rrd_;
  /// Wall-clock seconds elapsed across all phases (each phase's simulator
  /// starts at 0; the RRD timeline is continuous).
  double elapsed_s_ = 0.0;
};

}  // namespace tdp
