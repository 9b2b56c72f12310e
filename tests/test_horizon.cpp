// The long-horizon battery (ISSUE: multi-day online estimation, versioned
// checkpoint/restore, crash/corruption tests). Kill-and-restore bitwise
// identity under every scenario and layout is the invariance battery's
// (test_invariance.cpp).
//
//   * Execution knobs: a restore under any knob that is not echoed
//     finishes bitwise like the uninterrupted run.
//   * Day-0 equivalence: a clean horizon day reproduces FleetDriver's
//     measured day bitwise (the multi-day loop is the same control loop).
//   * Corruption battery: every truncation and byte flip of a real
//     checkpoint is rejected with a clean error, never UB (runs in the
//     sanitize lane); with the CRC re-sealed, a flipped checkpoint is
//     rejected with a typed error or restores and steps.
//   * Field validators: each decoder check rejects a CRC-valid checkpoint
//     that only it can catch, including per-period vectors of the wrong
//     length.
//   * Golden fixtures: a checked-in v1 checkpoint must keep decoding and
//     restoring, and the checked-in v2 checkpoints and TDPI dump must
//     re-encode to themselves byte for byte — any format drift trips here
//     before it silently orphans production checkpoints.
//   * Convergence: under injected patience drift the online §IV estimates
//     track the drift direction and the reward schedule settles into a
//     bounded limit cycle instead of oscillating.
#include "horizon/multi_day_driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/paper_data.hpp"
#include "fleet/fleet_driver.hpp"
#include "gtest/gtest.h"
#include "horizon/checkpoint.hpp"
#include "horizon/checkpoint_sections.hpp"
#include "reframe.hpp"
#include "scenarios.hpp"

#ifndef TDP_GOLDEN_DIR
#error "TDP_GOLDEN_DIR must point at tests/golden"
#endif

namespace tdp::horizon {
namespace {

using scenarios::chaos_plan;
using scenarios::expect_days_bitwise_equal;
using scenarios::run_uninterrupted;
using scenarios::small_config;

/// Kill at `kill_step` period boundaries, restore under `restore_config`,
/// finish, and return the restored driver.
std::unique_ptr<MultiDayDriver> run_killed_and_restored(
    const HorizonConfig& config, std::size_t kill_step,
    const HorizonConfig& restore_config) {
  std::vector<std::uint8_t> bytes;
  {
    MultiDayDriver victim(config);
    for (std::size_t i = 0; i < kill_step && !victim.done(); ++i) {
      victim.step_period();
    }
    bytes = victim.checkpoint_bytes();
    // The victim is destroyed here — the "kill". Nothing of it survives
    // but the checkpoint bytes.
  }
  std::unique_ptr<MultiDayDriver> restored =
      MultiDayDriver::restore(restore_config, bytes);
  while (!restored->done()) restored->step_period();
  return restored;
}

TEST(HorizonDriver, CleanMeasuredDayMatchesFleetDriverBitwise) {
  // The horizon loop is FleetDriver's loop: with estimation disabled, the
  // measured day of a (warmup + 1)-day horizon must reproduce FleetDriver's
  // measured day bit for bit — on a clean day, and under the reference
  // 20%-duty channel storm with the incident engine watching, where the
  // alert stream and the flight recorder (day-end fallback counts
  // included) must agree too. Drift stays out: the fleet does not model it.
  HorizonConfig clean = small_config();
  clean.horizon_days = 1;
  clean.estimation = false;
  HorizonConfig storm = clean;
  storm.fault.storm_channel = {0.06, 0.76, 1.0};
  storm.fault.seed = 424242;
  storm.incident.enabled = true;

  for (const HorizonConfig& config : {clean, storm}) {
    SCOPED_TRACE(config.incident.enabled ? "channel storm" : "clean");
    fleet::FleetDriverConfig fleet_config;
    fleet_config.population = config.population;
    fleet_config.shards = config.shards;
    fleet_config.slices = config.slices;
    fleet_config.threads = config.threads;
    fleet_config.warmup_days = config.warmup_days;
    fleet_config.fault = config.fault;
    fleet_config.incident = config.incident;

    MultiDayDriver horizon(config);
    const HorizonMetrics hm = horizon.run();
    fleet::FleetDriver fleet_driver(fleet_config);
    const fleet::FleetMetrics fm = fleet_driver.run_day();

    ASSERT_EQ(hm.days.size(), 1u);
    EXPECT_EQ(hm.days[0].offered_units, fm.offered_units);
    EXPECT_EQ(hm.days[0].realized_units, fm.realized_units);
    EXPECT_EQ(hm.days[0].sessions, fm.sessions);
    EXPECT_EQ(hm.days[0].deferred_sessions, fm.deferred_sessions);
    EXPECT_EQ(hm.days[0].reward_paid_units, fm.reward_paid_units);
    EXPECT_EQ(hm.days[0].peak_to_average_tip, fm.peak_to_average_tip);
    EXPECT_EQ(hm.days[0].peak_to_average_tdp, fm.peak_to_average_tdp);
    EXPECT_EQ(horizon.mechanism().rewards(),
              fleet_driver.mechanism().rewards());
    if (config.incident.enabled) {
      ASSERT_GT(fm.price_fallback_periods, 0u) << "the storm must bite";
      const auto& h = *horizon.incident_engine();
      const auto& f = *fleet_driver.incident_engine();
      EXPECT_EQ(h.alerts(), f.alerts());
      EXPECT_EQ(h.recorder(), f.recorder());
    }
  }
}

TEST(HorizonCheckpoint, EveryTruncationIsRejectedCleanly) {
  HorizonConfig config = small_config();
  config.fault = chaos_plan();
  MultiDayDriver driver(config);
  for (int i = 0; i < 15; ++i) driver.step_period();
  const std::vector<std::uint8_t> bytes = driver.checkpoint_bytes();

  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 97)) {  // every header length, then strided
    EXPECT_THROW(decode(bytes.data(), len), ser::FormatError)
        << "truncation at " << len << " bytes was accepted";
  }
}

TEST(HorizonCheckpoint, RandomCorruptionNeverCrashesLoaderOrRestore) {
  HorizonConfig config = small_config();
  MultiDayDriver driver(config);
  for (int i = 0; i < 15; ++i) driver.step_period();
  const std::vector<std::uint8_t> bytes = driver.checkpoint_bytes();

  Rng rng(987654321);
  int rejected = 0;
  const int rounds = 300;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t flips = 1 + rng.uniform_index(16);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform_index(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    }
    if (rng.bernoulli(0.3)) {
      mutated.resize(rng.uniform_index(mutated.size() + 1));
    }
    try {
      // Either stage may reject; neither may crash or corrupt memory.
      std::unique_ptr<MultiDayDriver> restored =
          MultiDayDriver::restore(config, mutated);
      (void)restored;
    } catch (const Error&) {
      ++rejected;  // ser::FormatError or PreconditionError — both clean
    }
  }
  EXPECT_GT(rejected, rounds - 5);

  // Re-framed mode: flip payload bytes only and re-seal the CRC, so the
  // field validators and restore checks — not the CRC — meet the hostile
  // bytes. Each mutation is rejected with a typed error, or restores into
  // a driver that keeps stepping.
  int stepped = 0;
  rejected = 0;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t flips = 1 + rng.uniform_index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[reframe::kHeaderBytes +
              rng.uniform_index(mutated.size() - reframe::kHeaderBytes -
                                reframe::kCrcBytes)] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    }
    try {
      std::unique_ptr<MultiDayDriver> restored =
          MultiDayDriver::restore(config, reframe::reseal(mutated));
      for (int s = 0; s < 3 && !restored->done(); ++s) {
        restored->step_period();
      }
      ++stepped;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(stepped, 0) << "no mutation got past the validators";
  EXPECT_GT(rejected, 0) << "no mutation was rejected";
}

// ---- Config echo -----------------------------------------------------------
//
// A checkpoint echoes every HorizonConfig field that defines the run, and
// restore requires the caller's config to encode to the same echo bytes,
// section by section. Each row below mutates one echoed field alone; the
// restore must throw and name the section that carries the field.

struct EchoRow {
  const char* field;
  const char* section;
  void (*mutate)(HorizonConfig&);
};

void expect_echo_rejected(const HorizonConfig& config,
                          const CheckpointData& data, const EchoRow& row) {
  SCOPED_TRACE(row.field);
  HorizonConfig wrong = config;
  row.mutate(wrong);
  try {
    MultiDayDriver::restore(wrong, data);
    ADD_FAILURE() << "restore accepted a config whose echo differs";
  } catch (const PreconditionError& error) {
    const std::string expected =
        std::string("checkpoint ") + row.section + " echo";
    EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
        << error.what();
  }
}

TEST(HorizonCheckpoint, MismatchedConfigIsRejected) {
  const HorizonConfig config = small_config();
  MultiDayDriver driver(config);
  driver.step_period();
  const CheckpointData data = driver.checkpoint();
  ASSERT_EQ(echo_mismatch(config, data.config), nullptr);

  const EchoRow rows[] = {
      {"population.users", "config",
       [](HorizonConfig& c) { c.population.users += 1; }},
      {"population.periods", "config",
       [](HorizonConfig& c) { c.population.periods = 48; }},
      {"population.seed", "config",
       [](HorizonConfig& c) { c.population.seed += 1; }},
      {"population.sessions_per_day", "config",
       [](HorizonConfig& c) { c.population.sessions_per_day *= 2.0; }},
      {"slices", "config", [](HorizonConfig& c) { c.slices += 1; }},
      // 0 is a count like any other, not "the checkpoint's layout".
      {"slices 0", "config", [](HorizonConfig& c) { c.slices = 0; }},
      {"warmup_days", "config", [](HorizonConfig& c) { c.warmup_days += 1; }},
      {"horizon_days", "config",
       [](HorizonConfig& c) { c.horizon_days += 1; }},
      {"online_pricing", "config",
       [](HorizonConfig& c) { c.online_pricing = !c.online_pricing; }},
      {"estimation", "config",
       [](HorizonConfig& c) { c.estimation = !c.estimation; }},
      {"estimation_window", "config",
       [](HorizonConfig& c) { c.estimation_window += 1; }},
      {"estimation_min_days", "config",
       [](HorizonConfig& c) { c.estimation_min_days += 1; }},
      {"estimation_starts", "config",
       [](HorizonConfig& c) { c.estimation_starts += 1; }},
      {"reanchor", "config",
       [](HorizonConfig& c) { c.reanchor = !c.reanchor; }},
      {"fault.price_pull_drop", "config",
       [](HorizonConfig& c) { c.fault.price_pull_drop = 0.1; }},
      {"fault.clock_skew", "config",
       [](HorizonConfig& c) { c.fault.clock_skew = 0.1; }},
      {"fault.measurement_loss", "config",
       [](HorizonConfig& c) { c.fault.measurement_loss = 0.5; }},
      {"fault.measurement_nan", "config",
       [](HorizonConfig& c) { c.fault.measurement_nan = 0.1; }},
      {"fault.measurement_negative", "config",
       [](HorizonConfig& c) { c.fault.measurement_negative = 0.1; }},
      {"fault.measurement_spike", "config",
       [](HorizonConfig& c) { c.fault.measurement_spike = 0.1; }},
      {"fault.spike_factor", "config",
       [](HorizonConfig& c) { c.fault.spike_factor *= 2.0; }},
      {"fault.measurement_blackouts", "config",
       [](HorizonConfig& c) { c.fault.measurement_blackouts.push_back(3); }},
      {"fault.solver_exhaustion", "config",
       [](HorizonConfig& c) { c.fault.solver_exhaustion = 0.1; }},
      {"fault.solver_starved_budget", "config",
       [](HorizonConfig& c) { c.fault.solver_starved_budget += 1; }},
      {"fault.drift_beta_rate", "config",
       [](HorizonConfig& c) { c.fault.drift_beta_rate = 0.01; }},
      {"fault.drift_beta_step", "config",
       [](HorizonConfig& c) { c.fault.drift_beta_step = 0.1; }},
      {"fault.drift_step_day", "config",
       [](HorizonConfig& c) { c.fault.drift_step_day = 2; }},
      {"fault.seed", "config", [](HorizonConfig& c) { c.fault.seed += 1; }},
      {"resilience.staleness_ttl", "config",
       [](HorizonConfig& c) { c.resilience.staleness_ttl += 1; }},
      {"resilience.max_retries", "config",
       [](HorizonConfig& c) { c.resilience.max_retries += 1; }},
      {"measurement_guard.max_spike_factor", "config",
       [](HorizonConfig& c) { c.measurement_guard.max_spike_factor *= 2.0; }},
      {"measurement_guard.max_carry_forward", "config",
       [](HorizonConfig& c) { c.measurement_guard.max_carry_forward += 1; }},
      {"mechanism.kind", "mechanism",
       [](HorizonConfig& c) {
         c.mechanism.kind = mech::MechanismKind::kFixedBudgetRebate;
       }},
      // Fields this tube_online, adaptation-off run never reads are echoed
      // and compared too.
      {"mechanism.rebate_pool", "mechanism",
       [](HorizonConfig& c) { c.mechanism.rebate_pool = 100.0; }},
      {"mechanism.oracle_capacity_target", "mechanism",
       [](HorizonConfig& c) { c.mechanism.oracle_capacity_target = 0.9; }},
      {"adaptation_rate", "mechanism",
       [](HorizonConfig& c) { c.adaptation_rate = 0.5; }},
      {"mechanism.rebate_share_blend", "mechanism",
       [](HorizonConfig& c) { c.mechanism.rebate_share_blend = 0.5; }},
      {"mechanism.rebate_inflow_floor", "mechanism",
       [](HorizonConfig& c) { c.mechanism.rebate_inflow_floor = 0.1; }},
      {"mechanism.oracle_refine", "mechanism",
       [](HorizonConfig& c) {
         c.mechanism.oracle_refine = !c.mechanism.oracle_refine;
       }},
      {"adaptive_users", "mechanism",
       [](HorizonConfig& c) { c.adaptive_users = true; }},
      {"adaptation_gain", "mechanism",
       [](HorizonConfig& c) { c.adaptation_gain = 1.0; }},
      {"fault.storm_blackout.onset", "storm",
       [](HorizonConfig& c) { c.fault.storm_blackout.onset = 0.06; }},
      {"fault.storm_blackout.persist", "storm",
       [](HorizonConfig& c) { c.fault.storm_blackout.persist = 0.76; }},
      {"fault.storm_blackout.intensity", "storm",
       [](HorizonConfig& c) { c.fault.storm_blackout.intensity = 0.5; }},
      {"fault.storm_channel.onset", "storm",
       [](HorizonConfig& c) { c.fault.storm_channel.onset = 0.06; }},
      {"fault.storm_channel.persist", "storm",
       [](HorizonConfig& c) { c.fault.storm_channel.persist = 0.76; }},
      {"fault.storm_channel.intensity", "storm",
       [](HorizonConfig& c) { c.fault.storm_channel.intensity = 0.5; }},
      {"fault.storm_solver.onset", "storm",
       [](HorizonConfig& c) { c.fault.storm_solver.onset = 0.06; }},
      {"fault.storm_solver.persist", "storm",
       [](HorizonConfig& c) { c.fault.storm_solver.persist = 0.76; }},
      {"fault.storm_solver.intensity", "storm",
       [](HorizonConfig& c) { c.fault.storm_solver.intensity = 0.5; }},
      {"measurement_guard.carry_floor_fraction", "storm",
       [](HorizonConfig& c) {
         c.measurement_guard.carry_floor_fraction = 0.25;
       }},
      {"estimation_health_gate", "storm",
       [](HorizonConfig& c) { c.estimation_health_gate = true; }},
      {"reanchor_healthy_periods", "storm",
       [](HorizonConfig& c) { c.reanchor_healthy_periods = 4; }},
      {"reanchor_objective_guard", "storm",
       [](HorizonConfig& c) { c.reanchor_objective_guard = true; }},
      {"reanchor_guard_tolerance", "storm",
       [](HorizonConfig& c) { c.reanchor_guard_tolerance = 0.05; }},
      // Echoes match by bytes, so -0.0 does not match 0.0.
      {"reanchor_guard_tolerance -0.0", "storm",
       [](HorizonConfig& c) { c.reanchor_guard_tolerance = -0.0; }},
      {"incident.enabled", "incident",
       [](HorizonConfig& c) { c.incident.enabled = true; }},
  };
  for (const EchoRow& row : rows) expect_echo_rejected(config, data, row);

  // With the engine on, every detector threshold is echoed as well.
  HorizonConfig watched = config;
  watched.incident.enabled = true;
  MultiDayDriver watched_driver(watched);
  watched_driver.step_period();
  const CheckpointData watched_data = watched_driver.checkpoint();
  const EchoRow incident_rows[] = {
      {"incident.enabled off", "incident",
       [](HorizonConfig& c) { c.incident.enabled = false; }},
      {"incident.cusum_k", "incident",
       [](HorizonConfig& c) { c.incident.cusum_k *= 2.0; }},
      {"incident.cusum_h", "incident",
       [](HorizonConfig& c) { c.incident.cusum_h *= 2.0; }},
      {"incident.channel_cusum_k", "incident",
       [](HorizonConfig& c) { c.incident.channel_cusum_k *= 2.0; }},
      {"incident.channel_cusum_h", "incident",
       [](HorizonConfig& c) { c.incident.channel_cusum_h *= 2.0; }},
      {"incident.ewma_alpha", "incident",
       [](HorizonConfig& c) { c.incident.ewma_alpha *= 2.0; }},
      {"incident.ewma_z", "incident",
       [](HorizonConfig& c) { c.incident.ewma_z *= 2.0; }},
      {"incident.ewma_min_days", "incident",
       [](HorizonConfig& c) { c.incident.ewma_min_days += 1; }},
      {"incident.pacing_max_ratio", "incident",
       [](HorizonConfig& c) { c.incident.pacing_max_ratio *= 2.0; }},
      {"incident.pacing_grace_days", "incident",
       [](HorizonConfig& c) { c.incident.pacing_grace_days += 1; }},
      {"incident.slo_short_window", "incident",
       [](HorizonConfig& c) { c.incident.slo_short_window += 1; }},
      {"incident.slo_long_window", "incident",
       [](HorizonConfig& c) { c.incident.slo_long_window += 1; }},
      {"incident.slo_short_burn", "incident",
       [](HorizonConfig& c) { c.incident.slo_short_burn *= 0.5; }},
      {"incident.slo_long_burn", "incident",
       [](HorizonConfig& c) { c.incident.slo_long_burn *= 2.0; }},
      {"incident.slo_max_fallback_per_day", "incident",
       [](HorizonConfig& c) { c.incident.slo_max_fallback_per_day = 3; }},
      {"incident.slo_p2a_floor", "incident",
       [](HorizonConfig& c) { c.incident.slo_p2a_floor = 0.1; }},
      {"incident.slo_p2a_window_days", "incident",
       [](HorizonConfig& c) { c.incident.slo_p2a_window_days += 1; }},
      {"incident.recorder_capacity", "incident",
       [](HorizonConfig& c) { c.incident.recorder_capacity += 1; }},
      {"incident.max_alerts", "incident",
       [](HorizonConfig& c) { c.incident.max_alerts += 1; }},
  };
  for (const EchoRow& row : incident_rows) {
    expect_echo_rejected(watched, watched_data, row);
  }

  // Echoes match by bytes, so a NaN field matches itself.
  HorizonConfig nan_config = config;
  nan_config.reanchor_guard_tolerance =
      std::numeric_limits<double>::quiet_NaN();
  MultiDayDriver nan_driver(nan_config);
  nan_driver.step_period();
  EXPECT_NO_THROW(MultiDayDriver::restore(nan_config, nan_driver.checkpoint()));
}

TEST(HorizonCheckpoint, ExecutionKnobsRestoreBitwise) {
  // Knobs that say only how a run executes are not echoed: a restore under
  // any one of them, changed alone, finishes bitwise like the
  // uninterrupted run. Faults and the incident engine keep every knob live.
  HorizonConfig config = small_config();
  config.fault = chaos_plan();
  config.incident.enabled = true;
  MultiDayDriver reference(config);
  reference.run();
  const std::size_t mid =
      (config.warmup_days + config.horizon_days) * config.population.periods /
      2;
  const std::string stream_path =
      ::testing::TempDir() + "tdp_knob_stream.bin";
  const std::string dump_path = ::testing::TempDir() + "tdp_knob_dump.tdpi";

  const std::pair<const char*, std::function<void(HorizonConfig&)>> knobs[] =
      {
          {"shards", [](HorizonConfig& c) { c.shards = 3; }},
          {"threads", [](HorizonConfig& c) { c.threads = 1; }},
          {"checkpoint_path",
           [&](HorizonConfig& c) { c.checkpoint_path = stream_path; }},
          {"checkpoint_every_periods",
           [](HorizonConfig& c) { c.checkpoint_every_periods = 5; }},
          {"incident.dump_path",
           [&](HorizonConfig& c) { c.incident.dump_path = dump_path; }},
          {"incident.commit_latency_budget_seconds",
           [](HorizonConfig& c) {
             c.incident.commit_latency_budget_seconds = 1e-9;
           }},
      };
  for (const auto& [name, mutate] : knobs) {
    SCOPED_TRACE(name);
    HorizonConfig knob = config;
    mutate(knob);
    const std::unique_ptr<MultiDayDriver> restored =
        run_killed_and_restored(config, mid, knob);
    expect_days_bitwise_equal(reference.completed_days(),
                              restored->completed_days());
    EXPECT_EQ(restored->incident_engine()->alerts(),
              reference.incident_engine()->alerts());
  }
  std::remove(stream_path.c_str());
  std::remove((stream_path + ".tmp").c_str());
  std::remove(dump_path.c_str());

  // Detector thresholds are echoed only while the engine runs: with it off
  // the run writes no kSecIncident section, so a restore under other
  // thresholds is accepted and finishes bitwise too.
  const HorizonConfig quiet = small_config();
  HorizonConfig retuned = quiet;
  retuned.incident.cusum_h = 0.9;
  expect_days_bitwise_equal(
      run_uninterrupted(quiet),
      run_killed_and_restored(quiet, mid, retuned)->completed_days());
}

TEST(HorizonEstimation, TracksInjectedDriftAndSettles) {
  HorizonConfig config = small_config();
  config.horizon_days = 8;
  config.estimation_window = 3;
  config.estimation_min_days = 2;
  // A one-time +60% patience-index regime shift halfway through: the
  // population's users abruptly get less patient.
  config.fault.drift_beta_step = 0.6;
  config.fault.drift_step_day = 5;

  MultiDayDriver driver(config);
  const HorizonMetrics metrics = driver.run();

  std::vector<double> before;  // estimates fitted on pre-shift windows
  std::vector<double> after;   // fitted after the shift flushed the window
  double max_linf_tail = 0.0;
  for (const DayMetrics& day : metrics.days) {
    if (!day.estimated) continue;
    EXPECT_TRUE(std::isfinite(day.beta_estimate));
    EXPECT_GT(day.beta_estimate, 0.0);
    if (day.day < config.fault.drift_step_day) {
      before.push_back(day.beta_estimate);
    } else if (day.day >= config.fault.drift_step_day + 2) {
      after.push_back(day.beta_estimate);
      max_linf_tail = std::max(max_linf_tail, day.reward_step_linf);
    }
  }
  ASSERT_GE(before.size(), 2u);
  ASSERT_GE(after.size(), 2u);

  const auto mean = [](const std::vector<double>& v) {
    double total = 0.0;
    for (double x : v) total += x;
    return total / static_cast<double>(v.size());
  };
  // The tied estimate must move in the drift's direction: patience indices
  // rose by 60%, so the fitted aggregate index must clearly rise too.
  EXPECT_GT(mean(after), mean(before) * 1.15);

  // Bounded limit cycle: once the estimator has re-anchored onto the
  // shifted population, day-over-day reward steps stay small relative to
  // the schedule's scale instead of oscillating.
  EXPECT_LT(max_linf_tail, 0.5 * paper::kStaticNormalizationReward);
}

TEST(HorizonEstimation, OverflowingDriftFailsLoudly) {
  // drift_beta_step = 1e308 passes the plan's "> -1" check, but from
  // drift_step_day on it scales every patience index >= 2 past the largest
  // double. The drifted waiting functions cannot be normalized, so the run
  // must stop with a typed error instead of feeding the fleet NaN deferral
  // probabilities.
  HorizonConfig config = small_config();
  config.fault.drift_beta_step = 1e308;
  config.fault.drift_step_day = 1;
  MultiDayDriver driver(config);
  EXPECT_THROW(driver.run(), PreconditionError);
}

TEST(HorizonEstimation, StationaryPopulationEstimatesAreStable) {
  HorizonConfig config = small_config();
  config.horizon_days = 6;
  MultiDayDriver driver(config);
  const HorizonMetrics metrics = driver.run();

  std::vector<double> estimates;
  for (const DayMetrics& day : metrics.days) {
    if (day.estimated) estimates.push_back(day.beta_estimate);
  }
  ASSERT_GE(estimates.size(), 3u);
  const double lo = *std::min_element(estimates.begin(), estimates.end());
  const double hi = *std::max_element(estimates.begin(), estimates.end());
  EXPECT_GT(lo, 0.0);
  // No drift: the window is sampling the same population every day, so the
  // fitted index must not wander.
  EXPECT_LT(hi - lo, 0.35 * hi);
  EXPECT_EQ(metrics.final_health, "HEALTHY");
}

// ---- Golden checkpoint fixtures --------------------------------------------
//
// Two checkpoints of one fixed tiny run are checked into tests/golden/:
//   * horizon_checkpoint_v1.bin, written before the v1 writer was retired.
//     It is read, never written: it must decode, hold the v2 fixture's
//     state apart from the healthy streak (v1 has no health state), and
//     restore into a run that finishes bitwise like an uninterrupted one.
//   * horizon_checkpoint_v2.bin, what the writer emits today. Re-encoding
//     the decoded state must reproduce the file byte for byte, so ANY
//     drift in the format — field order, widths, section tags, CRC — trips
//     here before it orphans real checkpoints.
// The v1 fixture still carries the retired counter table (section 11),
// which older v2 writers emitted too; spliced into the v2 fixture it must
// be skipped like any unknown section.
//
// Regenerate a v2 fixture only with an intentional change. The v1 file is
// never touched.
//   TDP_REGENERATE_GOLDENS=1 ./tdp_horizon_tests --gtest_filter=<test>
// with <test> one of
//   HorizonGolden.CheckedInV2CheckpointReencodesByteForByte  (v2.bin)
//   HorizonGolden.ReanchorCheckpointReencodesByteForByte  (v2_reanchor.bin)
//   HorizonGolden.StormCheckpointReencodesByteForByte  (v2_storm.bin)
//   HorizonGolden.StormIncidentDumpReencodesByteForByte  (the .tdpi dump)
// A regenerated fixture may differ from the old one only in the sections
// the change names; compare the two section by section before committing
// (tools/frame_sections.py OLD NEW).

HorizonConfig golden_config() {
  HorizonConfig config;
  config.population.users = 600;
  config.population.periods = 12;
  config.population.seed = 77;
  config.shards = 3;
  config.slices = 6;
  config.threads = 2;
  config.warmup_days = 1;
  config.horizon_days = 2;
  config.estimation_window = 2;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;
  config.fault.measurement_loss = 0.05;
  config.fault.drift_beta_rate = 0.01;
  config.fault.seed = 99;
  return config;
}

std::vector<std::uint8_t> golden_checkpoint_bytes() {
  MultiDayDriver driver(golden_config());
  for (int i = 0; i < 30; ++i) driver.step_period();  // mid-day 2, period 6
  return driver.checkpoint_bytes();
}

constexpr char kV1Fixture[] = "horizon_checkpoint_v1.bin";
constexpr char kV2Fixture[] = "horizon_checkpoint_v2.bin";

std::string golden_path(const std::string& name) {
  return std::string(TDP_GOLDEN_DIR) + "/" + name;
}

std::vector<std::uint8_t> read_golden(const std::string& name) {
  std::ifstream in(golden_path(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << golden_path(name);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_golden(const std::string& name,
                  const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(golden_path(name), std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool regenerating() {
  const char* env = std::getenv("TDP_REGENERATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(HorizonGolden, CheckedInV2CheckpointReencodesByteForByte) {
  if (regenerating()) {
    write_golden(kV2Fixture, golden_checkpoint_bytes());
    GTEST_SKIP() << "regenerated " << golden_path(kV2Fixture);
  }
  const std::vector<std::uint8_t> file_bytes = read_golden(kV2Fixture);
  ASSERT_GT(file_bytes.size(), 8u);
  EXPECT_EQ(file_bytes[4], 2u);  // version u32 (little endian) at offset 4

  // Tripwire 1: re-encoding reproduces the file exactly.
  const CheckpointData data = decode(file_bytes);
  EXPECT_EQ(encode(data), file_bytes)
      << "checkpoint format drifted: bump kCheckpointVersion and add a "
         "compatibility path instead of silently changing v2";

  // Tripwire 2: today's driver still produces the same bytes from the
  // same run — the full pipeline (config -> simulation -> checkpoint) is
  // deterministic across builds.
  EXPECT_EQ(golden_checkpoint_bytes(), file_bytes)
      << "a fresh run of the golden config no longer reproduces the "
         "checked-in checkpoint";
}

// The v2 fixture stops before the run's only re-anchor: the end of day 2
// fits the window's patience index (§IV) and re-solves the dynamic model
// on it. horizon_checkpoint_v2_reanchor.bin is the same run's checkpoint
// once it is done, so the fitted index, the re-solved schedule and the
// adopted model are pinned byte for byte.
constexpr char kReanchorFixture[] = "horizon_checkpoint_v2_reanchor.bin";

std::vector<std::uint8_t> golden_reanchor_checkpoint_bytes() {
  MultiDayDriver driver(golden_config());
  while (!driver.done()) driver.step_period();  // 3 days, 36 periods
  return driver.checkpoint_bytes();
}

TEST(HorizonGolden, ReanchorCheckpointReencodesByteForByte) {
  if (regenerating()) {
    write_golden(kReanchorFixture, golden_reanchor_checkpoint_bytes());
    GTEST_SKIP() << "regenerated " << golden_path(kReanchorFixture);
  }
  const std::vector<std::uint8_t> file_bytes = read_golden(kReanchorFixture);
  const CheckpointData data = decode(file_bytes);
  EXPECT_EQ(encode(data), file_bytes)
      << "checkpoint format drifted on the re-anchored run";

  ASSERT_EQ(data.completed_days.size(), 3u);
  EXPECT_FALSE(data.completed_days[1].reanchored);
  EXPECT_TRUE(data.completed_days[2].reanchored);

  EXPECT_EQ(golden_reanchor_checkpoint_bytes(), file_bytes)
      << "a fresh run of the golden config no longer reproduces the "
         "re-anchored checkpoint: the fit or the re-solve moved";
}

TEST(HorizonGolden, CheckedInV1CheckpointStaysLoadableByteForByte) {
  const std::vector<std::uint8_t> file_bytes = read_golden(kV1Fixture);
  ASSERT_GT(file_bytes.size(), 8u);
  EXPECT_EQ(file_bytes[4], 1u);

  // The fixture decodes field by field under the current loader.
  const CheckpointData data = decode(file_bytes);
  EXPECT_EQ(data.config.population.users, 600u);
  EXPECT_EQ(data.config.population.periods, 12u);
  EXPECT_EQ(data.config.slices, 6u);
  EXPECT_EQ(data.day, 2u);
  EXPECT_EQ(data.period, 6u);
  EXPECT_EQ(data.ring_work.size(), 6u);

  // The sections v1 lacks (kSecMech, kSecStorm) decode to exactly what the
  // v2 writer emits for the same run, except the healthy streak: v1 carries
  // no health state, so it decodes as 0 where the v2 run counted 4.
  CheckpointData v2 = decode(read_golden(kV2Fixture));
  EXPECT_EQ(data.healthy_streak_periods, 0u);
  EXPECT_EQ(v2.healthy_streak_periods, 4u);
  v2.healthy_streak_periods = 0;
  EXPECT_EQ(encode(data), encode(v2))
      << "the v1 fixture no longer decodes to the v2 fixture's state";

  // And the fixture restores into a run that finishes bitwise like the
  // uninterrupted one.
  std::unique_ptr<MultiDayDriver> restored =
      MultiDayDriver::restore(golden_config(), file_bytes);
  EXPECT_EQ(restored->day(), 2u);
  EXPECT_EQ(restored->period(), 6u);
  while (!restored->done()) restored->step_period();
  expect_days_bitwise_equal(restored->completed_days(),
                            run_uninterrupted(golden_config()));
}

TEST(HorizonGolden, V2CheckpointWithCounterTableStillRestores) {
  // A v2 file written before the counter table retired: the v1 fixture's
  // section 11, spliced into the v2 fixture where the old writer put it.
  const std::vector<std::uint8_t> v1 = read_golden(kV1Fixture);
  const std::vector<std::uint8_t> v2 = read_golden(kV2Fixture);
  const auto [obs_begin, obs_end] = reframe::section_span(v1, detail::kSecObs);
  ASSERT_LT(obs_begin, obs_end);
  ASSERT_EQ(reframe::section_span(v2, detail::kSecObs).first, 0u);
  const std::size_t mech_begin =
      reframe::section_span(v2, detail::kSecMech).first;
  ASSERT_GT(mech_begin, reframe::kHeaderBytes);

  std::vector<std::uint8_t> body = reframe::payload(v2);
  body.insert(body.begin() + static_cast<std::ptrdiff_t>(
                                 mech_begin - reframe::kHeaderBytes),
              v1.begin() + static_cast<std::ptrdiff_t>(obs_begin),
              v1.begin() + static_cast<std::ptrdiff_t>(obs_end));
  const std::vector<std::uint8_t> with_table = reframe::seal(v2, body);
  ASSERT_EQ(with_table.size(), v2.size() + (obs_end - obs_begin));

  EXPECT_EQ(encode(decode(with_table)), v2);
  std::unique_ptr<MultiDayDriver> restored =
      MultiDayDriver::restore(golden_config(), with_table);
  while (!restored->done()) restored->step_period();
  expect_days_bitwise_equal(restored->completed_days(),
                            run_uninterrupted(golden_config()));
}

// The v2 fixture's run leaves sections empty or absent: no kSecIncident, no
// mechanism state, no adaptive scale, default storm/health echoes. A second
// run — rebate mechanism, adaptive users, storm plan, health gates and the
// incident engine — fills every one of them, and its mid-day checkpoint and
// incident dump are pinned too:
//   * horizon_checkpoint_v2_storm.bin  its checkpoint_bytes();
//   * incident_dump_storm.tdpi         its incident engine's dump(false),
//                                      also read by tools/test_tdp_triage.py.
// Both re-encode byte for byte.

HorizonConfig golden_storm_config() {
  HorizonConfig config = golden_config();
  config.mechanism.kind = mech::MechanismKind::kFixedBudgetRebate;
  config.adaptive_users = true;
  config.fault.price_pull_drop = 0.05;
  config.fault.solver_exhaustion = 0.03;
  config.fault.storm_blackout = {0.06, 0.76, 1.0};
  config.fault.storm_channel = {0.06, 0.76, 0.5};
  config.fault.storm_solver = {0.06, 0.76, 1.0};
  config.estimation_health_gate = true;
  config.reanchor_healthy_periods = 4;
  config.reanchor_objective_guard = true;
  config.reanchor_guard_tolerance = 0.05;
  config.incident.enabled = true;
  // Thresholds low enough that incidents open (and some close) by period
  // 30, and a recorder ring small enough to wrap.
  config.incident.slo_short_burn = 0.5;
  config.incident.slo_max_fallback_per_day = 0;
  config.incident.slo_p2a_floor = 0.5;
  config.incident.slo_p2a_window_days = 1;
  config.incident.recorder_capacity = 16;
  return config;
}

struct GoldenStormRun {
  std::vector<std::uint8_t> checkpoint;
  std::vector<std::uint8_t> dump;
};

GoldenStormRun golden_storm_run() {
  MultiDayDriver driver(golden_storm_config());
  for (int i = 0; i < 30; ++i) driver.step_period();  // mid-day 2, period 6
  return {driver.checkpoint_bytes(), driver.incident_engine()->dump(false)};
}

constexpr char kStormCheckpointFixture[] = "horizon_checkpoint_v2_storm.bin";
constexpr char kStormDumpFixture[] = "incident_dump_storm.tdpi";

TEST(HorizonGolden, StormCheckpointReencodesByteForByte) {
  if (regenerating()) {
    write_golden(kStormCheckpointFixture, golden_storm_run().checkpoint);
    GTEST_SKIP() << "regenerated " << golden_path(kStormCheckpointFixture);
  }
  const std::vector<std::uint8_t> file_bytes =
      read_golden(kStormCheckpointFixture);
  const CheckpointData data = decode(file_bytes);
  EXPECT_EQ(encode(data), file_bytes)
      << "checkpoint format drifted on the storm/rebate/incident sections";

  // The fixture exercises what the plain v2 fixture cannot.
  EXPECT_EQ(data.day, 2u);
  EXPECT_EQ(data.period, 6u);
  EXPECT_EQ(data.config.mechanism.kind,
            mech::MechanismKind::kFixedBudgetRebate);
  EXPECT_FALSE(data.mech_state.rewards.empty());
  EXPECT_FALSE(data.mech_state.vectors.empty());
  EXPECT_TRUE(data.config.adaptive_users);
  EXPECT_FALSE(data.adapt_scale.empty());
  EXPECT_TRUE(data.config.fault.storm_blackout.enabled());
  EXPECT_TRUE(data.config.estimation_health_gate);
  EXPECT_EQ(data.config.reanchor_healthy_periods, 4u);
  EXPECT_TRUE(data.config.incident.enabled);
  EXPECT_FALSE(data.incident.alerts.empty());
  EXPECT_FALSE(data.incident.incidents.empty());
  EXPECT_EQ(data.incident.recorder.size(), 16u);

  EXPECT_EQ(golden_storm_run().checkpoint, file_bytes)
      << "a fresh run of the storm golden config no longer reproduces the "
         "checked-in checkpoint";
}

TEST(HorizonGolden, StormIncidentDumpReencodesByteForByte) {
  if (regenerating()) {
    write_golden(kStormDumpFixture, golden_storm_run().dump);
    GTEST_SKIP() << "regenerated " << golden_path(kStormDumpFixture);
  }
  const std::vector<std::uint8_t> file_bytes = read_golden(kStormDumpFixture);
  const obs::incident::DumpData dump = obs::incident::decode_dump(file_bytes);
  EXPECT_EQ(obs::incident::encode_dump(dump), file_bytes)
      << "TDPI dump format drifted";

  // tools/test_tdp_triage.py asserts the same values through the Python
  // reader.
  EXPECT_EQ(dump.day, 2u);
  EXPECT_EQ(dump.period, 5u);
  EXPECT_FALSE(dump.has_wall);
  EXPECT_EQ(dump.state.alerts.size(), 11u);
  EXPECT_EQ(dump.state.incidents.size(), 2u);
  EXPECT_EQ(dump.state.recorder.size(), 16u);

  EXPECT_EQ(golden_storm_run().dump, file_bytes)
      << "a fresh run of the storm golden config no longer reproduces the "
         "checked-in incident dump";
}

// ---- Field validators ------------------------------------------------------
//
// The CRC rejects every random flip before a field validator runs, so each
// case here hands decode() a CRC-valid checkpoint that only the validator
// under test can reject. Most are built through encode(), which does not
// validate; packed flags and bools are patched in place and re-sealed.

TEST(HorizonCheckpoint, PerPeriodVectorsOfTheWrongLengthAreRejected) {
  // Each shape, restored, would index past a per-period vector.
  MultiDayDriver driver(small_config());
  for (int i = 0; i < 30; ++i) driver.step_period();  // day 2, period 6
  const CheckpointData good = driver.checkpoint();
  ASSERT_GT(good.period, 0u);
  ASSERT_TRUE(good.has_prev_day_start);
  ASSERT_FALSE(good.window.empty());
  ASSERT_FALSE(good.channel.subscribers.empty());
  EXPECT_NO_THROW(decode(encode(good)));

  using Mutation = void (*)(CheckpointData&);
  const std::pair<const char*, Mutation> cases[] = {
      {"partial.offered_units short",
       [](CheckpointData& d) { d.partial.offered_units.pop_back(); }},
      {"partial.realized_units empty",
       [](CheckpointData& d) { d.partial.realized_units.clear(); }},
      {"partial.rewards short",
       [](CheckpointData& d) { d.partial.rewards.pop_back(); }},
      {"prev_day_start_rewards short",
       [](CheckpointData& d) { d.prev_day_start_rewards.pop_back(); }},
      {"window[0].tip_demand short",
       [](CheckpointData& d) { d.window[0].tip_demand.pop_back(); }},
      {"subscriber cache empty",
       [](CheckpointData& d) { d.channel.subscribers[0].cache.clear(); }},
      {"published schedule short",
       [](CheckpointData& d) { d.channel.published.pop_back(); }},
  };
  for (const auto& [name, mutate] : cases) {
    SCOPED_TRACE(name);
    CheckpointData bad = good;
    mutate(bad);
    EXPECT_THROW(decode(encode(bad)), ser::FormatError);
  }

  // A fresh driver writes an empty partial day at period 0: legal.
  const CheckpointData start =
      decode(MultiDayDriver(small_config()).checkpoint_bytes());
  EXPECT_TRUE(start.partial.offered_units.empty());
  EXPECT_NO_THROW(MultiDayDriver::restore(small_config(), start));
}

TEST(HorizonCheckpoint, FieldValidatorsRejectOutOfRangeValues) {
  // The storm fixture fills every section, kSecIncident included.
  const std::vector<std::uint8_t> good_bytes =
      read_golden(kStormCheckpointFixture);
  const CheckpointData good = decode(good_bytes);
  ASSERT_FALSE(good.incident.incidents.empty());
  ASSERT_FALSE(good.guard.has_last_good.empty());
  ASSERT_FALSE(good.channel.subscribers.empty());

  using Mutation = void (*)(CheckpointData&);
  const std::pair<const char*, Mutation> cases[] = {
      {"period count below 2",
       [](CheckpointData& d) { d.config.population.periods = 1; }},
      {"zero slices", [](CheckpointData& d) { d.config.slices = 0; }},
      {"more slices than users",
       [](CheckpointData& d) {
         d.config.slices = d.config.population.users + 1;
       }},
      {"clock period past the day",
       [](CheckpointData& d) {
         d.period = static_cast<std::uint32_t>(d.config.population.periods);
       }},
      {"ring head past the day",
       [](CheckpointData& d) {
         d.ring_head =
             static_cast<std::uint32_t>(d.config.population.periods);
       }},
      {"ring count differs from slices",
       [](CheckpointData& d) {
         d.ring_work.pop_back();
         d.ring_reward.pop_back();
       }},
      {"ring shorter than the day",
       [](CheckpointData& d) { d.ring_reward[0].pop_back(); }},
      {"non-finite ring value",
       [](CheckpointData& d) {
         d.ring_work[0][0] = std::numeric_limits<double>::infinity();
       }},
      {"non-finite subscriber cache",
       [](CheckpointData& d) {
         d.channel.subscribers[0].cache[1] =
             std::numeric_limits<double>::quiet_NaN();
       }},
      {"non-finite pricer reward",
       [](CheckpointData& d) {
         d.pricer.rewards.assign(d.config.population.periods, 0.0);
         d.pricer.rewards[1] = std::numeric_limits<double>::quiet_NaN();
       }},
      {"non-finite pricer volume",
       [](CheckpointData& d) {
         d.pricer.volumes.push_back({std::numeric_limits<double>::quiet_NaN()});
       }},
      {"pricer health rung 3",
       [](CheckpointData& d) { d.pricer.health = static_cast<PricerHealth>(3); }},
      {"health transition to rung 3",
       [](CheckpointData& d) {
         d.pricer.log.push_back(
             {0, PricerHealth::kHealthy, static_cast<PricerHealth>(3)});
       }},
      {"model source 2",
       [](CheckpointData& d) { d.model_source = static_cast<ModelSource>(2); }},
      {"non-finite window value",
       [](CheckpointData& d) {
         d.window.push_back(d.window.empty() ? DayRecord{} : d.window[0]);
         d.window.back().rewards.assign(
             d.config.population.periods,
             std::numeric_limits<double>::quiet_NaN());
       }},
      {"mechanism kind 4",
       [](CheckpointData& d) {
         d.config.mechanism.kind = static_cast<mech::MechanismKind>(4);
       }},
      {"mechanism rewards shorter than the day",
       [](CheckpointData& d) { d.mech_state.rewards.pop_back(); }},
      {"non-finite mechanism vector",
       [](CheckpointData& d) {
         d.mech_state.vectors[0][0] = std::numeric_limits<double>::quiet_NaN();
       }},
      {"non-finite adaptive scale",
       [](CheckpointData& d) {
         d.adapt_scale[0] = std::numeric_limits<double>::infinity();
       }},
      {"incident re-anchor state 4",
       [](CheckpointData& d) {
         d.incident.incidents[0].last_reanchor =
             static_cast<obs::incident::ReanchorState>(4);
       }},
      {"incident re-anchor state -2",
       [](CheckpointData& d) {
         d.incident.last_reanchor =
             static_cast<obs::incident::ReanchorState>(-2);
       }},
      {"incident health 3",
       [](CheckpointData& d) {
         d.incident.incidents[0].health = static_cast<PricerHealth>(3);
       }},
  };
  for (const auto& [name, mutate] : cases) {
    SCOPED_TRACE(name);
    CheckpointData bad = good;
    mutate(bad);
    EXPECT_THROW(decode(encode(bad)), ser::FormatError);
  }

  // Packed flags and bools: toggle the field to locate its byte, then write
  // the smallest value the validator must refuse.
  using Toggle = void (*)(CheckpointData&, bool);
  const std::tuple<const char*, Toggle, std::uint8_t> patched[] = {
      {"storm-day flags 4",
       [](CheckpointData& d, bool on) {
         d.partial.estimation_frozen = on;
         d.partial.reanchor_rolled_back = false;
       },
       4},
      {"guard flag 2",
       [](CheckpointData& d, bool on) { d.guard.has_last_good[0] = on; }, 2},
      {"incident storm flags 8",
       [](CheckpointData& d, bool on) {
         d.incident.incidents[0].storm_blackout = on;
         d.incident.incidents[0].storm_channel = false;
         d.incident.incidents[0].storm_solver = false;
       },
       8},
      {"config bool 2",
       [](CheckpointData& d, bool on) { d.config.online_pricing = on; }, 2},
  };
  for (const auto& [name, toggle, value] : patched) {
    SCOPED_TRACE(name);
    CheckpointData off = good;
    toggle(off, false);
    CheckpointData on = good;
    toggle(on, true);
    EXPECT_THROW(decode(reframe::patch_first_difference(encode(off),
                                                        encode(on), value)),
                 ser::FormatError);
  }

  // Section-level rules: the storm extras must pair with kSecDays, every
  // required section must be present, and none may repeat.
  const auto [storm_begin, storm_end] =
      reframe::section_span(good_bytes, detail::kSecStorm);
  ASSERT_LT(storm_begin, storm_end);
  std::vector<std::uint8_t> extras = good_bytes;
  // 8 section header bytes, then 9 + 1 f64, bool, u64, bool, f64, u64.
  ++extras[storm_begin + 8 + 106];
  EXPECT_THROW(decode(reframe::reseal(extras)), ser::FormatError)
      << "storm extras count off by one";

  const auto [clock_begin, clock_end] =
      reframe::section_span(good_bytes, detail::kSecClock);
  ASSERT_LT(clock_begin, clock_end);
  std::vector<std::uint8_t> body = reframe::payload(good_bytes);
  const std::size_t at = clock_begin - reframe::kHeaderBytes;
  const std::size_t length = clock_end - clock_begin;
  std::vector<std::uint8_t> missing = body;
  missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(at),
                missing.begin() + static_cast<std::ptrdiff_t>(at + length));
  EXPECT_THROW(decode(reframe::seal(good_bytes, missing)), ser::FormatError)
      << "missing kSecClock";
  std::vector<std::uint8_t> twice = body;
  twice.insert(twice.begin() + static_cast<std::ptrdiff_t>(at + length),
               body.begin() + static_cast<std::ptrdiff_t>(at),
               body.begin() + static_cast<std::ptrdiff_t>(at + length));
  EXPECT_THROW(decode(reframe::seal(good_bytes, twice)), ser::FormatError)
      << "duplicate kSecClock";
}

}  // namespace
}  // namespace tdp::horizon
