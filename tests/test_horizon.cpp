// The long-horizon battery (ISSUE: multi-day online estimation, versioned
// checkpoint/restore, crash/corruption tests).
//
//   * Kill-and-restore: a run killed at a randomized period boundary and
//     restored from its checkpoint finishes bitwise identical to the
//     uninterrupted run — including under an active fault plan, and under a
//     different shard/thread count than the one that wrote the checkpoint.
//   * Day-0 equivalence: a clean horizon day reproduces FleetDriver's
//     measured day bitwise (the multi-day loop is the same control loop).
//   * Corruption battery: every truncation and byte flip of a real
//     checkpoint is rejected with a clean error, never UB (runs in the
//     sanitize lane).
//   * Golden fixture: a checked-in v1 checkpoint must keep decoding, and
//     re-encoding it must reproduce the file byte for byte — any format
//     drift trips here before it silently orphans production checkpoints.
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
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/paper_data.hpp"
#include "fleet/fleet_driver.hpp"
#include "gtest/gtest.h"
#include "horizon/checkpoint.hpp"

#ifndef TDP_GOLDEN_DIR
#error "TDP_GOLDEN_DIR must point at tests/golden"
#endif

namespace tdp::horizon {
namespace {

HorizonConfig small_config() {
  HorizonConfig config;
  config.population.users = 1500;
  config.population.periods = 12;
  config.population.seed = 20110611;
  config.shards = 4;
  config.slices = 8;
  config.threads = 2;
  config.warmup_days = 1;
  config.horizon_days = 3;
  config.estimation_window = 3;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;
  return config;
}

FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.price_pull_drop = 0.05;
  plan.measurement_loss = 0.04;
  plan.measurement_nan = 0.02;
  plan.measurement_spike = 0.02;
  plan.solver_exhaustion = 0.03;
  plan.drift_beta_rate = 0.02;
  plan.seed = 424242;
  return plan;
}

/// EXPECT_EQ on every DayMetrics field — raw doubles, no tolerance. The
/// whole point of the checkpoint contract is bitwise equality.
void expect_days_bitwise_equal(const std::vector<DayMetrics>& a,
                               const std::vector<DayMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    SCOPED_TRACE("day " + std::to_string(d));
    EXPECT_EQ(a[d].day, b[d].day);
    EXPECT_EQ(a[d].offered_units, b[d].offered_units);
    EXPECT_EQ(a[d].realized_units, b[d].realized_units);
    EXPECT_EQ(a[d].rewards, b[d].rewards);
    EXPECT_EQ(a[d].sessions, b[d].sessions);
    EXPECT_EQ(a[d].deferred_sessions, b[d].deferred_sessions);
    EXPECT_EQ(a[d].reward_paid_units, b[d].reward_paid_units);
    EXPECT_EQ(a[d].peak_to_average_tip, b[d].peak_to_average_tip);
    EXPECT_EQ(a[d].peak_to_average_tdp, b[d].peak_to_average_tdp);
    EXPECT_EQ(a[d].estimated, b[d].estimated);
    EXPECT_EQ(a[d].beta_estimate, b[d].beta_estimate);
    EXPECT_EQ(a[d].estimate_residual, b[d].estimate_residual);
    EXPECT_EQ(a[d].reanchored, b[d].reanchored);
    EXPECT_EQ(a[d].reward_step_linf, b[d].reward_step_linf);
    EXPECT_EQ(a[d].fallback_periods, b[d].fallback_periods);
    EXPECT_EQ(a[d].estimation_frozen, b[d].estimation_frozen);
    EXPECT_EQ(a[d].reanchor_rolled_back, b[d].reanchor_rolled_back);
  }
}

std::vector<DayMetrics> run_uninterrupted(const HorizonConfig& config) {
  MultiDayDriver driver(config);
  driver.run();
  return driver.completed_days();
}

/// Kill at `kill_step` period boundaries, restore (optionally onto a
/// different shard/thread layout), finish, and return all completed days.
std::vector<DayMetrics> run_killed_and_restored(const HorizonConfig& config,
                                                std::size_t kill_step,
                                                std::size_t restore_shards,
                                                std::size_t restore_threads) {
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
  HorizonConfig restore_config = config;
  restore_config.shards = restore_shards;
  restore_config.threads = restore_threads;
  std::unique_ptr<MultiDayDriver> restored =
      MultiDayDriver::restore(restore_config, bytes);
  while (!restored->done()) restored->step_period();
  return restored->completed_days();
}

TEST(HorizonKillRestore, RandomKillPointsFinishBitwiseIdentical) {
  const HorizonConfig config = small_config();
  const std::vector<DayMetrics> reference = run_uninterrupted(config);

  const std::size_t total_steps =
      (config.warmup_days + config.horizon_days) * config.population.periods;
  Rng rng(1234);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t kill = 1 + rng.uniform_index(total_steps - 1);
    SCOPED_TRACE("killed after " + std::to_string(kill) + " periods");
    expect_days_bitwise_equal(
        reference, run_killed_and_restored(config, kill, config.shards,
                                           config.threads));
  }
}

TEST(HorizonKillRestore, SurvivesActiveFaultPlanBitwise) {
  HorizonConfig config = small_config();
  config.fault = chaos_plan();
  const std::vector<DayMetrics> reference = run_uninterrupted(config);

  const std::size_t total_steps =
      (config.warmup_days + config.horizon_days) * config.population.periods;
  Rng rng(5678);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t kill = 1 + rng.uniform_index(total_steps - 1);
    SCOPED_TRACE("killed after " + std::to_string(kill) + " periods");
    expect_days_bitwise_equal(
        reference, run_killed_and_restored(config, kill, config.shards,
                                           config.threads));
  }
}

TEST(HorizonKillRestore, ReshardAndRethreadPreserveBitwiseIdentity) {
  HorizonConfig config = small_config();
  config.fault = chaos_plan();  // fault draws must be slice-keyed, prove it
  const std::vector<DayMetrics> reference = run_uninterrupted(config);

  const std::size_t mid =
      (config.warmup_days + config.horizon_days) * config.population.periods /
      2;
  // 8 checkpointed slices regrouped onto 1, 3 and 8 shards, with assorted
  // thread counts — all must continue bit-for-bit.
  expect_days_bitwise_equal(reference,
                            run_killed_and_restored(config, mid, 1, 1));
  expect_days_bitwise_equal(reference,
                            run_killed_and_restored(config, mid, 3, 4));
  expect_days_bitwise_equal(reference,
                            run_killed_and_restored(config, mid, 8, 3));
}

TEST(HorizonKillRestore, CheckpointIsByteStableAcrossRestore) {
  // checkpoint → restore → checkpoint must reproduce the same bytes: the
  // restored driver is not merely equivalent, it is the same state. The
  // obs-counter section is process-cumulative telemetry (counters are
  // global and keep counting across drivers), so it is normalized out —
  // everything *simulated* must round-trip bitwise.
  const HorizonConfig config = small_config();
  MultiDayDriver driver(config);
  for (int i = 0; i < 17; ++i) driver.step_period();
  const std::vector<std::uint8_t> bytes = driver.checkpoint_bytes();

  HorizonConfig resharded = config;
  resharded.shards = 2;
  resharded.threads = 1;
  std::unique_ptr<MultiDayDriver> restored =
      MultiDayDriver::restore(resharded, bytes);

  CheckpointData original = decode(bytes);
  CheckpointData roundtrip = restored->checkpoint();
  original.counters.clear();
  roundtrip.counters.clear();
  EXPECT_EQ(encode(original), encode(roundtrip));
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
}

TEST(HorizonCheckpoint, MismatchedConfigIsRejected) {
  const HorizonConfig config = small_config();
  MultiDayDriver driver(config);
  driver.step_period();
  const CheckpointData data = driver.checkpoint();

  HorizonConfig wrong = config;
  wrong.population.seed += 1;
  EXPECT_THROW(MultiDayDriver::restore(wrong, data), PreconditionError);

  wrong = config;
  wrong.fault.measurement_loss = 0.5;
  EXPECT_THROW(MultiDayDriver::restore(wrong, data), PreconditionError);

  wrong = config;
  wrong.slices = config.slices + 1;
  EXPECT_THROW(MultiDayDriver::restore(wrong, data), PreconditionError);

  // The mechanism is part of the run's identity: a checkpoint written
  // under TubeOnline must not restore under another pricing scheme.
  wrong = config;
  wrong.mechanism.kind = mech::MechanismKind::kFixedBudgetRebate;
  EXPECT_THROW(MultiDayDriver::restore(wrong, data), PreconditionError);

  wrong = config;
  wrong.adaptive_users = true;
  EXPECT_THROW(MultiDayDriver::restore(wrong, data), PreconditionError);

  // Execution knobs are free: resharding is legal, not a mismatch.
  wrong = config;
  wrong.shards = 1;
  wrong.threads = 7;
  EXPECT_NO_THROW(MultiDayDriver::restore(wrong, data));
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

// ---- Golden checkpoint fixture ---------------------------------------------
//
// A v1 checkpoint produced by a fixed tiny run is checked into
// tests/golden/. Decoding it proves version-1 files stay loadable;
// re-encoding the decoded state must reproduce the file byte for byte, so
// ANY drift in the format — field order, widths, section tags, CRC — trips
// this test before it orphans real checkpoints. Regenerate only with an
// intentional, version-bumped format change:
//   TDP_REGENERATE_GOLDENS=1 ./tdp_horizon_tests

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

std::string golden_fixture_path() {
  return std::string(TDP_GOLDEN_DIR) + "/horizon_checkpoint_v1.bin";
}

bool regenerating() {
  const char* env = std::getenv("TDP_REGENERATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(HorizonGolden, CheckedInV1CheckpointStaysLoadableByteForByte) {
  if (regenerating()) {
    const std::vector<std::uint8_t> bytes = golden_checkpoint_bytes();
    std::ofstream out(golden_fixture_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_fixture_path();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    GTEST_SKIP() << "regenerated " << golden_fixture_path();
  }

  std::ifstream in(golden_fixture_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden fixture "
                         << golden_fixture_path()
                         << " — run once with TDP_REGENERATE_GOLDENS=1";
  std::vector<std::uint8_t> file_bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  // Tripwire 1: the fixture decodes under the current loader.
  const CheckpointData data = decode(file_bytes);
  EXPECT_EQ(data.users, 600u);
  EXPECT_EQ(data.periods, 12u);
  EXPECT_EQ(data.slices, 6u);
  EXPECT_EQ(data.day, 2u);
  EXPECT_EQ(data.period, 6u);
  EXPECT_EQ(data.ring_work.size(), 6u);

  // Tripwire 2: re-encoding reproduces the file exactly — the writer still
  // emits the v1 format the fixture was written in.
  EXPECT_EQ(encode(data), file_bytes)
      << "checkpoint format drifted: bump kCheckpointVersion and add a "
         "compatibility path instead of silently changing v1";

  // Tripwire 3: today's driver still produces the same *simulated* state
  // from the same run — the full pipeline (config -> simulation ->
  // checkpoint) is deterministic across builds. Obs counters are
  // process-cumulative telemetry and are normalized out.
  CheckpointData regenerated = decode(golden_checkpoint_bytes());
  CheckpointData golden = data;
  regenerated.counters.clear();
  golden.counters.clear();
  EXPECT_EQ(encode(regenerated), encode(golden))
      << "a fresh run of the golden config no longer reproduces the "
         "checked-in checkpoint's simulated state";

  // And the fixture is actually restorable.
  std::unique_ptr<MultiDayDriver> restored =
      MultiDayDriver::restore(golden_config(), file_bytes);
  EXPECT_EQ(restored->day(), 2u);
  EXPECT_EQ(restored->period(), 6u);
}

}  // namespace
}  // namespace tdp::horizon
