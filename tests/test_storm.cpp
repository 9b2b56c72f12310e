// The storm-mode resilience battery (ISSUE: correlated fault storms,
// health-aware re-anchoring, streaming v2 checkpoints).
//
//   * Storm chains: the seeded Markov on/off process is a pure function of
//     (plan seed, domain, tick) — identical across injector instances and
//     query orders — its duty cycle matches the stationary target, and an
//     enabled-but-zero-intensity regime is bit-transparent to every i.i.d.
//     fault draw.
//   * Streamed recovery: a crash leaves the committed file, a complete tmp
//     or a torn one; recovery picks the newest intact copy and fails
//     cleanly when there is none. (A storm run killed and restored from its
//     stream finishes bitwise: test_invariance.cpp's storm cells.)
//   * Format v2: every config writes version-2 checkpoints whose streamed
//     bytes match the stop-the-world encoder exactly; a v1 reader (version
//     byte patched back) skips the v2-only section cleanly.
//   * Health tracking runs on every run, gated or not; a run restored from
//     v1 bytes (no health state) counts FALLBACK periods from the restore.
//   * Health gating: days tainted by FALLBACK periods are provably never
//     fitted (journal-backed), re-anchoring waits out the healthy-streak
//     hysteresis, and the predicted-objective guard rolls back a re-fit
//     its own objective calls worse.
//   * Satellites: the measurement guard's carry floor stops post-blackout
//     demand cliffs; the rebate mechanism holds its pacing state through
//     blackout storms and keeps spend near the pool.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/serialize.hpp"
#include "gtest/gtest.h"
#include "horizon/checkpoint.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "horizon/multi_day_driver.hpp"
#include "mech/rebate.hpp"
#include "obs/journal.hpp"
#include "scenarios.hpp"
#include "tube/measurement_guard.hpp"

namespace tdp::horizon {
namespace {

using scenarios::expect_days_bitwise_equal;
using scenarios::run_uninterrupted;
using scenarios::storm_config;
using scenarios::storm_plan;
using scenarios::twenty_duty;

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::size_t journal_count(const std::string& kind) {
  std::size_t count = 0;
  for (const obs::JournalEvent& event : obs::Journal::global().snapshot()) {
    if (event.kind == kind) ++count;
  }
  return count;
}

// ---- Storm chain properties ------------------------------------------------

TEST(StormChain, PureFunctionOfPlanAcrossInstancesAndQueryOrder) {
  FaultPlan plan;
  plan.storm_blackout = twenty_duty(1.0);
  plan.seed = 777;
  const FaultInjector a(plan);
  const FaultInjector b(plan);

  constexpr std::uint64_t kPeriods = 500;
  std::vector<bool> forward(kPeriods);
  for (std::uint64_t t = 0; t < kPeriods; ++t) {
    forward[t] = a.storm_active(FaultInjector::StormDomain::kBlackout, t);
  }
  // A second instance queried backwards sees the identical storm history.
  for (std::uint64_t t = kPeriods; t-- > 0;) {
    EXPECT_EQ(b.storm_active(FaultInjector::StormDomain::kBlackout, t),
              forward[t])
        << "period " << t;
  }
  // Re-querying the first instance (it is const and stateless) agrees too.
  for (std::uint64_t t = 0; t < kPeriods; t += 7) {
    EXPECT_EQ(a.storm_active(FaultInjector::StormDomain::kBlackout, t),
              forward[t]);
  }
}

TEST(StormChain, DutyCycleMatchesStationaryTarget) {
  FaultPlan plan;
  plan.storm_blackout = twenty_duty(1.0);
  plan.seed = 20110704;
  const FaultInjector injector(plan);

  constexpr std::uint64_t kPeriods = 3000;
  std::uint64_t on = 0;
  std::uint64_t longest_burst = 0;
  std::uint64_t burst = 0;
  for (std::uint64_t t = 0; t < kPeriods; ++t) {
    if (injector.storm_active(FaultInjector::StormDomain::kBlackout, t)) {
      ++on;
      ++burst;
      longest_burst = std::max(longest_burst, burst);
    } else {
      burst = 0;
    }
  }
  const double duty = static_cast<double>(on) / kPeriods;
  // Stationary duty onset/(onset + 1 - persist) = 0.2, with Markov-chain
  // variance headroom on a 3000-period window.
  EXPECT_GT(duty, 0.12);
  EXPECT_LT(duty, 0.30);
  // Bursts, not i.i.d. sprinkles: mean burst length is ~4.2 periods, so a
  // long window must contain a multi-period storm.
  EXPECT_GE(longest_burst, 3u);
}

TEST(StormChain, DisabledRegimesNeverFire) {
  FaultPlan plan;
  plan.measurement_loss = 0.1;  // enabled injector, no storm regimes
  const FaultInjector injector(plan);
  for (std::uint64_t t = 0; t < 200; ++t) {
    EXPECT_FALSE(
        injector.storm_active(FaultInjector::StormDomain::kBlackout, t));
    EXPECT_FALSE(
        injector.storm_active(FaultInjector::StormDomain::kChannel, t));
    EXPECT_FALSE(
        injector.storm_active(FaultInjector::StormDomain::kSolver, t));
  }
}

TEST(StormChain, ZeroIntensityStormIsTransparentToIidDraws) {
  // Storm streams are forked off their own domains, so an enabled regime
  // that never fires (intensity 0) must leave every i.i.d. fault decision
  // bit-identical — the transparency half of the determinism contract.
  FaultPlan base;
  base.price_pull_drop = 0.05;
  base.measurement_loss = 0.04;
  base.measurement_nan = 0.02;
  base.measurement_spike = 0.02;
  base.solver_exhaustion = 0.03;
  base.seed = 424242;
  FaultPlan stormy = base;
  stormy.storm_blackout = twenty_duty(0.0);
  stormy.storm_channel = twenty_duty(0.0);
  stormy.storm_solver = twenty_duty(0.0);

  const FaultInjector quiet(base);
  const FaultInjector loud(stormy);
  for (std::uint64_t t = 0; t < 200; ++t) {
    EXPECT_EQ(loud.exhaust_solver(t), quiet.exhaust_solver(t));
    for (std::uint64_t entity = 0; entity < 4; ++entity) {
      EXPECT_EQ(loud.measurement_fault(entity, t),
                quiet.measurement_fault(entity, t));
      EXPECT_EQ(loud.drop_price_pull(entity, t),
                quiet.drop_price_pull(entity, t));
    }
  }
}

TEST(StormChain, ChainsArePerDomainIndependent) {
  FaultPlan plan;
  plan.storm_blackout = twenty_duty(1.0);
  plan.storm_channel = twenty_duty(1.0);
  plan.storm_solver = twenty_duty(1.0);
  plan.seed = 99;
  const FaultInjector injector(plan);

  // Same regime parameters, domain-keyed streams: the three chains must
  // not replay each other's history.
  bool blackout_differs_channel = false;
  bool channel_differs_solver = false;
  for (std::uint64_t t = 0; t < 600; ++t) {
    const bool bo =
        injector.storm_active(FaultInjector::StormDomain::kBlackout, t);
    const bool ch =
        injector.storm_active(FaultInjector::StormDomain::kChannel, t);
    const bool so =
        injector.storm_active(FaultInjector::StormDomain::kSolver, t);
    blackout_differs_channel |= bo != ch;
    channel_differs_solver |= ch != so;
  }
  EXPECT_TRUE(blackout_differs_channel);
  EXPECT_TRUE(channel_differs_solver);
}

// ---- Streamed recovery ------------------------------------------------------

TEST(StormKillRestore, TornTmpFallsBackToCommittedCheckpoint) {
  MultiDayDriver driver(storm_config());
  for (int i = 0; i < 7; ++i) driver.step_period();
  const CheckpointData older = driver.checkpoint();
  for (int i = 0; i < 12; ++i) driver.step_period();
  const CheckpointData newer = driver.checkpoint();

  const std::string path = ::testing::TempDir() + "tdp_storm_torn_ck.bin";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  save_checkpoint_file(path, older);

  // A crash mid-write leaves a torn tmp beside the committed file: the
  // newer state's bytes, cut off halfway. Recovery must reject it (CRC)
  // and fall back to the committed checkpoint.
  const std::vector<std::uint8_t> newer_bytes = encode(newer);
  std::vector<std::uint8_t> torn(newer_bytes.begin(),
                                 newer_bytes.begin() + newer_bytes.size() / 2);
  write_file_bytes(path + ".tmp", torn);

  const CheckpointData recovered = load_checkpoint_file_recover(path);
  EXPECT_EQ(recovered.day, older.day);
  EXPECT_EQ(recovered.period, older.period);
  EXPECT_EQ(encode(recovered), encode(older));
}

TEST(StormKillRestore, CompleteTmpBeatsOlderCommittedFile) {
  MultiDayDriver driver(storm_config());
  for (int i = 0; i < 7; ++i) driver.step_period();
  const CheckpointData older = driver.checkpoint();
  for (int i = 0; i < 12; ++i) driver.step_period();
  const CheckpointData newer = driver.checkpoint();
  // The newer clock with other bytes: a re-commit in flight.
  CheckpointData recommit = newer;
  ++recommit.channel.publish_count;
  ASSERT_NE(encode(recommit), encode(newer));

  struct Case {
    const char* name;
    const CheckpointData* committed;  ///< nullptr: no committed file
    const CheckpointData* tmp;        ///< written complete
    const CheckpointData* expected;
  };
  const Case cases[] = {
      // A crash between fsync and rename leaves a *complete* newer tmp
      // beside the older committed file: recovery resumes from the later
      // clock.
      {"newer tmp", &older, &newer, &newer},
      // A stale complete tmp beside a newer committed file loses.
      {"older tmp", &newer, &older, &newer},
      // Equal clocks: the committed file wins.
      {"equal clocks", &newer, &recommit, &newer},
      // The first commit died before its rename: the tmp is all there is.
      {"tmp only", nullptr, &newer, &newer},
  };
  const std::string path = ::testing::TempDir() + "tdp_storm_race_ck.bin";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    if (c.committed != nullptr) save_checkpoint_file(path, *c.committed);
    write_file_bytes(path + ".tmp", encode(*c.tmp));
    const CheckpointData recovered = load_checkpoint_file_recover(path);
    EXPECT_EQ(recovered.day, c.expected->day);
    EXPECT_EQ(recovered.period, c.expected->period);
    EXPECT_EQ(encode(recovered), encode(*c.expected));
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(StormKillRestore, NoRecoverableCheckpointThrowsCleanly) {
  const std::string missing =
      ::testing::TempDir() + "tdp_storm_missing_ck.bin";
  std::remove(missing.c_str());
  std::remove((missing + ".tmp").c_str());
  EXPECT_THROW(load_checkpoint_file_recover(missing), Error);

  // Both copies present but torn: still a clean error, never UB.
  write_file_bytes(missing, {0x00, 0x01, 0x02});
  write_file_bytes(missing + ".tmp", {0xFF});
  EXPECT_THROW(load_checkpoint_file_recover(missing), Error);
  std::remove(missing.c_str());
  std::remove((missing + ".tmp").c_str());
}

// ---- Streamed commits vs the driver's own checkpoint ------------------------

TEST(StreamingCheckpoint, StreamedBytesMatchStopTheWorldEncode) {
  HorizonConfig config = storm_config();
  config.checkpoint_path = ::testing::TempDir() + "tdp_storm_stream_ck.bin";
  config.checkpoint_every_periods = 7;
  std::remove(config.checkpoint_path.c_str());
  std::remove((config.checkpoint_path + ".tmp").c_str());
  MultiDayDriver driver(config);

  // The file the driver committed at this boundary is checkpoint() at the
  // same boundary, byte for byte.
  const auto expect_committed_is_checkpoint = [&] {
    EXPECT_EQ(read_file_bytes(config.checkpoint_path),
              driver.checkpoint_bytes());
    // The commit renamed its tmp over the file.
    EXPECT_FALSE(std::ifstream(config.checkpoint_path + ".tmp").good());
  };

  // Mid-day commit.
  for (int i = 0; i < 7; ++i) driver.step_period();
  ASSERT_EQ(driver.period(), 7u);
  expect_committed_is_checkpoint();

  // Day-boundary commit.
  for (int i = 0; i < 5; ++i) driver.step_period();  // period 12 rolls the day
  ASSERT_EQ(driver.period(), 0u);
  expect_committed_is_checkpoint();

  std::remove(config.checkpoint_path.c_str());
}

/// The section tags of framed checkpoint bytes, in file order.
std::vector<std::uint32_t> section_tags(const std::vector<std::uint8_t>& bytes) {
  ser::Reader r(bytes, kCheckpointMagic, 1, kCheckpointVersion);
  std::vector<std::uint32_t> tags;
  while (!r.at_end()) {
    tags.push_back(r.begin_section());
    r.skip_section();
  }
  return tags;
}

TEST(StreamingCheckpoint, EveryConfigWritesV2) {
  // With or without storm regimes and health gates, the writer emits
  // format v2 with the mechanism and storm sections and never the retired
  // counter table (11); only the incident section depends on the config
  // (off here).
  const std::vector<std::uint32_t> all_but_incident = {
      1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13};
  HorizonConfig plain = storm_config();
  plain.fault = FaultPlan{};
  plain.fault.measurement_loss = 0.04;
  MultiDayDriver plain_driver(plain);
  plain_driver.step_period();
  const std::vector<std::uint8_t> plain_bytes = plain_driver.checkpoint_bytes();
  ASSERT_GT(plain_bytes.size(), 8u);
  EXPECT_EQ(plain_bytes[4], 2u);  // version u32 (little endian) at offset 4
  EXPECT_EQ(section_tags(plain_bytes), all_but_incident);

  MultiDayDriver storm_driver(storm_config());
  storm_driver.step_period();
  const std::vector<std::uint8_t> v2 = storm_driver.checkpoint_bytes();
  ASSERT_GT(v2.size(), 8u);
  EXPECT_EQ(v2[4], 2u);
  EXPECT_EQ(v2[5], 0u);
  EXPECT_EQ(v2[6], 0u);
  EXPECT_EQ(v2[7], 0u);
  EXPECT_EQ(section_tags(v2), all_but_incident);

  // The v2 section echoes the storm plan and health gates for restore
  // validation.
  const CheckpointData data = decode(v2);
  const FaultPlan plan = storm_plan();
  const FaultPlan& echoed = data.config.fault;
  EXPECT_EQ(echoed.storm_blackout.onset, plan.storm_blackout.onset);
  EXPECT_EQ(echoed.storm_blackout.persist, plan.storm_blackout.persist);
  EXPECT_EQ(echoed.storm_channel.intensity, plan.storm_channel.intensity);
  EXPECT_EQ(echoed.storm_solver.onset, plan.storm_solver.onset);
  EXPECT_FALSE(data.config.estimation_health_gate);
  EXPECT_EQ(data.config.reanchor_healthy_periods, 0u);
}

TEST(StreamingCheckpoint, V1ReaderSkipsV2OnlySections) {
  // The compat contract: a v1 reader seeing a v2 file must skip the
  // storm section instead of rejecting it. The CRC covers the payload
  // only, so patching the header's version byte back to 1 turns today's
  // reader into yesterday's.
  MultiDayDriver driver(storm_config());
  for (int i = 0; i < 5; ++i) driver.step_period();
  const std::vector<std::uint8_t> v2 = driver.checkpoint_bytes();
  const CheckpointData full = decode(v2);

  std::vector<std::uint8_t> as_v1 = v2;
  as_v1[4] = 1;
  const CheckpointData skipped = decode(as_v1);

  // Everything v1 carries survives; the v2-only extras fall back to their
  // defaults instead of poisoning the load.
  EXPECT_EQ(skipped.day, full.day);
  EXPECT_EQ(skipped.period, full.period);
  EXPECT_EQ(skipped.config.population.users, full.config.population.users);
  EXPECT_EQ(skipped.completed_days.size(), full.completed_days.size());
  EXPECT_FALSE(skipped.config.fault.storm_blackout.enabled());
  EXPECT_FALSE(skipped.config.fault.storm_channel.enabled());
  EXPECT_FALSE(skipped.config.fault.storm_solver.enabled());
  EXPECT_FALSE(skipped.config.estimation_health_gate);
  EXPECT_EQ(skipped.healthy_streak_periods, 0u);
}

TEST(StreamingCheckpoint, UngatedRunsTrackHealthAndAV1RestoreCountsFromIt) {
  // No gate and no storm regime (a v1 reader skips their echo), only
  // i.i.d. measurement loss heavy enough to drive the pricer into FALLBACK.
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
  config.fault.measurement_loss = 0.3;
  config.fault.seed = 99;
  const std::vector<DayMetrics> uninterrupted = run_uninterrupted(config);

  // Health is tracked without a gate.
  std::uint64_t fallback_total = 0;
  for (const DayMetrics& day : uninterrupted) {
    fallback_total += day.fallback_periods;
  }
  EXPECT_GT(fallback_total, 0u) << "ungated run counted no FALLBACK period";

  // Killed mid-day 2 (period 6): the v2 checkpoint carries the counts.
  std::vector<std::uint8_t> v2;
  {
    MultiDayDriver victim(config);
    for (int i = 0; i < 30; ++i) victim.step_period();
    v2 = victim.checkpoint_bytes();
  }
  std::unique_ptr<MultiDayDriver> from_v2 = MultiDayDriver::restore(config, v2);
  while (!from_v2->done()) from_v2->step_period();
  expect_days_bitwise_equal(from_v2->completed_days(), uninterrupted);

  // A v1 file carries no health state, so a run restored from one counts
  // FALLBACK periods from the restore on; every simulated field is as
  // bitwise as from v2.
  const CheckpointData at_kill = decode(v2);
  ASSERT_EQ(at_kill.day, 2u);
  std::vector<std::uint8_t> as_v1 = v2;
  as_v1[4] = 1;
  std::unique_ptr<MultiDayDriver> from_v1 =
      MultiDayDriver::restore(config, as_v1);
  while (!from_v1->done()) from_v1->step_period();
  std::vector<DayMetrics> expected = uninterrupted;
  for (std::size_t d = 0; d < at_kill.day; ++d) {
    expected[d].fallback_periods = 0;
  }
  const std::uint64_t before_kill = at_kill.partial.fallback_periods;
  ASSERT_GT(before_kill, 0u);
  ASSERT_LT(before_kill, expected[at_kill.day].fallback_periods);
  expected[at_kill.day].fallback_periods -= before_kill;
  expect_days_bitwise_equal(from_v1->completed_days(), expected);
}

// ---- Health-aware re-anchoring ---------------------------------------------

TEST(HealthGate, EstimationNeverAdoptsFallbackWindowData) {
  // Heavy blackout bursts drive the guarded pricer into FALLBACK; with the
  // health gate armed, any day containing a FALLBACK period must be frozen
  // out of the estimation window — provably, via the journal.
  HorizonConfig config = storm_config();
  config.fault = FaultPlan{};
  config.fault.storm_blackout.onset = 0.25;
  config.fault.storm_blackout.persist = 0.9;
  config.fault.storm_blackout.intensity = 1.0;
  config.fault.seed = 20110704;
  config.horizon_days = 5;
  config.estimation_window = 4;
  config.pricer_guard = PricerGuardConfig::protective();
  config.estimation_health_gate = true;

  obs::Journal::global().clear();
  MultiDayDriver driver(config);
  driver.run();

  std::size_t tainted_days = 0;
  for (const DayMetrics& day : driver.completed_days()) {
    SCOPED_TRACE("day " + std::to_string(day.day));
    if (day.fallback_periods > 0) {
      ++tainted_days;
      // The core invariant: a fallback-tainted day is never fitted.
      EXPECT_FALSE(day.estimated);
    }
    if (day.estimation_frozen) {
      EXPECT_GT(day.fallback_periods, 0u);
      EXPECT_FALSE(day.estimated);
    }
  }
  // The storm actually bit (otherwise this test proves nothing) and each
  // freeze was journaled.
  EXPECT_GT(tainted_days, 0u);
  EXPECT_GE(journal_count("horizon.estimation_frozen"), 1u);
}

TEST(HealthGate, ReanchorHysteresisDefersUntilHealthyStreak) {
  // An unreachable streak requirement defers every re-anchor: estimates
  // still land (the window keeps filling) but the model is never swapped,
  // and each deferral is journaled.
  HorizonConfig config = storm_config();
  config.fault = FaultPlan{};  // clean run, the gate alone defers
  config.horizon_days = 4;
  config.reanchor_healthy_periods = 1u << 20;

  obs::Journal::global().clear();
  MultiDayDriver driver(config);
  driver.run();

  bool any_estimated = false;
  for (const DayMetrics& day : driver.completed_days()) {
    any_estimated |= day.estimated;
    EXPECT_FALSE(day.reanchored)
        << "day " << day.day << " re-anchored under an unmet streak gate";
  }
  EXPECT_TRUE(any_estimated);
  EXPECT_GE(journal_count("horizon.reanchor_deferred"), 1u);

  // A trivially-met streak requirement is behavior-transparent: on a clean
  // run every period is HEALTHY, so hysteresis of 1 reproduces the ungated
  // run bit for bit (health fields included: both runs track them).
  HorizonConfig ungated = storm_config();
  ungated.fault = FaultPlan{};
  ungated.horizon_days = 4;
  HorizonConfig gated = ungated;
  gated.reanchor_healthy_periods = 1;
  expect_days_bitwise_equal(run_uninterrupted(ungated),
                            run_uninterrupted(gated));
}

TEST(HealthGate, ObjectiveGuardRollsBackWorseningRefit) {
  // tolerance -0.999 demands the candidate beat the anchored schedule by
  // 1000x — impossible — so every re-fit is deterministically rolled back.
  HorizonConfig config = storm_config();
  config.fault = FaultPlan{};
  config.horizon_days = 4;
  config.reanchor_objective_guard = true;
  config.reanchor_guard_tolerance = -0.999;

  obs::Journal::global().clear();
  MultiDayDriver driver(config);
  driver.run();

  bool any_rolled_back = false;
  for (const DayMetrics& day : driver.completed_days()) {
    EXPECT_FALSE(day.reanchored);
    any_rolled_back |= day.reanchor_rolled_back;
  }
  EXPECT_TRUE(any_rolled_back);
  EXPECT_GE(journal_count("horizon.reanchor_rolledback"), 1u);
  EXPECT_EQ(journal_count("horizon.reanchor_adopted"), 0u);
}

TEST(HealthGate, ObjectiveGuardAdoptsWithinTolerance) {
  // A generous tolerance admits the re-fit: the guard journals the adopt
  // decision with both predicted costs.
  HorizonConfig config = storm_config();
  config.fault = FaultPlan{};
  config.horizon_days = 4;
  config.reanchor_objective_guard = true;
  config.reanchor_guard_tolerance = 10.0;

  obs::Journal::global().clear();
  MultiDayDriver driver(config);
  driver.run();

  bool any_reanchored = false;
  for (const DayMetrics& day : driver.completed_days()) {
    any_reanchored |= day.reanchored;
    EXPECT_FALSE(day.reanchor_rolled_back);
  }
  EXPECT_TRUE(any_reanchored);
  EXPECT_GE(journal_count("horizon.reanchor_adopted"), 1u);
  EXPECT_EQ(journal_count("horizon.reanchor_rolledback"), 0u);
}

// ---- Measurement-guard carry floor (satellite) -----------------------------

TEST(GuardFloor, CarryFloorPreventsPostBlackoutDemandCliff) {
  // Regression for the post-blackout first-re-solve spike: a multi-day
  // blackout over a near-zero reference period used to decay the carried
  // value toward the (stale, tiny) reference, so the first re-solve after
  // the lights came back saw a demand cliff. The floor clamps the decay at
  // a fraction of the last good sample.
  const std::vector<double> reference{10.0, 0.5, 30.0, 40.0};
  const double last_good = 3.0;

  MeasurementGuardConfig floorless;
  floorless.max_carry_forward = 1;
  floorless.carry_floor_fraction = 0.0;  // legacy pure decay-to-reference
  MeasurementGuard legacy(reference, floorless);

  MeasurementGuardConfig floored = floorless;
  floored.carry_floor_fraction = 0.5;
  MeasurementGuard guarded(reference, floored);

  legacy.admit(1, last_good);
  guarded.admit(1, last_good);
  double legacy_fill = last_good;
  double guarded_fill = last_good;
  for (int day = 0; day < 6; ++day) {
    legacy_fill = legacy.admit(1, std::nullopt).value;
    guarded_fill = guarded.admit(1, std::nullopt).value;
    EXPECT_GE(guarded_fill, 0.5 * last_good)
        << "floor pierced on blackout day " << day;
  }
  // Legacy decay collapses toward the 0.5 reference — a 5x cliff when the
  // real ~3.0 demand returns; the floored guard stays within 2x.
  EXPECT_LT(legacy_fill, 0.6);
  EXPECT_GT(last_good / legacy_fill, 5.0);
  EXPECT_EQ(guarded_fill, 0.5 * last_good);
  EXPECT_LE(last_good / guarded_fill, 2.0);
}

TEST(GuardFloor, RejectsOutOfRangeFloor) {
  MeasurementGuardConfig config;
  config.carry_floor_fraction = 1.0;
  EXPECT_THROW(MeasurementGuard({1.0, 2.0}, config), PreconditionError);
  config.carry_floor_fraction = -0.1;
  EXPECT_THROW(MeasurementGuard({1.0, 2.0}, config), PreconditionError);
}

// ---- Rebate pacing under storms (satellite) --------------------------------

TEST(RebateStorm, PacingHoldsThroughBlackoutsAndSpendStaysNearPool) {
  HorizonConfig config = storm_config();
  config.fault = FaultPlan{};
  config.fault.storm_blackout = twenty_duty(1.0);
  config.fault.seed = 20110704;
  config.horizon_days = 4;
  config.mechanism.kind = mech::MechanismKind::kFixedBudgetRebate;
  config.mechanism.rebate_pool = 40.0;

  MultiDayDriver driver(config);
  driver.run();

  const auto* rebate = dynamic_cast<const mech::FixedBudgetRebateMechanism*>(
      &driver.mechanism());
  ASSERT_NE(rebate, nullptr);
  EXPECT_EQ(rebate->pool(), 40.0);
  EXPECT_EQ(rebate->days_settled(),
            static_cast<std::uint64_t>(config.warmup_days) +
                config.horizon_days);
  // The storm actually blacked out measurements, so at least one settle
  // ran on hold (books kept, learned state frozen).
  EXPECT_GE(rebate->held_settles(), 1u);
  EXPECT_LT(rebate->held_settles(), rebate->days_settled());

  // Held settles must not let the pacer wind up: the cumulative scale
  // stays in its clamp band and mean daily spend stays near the pool.
  EXPECT_GE(rebate->spend_scale(), 0.1);
  EXPECT_LE(rebate->spend_scale(), 10.0);
  EXPECT_GT(rebate->paid_total(), 0.0);
  const double mean_paid =
      rebate->paid_total() / static_cast<double>(rebate->days_settled());
  EXPECT_LT(mean_paid, 1.5 * rebate->pool());
}

}  // namespace
}  // namespace tdp::horizon
