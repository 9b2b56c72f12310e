// The incident-engine battery (ISSUE: deterministic anomaly detection,
// SLO burn-rate alerts, flight-recorder triage).
//
//   * Detectors: the CUSUM and EWMA primitives follow their published
//     update equations exactly — drift absorption, alert-and-reset,
//     prior-scored z with warmup and the relative variance floor.
//   * Engine: synthetic signal sequences open/close the SLO objectives at
//     the documented burn thresholds with the right severity and
//     attribution snapshot; the pacing bound arms after its grace period
//     and never judges held books.
//   * Checkpoints: kSecIncident round-trips the complete engine state;
//     restore rejects a config whose detector thresholds disagree with
//     the checkpointed echo.
//   * Dumps: TDPI framing round-trips; corrupted or truncated bytes raise
//     ser::FormatError instead of parsing garbage, each field validator
//     rejects a CRC-valid dump only it can catch, and a flipped dump with
//     its CRC re-sealed is rejected or restores into an engine that keeps
//     observing.
//
// The alert stream's invariance across thread counts, kill/restore and the
// telemetry switch, and the engine as a pure observer, are the invariance
// battery's incident cells (test_invariance.cpp).
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "gtest/gtest.h"
#include "horizon/checkpoint.hpp"
#include "horizon/multi_day_driver.hpp"
#include "obs/incident/detectors.hpp"
#include "obs/incident/incident.hpp"
#include "reframe.hpp"
#include "scenarios.hpp"

namespace tdp::obs::incident {
namespace {

// ---------------------------------------------------------------------------
// Detector primitives

TEST(CusumDetector, AccumulatesDriftFiresAndRearms) {
  CusumDetector cusum;
  // Below drift: S stays clamped at zero.
  EXPECT_EQ(cusum.update(0.1, 0.25, 0.7), 0.0);
  EXPECT_EQ(cusum.value(), 0.0);
  // Sustained unit disturbance: S += 1 - 0.25 per period.
  EXPECT_EQ(cusum.update(1.0, 0.25, 0.7), 0.75);  // fired (>= 0.7)...
  EXPECT_EQ(cusum.value(), 0.0);                  // ...and reset
  EXPECT_EQ(cusum.firings(), 1u);
  // Partial disturbance accumulates across periods before firing.
  EXPECT_EQ(cusum.update(0.5, 0.25, 0.7), 0.25);
  EXPECT_EQ(cusum.update(0.5, 0.25, 0.7), 0.5);
  EXPECT_EQ(cusum.update(0.5, 0.25, 0.7), 0.75);
  EXPECT_EQ(cusum.firings(), 2u);
  EXPECT_EQ(cusum.samples(), 5u);
  // Calm periods decay the statistic by k each.
  cusum.update(0.6, 0.25, 0.7);
  EXPECT_NEAR(cusum.value(), 0.35, 1e-12);
  cusum.update(0.0, 0.25, 0.7);
  EXPECT_NEAR(cusum.value(), 0.1, 1e-12);
}

TEST(EwmaDetector, ScoresAgainstThePriorEstimateAfterWarmup) {
  EwmaDetector ewma;
  // Warmup: z reported as 0 until min_samples observations folded in.
  EXPECT_EQ(ewma.update(2.0, 0.3, 3), 0.0);
  EXPECT_EQ(ewma.update(2.0, 0.3, 3), 0.0);
  EXPECT_EQ(ewma.update(2.0, 0.3, 3), 0.0);
  EXPECT_EQ(ewma.samples(), 3u);
  EXPECT_DOUBLE_EQ(ewma.mean(), 2.0);
  // A stable series pins the variance at the floor, so a jump scores huge
  // (the floor is relative to the mean: max(1e-12, 1e-3 * |mean|)).
  const double z = ewma.update(3.0, 0.3, 3);
  EXPECT_GT(z, 100.0);
  // ...and the sample still folds into the estimate afterwards.
  EXPECT_GT(ewma.mean(), 2.0);
  EXPECT_GT(ewma.variance(), 0.0);
}

// ---------------------------------------------------------------------------
// Engine semantics on synthetic signals

IncidentConfig engine_config() {
  IncidentConfig config;
  config.enabled = true;
  return config;
}

PeriodSignals quiet_period(std::uint64_t abs_period) {
  PeriodSignals sig;
  sig.day = abs_period / 48;
  sig.period = static_cast<std::uint32_t>(abs_period % 48);
  sig.abs_period = abs_period;
  sig.price_groups = 4;
  return sig;
}

TEST(IncidentEngine, LoopDisturbanceOpensOnBothBurnWindowsAndCloses) {
  IncidentEngine engine(engine_config());
  std::uint64_t t = 0;
  // Calm periods fill the long window: no incident.
  for (; t < 16; ++t) engine.observe_period(quiet_period(t));
  EXPECT_EQ(engine.incidents_opened(), 0u);

  // A 5-period disturbance clears both windows: short 4/4 = 1.0 >= 1.0,
  // long >= 0.30 at the fifth bad period. The engine snapshots the storm
  // regime and health for attribution at open.
  std::uint64_t opened_at = 0;
  for (std::size_t bad = 0; bad < 5; ++bad, ++t) {
    PeriodSignals sig = quiet_period(t);
    sig.measurement_gap = true;
    sig.storm_blackout = true;
    sig.health = PricerHealth::kDegraded;
    engine.observe_period(sig);
    if (engine.incidents_opened() == 1 && opened_at == 0) opened_at = t;
  }
  ASSERT_EQ(engine.incidents_opened(), 1u);
  const Incident& incident = engine.incidents()[0];
  EXPECT_EQ(incident.objective, Objective::kLoopDisturbance);
  EXPECT_EQ(incident.open_abs_period, opened_at);
  EXPECT_TRUE(incident.storm_blackout);
  EXPECT_FALSE(incident.storm_channel);
  EXPECT_EQ(incident.health, PricerHealth::kDegraded);
  EXPECT_EQ(engine.open_incidents(), 1u);

  // Re-opening is suppressed while the objective is already open; calm
  // periods drain the windows and close it.
  for (std::size_t calm = 0; calm < 16; ++calm, ++t) {
    engine.observe_period(quiet_period(t));
  }
  EXPECT_EQ(engine.incidents_opened(), 1u);
  EXPECT_EQ(engine.incidents_closed(), 1u);
  EXPECT_TRUE(engine.incidents()[0].closed);
}

TEST(IncidentEngine, PacingBoundArmsAfterGraceAndSkipsHeldBooks) {
  IncidentConfig config = engine_config();
  config.pacing_grace_days = 1;
  IncidentEngine engine(config);

  SettleSignals over;
  over.budget_spent = 2.0;
  over.budget_pool = 1.0;  // ratio 2.0 > pacing_max_ratio 1.5
  over.day = 0;
  over.abs_period = 47;
  engine.observe_settle(over);  // within grace: no alert
  EXPECT_EQ(engine.alerts_emitted(), 0u);

  over.day = 1;
  over.abs_period = 95;
  over.books_held = true;  // blackout hold: pacing frozen, not judged
  engine.observe_settle(over);
  EXPECT_EQ(engine.alerts_emitted(), 0u);

  over.day = 2;
  over.abs_period = 143;
  over.books_held = false;
  engine.observe_settle(over);
  ASSERT_EQ(engine.alerts_emitted(), 1u);
  EXPECT_EQ(engine.alerts()[0].kind, AlertKind::kPacingBound);
  EXPECT_EQ(engine.alerts()[0].value, 2.0);
  EXPECT_EQ(engine.alerts()[0].period, kDayScopedPeriod);
  // The pacing objective opened alongside the alert.
  ASSERT_EQ(engine.incidents_opened(), 1u);
  EXPECT_EQ(engine.incidents()[0].objective, Objective::kPacing);

  // An unbudgeted mechanism (pool 0) is never judged.
  SettleSignals unbudgeted;
  unbudgeted.day = 3;
  unbudgeted.abs_period = 191;
  unbudgeted.budget_spent = 5.0;
  unbudgeted.budget_pool = 0.0;
  engine.observe_settle(unbudgeted);
  EXPECT_EQ(engine.alerts_emitted(), 1u);
}

TEST(IncidentEngine, FallbackBudgetObjectiveOpensOnABadDay) {
  IncidentConfig config = engine_config();
  config.slo_max_fallback_per_day = 6;
  IncidentEngine engine(config);

  DaySignals day;
  day.day = 0;
  day.abs_period = 47;
  day.peak_to_average_tip = 2.0;
  day.peak_to_average_tdp = 1.6;
  day.peak_realized_units = 100.0;
  day.fallback_periods = 4;  // under budget
  engine.observe_day(day);
  EXPECT_EQ(engine.incidents_opened(), 0u);

  day.day = 1;
  day.abs_period = 95;
  day.fallback_periods = 9;  // over budget
  engine.observe_day(day);
  ASSERT_EQ(engine.incidents_opened(), 1u);
  EXPECT_EQ(engine.incidents()[0].objective, Objective::kFallbackBudget);

  day.day = 2;
  day.abs_period = 143;
  day.fallback_periods = 0;  // clean day closes it
  engine.observe_day(day);
  EXPECT_EQ(engine.incidents_closed(), 1u);
}

TEST(IncidentEngine, DayEndZScoresAlertOnAShapeBreak) {
  IncidentEngine engine(engine_config());
  DaySignals day;
  day.peak_to_average_tip = 2.0;
  day.peak_realized_units = 100.0;
  for (std::uint64_t d = 0; d < 4; ++d) {
    day.day = d;
    day.abs_period = d * 48 + 47;
    day.peak_to_average_tdp = 1.6;  // stable 20% reduction
    engine.observe_day(day);
  }
  EXPECT_EQ(engine.alerts_emitted(), 0u);

  day.day = 4;
  day.abs_period = 4 * 48 + 47;
  day.peak_to_average_tdp = 2.0;  // reduction collapses to zero
  engine.observe_day(day);
  bool p2a_alert = false;
  for (const Alert& alert : engine.alerts()) {
    p2a_alert = p2a_alert || alert.kind == AlertKind::kP2aZScore;
  }
  EXPECT_TRUE(p2a_alert);
}

TEST(IncidentEngine, HealthEdgesAlertOnEveryTransition) {
  IncidentEngine engine(engine_config());
  PeriodSignals sig = quiet_period(0);
  sig.health = PricerHealth::kHealthy;
  engine.observe_period(sig);
  EXPECT_EQ(engine.alerts_emitted(), 0u);  // first observation: no edge

  sig = quiet_period(1);
  sig.health = PricerHealth::kDegraded;
  engine.observe_period(sig);
  sig = quiet_period(2);
  sig.health = PricerHealth::kFallback;
  engine.observe_period(sig);
  sig = quiet_period(3);
  sig.health = PricerHealth::kHealthy;
  engine.observe_period(sig);

  ASSERT_EQ(engine.alerts_emitted(), 3u);
  for (const Alert& alert : engine.alerts()) {
    EXPECT_EQ(alert.kind, AlertKind::kHealthEdge);
  }
  EXPECT_EQ(engine.alerts()[0].value, 1.0);      // -> DEGRADED
  EXPECT_EQ(engine.alerts()[0].threshold, 0.0);  // from HEALTHY
  EXPECT_EQ(engine.alerts()[2].value, 0.0);      // back to HEALTHY
}

TEST(IncidentEngine, AlertRetentionIsBoundedAndCountsDrops) {
  IncidentConfig config = engine_config();
  config.max_alerts = 4;
  IncidentEngine engine(config);
  // Alternate health every period: one edge alert each.
  for (std::uint64_t t = 0; t < 10; ++t) {
    PeriodSignals sig = quiet_period(t);
    sig.health =
        (t % 2 == 0) ? PricerHealth::kDegraded : PricerHealth::kHealthy;
    engine.observe_period(sig);
  }
  EXPECT_EQ(engine.alerts().size(), 4u);
  EXPECT_EQ(engine.alerts_emitted(), 9u);  // seq keeps counting
  EXPECT_EQ(engine.alerts_dropped(), 5u);
}

// ---------------------------------------------------------------------------
// Config echo and dump framing

TEST(IncidentConfigEcho, MatchesOnThresholdsIgnoresExecutionKnobs) {
  IncidentConfig a = engine_config();
  IncidentConfig b = a;
  b.dump_path = "/somewhere/else.tdpi";
  b.commit_latency_budget_seconds = 99.0;
  EXPECT_TRUE(config_echo_matches(a, b));  // knobs are not echoed

  b = a;
  b.cusum_h = 0.9;
  EXPECT_FALSE(config_echo_matches(a, b));
  b = a;
  b.slo_long_window = 32;
  EXPECT_FALSE(config_echo_matches(a, b));
}

/// A small engine with non-trivial state in every section: alerts,
/// incidents, detector posture, windows, recorder ring wrap.
IncidentEngine populated_engine() {
  IncidentConfig config = engine_config();
  config.recorder_capacity = 8;  // force ring wrap
  IncidentEngine engine(config);
  for (std::uint64_t t = 0; t < 40; ++t) {
    PeriodSignals sig = quiet_period(t);
    sig.measurement_gap = (t % 3 == 0);
    sig.failed_attempts = (t % 5 == 0) ? 4 : 0;
    sig.solver_starved = (t % 7 == 0);
    sig.health =
        (t % 4 == 0) ? PricerHealth::kDegraded : PricerHealth::kHealthy;
    sig.storm_blackout = t > 20;
    engine.observe_period(sig);
  }
  SettleSignals settle;
  settle.day = 0;
  settle.abs_period = 39;
  settle.budget_spent = 1.0;
  settle.budget_pool = 2.0;
  engine.observe_settle(settle);
  DaySignals day;
  day.day = 0;
  day.abs_period = 39;
  day.peak_to_average_tip = 2.0;
  day.peak_to_average_tdp = 1.7;
  day.peak_realized_units = 50.0;
  day.reanchored = true;
  engine.observe_day(day);
  return engine;
}

TEST(IncidentDump, RoundTripsBitwiseThroughRestoreState) {
  const IncidentEngine engine = populated_engine();
  const std::vector<std::uint8_t> bytes = engine.dump(false);

  const DumpData decoded = decode_dump(bytes);
  EXPECT_FALSE(decoded.has_wall);
  EXPECT_TRUE(config_echo_matches(decoded.config, engine.config()));
  EXPECT_EQ(decoded.state.alerts, engine.state().alerts);
  EXPECT_EQ(decoded.state.incidents, engine.state().incidents);
  EXPECT_EQ(decoded.state.recorder, engine.state().recorder);

  // A second engine restored from the decoded state dumps the same bytes.
  IncidentConfig config = engine.config();
  IncidentEngine restored(config);
  restored.restore_state(decoded.state);
  EXPECT_EQ(restored.dump(false), bytes);
}

TEST(IncidentDump, CorruptionAndTruncationRaiseFormatError) {
  const IncidentEngine engine = populated_engine();
  std::vector<std::uint8_t> bytes = engine.dump(false);

  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;  // payload bit flip -> CRC mismatch
  EXPECT_THROW(decode_dump(flipped), ser::FormatError);

  std::vector<std::uint8_t> truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(decode_dump(truncated), ser::FormatError);

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_dump(bad_magic), ser::FormatError);

  // Re-framed mode: flip payload bytes only and re-seal the CRC, so the
  // field validators meet the hostile bytes. Each mutation is rejected
  // with a typed error, or restores into an engine that keeps observing.
  Rng rng(20240611);
  int observed = 0;
  int rejected = 0;
  for (int round = 0; round < 400; ++round) {
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t flips = 1 + rng.uniform_index(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[reframe::kHeaderBytes +
              rng.uniform_index(mutated.size() - reframe::kHeaderBytes -
                                reframe::kCrcBytes)] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    }
    try {
      const DumpData decoded = decode_dump(reframe::reseal(mutated));
      IncidentEngine restored(engine.config());
      restored.restore_state(decoded.state);
      for (std::uint64_t t = 40; t < 44; ++t) {
        restored.observe_period(quiet_period(t));
      }
      ++observed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(observed, 0) << "no mutation got past the validators";
  EXPECT_GT(rejected, 0) << "no mutation was rejected";

  // A position at the end of a full ring decodes (the decoder cannot see
  // the capacity) but cannot restore: the next record would write past it.
  DumpData full = decode_dump(bytes);
  ASSERT_EQ(full.state.recorder.size(), engine.config().recorder_capacity);
  full.state.recorder_pos =
      static_cast<std::uint32_t>(full.state.recorder.size());
  const DumpData past_end = decode_dump(encode_dump(full));
  IncidentEngine refused(engine.config());
  EXPECT_THROW(refused.restore_state(past_end.state), PreconditionError);
}

TEST(IncidentDump, FieldValidatorsRejectOutOfRangeValues) {
  // The CRC rejects every random flip before a field validator runs, so
  // each case hands decode_dump a CRC-valid dump that only the validator
  // under test can reject: built through encode_dump (which does not
  // validate), or, for packed flags and bools, patched and re-sealed.
  const IncidentEngine engine = populated_engine();
  DumpData good = decode_dump(engine.dump(false));
  good.state.incidents.push_back(Incident{});  // the engine opened none
  ASSERT_FALSE(good.state.alerts.empty());
  ASSERT_FALSE(good.state.recorder.empty());
  ASSERT_FALSE(good.state.slo_window.empty());

  using Mutation = void (*)(EngineState&);
  const std::pair<const char*, Mutation> cases[] = {
      {"alert kind 7",
       [](EngineState& s) { s.alerts[0].kind = static_cast<AlertKind>(7); }},
      {"incident objective 4",
       [](EngineState& s) {
         s.incidents[0].objective = static_cast<Objective>(4);
       }},
      {"incident severity 3",
       [](EngineState& s) {
         s.incidents[0].severity = static_cast<Severity>(3);
       }},
      {"incident health 3",
       [](EngineState& s) {
         s.incidents[0].health = static_cast<PricerHealth>(3);
       }},
      {"incident re-anchor state 4",
       [](EngineState& s) {
         s.incidents[0].last_reanchor = static_cast<ReanchorState>(4);
       }},
      {"incident re-anchor state -2",
       [](EngineState& s) {
         s.incidents[0].last_reanchor = static_cast<ReanchorState>(-2);
       }},
      {"previous health 3",
       [](EngineState& s) { s.prev_health = static_cast<PricerHealth>(3); }},
      {"slo window bit 2", [](EngineState& s) { s.slo_window[0] = 2; }},
      {"slo position past the window",
       [](EngineState& s) {
         s.slo_pos = static_cast<std::uint32_t>(s.slo_window.size());
       }},
      {"non-finite p2a window value",
       [](EngineState& s) {
         s.p2a_window.push_back(std::numeric_limits<double>::quiet_NaN());
       }},
      {"health 3",
       [](EngineState& s) { s.health = static_cast<PricerHealth>(3); }},
      {"re-anchor state 4",
       [](EngineState& s) {
         s.last_reanchor = static_cast<ReanchorState>(4);
       }},
      {"re-anchor state -2",
       [](EngineState& s) {
         s.last_reanchor = static_cast<ReanchorState>(-2);
       }},
      {"recorder kind 10",
       [](EngineState& s) {
         s.recorder[0].kind = static_cast<RecorderKind>(10);
       }},
      {"recorder position past the ring",
       [](EngineState& s) {
         s.recorder_pos = static_cast<std::uint32_t>(s.recorder.size() + 1);
       }},
  };
  for (const auto& [name, mutate] : cases) {
    SCOPED_TRACE(name);
    DumpData bad = good;
    mutate(bad.state);
    EXPECT_THROW(decode_dump(encode_dump(bad)), ser::FormatError);
  }

  // Packed flags and bools: toggle the field to locate its byte, then
  // write the smallest value the validator must refuse.
  using Toggle = void (*)(DumpData&, bool);
  const std::tuple<const char*, Toggle, std::uint8_t> patched[] = {
      {"incident storm flags 8",
       [](DumpData& d, bool on) {
         d.state.incidents[0].storm_blackout = on;
         d.state.incidents[0].storm_channel = false;
         d.state.incidents[0].storm_solver = false;
       },
       8},
      {"storm flags 8",
       [](DumpData& d, bool on) {
         d.state.storm_blackout = on;
         d.state.storm_channel = false;
         d.state.storm_solver = false;
       },
       8},
      {"incident closed bool 2",
       [](DumpData& d, bool on) { d.state.incidents[0].closed = on; }, 2},
      {"previous-health bool 2",
       [](DumpData& d, bool on) { d.state.has_prev_health = on; }, 2},
      {"config enabled bool 2",
       [](DumpData& d, bool on) { d.config.enabled = on; }, 2},
      {"dump flags 2", [](DumpData& d, bool on) { d.has_wall = on; }, 2},
  };
  for (const auto& [name, toggle, value] : patched) {
    SCOPED_TRACE(name);
    DumpData off = good;
    toggle(off, false);
    DumpData on = good;
    toggle(on, true);
    EXPECT_THROW(decode_dump(reframe::patch_first_difference(
                     encode_dump(off), encode_dump(on), value)),
                 ser::FormatError);
  }

  // Every required section must be present.
  const std::vector<std::uint8_t> bytes = encode_dump(good);
  for (const std::uint32_t tag : {1u, 2u, 3u}) {
    SCOPED_TRACE("missing section " + std::to_string(tag));
    const auto [begin, end] = reframe::section_span(bytes, tag);
    ASSERT_LT(begin, end);
    std::vector<std::uint8_t> body = reframe::payload(bytes);
    body.erase(
        body.begin() + static_cast<std::ptrdiff_t>(begin - reframe::kHeaderBytes),
        body.begin() + static_cast<std::ptrdiff_t>(end - reframe::kHeaderBytes));
    EXPECT_THROW(decode_dump(reframe::seal(bytes, body)), ser::FormatError);
  }
}

// ---------------------------------------------------------------------------
// Horizon integration: checkpoints

TEST(HorizonIncident, RestoreRejectsMismatchedThresholdsAndMode) {
  const horizon::HorizonConfig config = scenarios::incident_config();
  horizon::MultiDayDriver driver(config);
  for (std::size_t step = 0; step < 13; ++step) driver.step_period();
  const horizon::CheckpointData data = driver.checkpoint();

  // Retuned thresholds would splice a different detector onto the
  // checkpointed accumulators — the continued alert stream could no longer
  // be bitwise; restore must refuse.
  horizon::HorizonConfig retuned = config;
  retuned.incident.cusum_h = 0.9;
  EXPECT_THROW(horizon::MultiDayDriver::restore(retuned, data),
               PreconditionError);

  // Same for flipping the engine off entirely.
  horizon::HorizonConfig disabled = config;
  disabled.incident.enabled = false;
  EXPECT_THROW(horizon::MultiDayDriver::restore(disabled, data),
               PreconditionError);

  // The matching config restores fine.
  EXPECT_NO_THROW(horizon::MultiDayDriver::restore(config, data));
}

TEST(HorizonIncident, CheckpointCarriesTheEngineStateInKSecIncident) {
  const horizon::HorizonConfig config = scenarios::incident_config();
  horizon::MultiDayDriver driver(config);
  for (std::size_t step = 0; step < 17; ++step) driver.step_period();

  const horizon::CheckpointData data = driver.checkpoint();
  EXPECT_TRUE(data.config.incident.enabled);
  EXPECT_TRUE(config_echo_matches(data.config.incident, config.incident));
  EXPECT_EQ(data.incident.alerts, driver.incident_engine()->alerts());

  // The byte round-trip preserves the section (v2 framing).
  const std::vector<std::uint8_t> bytes = horizon::encode(data);
  const horizon::CheckpointData decoded = horizon::decode(bytes);
  EXPECT_TRUE(decoded.config.incident.enabled);
  EXPECT_EQ(decoded.incident.alerts, data.incident.alerts);
  EXPECT_EQ(decoded.incident.incidents, data.incident.incidents);
  EXPECT_EQ(decoded.incident.recorder, data.incident.recorder);

  // An engine-off config writes no incident section and decodes disabled.
  horizon::HorizonConfig off = config;
  off.incident.enabled = false;
  horizon::MultiDayDriver plain(off);
  for (std::size_t step = 0; step < 17; ++step) plain.step_period();
  const horizon::CheckpointData plain_data =
      horizon::decode(plain.checkpoint_bytes());
  EXPECT_FALSE(plain_data.config.incident.enabled);
}

}  // namespace
}  // namespace tdp::obs::incident
