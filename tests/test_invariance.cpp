// The invariance battery: every number a run reports (the §III-B online
// prices, the §IV patience estimates, each day's peak-to-average
// reduction, the checkpoint bytes and the incident streams) is a pure
// function of the run's configuration, however the run is executed.
//
// A scenario is a run configuration; an axis is a way of running it that
// must not change any result. Each (scenario, axis) cell is its own test
// and ctest entry (`ctest -L invariance`; one cell:
// `ctest -R '^HorizonInvariance.storm_restore$'`). A cell compares with
// the scenario's uninterrupted run at its own layout: EXPECT_EQ on every
// DayMetrics field, the final checkpoint bytes and the incident streams,
// or in fleet cells on every non-timing FleetMetrics field.
//
//   threads     1 and 4 threads
//   shards      the 8 slices grouped into 1, 3 and 8 shards
//   simd        forced scalar dispatch against the default (needs AVX2)
//   restore     three seeded kills (a day boundary, mid-day, anywhere),
//               each restored onto another layout; at the kill,
//               checkpoint -> restore -> checkpoint is byte-stable
//   history     the checkpoint after k periods is the same after another
//               scenario has run in the process
//   concurrent  two identical runs at once on two threads, on the shared
//               pool and on transient pools
//   observers   the journal off and tracing on change nothing; with the
//               incident engine off no simulated value moves
//
// Fleet cells (FleetDriver on the scenario's loop config) run every axis
// but restore and history, which need a checkpoint. The soak
// (`ctest -L soak`) is the long setting.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "fleet/fleet_driver.hpp"
#include "gtest/gtest.h"
#include "horizon/checkpoint.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "horizon/multi_day_driver.hpp"
#include "obs/incident/incident.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "scenarios.hpp"

namespace tdp {
namespace {

using horizon::HorizonConfig;
using horizon::MultiDayDriver;

// ---- Runs and their comparisons --------------------------------------------

/// The incident streams: dump(false) holds the alerts, the incidents, the
/// detectors and the recorder byte for byte (empty with the engine off).
std::vector<std::uint8_t> incident_dump(
    const obs::incident::IncidentEngine* engine) {
  return engine != nullptr ? engine->dump(false) : std::vector<std::uint8_t>{};
}

struct HorizonRun {
  std::vector<horizon::DayMetrics> days;
  std::vector<std::uint8_t> checkpoint;  ///< the finished run's
  std::vector<std::uint8_t> incidents;
};

HorizonRun finish(MultiDayDriver& driver) {
  while (!driver.done()) driver.step_period();
  return {driver.completed_days(), driver.checkpoint_bytes(),
          incident_dump(driver.incident_engine())};
}

HorizonRun run_horizon(const HorizonConfig& config) {
  MultiDayDriver driver(config);
  return finish(driver);
}

void expect_equal(const HorizonRun& a, const HorizonRun& b) {
  scenarios::expect_days_bitwise_equal(a.days, b.days);
  EXPECT_EQ(a.checkpoint, b.checkpoint);
  EXPECT_EQ(a.incidents, b.incidents);
}

struct FleetRun {
  fleet::FleetMetrics metrics;
  math::Vector rewards;  ///< the mechanism's schedule after the run
  std::vector<std::uint8_t> incidents;
};

FleetRun run_fleet(const HorizonConfig& config) {
  fleet::FleetDriverConfig fleet_config;
  static_cast<fleet::LoopConfig&>(fleet_config) = config;
  fleet::FleetDriver driver(fleet_config);
  fleet::FleetMetrics metrics = driver.run_day();
  return {std::move(metrics), driver.mechanism().rewards(),
          incident_dump(driver.incident_engine())};
}

// Every FleetMetrics field but the layout (shards, threads) and the wall
// clock's, in groups so that a failure names its group.
auto traffic(const fleet::FleetMetrics& m) {
  return std::tie(m.users, m.periods, m.days, m.offered_units,
                  m.realized_units, m.rewards, m.sessions, m.deferred_sessions,
                  m.reward_paid_units, m.peak_to_average_tip,
                  m.peak_to_average_tdp, m.pricer_expected_cost, m.mechanism,
                  m.rebate_budget_pool, m.rebate_budget_spent, m.price_groups,
                  m.price_server_fetches);
}
auto robustness(const fleet::FleetMetrics& m) {
  return std::tie(m.price_pull_drops, m.price_pull_retries,
                  m.price_stale_periods, m.price_fallback_periods,
                  m.price_skewed_periods, m.price_recoveries,
                  m.shard_stripes_lost, m.measurement_gaps,
                  m.measurement_repairs, m.solver_failures, m.reward_clamps,
                  m.skipped_updates, m.health_transitions,
                  m.degraded_observations, m.fallback_observations,
                  m.pricer_recoveries, m.max_recovery_periods, m.final_health);
}
auto incident_counts(const fleet::FleetMetrics& m) {
  return std::tie(m.incident_alerts, m.incidents_opened, m.incidents_closed);
}

void expect_equal(const fleet::FleetMetrics& a, const fleet::FleetMetrics& b) {
  EXPECT_EQ(traffic(a), traffic(b));
  EXPECT_EQ(robustness(a), robustness(b));
  EXPECT_EQ(incident_counts(a), incident_counts(b));
}

void expect_equal(const FleetRun& a, const FleetRun& b) {
  expect_equal(a.metrics, b.metrics);
  EXPECT_EQ(a.rewards, b.rewards);
  EXPECT_EQ(a.incidents, b.incidents);
}

// ---- Scenarios -------------------------------------------------------------

enum class Drivers { kBoth, kHorizon, kFleet };

struct Scenario {
  const char* name;
  Drivers drivers;
  HorizonConfig (*config)();
};

/// storm_config with the four health gates set as examples/storm_week sets
/// them, streaming a checkpoint every 5 periods.
HorizonConfig storm_scenario() {
  HorizonConfig config = scenarios::storm_config();
  config.estimation_health_gate = true;
  config.reanchor_healthy_periods = 2;
  config.reanchor_objective_guard = true;
  config.reanchor_guard_tolerance = 0.05;
  config.checkpoint_every_periods = 5;
  return config;
}

/// Another mechanism in the loop, with adaptive users so the adaptive
/// scale rides through the checkpoint too.
HorizonConfig with_mechanism(HorizonConfig config, mech::MechanismKind kind) {
  config.mechanism.kind = kind;
  config.adaptive_users = true;
  return config;
}

const Scenario kScenarios[] = {
    {"clean", Drivers::kBoth, scenarios::small_config},
    // 48 periods plan on Table VII's mix instead of Table VIII's.
    {"clean48", Drivers::kFleet,
     [] {
       HorizonConfig config = scenarios::small_config();
       config.population.periods = 48;
       config.population.users = 10000;
       return config;
     }},
    {"chaos", Drivers::kBoth,
     [] {
       HorizonConfig config = scenarios::small_config();
       config.fault = scenarios::chaos_plan();
       return config;
     }},
    {"storm", Drivers::kBoth, storm_scenario},
    {"adaptive", Drivers::kHorizon,
     [] {
       HorizonConfig config = scenarios::small_config();
       config.adaptive_users = true;
       return config;
     }},
    {"incident", Drivers::kBoth, scenarios::incident_config},
    {"flat_tip", Drivers::kBoth,
     [] {
       return with_mechanism(scenarios::small_config(),
                             mech::MechanismKind::kFlatTip);
     }},
    {"day_ahead_oracle", Drivers::kBoth,
     [] {
       return with_mechanism(scenarios::small_config(),
                             mech::MechanismKind::kDayAheadOracle);
     }},
    // Under storms, so the rebate's blackout hold rides through a restore.
    {"fixed_budget_rebate", Drivers::kBoth,
     [] {
       return with_mechanism(scenarios::storm_config(),
                             mech::MechanismKind::kFixedBudgetRebate);
     }},
};

/// What the uninterrupted run must show, so no cell passes on a run that
/// never reached the paths its scenario is about.
void expect_exercised(const Scenario& scenario, const HorizonRun& run) {
  std::size_t reanchors = 0;
  std::uint64_t fallback_periods = 0;
  for (const horizon::DayMetrics& day : run.days) {
    reanchors += day.reanchored;
    fallback_periods += day.fallback_periods;
  }
  const std::string name = scenario.name;
  // The fit and the re-solve then run on both SIMD paths.
  EXPECT_TRUE(name != "clean" || reanchors > 0) << "no day re-anchored";
  EXPECT_TRUE(name != "storm" || fallback_periods > 0)
      << "the pricer never reached FALLBACK";
  EXPECT_TRUE(name != "incident" ||
              !horizon::decode(run.checkpoint).incident.incidents.empty())
      << "no incident opened";
}

// ---- Axes ------------------------------------------------------------------

enum class Axis {
  kThreads,
  kShards,
  kSimd,
  kRestore,
  kHistory,
  kConcurrent,
  kObservers,
};

struct AxisRow {
  Axis axis;
  const char* name;
  bool fleet;  ///< also a fleet axis (restore and history need checkpoints)
};

constexpr AxisRow kAxes[] = {
    {Axis::kThreads, "threads", true},
    {Axis::kShards, "shards", true},
    {Axis::kSimd, "simd", true},
    {Axis::kRestore, "restore", false},
    {Axis::kHistory, "history", false},
    {Axis::kConcurrent, "concurrent", true},
    {Axis::kObservers, "observers", true},
};

/// `config` streaming to a file named after the cell and `tag` (emptied
/// first), when it streams at all.
HorizonConfig streamed(HorizonConfig config, const std::string& tag) {
  if (config.checkpoint_every_periods > 0) {
    config.checkpoint_path =
        ::testing::TempDir() + "tdp_invariance_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + tag + ".ck";
    std::remove(config.checkpoint_path.c_str());
    std::remove((config.checkpoint_path + ".tmp").c_str());
  }
  return config;
}

HorizonConfig with_layout(HorizonConfig config, std::size_t shards,
                          std::size_t threads) {
  config.shards = shards;
  config.threads = threads;
  return config;
}

/// Runs `undo` when the scope ends, exceptions included.
class AtExit {
 public:
  explicit AtExit(std::function<void()> undo) : undo_(std::move(undo)) {}
  ~AtExit() { undo_(); }

  AtExit(const AtExit&) = delete;
  AtExit& operator=(const AtExit&) = delete;

 private:
  std::function<void()> undo_;
};

/// threads == default_thread_count() runs parallel_for on the shared
/// global pool, any other count on a transient pool per call; the
/// concurrent axis sets the default so both paths exist on any host.
constexpr std::size_t kSharedPoolThreads = 3;

/// The axes both drivers run: `run` executes a config.
template <typename Run>
void shared_axis(Axis axis, const HorizonConfig& config, const Run& reference,
                 Run (*run)(const HorizonConfig&)) {
  const auto rerun = [&](const std::string& tag, std::size_t shards,
                         std::size_t threads) {
    return run(with_layout(streamed(config, tag), shards, threads));
  };
  switch (axis) {
    case Axis::kThreads:
      for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        expect_equal(reference, rerun("threads", config.shards, threads));
      }
      break;
    case Axis::kShards:
      for (const std::size_t shards : {1, 3, 8}) {
        SCOPED_TRACE(std::to_string(shards) + " shards");
        expect_equal(reference, rerun("shards", shards, config.threads));
      }
      break;
    case Axis::kSimd: {
      const scenarios::ModeGuard scalar(simd::Mode::kScalar);
      expect_equal(reference, rerun("scalar", config.shards, config.threads));
      break;
    }
    case Axis::kConcurrent: {
      const std::size_t saved = default_thread_count();
      set_default_thread_count(kSharedPoolThreads);
      const AtExit restore([saved] { set_default_thread_count(saved); });
      for (const std::size_t threads : {std::size_t{2}, kSharedPoolThreads}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        // A throw on either thread fails the cell (get() rethrows it).
        std::future<Run> other = std::async(std::launch::async, rerun, "b",
                                            config.shards, threads);
        expect_equal(reference, rerun("a", config.shards, threads));
        expect_equal(reference, other.get());
      }
      break;
    }
    case Axis::kObservers: {
      const bool journal = obs::metrics_enabled();
      const bool trace = obs::trace_enabled();
      obs::set_metrics_enabled(false);
      obs::set_trace_enabled(true);
      const AtExit restore([journal, trace] {
        obs::set_trace_enabled(trace);
        obs::trace_clear();
        obs::set_metrics_enabled(journal);
      });
      expect_equal(reference,
                   rerun("observed", config.shards, config.threads));
      EXPECT_GT(obs::trace_event_count(), 0u);
      break;
    }
    case Axis::kRestore:
    case Axis::kHistory:
      break;  // horizon_cell's own
  }
}

struct Kill {
  std::size_t step;  ///< periods run before the kill
  std::size_t shards;
  std::size_t threads;
};

/// Three seeded kill boundaries (period 0 of a day, mid-day, anywhere),
/// each restored onto another layout.
std::vector<Kill> seeded_kills(const HorizonConfig& config,
                               std::uint64_t seed) {
  const std::size_t n = config.population.periods;
  const std::size_t days = config.warmup_days + config.horizon_days;
  Rng rng(seed);
  const std::size_t day_boundary = n * (1 + rng.uniform_index(days - 1));
  const std::size_t mid_day =
      n * rng.uniform_index(days) + 1 + rng.uniform_index(n - 1);
  const std::size_t anywhere = 1 + rng.uniform_index(n * days - 1);
  return {{day_boundary, 1, 1}, {mid_day, 3, 4}, {anywhere, 8, 3}};
}

void horizon_cell(const Scenario& scenario, Axis axis) {
  if (axis == Axis::kSimd && !simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host/build";
  }
  const HorizonConfig config = scenario.config();
  const HorizonRun reference = run_horizon(streamed(config, "reference"));
  expect_exercised(scenario, reference);
  shared_axis(axis, config, reference, run_horizon);
  const std::size_t n = config.population.periods;

  if (axis == Axis::kRestore) {
    for (const Kill& kill :
         seeded_kills(config, 20110611 + (&scenario - kScenarios))) {
      SCOPED_TRACE("killed after " + std::to_string(kill.step) +
                   " periods, restored onto " + std::to_string(kill.shards) +
                   " shards and " + std::to_string(kill.threads) + " threads");
      const HorizonConfig victim_config = streamed(config, "victim");
      std::vector<std::uint8_t> bytes;
      {
        MultiDayDriver victim(victim_config);
        for (std::size_t i = 0; i < kill.step; ++i) victim.step_period();
        bytes = victim.checkpoint_bytes();
      }  // the kill: only the checkpoint survives
      if (!victim_config.checkpoint_path.empty()) {
        // A streaming run resumes from its last commit at or before the kill.
        const horizon::CheckpointData recovered =
            horizon::load_checkpoint_file_recover(
                victim_config.checkpoint_path);
        EXPECT_LE(recovered.day * n + recovered.period, kill.step);
        bytes = horizon::encode(recovered);
      }
      std::unique_ptr<MultiDayDriver> restored = MultiDayDriver::restore(
          with_layout(streamed(config, "restored"), kill.shards,
                      kill.threads),
          bytes);
      EXPECT_EQ(restored->checkpoint_bytes(), bytes);
      expect_equal(reference, finish(*restored));
    }
  } else if (axis == Axis::kHistory) {
    // Mid-day of the last day: every fit and re-anchor but the last is in.
    const std::size_t k =
        n * (config.warmup_days + config.horizon_days) - n / 2;
    const auto bytes_after_k = [&] {
      MultiDayDriver driver(streamed(config, "k"));
      for (std::size_t i = 0; i < k; ++i) driver.step_period();
      return driver.checkpoint_bytes();
    };
    const std::vector<std::uint8_t> first = bytes_after_k();
    // Storms, faults and the incident engine on another population move
    // every process-wide table a run could leave behind.
    HorizonConfig other = scenarios::incident_config();
    other.population.users = 1200;
    other.population.seed = 7;
    run_horizon(other);
    EXPECT_EQ(first, bytes_after_k());
  } else if (axis == Axis::kObservers && config.incident.enabled) {
    HorizonConfig off = streamed(config, "off");
    off.incident.enabled = false;
    scenarios::expect_days_bitwise_equal(reference.days, run_horizon(off).days);
  }
}

void fleet_cell(const Scenario& scenario, Axis axis) {
  if (axis == Axis::kSimd && !simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host/build";
  }
  const HorizonConfig config = scenario.config();
  const FleetRun reference = run_fleet(config);
  const fleet::FleetMetrics quiet;  // no count, HEALTHY, no incident
  if (!FaultInjector(config.fault).enabled()) {
    EXPECT_EQ(robustness(reference.metrics), robustness(quiet));
  }
  shared_axis(axis, config, reference, run_fleet);

  if (axis == Axis::kObservers && config.incident.enabled) {
    HorizonConfig off = config;
    off.incident.enabled = false;
    const fleet::FleetMetrics without = run_fleet(off).metrics;
    EXPECT_EQ(traffic(reference.metrics), traffic(without));
    EXPECT_EQ(robustness(reference.metrics), robustness(without));
    EXPECT_EQ(incident_counts(without), incident_counts(quiet));
  }
}

/// A registered cell: a test whose body runs one (scenario, axis) pair.
class Cell : public ::testing::Test {
 public:
  explicit Cell(std::function<void()> body) : body_(std::move(body)) {}
  void TestBody() override { body_(); }

 private:
  std::function<void()> body_;
};

[[maybe_unused]] const bool kCellsRegistered = [] {
  for (const Scenario& scenario : kScenarios) {
    for (const AxisRow& row : kAxes) {
      const std::string name = std::string(scenario.name) + "_" + row.name;
      const auto add = [&](const char* suite,
                           void (*cell)(const Scenario&, Axis)) {
        ::testing::RegisterTest(
            suite, name.c_str(), nullptr, nullptr, __FILE__, __LINE__,
            [&scenario, axis = row.axis, cell]() -> ::testing::Test* {
              return new Cell(
                  [&scenario, axis, cell] { cell(scenario, axis); });
            });
      };
      if (scenario.drivers != Drivers::kFleet) {
        add("HorizonInvariance", horizon_cell);
      }
      if (scenario.drivers != Drivers::kHorizon && row.fleet) {
        add("FleetInvariance", fleet_cell);
      }
    }
  }
  return true;
}();

// ---- The soak --------------------------------------------------------------

/// 60 days of the storm scenario (gates and stream) with drift, adaptive
/// users and the incident engine.
HorizonConfig soak_config(mech::MechanismKind kind, const std::string& tag) {
  HorizonConfig config = streamed(storm_scenario(), tag);
  config.fault.drift_beta_rate = 0.01;
  config.adaptive_users = true;
  config.incident = scenarios::incident_config().incident;
  config.horizon_days = 59;
  config.mechanism.kind = kind;
  return config;
}

TEST(InvarianceSoak, SixtyStormyDaysFinishBitwiseThroughFourKills) {
  for (const mech::MechanismKind kind :
       {mech::MechanismKind::kTubeOnline,
        mech::MechanismKind::kFixedBudgetRebate}) {
    SCOPED_TRACE(mech::to_string(kind));
    const HorizonRun reference = run_horizon(soak_config(kind, "reference"));

    const HorizonConfig config = soak_config(kind, "killed");
    const std::size_t n = config.population.periods;
    const std::size_t quarter =
        n * (config.warmup_days + config.horizon_days) / 4;
    const Kill layouts[] = {{0, 1, 1}, {0, 3, 4}, {0, 8, 3}, {0, 2, 1}};
    Rng rng(60);
    auto driver = std::make_unique<MultiDayDriver>(config);
    // One seeded kill in each quarter of the run; each resumes from the
    // streamed file onto another layout.
    for (std::size_t q = 0; q < 4; ++q) {
      const std::size_t kill = quarter * q + 1 + rng.uniform_index(quarter - 1);
      while (driver->day() * n + driver->period() < kill) {
        driver->step_period();
      }
      driver.reset();  // the kill: only the streamed file survives
      driver = MultiDayDriver::restore(
          with_layout(config, layouts[q].shards, layouts[q].threads),
          horizon::load_checkpoint_file_recover(config.checkpoint_path));
    }
    expect_equal(reference, finish(*driver));
  }
}

}  // namespace
}  // namespace tdp
