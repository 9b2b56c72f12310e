#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "core/paper_data.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_metrics.hpp"
#include "fleet/population.hpp"
#include "fleet/price_fanout.hpp"
#include "fleet/shard.hpp"
#include "tube/price_channel.hpp"

namespace tdp::fleet {
namespace {

PopulationConfig small_population(std::uint64_t users) {
  PopulationConfig config;
  config.users = users;
  config.periods = 48;
  config.seed = 20110611;
  return config;
}

TEST(Population, DrawsAreAPureFunctionOfSeedAndUserId) {
  const Population a(small_population(1000));
  const Population b(small_population(1000));
  for (std::uint64_t u : {0ull, 1ull, 499ull, 999ull}) {
    const UserSpec sa = a.spec(u);
    const UserSpec sb = b.spec(u);
    EXPECT_EQ(sa.patience_class, sb.patience_class);
    EXPECT_EQ(sa.activity, sb.activity);
    Rng ra = a.user_period_rng(u, 7);
    Rng rb = b.user_period_rng(u, 7);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(ra.next(), rb.next());
  }

  PopulationConfig other = small_population(1000);
  other.seed = 42;
  const Population c(other);
  bool any_differs = false;
  for (std::uint64_t u = 0; u < 100; ++u) {
    if (a.spec(u).activity != c.spec(u).activity) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Population, CalibratedToThePaperProfile) {
  const Population pop(small_population(5000));
  const std::vector<double> expected = pop.expected_demand_units();
  const std::vector<double> table = paper::table5_demand_48();
  ASSERT_EQ(expected.size(), table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_NEAR(expected[i], table[i], 1e-9);
  }
  const std::vector<double>& shares = pop.class_shares();
  EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 1.0,
              1e-12);

  // Expected aggregate work per period (user units * calibration) equals
  // the table profile: sum over classes of share * rate * activity-mean(1)
  // * users * mean session size.
  for (std::size_t i = 0; i < table.size(); ++i) {
    double aggregate = 0.0;
    for (std::size_t c = 0; c < pop.patience_classes(); ++c) {
      aggregate += shares[c] * static_cast<double>(pop.users()) *
                   pop.session_rate(static_cast<std::uint32_t>(c), i) *
                   pop.mean_session_size();
    }
    EXPECT_NEAR(aggregate * pop.unit_calibration(), table[i], 1e-9);
  }
}

TEST(DeferralTable, ZeroRewardsMeanNobodyDefers) {
  const Population pop(small_population(100));
  const math::Vector zeros(48, 0.0);
  std::vector<const math::Vector*> schedules(pop.patience_classes(), &zeros);
  const DeferralTable table(pop, schedules, 3);
  for (std::uint32_t c = 0; c < pop.patience_classes(); ++c) {
    EXPECT_EQ(table.cumulative(c, 47), 0.0);
  }
  EXPECT_EQ(table.probability_clamps(), 0u);
}

TEST(Aggregator, MergesStripesInFixedShardOrder) {
  StripedAggregator agg(3, 2);
  for (std::size_t s = 0; s < 3; ++s) {
    PeriodStats stats;
    stats.offered_work = 1.0 + 0.1 * static_cast<double>(s);
    stats.sessions = s + 1;
    agg.record(s, 1, stats);
  }
  const PeriodStats merged = agg.merged(1);
  // Exactly ((s0 + s1) + s2) in ascending shard order.
  EXPECT_EQ(merged.offered_work, (1.0 + 1.1) + 1.2);
  EXPECT_EQ(merged.sessions, 6u);
  EXPECT_EQ(agg.merged(0).sessions, 0u);
}

TEST(PriceFanout, MemoryAndFetchesAreGroupBounded) {
  PriceChannel channel(4);
  channel.publish({0.1, 0.2, 0.3, 0.4});
  PriceFanout fanout(channel, 5);
  EXPECT_EQ(fanout.groups(), 5u);

  fanout.sync(0);
  fanout.sync(0);  // same period: cache hits, no new server traffic
  EXPECT_EQ(fanout.total_server_fetches(), 5u);
  fanout.sync(1);
  EXPECT_EQ(fanout.total_server_fetches(), 10u);
  EXPECT_DOUBLE_EQ(fanout.schedule(2)[3], 0.4);
}

// The acceptance gate for the fleet subsystem: running the same day on one
// thread and on several must produce bit-identical per-period aggregates
// (EXPECT_EQ on doubles, no tolerance) and an identical reward trajectory,
// with the online pricer in the loop.
TEST(FleetDriver, AggregatesBitIdenticalAcrossThreadCounts) {
  FleetMetrics results[2];
  math::Vector rewards[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    FleetDriverConfig config;
    config.population = small_population(20000);
    config.shards = 16;
    config.threads = thread_counts[run];
    config.warmup_days = 1;
    config.online_pricing = true;
    FleetDriver driver(config);
    results[run] = driver.run_day();
    rewards[run] = driver.pricer().rewards();
  }

  ASSERT_EQ(results[0].offered_units.size(), results[1].offered_units.size());
  for (std::size_t i = 0; i < results[0].offered_units.size(); ++i) {
    EXPECT_EQ(results[0].offered_units[i], results[1].offered_units[i])
        << "offered usage differs in period " << i;
    EXPECT_EQ(results[0].realized_units[i], results[1].realized_units[i])
        << "realized usage differs in period " << i;
  }
  EXPECT_EQ(results[0].sessions, results[1].sessions);
  EXPECT_EQ(results[0].deferred_sessions, results[1].deferred_sessions);
  EXPECT_EQ(results[0].reward_paid_units, results[1].reward_paid_units);
  ASSERT_EQ(rewards[0].size(), rewards[1].size());
  for (std::size_t i = 0; i < rewards[0].size(); ++i) {
    EXPECT_EQ(rewards[0][i], rewards[1][i])
        << "online reward trajectory diverged at period " << i;
  }
}

TEST(FleetDriver, OnlinePricerInTheLoopSmoothsThePeak) {
  FleetDriverConfig config;
  config.population = small_population(20000);
  config.shards = 8;
  config.threads = 2;
  config.warmup_days = 1;
  FleetDriver driver(config);
  const FleetMetrics metrics = driver.run_day();

  // TDP moved real sessions and flattened the profile.
  EXPECT_GT(metrics.deferred_sessions, 0u);
  EXPECT_LT(metrics.peak_to_average_tdp, metrics.peak_to_average_tip);

  // The measured aggregate tracks the paper profile it was calibrated to
  // (relative day-total error shrinks as 1/sqrt(users)).
  const std::vector<double> table = paper::table5_demand_48();
  const double expected_total =
      std::accumulate(table.begin(), table.end(), 0.0);
  const double measured_total = std::accumulate(
      metrics.offered_units.begin(), metrics.offered_units.end(), 0.0);
  EXPECT_NEAR(measured_total, expected_total, 0.05 * expected_total);

  // Price traffic is O(groups), not O(users): one fetch per group per
  // period over both days.
  EXPECT_EQ(metrics.price_groups, paper::kPatienceIndices.size());
  EXPECT_EQ(metrics.price_server_fetches,
            metrics.price_groups * metrics.periods * metrics.days);

  // Conservation: every offered unit either ran in the measured day or was
  // parked in a deferral ring; realized = offered - deferred_out +
  // deferred_in, and in cyclic steady state the day totals agree to within
  // the ring contents' statistical noise.
  const double realized_total = std::accumulate(
      metrics.realized_units.begin(), metrics.realized_units.end(), 0.0);
  EXPECT_NEAR(realized_total, measured_total, 0.05 * expected_total);
}

TEST(FleetDriver, ChaosRunDegradesGracefully) {
  // The same population twice: clean, then under a 5% fault plan hitting
  // every observation path at once. The chaos day must complete, keep its
  // rewards inside [0, cap], surface its degradation in the counters, and
  // stay within 10% of the clean run's peak-to-average ratio.
  FleetDriverConfig config;
  config.population = small_population(5000);
  config.shards = 8;
  config.threads = 2;
  config.warmup_days = 1;

  FleetDriver clean_driver(config);
  const FleetMetrics clean = clean_driver.run_day();

  config.fault.price_pull_drop = 0.05;
  config.fault.measurement_loss = 0.025;
  config.fault.measurement_nan = 0.0125;
  config.fault.measurement_spike = 0.0125;
  config.fault.solver_exhaustion = 0.05;
  FleetDriver chaos_driver(config);
  const FleetMetrics chaos = chaos_driver.run_day();

  // The day completed on the same physical fleet (faults touch only the
  // observation paths, never the simulated users).
  EXPECT_EQ(chaos.sessions, clean.sessions);
  EXPECT_EQ(chaos.offered_units.size(), clean.offered_units.size());

  // Published rewards stayed sane throughout.
  for (double reward : chaos_driver.pricer().rewards()) {
    EXPECT_GE(reward, 0.0);
    EXPECT_TRUE(std::isfinite(reward));
  }

  // The plan actually fired and the counters recorded it.
  EXPECT_GT(chaos.price_pull_drops, 0u);
  EXPECT_GT(chaos.shard_stripes_lost + chaos.measurement_gaps +
                chaos.measurement_repairs,
            0u);
  const std::uint64_t bad_observations =
      chaos.degraded_observations + chaos.fallback_observations +
      chaos.skipped_updates;
  EXPECT_GT(bad_observations, 0u);

  // Graceful: the TDP benefit survives degraded control.
  EXPECT_NEAR(chaos.peak_to_average_tdp, clean.peak_to_average_tdp,
              0.10 * clean.peak_to_average_tdp);
}

TEST(FleetDriver, InjectedFaultWarningsAreRateLimited) {
  // Faults a run injects on purpose must not flood the log: each pricer
  // warning site logs only its 1st, 2nd, 4th, 8th, ... event.
  FleetDriverConfig config;
  config.population = small_population(2000);
  config.shards = 8;
  config.threads = 2;
  config.warmup_days = 3;
  config.fault.measurement_loss = 0.05;
  config.fault.seed = 7;

  std::vector<std::string> warnings;
  const LogSink previous =
      set_log_sink([&warnings](LogLevel level, const std::string& message) {
        if (level == LogLevel::kWarn) warnings.push_back(message);
      });
  FleetDriver driver(config);
  driver.run_day();
  set_log_sink(previous);

  const auto lines = [&warnings](const char* text) {
    return static_cast<std::uint64_t>(std::count_if(
        warnings.begin(), warnings.end(), [text](const std::string& line) {
          return line.find(text) != std::string::npos;
        }));
  };
  // Powers of two in 1..events: the lines a rate-limited site emits.
  const auto logged = [](std::uint64_t events) {
    return static_cast<std::uint64_t>(std::bit_width(events));
  };
  const PricerHealthStats& stats = driver.pricer().health_stats();
  ASSERT_GT(stats.missed_observations, 2u) << "the loss plan must bite";
  EXPECT_EQ(lines("no measurement for period"),
            logged(stats.missed_observations));
  EXPECT_EQ(lines("trust region clamps"), logged(stats.clamped_steps));
  EXPECT_EQ(lines("solve failed"), logged(stats.solve_failures));
  EXPECT_LT(warnings.size(), stats.missed_observations +
                                 stats.clamped_steps + stats.solve_failures);
}

TEST(FleetDriver, RunsAreSingleShot) {
  FleetDriverConfig config;
  config.population = small_population(200);
  config.shards = 2;
  config.threads = 1;
  config.warmup_days = 0;
  FleetDriver driver(config);
  driver.run_day();
  EXPECT_THROW(driver.run_day(), PreconditionError);
}

TEST(FleetMetrics, JsonRoundTripsKeyFields) {
  FleetMetrics metrics;
  metrics.users = 12;
  metrics.periods = 2;
  metrics.offered_units = {1.5, 2.5};
  metrics.realized_units = {2.0, 2.0};
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"users\":12"), std::string::npos);
  EXPECT_NE(json.find("\"offered_units\":[1.5,2.5]"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace tdp::fleet
