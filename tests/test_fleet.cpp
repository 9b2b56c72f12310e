#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/deferral_kernel.hpp"
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

TEST(DeferralTable, EntriesMatchRunningSumsOfLagWeightBitwise) {
  // Every entry against the quadrature reference: cumulative(c, lag) is
  // the running sum of lag_weight(w_c, r, lag, kUniformArrival) over the
  // lags' target rewards (renormalized by the total when it exceeds one)
  // and reward(c, lag) the target's reward, bit for bit. The classes
  // share schedules by content (two equal copies) and by address, differ
  // in schedule and, under the override, in gamma, so any reuse of a
  // reward's power across a different schedule or gamma shows.
  const Population pop(small_population(100));
  const std::size_t n = pop.periods();
  const std::size_t classes = pop.patience_classes();
  const double cap = paper::kStaticNormalizationReward;
  Rng rng(29);
  math::Vector shared(n);
  for (double& r : shared) r = rng.uniform(0.0, cap);
  shared[3] = 0.0;
  shared[9] = -0.0;
  shared[20] = -0.25;
  const math::Vector shared_copy = shared;
  math::Vector other(n);
  for (double& r : other) r = rng.uniform(0.0, 0.5 * cap);
  other[0] = -0.0;
  // Above the validity bound: the raw probabilities sum above one.
  const math::Vector above(n, 4.0 * cap);

  std::vector<const math::Vector*> schedules(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    const math::Vector* pick[] = {&shared, &shared_copy, &other, &shared};
    schedules[c] = pick[c % 4];
  }
  schedules[classes - 1] = &above;

  // A gamma < 1 population on even classes, beside the default functions.
  std::vector<WaitingFunctionPtr> mixed;
  for (std::size_t c = 0; c < classes; ++c) {
    const WaitingFunctionPtr& own = pop.waiting(static_cast<std::uint32_t>(c));
    mixed.push_back(c % 2 == 1 ? own
                               : std::make_shared<PowerLawWaitingFunction>(
                                     own->beta(), n, cap, 0.6,
                                     LagNormalization::kContinuous));
  }

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const std::vector<const std::vector<WaitingFunctionPtr>*> overrides = {
      nullptr, &mixed};
  for (const std::vector<WaitingFunctionPtr>* override_fns : overrides) {
    for (const std::size_t period : {std::size_t{0}, std::size_t{17}, n - 1}) {
      const DeferralTable table(pop, schedules, period, override_fns);
      std::size_t clamps = 0;
      for (std::size_t c = 0; c < classes; ++c) {
        const PowerLawWaitingFunction& w =
            override_fns ? *mixed[c]
                         : *pop.waiting(static_cast<std::uint32_t>(c));
        std::vector<double> running(n, 0.0);
        double total = 0.0;
        for (std::size_t lag = 1; lag < n; ++lag) {
          total += lag_weight(w, (*schedules[c])[(period + lag) % n], lag,
                              LagConvention::kUniformArrival);
          running[lag] = total;
        }
        if (total > 1.0) {
          ++clamps;
          for (std::size_t lag = 1; lag < n; ++lag) running[lag] /= total;
        }
        const auto cls = static_cast<std::uint32_t>(c);
        for (std::size_t lag = 1; lag < n; ++lag) {
          const std::string where = "class " + std::to_string(c) + " lag " +
                                    std::to_string(lag) + " period " +
                                    std::to_string(period) +
                                    (override_fns ? " (mixed gamma)" : "");
          EXPECT_EQ(bits(table.cumulative(cls, lag)), bits(running[lag]))
              << where;
          EXPECT_EQ(bits(table.reward(cls, lag)),
                    bits((*schedules[c])[(period + lag) % n]))
              << where;
        }
      }
      EXPECT_EQ(clamps, 1u);
      EXPECT_EQ(table.probability_clamps(), clamps);
    }
  }
}

/// The slice walk spelled out from the population's public streams: the
/// Knuth count by Rng::poisson, exponential sizes, one deferral uniform per
/// session and the lag by linear scan of the table — the oracle the
/// batched, screened and split shard walk must match bit for bit.
class ReferenceWalk {
 public:
  ReferenceWalk(const Population& pop, std::size_t slices)
      : pop_(&pop),
        slices_(slices),
        work_(slices, std::vector<double>(pop.periods(), 0.0)),
        reward_(slices, std::vector<double>(pop.periods(), 0.0)) {}

  /// One period of every slice; rings advance once per call.
  std::vector<PeriodStats> step(std::size_t day, std::size_t period,
                                const DeferralTable& table) {
    const std::size_t n = pop_->periods();
    std::vector<PeriodStats> out(slices_);
    for (std::size_t s = 0; s < slices_; ++s) {
      PeriodStats& stats = out[s];
      stats.realized_work += work_[s][head_];
      stats.reward_paid += reward_[s][head_];
      work_[s][head_] = 0.0;
      reward_[s][head_] = 0.0;
      const std::uint64_t end = slice_user_begin(pop_->users(), slices_, s + 1);
      for (std::uint64_t u = slice_user_begin(pop_->users(), slices_, s);
           u < end; ++u) {
        const UserSpec spec = pop_->spec(u);
        const std::uint32_t cls = spec.patience_class;
        const double rate = spec.activity * pop_->session_rate(cls, period);
        if (rate <= 0.0) continue;
        Rng rng = pop_->user_period_rng(u, day * n + period);
        const std::uint64_t count = rng.poisson(rate);
        stats.sessions += count;
        for (std::uint64_t k = 0; k < count; ++k) {
          const double work = rng.exponential(pop_->mean_session_size());
          stats.offered_work += work;
          const double draw = rng.uniform();
          if (draw >= table.cumulative(cls, n - 1)) {
            stats.realized_work += work;
            continue;
          }
          std::size_t lag = 1;
          while (draw >= table.cumulative(cls, lag)) ++lag;
          ++stats.deferred_sessions;
          stats.deferred_work += work;
          const std::size_t slot = (head_ + lag) % n;
          work_[s][slot] += work;
          reward_[s][slot] += table.reward(cls, lag) * work;
        }
      }
    }
    head_ = (head_ + 1) % n;
    return out;
  }

  const std::vector<double>& ring_work(std::size_t slice) const {
    return work_[slice];
  }
  const std::vector<double>& ring_reward(std::size_t slice) const {
    return reward_[slice];
  }

 private:
  const Population* pop_;
  std::size_t slices_;
  std::vector<std::vector<double>> work_;
  std::vector<std::vector<double>> reward_;
  std::size_t head_ = 0;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_stats(const PeriodStats& a, const PeriodStats& b,
                       const std::string& where) {
  EXPECT_EQ(bits(a.offered_work), bits(b.offered_work)) << where;
  EXPECT_EQ(bits(a.realized_work), bits(b.realized_work)) << where;
  EXPECT_EQ(bits(a.deferred_work), bits(b.deferred_work)) << where;
  EXPECT_EQ(bits(a.reward_paid), bits(b.reward_paid)) << where;
  EXPECT_EQ(a.sessions, b.sessions) << where;
  EXPECT_EQ(a.deferred_sessions, b.deferred_sessions) << where;
}

/// Two shards over `slices` slices, each owning a contiguous half.
std::vector<std::unique_ptr<Shard>> two_shards(const Population& pop,
                                               std::size_t slices) {
  std::vector<std::unique_ptr<Shard>> shards;
  shards.push_back(std::make_unique<Shard>(pop, 0, slices / 2, slices));
  shards.push_back(std::make_unique<Shard>(pop, slices / 2, slices, slices));
  return shards;
}

/// Two days of `config` drawn ahead and inline on two shards each, against
/// each other and the reference walk (stripes and rings); returns the
/// inline shards' summed draw counts.
Shard::DrawCounts expect_draw_ahead_matches_inline(
    const PopulationConfig& config) {
  const Population pop(config);
  const std::size_t n = pop.periods();
  const std::size_t slices = 6;
  Rng rng(41);
  math::Vector rewards(n);
  for (double& r : rewards) {
    r = rng.uniform(0.0, paper::kStaticNormalizationReward);
  }
  const std::vector<const math::Vector*> schedules(pop.patience_classes(),
                                                   &rewards);

  std::vector<std::unique_ptr<Shard>> inline_shards = two_shards(pop, slices);
  std::vector<std::unique_ptr<Shard>> ahead_shards = two_shards(pop, slices);
  StripedAggregator inline_agg(slices, n);
  StripedAggregator ahead_agg(slices, n);
  ReferenceWalk reference(pop, slices);
  std::uint64_t deferred = 0;
  Shard::DrawCounts drawn;
  for (std::size_t day = 0; day < 2; ++day) {
    for (auto& shard : ahead_shards) shard->draw_period(day, 0);
    for (std::size_t period = 0; period < n; ++period) {
      const DeferralTable table(pop, schedules, period);
      for (auto& shard : inline_shards) {
        shard->simulate_period(day, period, table, inline_agg);
      }
      for (auto& shard : ahead_shards) {
        shard->simulate_period(day, period, table, ahead_agg);
        if (period + 1 < n) shard->draw_period(day, period + 1);
      }
      for (const auto& shard : inline_shards) {
        drawn.one_session += shard->draw_counts().one_session;
        drawn.fallbacks += shard->draw_counts().fallbacks;
      }
      const std::vector<PeriodStats> expected =
          reference.step(day, period, table);
      for (std::size_t s = 0; s < slices; ++s) {
        const std::string where = "users " + std::to_string(pop.users()) +
                                  " day " + std::to_string(day) + " period " +
                                  std::to_string(period) + " slice " +
                                  std::to_string(s);
        expect_same_stats(ahead_agg.stripe(s, period),
                          inline_agg.stripe(s, period), where + " ahead");
        expect_same_stats(inline_agg.stripe(s, period), expected[s],
                          where + " reference");
        deferred += expected[s].deferred_sessions;
      }
    }
    for (std::size_t s = 0; s < slices; ++s) {
      const Shard& inline_shard = *inline_shards[s < slices / 2 ? 0 : 1];
      const Shard& ahead_shard = *ahead_shards[s < slices / 2 ? 0 : 1];
      std::vector<double> inline_work, inline_reward, ahead_work, ahead_reward;
      inline_shard.export_slice_rings(s, inline_work, inline_reward);
      ahead_shard.export_slice_rings(s, ahead_work, ahead_reward);
      for (std::size_t slot = 0; slot < n; ++slot) {
        const std::string where = "day " + std::to_string(day) + " slice " +
                                  std::to_string(s) + " slot " +
                                  std::to_string(slot);
        EXPECT_EQ(bits(ahead_work[slot]), bits(inline_work[slot])) << where;
        EXPECT_EQ(bits(ahead_reward[slot]), bits(inline_reward[slot]))
            << where;
        EXPECT_EQ(bits(inline_work[slot]), bits(reference.ring_work(s)[slot]))
            << where;
        EXPECT_EQ(bits(inline_reward[slot]),
                  bits(reference.ring_reward(s)[slot]))
            << where;
      }
    }
  }
  EXPECT_GT(deferred, 1000u) << "the schedule must defer sessions";
  return drawn;
}

TEST(Shard, DrawingAheadThenApplyingMatchesTheInlineWalkBitwise) {
  // The control loop draws a day's period t+1 while the pricer observes
  // period t, then applies t+1's table to those draws. Over two days of a
  // schedule that defers, that must give the stripes and rings the inline
  // walk gives, and both must match the reference walk.
  const Shard::DrawCounts paper = expect_draw_ahead_matches_inline(
      small_population(3000));
  EXPECT_GT(paper.one_session, 1000u) << "the one-session path must run";
  EXPECT_GT(paper.fallbacks, 100u) << "the Rng fallback must run";

  // 100 times the sessions: dozens of class-periods have rates of 19 or
  // more (a screen of -1), users' means pass 30 (Poisson's normal
  // approximation) and two or more sessions in a user-period are common.
  PopulationConfig busy = small_population(600);
  busy.sessions_per_day = 400.0;
  const Shard::DrawCounts drawn = expect_draw_ahead_matches_inline(busy);
  EXPECT_GT(drawn.fallbacks, drawn.one_session);
  const Population pop(busy);
  std::size_t unscreened = 0;
  double top_rate = 0.0;
  for (std::size_t period = 0; period < pop.periods(); ++period) {
    for (std::uint32_t c = 0; c < pop.patience_classes(); ++c) {
      if (pop.session_rate(c, period) >= 19.0) ++unscreened;
    }
    for (std::uint64_t u = 0; u < pop.users(); ++u) {
      const UserSpec spec = pop.spec(u);
      top_rate = std::max(
          top_rate,
          spec.activity * pop.session_rate(spec.patience_class, period));
    }
  }
  EXPECT_GT(unscreened, 20u);
  EXPECT_GE(top_rate, 30.0);
}

TEST(Shard, HeldDrawsOfAnotherPeriodAreRedrawn) {
  // A shard holding the draws of another period, or of the same period on
  // another day, must draw the period it is asked for.
  const Population pop(small_population(2000));
  const std::size_t n = pop.periods();
  const std::size_t slices = 4;
  const math::Vector rewards(n, 0.5 * paper::kStaticNormalizationReward);
  const std::vector<const math::Vector*> schedules(pop.patience_classes(),
                                                   &rewards);
  const std::size_t period = 17;
  const DeferralTable table(pop, schedules, period);
  const std::pair<std::size_t, std::size_t> held[] = {{0, period + 1},
                                                      {1, period}};
  for (const auto& [held_day, held_period] : held) {
    Shard fresh(pop, 0, slices, slices);
    Shard stale(pop, 0, slices, slices);
    StripedAggregator fresh_agg(slices, n);
    StripedAggregator stale_agg(slices, n);
    stale.draw_period(held_day, held_period);
    fresh.simulate_period(0, period, table, fresh_agg);
    stale.simulate_period(0, period, table, stale_agg);
    // The held draws would have read differently.
    Shard other(pop, 0, slices, slices);
    StripedAggregator other_agg(slices, n);
    other.simulate_period(held_day, held_period, table, other_agg);
    for (std::size_t s = 0; s < slices; ++s) {
      const std::string where = "held day " + std::to_string(held_day) +
                                " period " + std::to_string(held_period) +
                                " slice " + std::to_string(s);
      expect_same_stats(stale_agg.stripe(s, period),
                        fresh_agg.stripe(s, period), where);
      EXPECT_NE(bits(other_agg.stripe(s, held_period).offered_work),
                bits(fresh_agg.stripe(s, period).offered_work))
          << where;
    }
  }
}

TEST(Shard, AFirstUniformExactlyOnKnuthsLimitDrawsNoSession) {
  // Knuth's walk stops once its product is at or below exp(-mean), so a
  // user-period whose first uniform equals that limit draws no session.
  // Random draws never tie: pick a user whose period-20 uniform has exact
  // exp preimages, then the sessions_per_day that makes the user's mean
  // one of them, with Population's rate formula spelled out.
  PopulationConfig config = small_population(64);
  const Population probe(config);
  const std::vector<paper::MixRow> mix = paper::table7_mix_48();
  const std::size_t period = 20;
  std::uint64_t tied = config.users;
  for (std::uint64_t u = 0; u < config.users && tied == config.users; ++u) {
    const UserSpec spec = probe.spec(u);
    const std::uint32_t c = spec.patience_class;
    const double u1 = probe.user_period_rng(u, period).uniform();
    if (!(u1 > 0.4 && u1 < 0.6)) continue;
    double total = 0.0;
    for (const paper::MixRow& row : mix) total += row[c];
    const double share = mix[period][c];
    double spd = -std::log(u1) * total / (spec.activity * share);
    for (int step = 0; step < 4096; ++step) spd = std::nextafter(spd, 0.0);
    for (int step = 0; step < 8192; ++step, spd = std::nextafter(spd, 1e9)) {
      if (std::exp(-(spec.activity * (spd * share / total))) == u1) {
        config.sessions_per_day = spd;
        tied = u;
        break;
      }
    }
  }
  ASSERT_LT(tied, config.users) << "no user-period could be tied";

  const Population pop(config);
  const UserSpec spec = pop.spec(tied);
  ASSERT_EQ(std::exp(-(spec.activity *
                       pop.session_rate(spec.patience_class, period))),
            pop.user_period_rng(tied, period).uniform());
  const std::size_t slices = 4;
  const math::Vector rewards(pop.periods(), 0.0);
  const std::vector<const math::Vector*> schedules(pop.patience_classes(),
                                                   &rewards);
  const DeferralTable table(pop, schedules, period);
  Shard shard(pop, 0, slices, slices);
  StripedAggregator aggregator(slices, pop.periods());
  shard.simulate_period(0, period, table, aggregator);
  ReferenceWalk reference(pop, slices);
  const std::vector<PeriodStats> expected = reference.step(0, period, table);
  for (std::size_t s = 0; s < slices; ++s) {
    expect_same_stats(aggregator.stripe(s, period), expected[s],
                      "slice " + std::to_string(s));
  }
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

// The slice count is an explicit part of the experiment: anything outside
// [1, users] is refused at construction, never clamped or derived.
TEST(FleetDriver, SliceCountOutsideOneToUsersIsRejected) {
  FleetDriverConfig config;
  config.population = small_population(200);
  config.threads = 1;
  config.warmup_days = 0;
  for (const std::size_t slices : {std::size_t{0}, std::size_t{201}}) {
    SCOPED_TRACE(std::to_string(slices) + " slices");
    config.slices = slices;
    EXPECT_THROW(FleetDriver{config}, PreconditionError);
  }
  config.slices = 200;
  EXPECT_EQ(FleetDriver(config).slice_count(), 200u);
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
