#include "fleet/shard.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "core/deferral_kernel.hpp"
#include "fleet/aggregator.hpp"

namespace tdp::fleet {

DeferralTable::DeferralTable(
    const Population& population,
    const std::vector<const math::Vector*>& schedule_by_class,
    std::size_t period,
    const std::vector<WaitingFunctionPtr>* waiting_override)
    : periods_(population.periods()) {
  const std::size_t n = periods_;
  const std::size_t classes = population.patience_classes();
  TDP_REQUIRE(schedule_by_class.size() == classes,
              "need one reward schedule per patience class");
  TDP_REQUIRE(period < n, "period out of range");
  TDP_REQUIRE(
      waiting_override == nullptr || waiting_override->size() == classes,
      "need one waiting function per patience class");

  // pow(reward, gamma) of every lag's target reward, taken once per
  // distinct (schedule, gamma) and shared by the classes that match. The
  // key is the schedule's bits, not its address: the fan-out hands each
  // class its own copy of the same schedule.
  struct Powers {
    const math::Vector* schedule;
    double gamma;
    std::size_t offset;  ///< into `powers`, indexed by lag
  };
  std::vector<Powers> keys;
  std::vector<double> powers;

  cumulative_.assign(classes * n, 0.0);
  reward_.assign(classes * n, 0.0);
  for (std::size_t c = 0; c < classes; ++c) {
    const math::Vector& schedule = *schedule_by_class[c];
    TDP_REQUIRE(schedule.size() == n, "schedule size mismatch");
    // A drift override swaps in functions built from perturbed patience
    // indices without touching the population's calibrated defaults.
    const PowerLawWaitingFunction& waiting =
        waiting_override ? *(*waiting_override)[c]
                         : *population.waiting(static_cast<std::uint32_t>(c));
    const double gamma = waiting.gamma();
    auto key = std::find_if(keys.begin(), keys.end(), [&](const Powers& k) {
      return k.gamma == gamma &&
             std::memcmp(k.schedule->data(), schedule.data(),
                         n * sizeof(double)) == 0;
    });
    if (key == keys.end()) {
      keys.push_back({&schedule, gamma, powers.size()});
      key = keys.end() - 1;
      powers.resize(powers.size() + n, 0.0);
      for (std::size_t lag = 1; lag < n; ++lag) {
        const double reward = schedule[(period + lag) % n];
        powers[key->offset + lag] =
            reward <= 0.0 ? 0.0 : std::pow(reward, gamma);
      }
    }
    const double* power = powers.data() + key->offset;

    // Each weight is lag_weight(waiting, reward, lag, kUniformArrival) bit
    // for bit: C * p^gamma averaged over the tabulated Gauss-node powers
    // (test_fleet.cpp checks the table against lag_weight).
    const double norm = waiting.normalization();
    double total = 0.0;
    for (std::size_t lag = 1; lag < n; ++lag) {
      const double reward = schedule[(period + lag) % n];
      const double p =
          reward <= 0.0 ? 0.0 : waiting.gauss_average(norm * power[lag], lag);
      total += p;
      cumulative_[c * n + lag] = total;
      reward_[c * n + lag] = reward;
    }
    if (total > 1.0) {
      // Rewards above the probabilistic validity bound; renormalize
      // defensively, as the session-level simulator does.
      ++probability_clamps_;
      for (std::size_t lag = 1; lag < n; ++lag) {
        cumulative_[c * n + lag] /= total;
      }
    }
  }
}

PeriodStats& PeriodStats::operator+=(const PeriodStats& other) {
  offered_work += other.offered_work;
  realized_work += other.realized_work;
  deferred_work += other.deferred_work;
  reward_paid += other.reward_paid;
  sessions += other.sessions;
  deferred_sessions += other.deferred_sessions;
  return *this;
}

Shard::Shard(const Population& population, std::size_t begin_slice,
             std::size_t end_slice, std::size_t total_slices)
    : population_(&population),
      begin_slice_(begin_slice),
      end_slice_(end_slice),
      begin_(slice_user_begin(population.users(), total_slices, begin_slice)),
      end_(slice_user_begin(population.users(), total_slices, end_slice)) {
  TDP_REQUIRE(begin_slice_ < end_slice_ && end_slice_ <= total_slices,
              "shard slice range invalid");
  TDP_REQUIRE(begin_ < end_ && end_ <= population.users(),
              "shard user range invalid");
  slice_user_end_.reserve(end_slice_ - begin_slice_);
  for (std::size_t s = begin_slice_; s < end_slice_; ++s) {
    slice_user_end_.push_back(
        slice_user_begin(population.users(), total_slices, s + 1));
  }

  // One arena reservation for every per-user array; the writes below are
  // the first touch of those pages, so constructing the shard on its
  // owning worker places them on that worker's NUMA node.
  const std::uint64_t users = end_ - begin_;
  ring_slots_ = (end_slice_ - begin_slice_) * population.periods();
  arena_.reset(Arena::bytes_for<std::uint32_t>(users) +
               Arena::bytes_for<double>(users) +
               Arena::bytes_for<std::uint64_t>(users) +
               2 * Arena::bytes_for<double>(ring_slots_));
  cls_ = arena_.allocate<std::uint32_t>(users);
  activity_ = arena_.allocate<double>(users);
  user_stream_ = arena_.allocate<std::uint64_t>(users);
  deferred_ring_ = arena_.allocate<double>(ring_slots_);
  reward_ring_ = arena_.allocate<double>(ring_slots_);

  for (std::uint64_t u = begin_; u < end_; ++u) {
    const UserSpec spec = population.spec(u);
    cls_[u - begin_] = spec.patience_class;
    activity_[u - begin_] = spec.activity;
    user_stream_[u - begin_] = population.user_rng(u).state();
  }
  std::fill(deferred_ring_, deferred_ring_ + ring_slots_, 0.0);
  std::fill(reward_ring_, reward_ring_ + ring_slots_, 0.0);
}

void Shard::set_ring_head(std::size_t head) {
  TDP_REQUIRE(head < population_->periods(), "ring head out of range");
  ring_head_ = head;
}

void Shard::export_slice_rings(std::size_t slice, std::vector<double>& work,
                               std::vector<double>& reward) const {
  TDP_REQUIRE(slice >= begin_slice_ && slice < end_slice_,
              "slice not owned by this shard");
  const std::size_t n = population_->periods();
  const std::size_t base = (slice - begin_slice_) * n;
  work.assign(deferred_ring_ + base, deferred_ring_ + base + n);
  reward.assign(reward_ring_ + base, reward_ring_ + base + n);
}

void Shard::restore_slice_rings(std::size_t slice,
                                const std::vector<double>& work,
                                const std::vector<double>& reward) {
  TDP_REQUIRE(slice >= begin_slice_ && slice < end_slice_,
              "slice not owned by this shard");
  const std::size_t n = population_->periods();
  TDP_REQUIRE(work.size() == n && reward.size() == n,
              "ring size mismatch");
  const std::size_t base = (slice - begin_slice_) * n;
  std::copy(work.begin(), work.end(), deferred_ring_ + base);
  std::copy(reward.begin(), reward.end(), reward_ring_ + base);
}

void Shard::draw_period(std::size_t day, std::size_t period) {
  const Population& pop = *population_;
  const std::size_t n = pop.periods();
  TDP_REQUIRE(period < n, "period out of range");

  const double b = pop.mean_session_size();
  const std::size_t abs_period = day * n + period;
  const double* class_rate = pop.class_rates(period);
  const double* screen = pop.class_screens(period);

  // Scratch per batch: each user's first uniform of its (user,
  // abs_period) stream and the stream's state after it, the screen's
  // survivors as a bitmask and as ascending batch indices, and per
  // survivor the stream's next three uniforms.
  alignas(64) std::array<double, kBatch> u1;
  alignas(64) std::array<std::uint64_t, kBatch> s2;
  std::array<std::uint64_t, kBatch / 64> active;
  alignas(64) std::array<std::uint32_t, kBatch> survivor;
  alignas(64) std::array<double, kBatch> u2;
  alignas(64) std::array<double, kBatch> u3;
  alignas(64) std::array<double, kBatch> u4;

  const auto hold = [this](double work, double draw, std::uint32_t cls) {
    session_work_.push_back(work);
    session_draw_.push_back(draw);
    session_class_.push_back(static_cast<std::uint8_t>(cls));
  };

  session_work_.clear();
  session_draw_.clear();
  session_class_.clear();
  slice_draws_.resize(slice_user_end_.size());
  draw_counts_ = {};
  std::uint64_t user = begin_;
  for (std::size_t local = 0; local < slice_user_end_.size(); ++local) {
    // Summed in session order from 0.0: the order the stripe's bits are
    // defined by.
    double offered_work = 0.0;
    const std::uint64_t slice_end = slice_user_end_[local];
    for (std::uint64_t u0 = user; u0 < slice_end; u0 += kBatch) {
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBatch, slice_end - u0));
      const std::size_t base = static_cast<std::size_t>(u0 - begin_);
      // A clear bit proves the user-period draws no session.
      simd::fork_uniform_screen_batch(
          user_stream_ + base, len, abs_period, cls_ + base,
          activity_ + base, class_rate, screen, u1.data(), s2.data(),
          active.data());
      // Set bits ascend within a word and words ascend, so the survivors
      // keep user order, and with it the order of every sum.
      std::size_t survivors = 0;
      for (std::size_t w = 0; w < (len + 63) / 64; ++w) {
        for (std::uint64_t bits = active[w]; bits != 0; bits &= bits - 1) {
          survivor[survivors++] = static_cast<std::uint32_t>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        }
      }
      simd::survivor_uniform_batch(survivor.data(), survivors, s2.data(),
                                   u2.data(), u3.data(), u4.data());
      draw_counts_.survivors += survivors;

      for (std::size_t k = 0; k < survivors; ++k) {
        const std::size_t j = survivor[k];
        const std::uint32_t cls = cls_[base + j];
        // The screen's product, to the bit.
        const double rate = activity_[base + j] * class_rate[cls];
        // Rng::poisson's walk, continued from the batched first draw;
        // computing the limit after it is exact (exp consumes no RNG).
        Rng rng(s2[j]);
        std::uint64_t count = 0;
        if (rate < 30.0) {
          const double limit = std::exp(-rate);
          if (u1[j] <= limit) continue;  // count 0
          if (u1[j] * u2[k] <= limit) {
            // Count 1: Knuth's walk took u2, so Rng::exponential takes u3
            // (with its clamp away from log(0)) and the deferral u4.
            const double u = u3[k] <= 0.0 ? 0x1.0p-53 : u3[k];
            const double work = -b * std::log(u);
            offered_work += work;
            hold(work, u4[k], cls);
            ++draw_counts_.one_session;
            continue;
          }
          double product = u1[j];
          while (product > limit) {
            ++count;
            product *= rng.uniform();
          }
        } else {
          // Normal-approximation regime: replay the whole draw from the
          // stream state *before* the batched uniform (SplitMix64's state
          // advance is an invertible += of the golden-ratio increment).
          Rng replay(s2[j] - Rng::kGamma);
          count = replay.poisson(rate);
          rng = replay;
        }
        ++draw_counts_.fallbacks;
        for (std::uint64_t s = 0; s < count; ++s) {
          const double work = rng.exponential(b);
          offered_work += work;
          hold(work, rng.uniform(), cls);
        }
      }
    }
    user = slice_end;
    slice_draws_[local] = {offered_work, session_work_.size()};
  }
  draw_counts_.sessions = session_work_.size();
  drawn_ = abs_period;
}

void Shard::simulate_period(std::size_t day, std::size_t period,
                            const DeferralTable& table,
                            StripedAggregator& aggregator) {
  const std::size_t n = population_->periods();
  TDP_REQUIRE(period < n, "period out of range");
  TDP_REQUIRE(table.periods() == n, "deferral table size mismatch");
  if (drawn_ != day * n + period) draw_period(day, period);

  // A session stays put when its uniform reaches the class's total
  // deferral probability.
  const std::size_t classes = population_->patience_classes();
  std::array<double, simd::kMaxClasses> stay_threshold;
  for (std::size_t c = 0; c < classes; ++c) {
    stay_threshold[c] =
        table.cumulative(static_cast<std::uint32_t>(c), n - 1);
  }

  std::size_t s = 0;
  for (std::size_t local = 0; local < slice_draws_.size(); ++local) {
    const SliceDraws& drawn = slice_draws_[local];
    PeriodStats stats;
    stats.offered_work = drawn.offered_work;
    stats.sessions = drawn.end - s;
    const std::size_t ring_base = local * n;

    // Work deferred into this period arrives at the period start, with the
    // reward promised when it was deferred.
    stats.realized_work += deferred_ring_[ring_base + ring_head_];
    stats.reward_paid += reward_ring_[ring_base + ring_head_];
    deferred_ring_[ring_base + ring_head_] = 0.0;
    reward_ring_[ring_base + ring_head_] = 0.0;

    // The sessions in walk order, so every sum keeps its order and bits.
    for (; s < drawn.end; ++s) {
      const double work = session_work_[s];
      const double draw = session_draw_[s];
      const std::uint32_t cls = session_class_[s];
      if (draw >= stay_threshold[cls]) {  // common case: the session stays
        stats.realized_work += work;
        continue;
      }
      const std::size_t lag = table.find_lag(cls, draw);
      ++stats.deferred_sessions;
      stats.deferred_work += work;
      const std::size_t slot = ring_base + (ring_head_ + lag) % n;
      deferred_ring_[slot] += work;
      reward_ring_[slot] += table.reward(cls, lag) * work;
    }

    aggregator.record(begin_slice_ + local, period, stats);
  }

  ring_head_ = (ring_head_ + 1) % n;
  drawn_ = kNoDraws;
}

}  // namespace tdp::fleet
