#include "tube/price_channel.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"

namespace tdp {
namespace {

/// Registry mirrors of the per-subscriber SubscriberTelemetry, aggregated
/// across all subscribers and channels in the process.
struct ChannelCounters {
  obs::Counter& fetches =
      obs::Registry::global().counter("channel.fetches_total");
  obs::Counter& cache_hits =
      obs::Registry::global().counter("channel.cache_hits_total");
  obs::Counter& dropped_attempts =
      obs::Registry::global().counter("channel.dropped_attempts_total");
  obs::Counter& retries =
      obs::Registry::global().counter("channel.retries_total");
  obs::Counter& stale_periods =
      obs::Registry::global().counter("channel.stale_periods_total");
  obs::Counter& fallback_periods =
      obs::Registry::global().counter("channel.fallback_periods_total");
  obs::Counter& skewed_periods =
      obs::Registry::global().counter("channel.skewed_periods_total");
  obs::Counter& recoveries =
      obs::Registry::global().counter("channel.recoveries_total");
};

ChannelCounters& channel_counters() {
  static ChannelCounters counters;
  return counters;
}

}  // namespace

PriceChannel::PriceChannel(std::size_t periods)
    : periods_(periods), published_(periods, 0.0) {
  TDP_REQUIRE(periods >= 1, "need at least one period");
}

void PriceChannel::publish(const math::Vector& rewards) {
  TDP_REQUIRE(rewards.size() == periods_, "schedule size mismatch");
  for (double p : rewards) {
    TDP_REQUIRE(p >= 0.0, "rewards must be nonnegative");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  published_ = rewards;
  ++publish_count_;
}

std::size_t PriceChannel::subscribe() {
  const std::lock_guard<std::mutex> lock(mutex_);
  Subscriber sub;
  sub.cache = math::Vector(periods_, 0.0);
  subscribers_.push_back(std::move(sub));
  return subscribers_.size() - 1;
}

void PriceChannel::set_fault_injector(const FaultInjector* injector) {
  const std::lock_guard<std::mutex> lock(mutex_);
  injector_ = injector;
}

void PriceChannel::set_resilience(const ChannelResilienceConfig& config) {
  const std::lock_guard<std::mutex> lock(mutex_);
  resilience_ = config;
}

math::Vector PriceChannel::pull(std::size_t subscriber,
                                std::size_t abs_period) {
  return pull_with_source(subscriber, abs_period, nullptr);
}

math::Vector PriceChannel::pull_with_source(std::size_t subscriber,
                                            std::size_t abs_period,
                                            PullSource* source) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TDP_REQUIRE(subscriber < subscribers_.size(), "unknown subscriber");
  Subscriber& sub = subscribers_[subscriber];
  TDP_REQUIRE(!sub.pulled_ever || abs_period >= sub.last_pull_period,
              "pulls must be time-ordered");

  // Repeat pull within the period: read whatever this period resolved to
  // (fresh, stale or fallback — repeats must agree with the first pull).
  if (sub.pulled_ever && abs_period == sub.last_pull_period) {
    ++sub.stats.cache_hits;
    channel_counters().cache_hits.add(1);
    if (source != nullptr) *source = PullSource::kCache;
    return sub.cache;
  }

  sub.last_pull_period = abs_period;
  sub.pulled_ever = true;

  // First pull of a new period: try the server. The fault-free path (no
  // injector, or one that never fires) is exactly the pre-fault channel:
  // one successful attempt, cache refreshed, fetch counted.
  // A skewed clock is not a transport failure: the subscriber believes the
  // period has not rolled over and reads its cache as if it were current.
  // The miss streak is untouched — the next unskewed period fetches
  // normally.
  if (injector_ != nullptr && injector_->skew_clock(subscriber, abs_period)) {
    ++sub.stats.skewed_periods;
    channel_counters().skewed_periods.add(1);
    if (source != nullptr) *source = PullSource::kStale;
    return sub.cache;
  }

  // Bounded retry: while within the TTL the subscriber spends its retry
  // budget; once in fallback it backs off to one attempt per period.
  bool fetched = false;
  const std::size_t attempts =
      sub.stats.missed_streak > resilience_.staleness_ttl
          ? 1
          : 1 + resilience_.max_retries;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (injector_ != nullptr &&
        injector_->drop_price_pull(subscriber, abs_period, attempt)) {
      ++sub.stats.dropped_attempts;
      channel_counters().dropped_attempts.add(1);
      if (attempt + 1 < attempts) {
        ++sub.stats.retries;
        channel_counters().retries.add(1);
      }
      continue;
    }
    fetched = true;
    break;
  }

  if (fetched) {
    sub.cache = published_;
    ++sub.stats.fetches;
    channel_counters().fetches.add(1);
    if (sub.stats.missed_streak > 0) {
      ++sub.stats.recoveries;
      channel_counters().recoveries.add(1);
      obs::journal_record("channel.recovery",
                          static_cast<std::int64_t>(abs_period),
                          static_cast<std::int64_t>(subscriber),
                          "fetch succeeded after misses",
                          {{"missed_streak",
                            static_cast<double>(sub.stats.missed_streak)}});
      sub.stats.missed_streak = 0;
    }
    if (source != nullptr) *source = PullSource::kServer;
    return sub.cache;
  }

  // Miss: degrade. Within the TTL the last-known-good schedule is still a
  // sane signal (rewards change slowly period-to-period); past it, pretend
  // prices are flat — a zero-reward schedule under which nobody defers,
  // which can never destabilize demand.
  ++sub.stats.missed_streak;
  if (sub.stats.missed_streak <= resilience_.staleness_ttl) {
    ++sub.stats.stale_periods;
    channel_counters().stale_periods.add(1);
    if (source != nullptr) *source = PullSource::kStale;
  } else {
    ++sub.stats.fallback_periods;
    channel_counters().fallback_periods.add(1);
    if (sub.stats.missed_streak == resilience_.staleness_ttl + 1) {
      // First fallback period of this excursion: one journal event per
      // excursion, not one per degraded period.
      obs::journal_record("channel.fallback",
                          static_cast<std::int64_t>(abs_period),
                          static_cast<std::int64_t>(subscriber),
                          "staleness TTL exhausted, zero-reward fallback",
                          {{"missed_streak",
                            static_cast<double>(sub.stats.missed_streak)}});
    }
    sub.cache = math::Vector(periods_, 0.0);
    if (source != nullptr) *source = PullSource::kFallback;
  }
  return sub.cache;  // copy: the caller's snapshot outlives any mutation
}

std::size_t PriceChannel::server_fetches(std::size_t subscriber) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TDP_REQUIRE(subscriber < subscribers_.size(), "unknown subscriber");
  return subscribers_[subscriber].stats.fetches;
}

std::size_t PriceChannel::cache_hits(std::size_t subscriber) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TDP_REQUIRE(subscriber < subscribers_.size(), "unknown subscriber");
  return subscribers_[subscriber].stats.cache_hits;
}

SubscriberTelemetry PriceChannel::telemetry(std::size_t subscriber) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TDP_REQUIRE(subscriber < subscribers_.size(), "unknown subscriber");
  return subscribers_[subscriber].stats;
}

std::size_t PriceChannel::publish_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return publish_count_;
}

PriceChannelState PriceChannel::export_state() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  PriceChannelState state;
  state.published = published_;
  state.publish_count = publish_count_;
  state.subscribers.reserve(subscribers_.size());
  for (const Subscriber& sub : subscribers_) {
    PriceChannelState::Subscriber out;
    out.cache = sub.cache;
    out.last_pull_period =
        sub.last_pull_period == static_cast<std::size_t>(-1)
            ? ~0ull
            : static_cast<std::uint64_t>(sub.last_pull_period);
    out.pulled_ever = sub.pulled_ever;
    out.stats = sub.stats;
    state.subscribers.push_back(std::move(out));
  }
  return state;
}

void PriceChannel::restore_state(const PriceChannelState& state) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TDP_REQUIRE(state.subscribers.size() == subscribers_.size(),
              "restored channel state has a different subscriber topology");
  TDP_REQUIRE(state.published.size() == periods_,
              "restored schedule has the wrong period count");
  published_ = state.published;
  publish_count_ = static_cast<std::size_t>(state.publish_count);
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    const PriceChannelState::Subscriber& in = state.subscribers[i];
    TDP_REQUIRE(in.cache.size() == periods_,
                "restored subscriber cache has the wrong period count");
    subscribers_[i].cache = in.cache;
    subscribers_[i].last_pull_period =
        in.last_pull_period == ~0ull
            ? static_cast<std::size_t>(-1)
            : static_cast<std::size_t>(in.last_pull_period);
    subscribers_[i].pulled_ever = in.pulled_ever;
    subscribers_[i].stats = in.stats;
  }
}

}  // namespace tdp
