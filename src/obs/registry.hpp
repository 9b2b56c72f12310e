// Deterministic metrics registry: named counters, gauges and fixed-bucket
// histograms shared by every layer (solver, fleet, TUBE control loop).
//
// Determinism contract — the property the rest of the repo's bitwise
// thread-count-independence tests rely on:
//
//   * Counter and histogram state is integer-only. Each instrument owns a
//     fixed array of cache-line-sized shard cells; a thread bumps the cell
//     picked by its (stable) shard slot and a snapshot folds the cells in
//     fixed index order. Integer addition is commutative and associative,
//     so the merged value depends only on *what* was recorded, never on
//     which thread recorded it or how work was split — snapshots are
//     bitwise identical for 1 thread and N threads doing the same work.
//   * Histograms accumulate their sample sum in fixed-point
//     (llround(value * scale), 64-bit), not floating point, for the same
//     reason: double addition is order-dependent, integer addition is not.
//   * Gauges are set-only (last write wins) and meant for single-logical-
//     writer state ("current health rung", "configured shard count").
//
// Overhead story: instruments are bumped through either
//
//   add()/observe()/set()           — gated on the global metrics switch
//                                     (one relaxed atomic load; the add is
//                                     skipped entirely when disabled), or
//   add_always()/observe_always()/set_always()
//                                   — ungated, for the handful of counters
//                                     that back pre-existing public APIs
//                                     (the pricer's health counters, the
//                                     logger's suppression counts, the
//                                     fleet phase timers) and therefore
//                                     must keep counting in both modes.
//
// The switch defaults to ON and honours the TDP_OBS environment variable
// (TDP_OBS=0 disables the gated paths). Telemetry never feeds back into any
// simulated or optimized value — it is pure observation, so every numeric
// output of the system is bitwise identical with observability on or off.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tdp::obs {

/// Global gate for the gated instrument paths (default on; TDP_OBS=0
/// disables). Flipping it never loses the ungated "system of record"
/// counters.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

namespace detail {

inline constexpr std::size_t kShardCells = 16;

/// One cache line per cell so concurrent writers on different slots never
/// false-share.
struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};

/// Stable per-thread shard slot in [0, kShardCells). Assigned on first use;
/// a thread keeps its slot for its lifetime.
std::size_t thread_shard_slot();

}  // namespace detail

class Registry;

/// Monotone counter. Thread-safe; merged deterministically (integer sum
/// over fixed cell order).
class Counter {
 public:
  void inc() { add(1); }
  void add(std::uint64_t n) {
    if (metrics_enabled()) add_always(n);
  }
  /// Ungated variant for counters that back public APIs (see file header).
  void add_always(std::uint64_t n) {
    cells_[detail::thread_shard_slot()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Merged value (sum of shard cells in fixed index order).
  std::uint64_t value() const;

  const std::string& name() const { return name_; }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void reset();

  std::string name_;
  detail::ShardCell cells_[detail::kShardCells];
};

/// Set-only double value (single logical writer; last write wins).
class Gauge {
 public:
  void set(double value) {
    if (metrics_enabled()) set_always(value);
  }
  void set_always(double value);
  double value() const;

  const std::string& name() const { return name_; }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void reset();

  std::string name_;
  std::atomic<std::uint64_t> bits_{0};  ///< bit_cast of the double
};

/// Fixed upper-bound bucket layout for a histogram, plus the fixed-point
/// scale used for the deterministic sample sum. Bounds must be strictly
/// ascending; an implicit +inf bucket is always appended.
struct HistogramSpec {
  std::vector<double> bounds;
  double scale = 1e9;  ///< sum is accumulated as llround(value * scale)

  /// bounds = start, start*factor, ... (count of them), e.g. latency decades.
  static HistogramSpec exponential(double start, double factor,
                                   std::size_t count);
};

/// Fixed-bucket histogram. Bucket counts and the fixed-point sum are
/// integers, so merged snapshots are thread-count-independent bitwise.
class Histogram {
 public:
  void observe(double value) {
    if (metrics_enabled()) observe_always(value);
  }
  void observe_always(double value);

  std::size_t buckets() const { return bounds_.size() + 1; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Merged count of samples in bucket i (i == buckets()-1 is the +inf
  /// overflow bucket).
  std::uint64_t bucket_count(std::size_t bucket) const;
  std::uint64_t count() const;
  /// Merged fixed-point sample sum (signed; divide by scale() for units).
  std::int64_t sum_fp() const;
  double sum() const;
  double scale() const { return scale_; }

  const std::string& name() const { return name_; }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class Registry;
  Histogram(std::string name, const HistogramSpec& spec);
  void reset();

  std::string name_;
  std::vector<double> bounds_;
  double scale_;
  /// [cell][bucket] counts, then per-cell count and fixed-point sum.
  std::vector<detail::ShardCell> bucket_cells_;
  detail::ShardCell count_cells_[detail::kShardCells];
  detail::ShardCell sum_cells_[detail::kShardCells];
};

/// Baseline-and-delta view over a (global, ever-growing) counter: captures
/// the counter's value at construction; delta() is the growth since then.
/// This is how scoped consumers (FleetMetrics over one run_day, benches
/// over one repetition) read process-wide counters without resetting them.
class CounterDelta {
 public:
  explicit CounterDelta(Counter& counter)
      : counter_(counter), base_(counter.value()) {}
  std::uint64_t delta() const { return counter_.value() - base_; }

 private:
  Counter& counter_;
  std::uint64_t base_;
};

/// Point-in-time merged view of every registered instrument, listed in
/// registration order.
struct Snapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    double value = 0.0;
  };
  struct HistogramRow {
    std::string name;
    std::vector<double> bounds;          ///< upper edges (no +inf)
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 counts
    std::uint64_t count = 0;
    std::int64_t sum_fp = 0;
    double scale = 1e9;
    double sum = 0.0;
  };
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
};

/// Name -> instrument registry. Get-or-create is mutex-guarded; returned
/// references are stable for the registry's lifetime, so call sites cache
/// them (`static obs::Counter& c = obs::Registry::global().counter(...)`).
class Registry {
 public:
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get or create. Within one kind, the same name always returns the same
  /// instrument; a histogram's spec is fixed by its first registration.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, const HistogramSpec& spec = {});

  /// Merged view in registration order.
  Snapshot snapshot() const;

  /// Zero every instrument's value, keeping all registrations (and every
  /// cached reference) valid. Test isolation only.
  void reset_values();

  /// Force one counter to an exact value (checkpoint restore: the restored
  /// process replays the saved run's counter levels so per-run deltas keep
  /// meaning). Get-or-create semantics, like counter().
  void set_counter_value(std::string_view name, std::uint64_t value);

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace tdp::obs
