// Deterministic metrics registry: named monotone counters shared by every
// layer (solver, fleet, TUBE control loop). The counter is the registry's
// one instrument, as per-period byte counts are the TUBE measurement
// engine's.
//
// Determinism contract — the property the rest of the repo's bitwise
// thread-count-independence tests rely on: counter state is integer-only.
// Integer addition is commutative and associative, so a counter's value
// depends only on *what* was recorded, never on which thread recorded it
// or how work was split — snapshots are bitwise identical for 1 thread and
// N threads doing the same work.
//
// Overhead story: one path. Counter::add is one relaxed fetch_add on one
// atomic. Call sites bump once per event, period or solve, never per
// session and never inside the shard sweep; the only bumps on pool workers
// are per-solve ones inside batch-solver tasks, so no counter sees write
// contention worth spreading over cells. It always counts: a counter's
// value is a function of the run alone, whatever TDP_OBS says (that switch
// gates only the event journal, obs/journal.hpp). Telemetry never feeds
// back into any simulated or optimized value — it is pure observation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tdp::obs {

class Registry;

/// Monotone counter. Thread-safe; its value is the integer sum of every
/// add, whatever thread made it.
class Counter {
 public:
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<std::uint64_t> value_{0};
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

/// Point-in-time view of every registered counter, listed in registration
/// order.
struct Snapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  std::vector<CounterRow> counters;
};

/// Name -> counter registry. Get-or-create is mutex-guarded; returned
/// references are stable for the registry's lifetime, so call sites cache
/// them (`static obs::Counter& c = obs::Registry::global().counter(...)`).
class Registry {
 public:
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get or create. The same name always returns the same counter.
  Counter& counter(std::string_view name);

  /// Every counter's value, in registration order.
  Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Counter>> counters_;
};

}  // namespace tdp::obs
