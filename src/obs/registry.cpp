#include "obs/registry.hpp"

namespace tdp::obs {

namespace detail {

std::size_t thread_shard_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShardCells;
  return slot;
}

}  // namespace detail

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const detail::ShardCell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (detail::ShardCell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed: cached
  return *instance;                            // references stay valid
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& existing : counters_) {
    if (existing->name() == name) return *existing;
  }
  counters_.push_back(
      std::unique_ptr<Counter>(new Counter(std::string(name))));
  return *counters_.back();
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& counter : counters_) {
    snap.counters.push_back({counter->name(), counter->value()});
  }
  return snap;
}

void Registry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& counter : counters_) counter->reset();
}

void Registry::set_counter_value(std::string_view name, std::uint64_t value) {
  Counter& target = counter(name);
  // Zero every cell, then park the whole value in cell 0: the merged sum —
  // the only thing value()/CounterDelta read — lands exactly on `value`.
  target.reset();
  target.cells_[0].value.store(value, std::memory_order_relaxed);
}

}  // namespace tdp::obs
