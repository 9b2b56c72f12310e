#include "obs/registry.hpp"

namespace tdp::obs {

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

}  // namespace tdp::obs
