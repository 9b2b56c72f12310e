// The benchmark's own arithmetic: quantiles, the tail-percentile rule,
// span self times and parallel efficiency. Header-only so selftest.cpp
// checks exactly the code perfbench.cpp uses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of the samples; 0 when
/// there are none.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

inline double sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

inline double mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : sum(samples) / static_cast<double>(samples.size());
}

/// A tail timing reported beside a median: the highest percentile, among
/// the candidates, that still leaves at least ten samples beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};

/// `candidates` ascending, in percent. Falls back to the median when even
/// the lowest candidate has fewer than ten samples beyond it.
inline Tail tail_percentile(const std::vector<double>& samples,
                            const std::vector<double>& candidates = {
                                50.0, 75.0, 90.0, 95.0, 98.0}) {
  Tail tail;
  tail.value = median(samples);
  const double n = static_cast<double>(samples.size());
  for (double p : candidates) {
    if (n * (100.0 - p) >= 1000.0) {  // exact for whole percents
      tail.percentile = p;
      tail.value = quantile(samples, p / 100.0);
    }
  }
  return tail;
}

/// Total and self time per span name. A span's self time is its duration
/// minus the part of it that its direct children on the same thread cover
/// (children nest inside their parent by construction of RAII spans).
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

inline std::map<std::string, SpanTotals> self_times(
    const std::vector<tdp::obs::TraceEvent>& events) {
  struct Open {
    const std::string* name;
    std::uint64_t begin_ns;
    std::uint64_t child_ns;
  };
  std::map<std::string, SpanTotals> totals;
  std::map<std::uint32_t, std::vector<Open>> stacks;
  for (const tdp::obs::TraceEvent& event : events) {
    std::vector<Open>& stack = stacks[event.tid];
    if (event.phase == 'B') {
      stack.push_back({&event.name, event.ts_ns, 0});
    } else if (event.phase == 'E' && !stack.empty()) {
      const Open open = stack.back();
      stack.pop_back();
      const std::uint64_t duration = event.ts_ns - open.begin_ns;
      SpanTotals& row = totals[*open.name];
      ++row.count;
      row.total_ns += duration;
      row.self_ns += duration - std::min(duration, open.child_ns);
      if (!stack.empty()) stack.back().child_ns += duration;
    }
  }
  return totals;
}

/// Share of the pool's capacity spent in shard work during a sweep:
/// sum of shard busy time / (threads x sweep wall time).
inline double parallel_efficiency(double busy_sum, std::size_t threads,
                                  double sweep_wall) {
  if (threads == 0 || sweep_wall <= 0.0) return 0.0;
  return busy_sum / (static_cast<double>(threads) * sweep_wall);
}

}  // namespace perfbench
