// Shared helpers for the table/figure regeneration benches and the gated
// perf suites.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/batch_solver.hpp"
#include "core/deferral_kernel.hpp"
#include "core/paper_data.hpp"

// Short commit SHA baked in by bench/CMakeLists.txt so every BENCH_JSON
// line is traceable to the tree that produced it.
#ifndef TDP_GIT_SHA
#define TDP_GIT_SHA "unknown"
#endif

namespace tdp::bench {

inline void banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void paper_vs_measured(const std::string& what,
                              const std::string& paper,
                              const std::string& measured) {
  std::printf("  %-46s paper: %-14s ours: %s\n", what.c_str(), paper.c_str(),
              measured.c_str());
}

inline void print_table(const TextTable& table) {
  std::printf("%s", table.to_string().c_str());
}

inline void report_batch(const BatchTiming& timing) {
  std::printf("  [batch] %zu solves on %zu threads: %.3f s wall, "
              "%zu FISTA iterations (%zu in the anchor)\n",
              timing.tasks, timing.threads, timing.wall_seconds,
              timing.total_iterations, timing.anchor_iterations);
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Time `fn()` `reps` times and return the total wall seconds. One untimed
/// warmup call populates lazy caches (kernel plans).
template <typename Fn>
double time_reps(std::size_t reps, Fn&& fn) {
  fn();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) fn();
  return seconds_since(start);
}

/// The calibration workload every gated suite times in-process: a fixed
/// 12-period reference kernel evaluated 50 times. It tracks host speed, not
/// any fast path, so tools/check_bench_regression.py divides wall times by
/// it and gates code changes rather than machine changes.
inline double calibration_seconds() {
  const DeferralKernel kernel(
      paper::make_profile(paper::table8_mix_12(),
                          paper::kStaticNormalizationReward,
                          LagNormalization::kDiscrete, 0.7),
      LagConvention::kPeriodStart);
  const math::Vector rewards(12, 0.8);
  double sink = 0.0;
  const double seconds = time_reps(50, [&] {
    for (std::size_t i = 0; i < 12; ++i) {
      sink += kernel.inflow(i, rewards[i]) + kernel.outflow(i, rewards);
    }
  });
  if (sink < 0.0) std::printf("?\n");  // keep the sink alive
  return seconds;
}

/// One bench of a schema-1 suite file: numeric fields in insertion order.
struct SuiteEntry {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

/// Write the schema-1 suite file tools/check_bench_regression.py gates:
/// calibration_seconds plus a map from bench name to its fields, numbers
/// as %.17g. Returns false (with a message on stderr) when `path` cannot
/// be written.
inline bool write_suite_json(const std::string& path, double calibration,
                             const std::vector<SuiteEntry>& entries) {
  const auto field = [](const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return '"' + key + "\":" + buffer;
  };
  std::string json = "{\n  \"schema\": 1,\n  " +
                     field("calibration_seconds", calibration) +
                     ",\n  \"benches\": {\n";
  for (std::size_t e = 0; e < entries.size(); ++e) {
    json += "    \"" + entries[e].name + "\": {";
    for (std::size_t f = 0; f < entries[e].fields.size(); ++f) {
      if (f) json += ", ";
      json += field(entries[e].fields[f].first, entries[e].fields[f].second);
    }
    json += e + 1 < entries.size() ? "},\n" : "}\n";
  }
  json += "  }\n}\n";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << json;
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

/// High-water-mark resident set size of this process, in MiB.
inline double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

/// One machine-readable result line per bench run. Collects custom fields
/// and emits a single `BENCH_JSON {...}` line; `wall_seconds` (construction
/// to emit) and `peak_rss_mb` are always appended, so every bench JSON in
/// the trajectory exposes time *and* memory and regressions in either are
/// visible from the logs alone.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  ~BenchReport() {
    if (!emitted_) emit();
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void add(const std::string& key, double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    fields_.emplace_back(key, buffer);
  }

  void add(const std::string& key, std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%llu",
                  static_cast<unsigned long long>(value));
    fields_.emplace_back(key, buffer);
  }

  void add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, '"' + value + '"');
  }

  /// Embed a pre-serialized JSON value (array or object) verbatim.
  void add_raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }

  /// The pricing mechanism this bench ran under ("none" when the bench has
  /// no mechanism axis). Always emitted so arena results sort by regime.
  void set_mechanism(std::string name) { mechanism_ = std::move(name); }

  /// Worker threads this bench actually ran on. Defaults to the hardware
  /// count; benches that sweep a thread axis set it per cell so the
  /// provenance fields describe the measurement, not the host.
  void set_threads_used(std::size_t threads) { threads_used_ = threads; }

  void emit() {
    emitted_ = true;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    std::string line = "BENCH_JSON {\"bench\":\"" + name_ + '"';
    for (const auto& [key, value] : fields_) {
      line += ",\"" + key + "\":" + value;
    }
    line += ",\"mechanism\":\"" + mechanism_ + "\"";
    // Measurement provenance: what the host can do (host_isa), what the
    // dispatcher actually used (simd_mode), and the threading layout —
    // so any two BENCH_JSON lines are comparable, or visibly not.
    line += ",\"host_isa\":\"" + std::string(simd::host_isa()) + "\"";
    line += ",\"simd_mode\":\"" + std::string(simd::mode_name()) + "\"";
    line += ",\"threads_used\":" + std::to_string(threads_used_);
    line += ",\"git_sha\":\"" TDP_GIT_SHA "\"";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer,
                  ",\"wall_seconds\":%.6f,\"peak_rss_mb\":%.3f}", wall,
                  peak_rss_mb());
    line += buffer;
    std::printf("%s\n", line.c_str());
  }

 private:
  std::string name_;
  std::string mechanism_ = "none";
  std::size_t threads_used_ = hardware_threads();
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, std::string>> fields_;
  bool emitted_ = false;
};

}  // namespace tdp::bench
