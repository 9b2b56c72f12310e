// Fleet scale sweep: population size × thread count, online pricer in the
// loop, making population scale a tracked perf axis alongside solver speed.
//
// For each fleet size the same day is simulated on 1 thread and on all
// hardware threads; the bench records wall time, throughput, peak RSS and
// the 1-thread-to-N-thread speedup in BENCH_JSON lines, and verifies that
// the per-period aggregates are bit-identical across thread counts (the
// fleet determinism contract — see tests/test_fleet.cpp for the enforced
// version).
//
//   ./bench/bench_fleet_scale             # 10k, 100k, 1M users
//   ./bench/bench_fleet_scale 50000       # custom fleet sizes
//   ./bench/bench_fleet_scale 1000000 --out BENCH_fleet.json
//
// --out writes the schema-1 suite JSON consumed by
// tools/check_bench_regression.py --suite fleet: a calibration workload
// (the same fixed reference-kernel loop the kernel suite times, so wall
// times normalize across hosts) plus one entry per (users, threads) cell
// with the day wall time and throughput.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/deferral_kernel.hpp"
#include "core/paper_data.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_metrics.hpp"

namespace {

tdp::fleet::FleetMetrics run_fleet(std::uint64_t users, std::size_t threads) {
  tdp::fleet::FleetDriverConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.shards = 128;  // fixed layout: same reduction order at any threads
  config.threads = threads;
  config.warmup_days = 1;
  config.online_pricing = true;
  tdp::fleet::FleetDriver driver(config);
  return driver.run_day();
}

/// The kernel suite's calibration workload, repeated here so fleet and
/// kernel baselines normalize the same way: a fixed 12-period reference
/// kernel evaluated 50 times. Tracks host speed, not the fleet fast path,
/// so fleet-code changes stay visible after normalization.
double calibration_run() {
  using Clock = std::chrono::steady_clock;
  const tdp::DeferralKernel kernel(
      tdp::paper::make_profile(tdp::paper::table8_mix_12(),
                               tdp::paper::kStaticNormalizationReward,
                               tdp::LagNormalization::kDiscrete, 0.7),
      tdp::LagConvention::kPeriodStart);
  const tdp::math::Vector rewards(12, 0.4);
  double sink = 0.0;
  const auto start = Clock::now();
  for (std::size_t r = 0; r < 50; ++r) {
    for (std::size_t i = 0; i < 12; ++i) {
      sink += kernel.inflow(i, rewards[i]) + kernel.outflow(i, rewards);
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (sink < 0.0) std::printf("?\n");  // keep the sink alive
  return seconds;
}

void append_json_field(std::string& out, const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "\"%s\":%.17g", key, value);
  out += buffer;
}

struct SuiteEntry {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

bool identical_profiles(const tdp::fleet::FleetMetrics& a,
                        const tdp::fleet::FleetMetrics& b) {
  if (a.offered_units != b.offered_units) return false;
  if (a.realized_units != b.realized_units) return false;
  return a.sessions == b.sessions &&
         a.deferred_sessions == b.deferred_sessions;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp;

  std::vector<std::uint64_t> fleet_sizes;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
      continue;
    }
    fleet_sizes.push_back(std::strtoull(argv[i], nullptr, 10));
  }
  if (fleet_sizes.empty()) fleet_sizes = {10000, 100000, 1000000};

  const std::size_t hw = hardware_threads();
  const double calibration_seconds =
      out_path.empty() ? 0.0 : calibration_run();
  std::vector<SuiteEntry> entries;
  bench::banner("fleet_scale",
                "sharded user population day, online pricer in the loop");
  std::printf("  hardware threads: %zu\n", hw);

  for (std::uint64_t users : fleet_sizes) {
    // Each cell's BenchReport brackets its whole run (driver construction
    // with the offline solve + the simulated days), so the generic
    // wall_seconds / peak_rss_mb fields describe the cell, while
    // fleet_wall_seconds is the day loop alone.
    const auto fill = [](bench::BenchReport& report,
                         const fleet::FleetMetrics& metrics) {
      report.set_mechanism(metrics.mechanism);
      report.add("users", static_cast<std::uint64_t>(metrics.users));
      report.add("threads", static_cast<std::uint64_t>(metrics.threads));
      report.add("shards", static_cast<std::uint64_t>(metrics.shards));
      report.add("periods", static_cast<std::uint64_t>(metrics.periods));
      report.add("days", static_cast<std::uint64_t>(metrics.days));
      report.add("sessions", metrics.sessions);
      report.add("deferred_sessions", metrics.deferred_sessions);
      report.add("fleet_wall_seconds", metrics.wall_seconds);
      report.add("sessions_per_second", metrics.sessions_per_second);
      report.add("user_periods_per_second",
                 metrics.user_periods_per_second);
      report.add("peak_to_average_tip", metrics.peak_to_average_tip);
      report.add("peak_to_average_tdp", metrics.peak_to_average_tdp);
      report.add("reward_paid_units", metrics.reward_paid_units);
      report.add("price_server_fetches",
                 static_cast<std::uint64_t>(metrics.price_server_fetches));
    };

    bench::BenchReport serial_report("fleet_scale");
    serial_report.set_threads_used(1);
    const fleet::FleetMetrics serial = run_fleet(users, 1);
    fill(serial_report, serial);
    serial_report.emit();

    // On a single-core host both runs use one thread; the parallel run
    // still exercises the pool machinery.
    bench::BenchReport parallel_report("fleet_scale");
    parallel_report.set_threads_used(hw);
    const fleet::FleetMetrics parallel = run_fleet(users, hw);
    const bool deterministic = identical_profiles(serial, parallel);
    const double speedup =
        parallel.wall_seconds > 0.0
            ? serial.wall_seconds / parallel.wall_seconds
            : 0.0;
    fill(parallel_report, parallel);
    parallel_report.add("speedup_vs_1_thread", speedup);
    parallel_report.add("bit_identical_to_1_thread",
                        std::string(deterministic ? "true" : "false"));
    parallel_report.emit();

    std::printf(
        "  %9llu users: %7.3f s on 1 thread, %7.3f s on %zu (%.2fx), "
        "%.2fM sessions/s, P2A %.3f -> %.3f, bit-identical: %s\n",
        static_cast<unsigned long long>(users), serial.wall_seconds,
        parallel.wall_seconds, hw, speedup,
        parallel.sessions_per_second / 1e6, parallel.peak_to_average_tip,
        parallel.peak_to_average_tdp, deterministic ? "yes" : "NO");
    if (!deterministic) {
      std::printf("  ERROR: aggregates differ across thread counts\n");
      return 1;
    }

    if (!out_path.empty()) {
      const auto cell = [&](const char* kind,
                            const fleet::FleetMetrics& metrics) {
        SuiteEntry entry;
        entry.name = "fleet_" + std::to_string(users) + "_" + kind;
        entry.fields = {
            {"users", static_cast<double>(metrics.users)},
            {"threads", static_cast<double>(metrics.threads)},
            {"fleet_wall_seconds", metrics.wall_seconds},
            {"sessions_per_second", metrics.sessions_per_second},
        };
        entries.push_back(std::move(entry));
      };
      cell("serial", serial);
      cell("parallel", parallel);
    }
  }

  // ---- BENCH_fleet.json ---------------------------------------------------
  if (!out_path.empty()) {
    std::string json = "{\n  \"schema\": 1,\n  ";
    append_json_field(json, "calibration_seconds", calibration_seconds);
    json += ",\n  \"benches\": {\n";
    for (std::size_t e = 0; e < entries.size(); ++e) {
      json += "    \"" + entries[e].name + "\": {";
      for (std::size_t f = 0; f < entries[e].fields.size(); ++f) {
        if (f) json += ", ";
        append_json_field(json, entries[e].fields[f].first.c_str(),
                          entries[e].fields[f].second);
      }
      json += e + 1 < entries.size() ? "},\n" : "}\n";
    }
    json += "  }\n}\n";
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << json;
    std::printf("  wrote %s\n", out_path.c_str());
  }
  return 0;
}
