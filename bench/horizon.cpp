// Long-horizon bench: wall time of the multi-day control loop (online §IV
// re-estimation in the loop, drift active) plus the checkpoint codec cost,
// emitting BENCH_JSON lines and a machine-readable BENCH_horizon.json for
// the CI perf gate (tools/check_bench_regression.py --suite horizon).
//
//   horizon_run        warmup + measured days of the MultiDayDriver at fleet
//                      scale, estimation + re-anchoring every day, patience
//                      drift injected so the estimator has work to do
//   checkpoint_codec   encode/decode of the end-of-run checkpoint and one
//                      full restore (population rebuild + model re-solve)
//
// The run also re-executes the kill-and-restore contract once at bench
// scale: the second half of the horizon simulated from a mid-run checkpoint
// must reproduce the uninterrupted day metrics bitwise (the enforced
// version lives in tests/test_horizon.cpp); a mismatch fails the bench.
//
// Absolute times are normalized by calibration_seconds (the same fixed
// reference workload as bench_kernel_suite, timed in this process) before
// baseline comparison, so the regression gate measures code changes rather
// than host-speed changes.
//
//   ./bench/bench_horizon [--out BENCH_horizon.json] [--users N] [--days N]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/deferral_kernel.hpp"
#include "core/paper_data.hpp"
#include "fleet/fleet_metrics.hpp"
#include "horizon/checkpoint.hpp"
#include "horizon/multi_day_driver.hpp"
#include "math/matrix.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename Fn>
double time_reps(std::size_t reps, Fn&& fn) {
  fn();
  const auto start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) fn();
  return seconds_since(start);
}

void append_json_field(std::string& out, const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "\"%s\":%.17g", key, value);
  out += buffer;
}

struct BenchEntry {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

tdp::horizon::HorizonConfig bench_config(std::uint64_t users,
                                         std::size_t days) {
  tdp::horizon::HorizonConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.population.seed = 20110611;
  config.shards = 32;
  config.warmup_days = 1;
  config.horizon_days = days;
  config.estimation_window = 4;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;
  // Mild chaos so degraded paths stay on the measured profile, plus drift
  // so the estimator/re-anchor work is exercised every day.
  config.fault.price_pull_drop = 0.02;
  config.fault.measurement_loss = 0.02;
  config.fault.drift_beta_rate = 0.01;
  config.fault.seed = 424242;
  return config;
}

bool days_bitwise_equal(const std::vector<tdp::horizon::DayMetrics>& a,
                        const std::vector<tdp::horizon::DayMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t d = 0; d < a.size(); ++d) {
    if (a[d].rewards != b[d].rewards) return false;
    if (a[d].offered_units != b[d].offered_units) return false;
    if (a[d].realized_units != b[d].realized_units) return false;
    if (a[d].sessions != b[d].sessions) return false;
    if (a[d].deferred_sessions != b[d].deferred_sessions) return false;
    if (a[d].beta_estimate != b[d].beta_estimate) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp;

  std::string out_path;
  std::uint64_t users = 20000;
  std::size_t days = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    }
  }

  bench::banner("horizon",
                "multi-day online estimation loop + checkpoint codec");

  std::vector<BenchEntry> entries;

  // Calibration: the same fixed reference workload as bench_kernel_suite,
  // so both suites' baselines normalize host speed identically.
  double calibration_seconds = 0.0;
  {
    const DeferralKernel kernel(
        paper::make_profile(paper::table8_mix_12(),
                            paper::kStaticNormalizationReward,
                            LagNormalization::kDiscrete, 0.7),
        LagConvention::kPeriodStart);
    const math::Vector rewards(12, 0.8);
    double sink = 0.0;
    calibration_seconds = time_reps(50, [&] {
      for (std::size_t i = 0; i < 12; ++i) {
        sink += kernel.inflow(i, rewards[i]) + kernel.outflow(i, rewards);
      }
    });
    if (sink < 0.0) std::printf("?\n");  // keep the sink alive
  }

  const horizon::HorizonConfig config = bench_config(users, days);

  // ---- horizon_run: the full multi-day loop -------------------------------
  horizon::HorizonMetrics metrics;
  std::vector<std::uint8_t> mid_bytes;
  std::size_t mid_kill_step = 0;
  {
    bench::BenchReport report("horizon_run");
    horizon::MultiDayDriver driver(config);
    // Checkpoint once mid-horizon (the kill point for the restore check).
    const std::size_t total_steps =
        (config.warmup_days + config.horizon_days) *
        config.population.periods;
    mid_kill_step = total_steps / 2;
    const auto start = Clock::now();
    for (std::size_t step = 0; step < total_steps; ++step) {
      if (step == mid_kill_step) mid_bytes = driver.checkpoint_bytes();
      driver.step_period();
    }
    const double loop_seconds = seconds_since(start);
    metrics = driver.metrics();

    double estimates = 0.0;
    for (const auto& d : metrics.days) {
      if (d.estimated) estimates += 1.0;
    }
    report.set_mechanism(driver.mechanism().name());
    report.add("users", static_cast<std::uint64_t>(users));
    report.add("periods",
               static_cast<std::uint64_t>(config.population.periods));
    report.add("days", static_cast<std::uint64_t>(metrics.days.size()));
    report.add("horizon_wall_seconds", loop_seconds);
    report.add("estimates", estimates);
    report.add("final_beta",
               metrics.days.empty() ? 0.0
                                    : metrics.days.back().beta_estimate);
    report.add("publish_seconds", metrics.publish_seconds);
    report.add("table_seconds", metrics.table_seconds);
    report.add("simulate_seconds", metrics.simulate_seconds);
    report.add("aggregate_seconds", metrics.aggregate_seconds);
    report.add("pricer_seconds", metrics.pricer_seconds);
    report.emit();
    entries.push_back(
        {"horizon_run", {{"horizon_wall_seconds", loop_seconds}}});

    const double day_ms =
        1e3 * loop_seconds /
        static_cast<double>(config.warmup_days + config.horizon_days);
    std::printf("  horizon_run        %zu days x %llu users: %.3f s "
                "(%.1f ms/day), %g estimates\n",
                config.warmup_days + config.horizon_days,
                static_cast<unsigned long long>(users), loop_seconds,
                day_ms, estimates);
    // The period loop's phases; the rest of the wall is day rollovers
    // (estimation, re-anchoring) and checkpoint commits.
    metrics.wall_seconds = loop_seconds;
    fleet::print_phase_table(metrics);
  }

  // ---- kill-and-restore contract at bench scale ---------------------------
  {
    std::unique_ptr<horizon::MultiDayDriver> restored =
        horizon::MultiDayDriver::restore(config, mid_bytes);
    while (!restored->done()) restored->step_period();
    const horizon::HorizonMetrics resumed = restored->metrics();
    if (!days_bitwise_equal(metrics.days, resumed.days)) {
      std::printf("  ERROR: restored run diverged from the uninterrupted "
                  "run (kill step %zu)\n",
                  mid_kill_step);
      return 1;
    }
    std::printf("  restore check      resumed run bit-identical: yes\n");
  }

  // ---- checkpoint_codec: encode / decode / restore ------------------------
  {
    bench::BenchReport report("checkpoint_codec");
    horizon::MultiDayDriver driver(config);
    driver.run_day();  // a warmed checkpoint with ring + window state
    driver.run_day();
    const horizon::CheckpointData data = driver.checkpoint();
    const std::vector<std::uint8_t> bytes = horizon::encode(data);

    const std::size_t reps = 100;
    const double encode_seconds =
        time_reps(reps, [&] { (void)horizon::encode(data); });
    const double decode_seconds =
        time_reps(reps, [&] { (void)horizon::decode(bytes); });
    const auto restore_start = Clock::now();
    std::unique_ptr<horizon::MultiDayDriver> restored =
        horizon::MultiDayDriver::restore(config, bytes);
    const double restore_seconds = seconds_since(restore_start);
    (void)restored;

    report.add("checkpoint_bytes",
               static_cast<std::uint64_t>(bytes.size()));
    report.add("reps", static_cast<std::uint64_t>(reps));
    report.add("encode_seconds", encode_seconds);
    report.add("decode_seconds", decode_seconds);
    report.add("restore_wall_seconds", restore_seconds);
    report.emit();
    entries.push_back({"checkpoint_codec",
                       {{"encode_seconds", encode_seconds},
                        {"decode_seconds", decode_seconds},
                        {"restore_wall_seconds", restore_seconds}}});

    std::printf("  checkpoint_codec   %zu bytes, encode %.3f ms, decode "
                "%.3f ms, restore %.3f s\n",
                bytes.size(), 1e3 * encode_seconds / reps,
                1e3 * decode_seconds / reps, restore_seconds);
  }

  // ---- BENCH_horizon.json -------------------------------------------------
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
