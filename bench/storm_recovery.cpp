// Storm-recovery bench: what a correlated fault storm costs the control
// loop, what streaming checkpoints cost the period loop, and how fast a
// crash-under-storm recovery is — emitting BENCH_JSON lines and a
// machine-readable BENCH_storm.json for the CI perf gate
// (tools/check_bench_regression.py --suite storm).
//
//   storm_week        the multi-day loop under a 20%-duty storm plan
//                     (blackout + channel + solver regimes) vs the same
//                     fleet with the storms off: p2a_retention is the
//                     peak-to-average reduction the pricer keeps while the
//                     weather is bad (gated >= 0.85)
//   stream_overhead   the same storm run with streaming v2 checkpoints on
//                     (atomic tmp/rename commit every --every periods)
//                     and off, alternating over five rounds in this
//                     process: stream_overhead_fraction = best on / best
//                     off - 1 is gated <= 0.15; the row also reports the
//                     driver's own commit count per run and the mean and
//                     longest commit in ms (HorizonMetrics)
//   storm_recovery    kill the streamed run mid-storm, recover from the
//                     committed file (torn-write-tolerant loader), restore
//                     onto a different shard count, and finish: the
//                     resumed days must be bitwise identical to the
//                     uninterrupted run's (a mismatch fails the bench) and
//                     recovery_wall_seconds is gated against the baseline
//
// Absolute times are normalized by calibration_seconds (the same fixed
// reference workload as bench_kernel_suite, timed in this process) before
// baseline comparison, so the regression gate measures code changes rather
// than host-speed changes.
//
//   ./bench/bench_storm_recovery [--out BENCH_storm.json] [--users N]
//                                [--days N] [--every K]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "horizon/checkpoint.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "horizon/multi_day_driver.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// The 20%-duty storm plan the acceptance criteria are written against:
/// onset 0.06, persist 0.76 -> duty 0.06/(0.06+0.24) = 0.2, mean burst
/// ~4.2 periods.
tdp::StormRegime twenty_duty(double intensity) {
  tdp::StormRegime regime;
  regime.onset = 0.06;
  regime.persist = 0.76;
  regime.intensity = intensity;
  return regime;
}

tdp::horizon::HorizonConfig storm_config(std::uint64_t users,
                                         std::size_t days, bool storms) {
  tdp::horizon::HorizonConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.population.seed = 20110611;
  config.slices = 32;
  config.shards = 32;
  config.warmup_days = 1;
  config.horizon_days = days;
  config.estimation_window = 4;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;
  // Mild i.i.d. chaos under the storms, like the horizon bench.
  config.fault.price_pull_drop = 0.02;
  config.fault.measurement_loss = 0.02;
  config.fault.seed = 424242;
  if (storms) {
    config.fault.storm_blackout = twenty_duty(1.0);
    config.fault.storm_channel = twenty_duty(0.5);
    config.fault.storm_solver = twenty_duty(1.0);
  }
  return config;
}

double mean_p2a_reduction(const std::vector<tdp::horizon::DayMetrics>& days,
                          std::size_t warmup_days) {
  double total = 0.0;
  std::size_t counted = 0;
  for (const tdp::horizon::DayMetrics& d : days) {
    if (d.day < warmup_days || d.peak_to_average_tip <= 0.0) continue;
    total += (d.peak_to_average_tip - d.peak_to_average_tdp) /
             d.peak_to_average_tip;
    ++counted;
  }
  return counted ? total / static_cast<double>(counted) : 0.0;
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
    if (a[d].fallback_periods != b[d].fallback_periods) return false;
  }
  return true;
}

double run_wall(const tdp::horizon::HorizonConfig& config,
                std::vector<tdp::horizon::DayMetrics>* days_out = nullptr,
                tdp::horizon::HorizonMetrics* metrics_out = nullptr) {
  tdp::horizon::MultiDayDriver driver(config);
  const auto start = Clock::now();
  while (!driver.done()) driver.step_period();
  const double wall = tdp::bench::seconds_since(start);
  if (days_out != nullptr) *days_out = driver.completed_days();
  if (metrics_out != nullptr) *metrics_out = driver.metrics();
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp;

  std::string out_path;
  std::uint64_t users = 20000;
  std::size_t days = 4;
  std::size_t every = 8;  // streamed commit cadence in periods
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--every") == 0 && i + 1 < argc) {
      every = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    }
  }

  bench::banner("storm_recovery",
                "storm-mode P2A retention + streaming checkpoint overhead "
                "+ crash-under-storm recovery");

  std::vector<bench::SuiteEntry> entries;

  const double calibration = bench::calibration_seconds();

  const horizon::HorizonConfig calm = storm_config(users, days, false);
  const horizon::HorizonConfig stormy = storm_config(users, days, true);
  const std::size_t total_steps =
      (stormy.warmup_days + stormy.horizon_days) * stormy.population.periods;

  // ---- storm_week: P2A retention under the 20%-duty storm -----------------
  std::vector<horizon::DayMetrics> storm_days;
  double storm_wall = 0.0;
  {
    bench::BenchReport report("storm_week");
    std::vector<horizon::DayMetrics> calm_days;
    const double calm_wall = run_wall(calm, &calm_days);
    storm_wall = run_wall(stormy, &storm_days);

    const double calm_reduction =
        mean_p2a_reduction(calm_days, calm.warmup_days);
    const double storm_reduction =
        mean_p2a_reduction(storm_days, stormy.warmup_days);
    const double retention =
        calm_reduction > 0.0 ? storm_reduction / calm_reduction : 0.0;

    report.add("users", static_cast<std::uint64_t>(users));
    report.add("days", static_cast<std::uint64_t>(days));
    report.add("calm_wall_seconds", calm_wall);
    report.add("calm_p2a_reduction", calm_reduction);
    report.add("storm_p2a_reduction", storm_reduction);
    report.add("p2a_retention", retention);
    report.add("storm_wall_seconds", storm_wall);
    report.emit();
    entries.push_back({"storm_week",
                       {{"calm_wall_seconds", calm_wall},
                        {"calm_p2a_reduction", calm_reduction},
                        {"storm_p2a_reduction", storm_reduction},
                        {"p2a_retention", retention},
                        {"storm_wall_seconds", storm_wall}}});
    std::printf("  storm_week         p2a reduction %.3f calm -> %.3f storm "
                "(retention %.3f), %.3f s\n",
                calm_reduction, storm_reduction, retention, storm_wall);
  }

  // ---- stream_overhead: streamed v2 commits vs no checkpointing -----------
  const std::string ck_path = "BENCH_storm_ck.bin";
  {
    bench::BenchReport report("stream_overhead");
    horizon::HorizonConfig streaming = stormy;
    streaming.checkpoint_path = ck_path;
    streaming.checkpoint_every_periods = every;

    // Alternating bare and streamed runs in this process, the best run of
    // each side kept, so a host slowdown during one round skews neither
    // wall time nor their ratio.
    // The driver times its own commits, so a high fraction shows whether
    // the commits got dearer or the bare run got shorter.
    const std::size_t rounds = 5;
    double bare_wall = 0.0;
    double streamed_wall = 0.0;
    std::uint64_t commits = 0;
    double commit_seconds = 0.0;
    double commit_seconds_max = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      const double bare = run_wall(stormy);
      horizon::HorizonMetrics streamed_metrics;
      const double streamed = run_wall(streaming, nullptr, &streamed_metrics);
      if (round == 0 || bare < bare_wall) bare_wall = bare;
      if (round == 0 || streamed < streamed_wall) streamed_wall = streamed;
      commits = streamed_metrics.stream_commits;
      commit_seconds += streamed_metrics.commit_seconds;
      commit_seconds_max =
          std::max(commit_seconds_max, streamed_metrics.commit_seconds_max);
    }
    const double overhead =
        bare_wall > 0.0 ? streamed_wall / bare_wall - 1.0 : 0.0;
    const double commit_ms_mean =
        commits > 0 ? 1e3 * commit_seconds /
                          static_cast<double>(commits * rounds)
                    : 0.0;
    const double commit_ms_max = 1e3 * commit_seconds_max;

    report.add("commit_every_periods", static_cast<std::uint64_t>(every));
    report.add("rounds", static_cast<std::uint64_t>(rounds));
    report.add("bare_wall_seconds", bare_wall);
    report.add("streamed_wall_seconds", streamed_wall);
    report.add("commits", commits);
    report.add("commit_ms_mean", commit_ms_mean);
    report.add("commit_ms_max", commit_ms_max);
    report.add("stream_overhead_fraction", overhead);
    report.emit();
    entries.push_back({"stream_overhead",
                       {{"bare_wall_seconds", bare_wall},
                        {"streamed_wall_seconds", streamed_wall},
                        {"commits", static_cast<double>(commits)},
                        {"commit_ms_mean", commit_ms_mean},
                        {"commit_ms_max", commit_ms_max},
                        {"stream_overhead_fraction", overhead}}});
    std::printf("  stream_overhead    %.3f s streamed vs %.3f s bare "
                "(%.1f%% overhead, commit every %zu periods, best of %zu; "
                "%llu commits per run, %.3f ms mean, %.3f ms max)\n",
                streamed_wall, bare_wall, 1e2 * overhead, every, rounds,
                static_cast<unsigned long long>(commits), commit_ms_mean,
                commit_ms_max);
  }

  // ---- storm_recovery: kill mid-storm, recover, resume, verify ------------
  {
    bench::BenchReport report("storm_recovery");
    horizon::HorizonConfig streaming = stormy;
    streaming.checkpoint_path = ck_path;
    streaming.checkpoint_every_periods = every;
    const std::size_t kill_step = (total_steps * 3) / 5;
    {
      horizon::MultiDayDriver victim(streaming);
      for (std::size_t step = 0; step < kill_step; ++step) {
        victim.step_period();
      }
      // The victim dies here; only the streamed file survives.
    }

    horizon::HorizonConfig resume = stormy;  // no streaming on the resume
    resume.shards = 16;                      // recover onto a new layout
    const auto recover_start = Clock::now();
    const horizon::CheckpointData recovered =
        horizon::load_checkpoint_file_recover(ck_path);
    std::unique_ptr<horizon::MultiDayDriver> restored =
        horizon::MultiDayDriver::restore(resume, recovered);
    const double recovery_wall = bench::seconds_since(recover_start);

    const auto resume_start = Clock::now();
    while (!restored->done()) restored->step_period();
    const double resume_wall = bench::seconds_since(resume_start);

    if (!days_bitwise_equal(storm_days, restored->completed_days())) {
      std::printf("  ERROR: resumed storm run diverged from the "
                  "uninterrupted run (kill step %zu)\n",
                  kill_step);
      return 1;
    }

    report.add("kill_step", static_cast<std::uint64_t>(kill_step));
    report.add("recovery_wall_seconds", recovery_wall);
    report.add("resume_wall_seconds", resume_wall);
    report.emit();
    entries.push_back({"storm_recovery",
                       {{"recovery_wall_seconds", recovery_wall},
                        {"resume_wall_seconds", resume_wall}}});
    std::printf("  storm_recovery     recovered + restored in %.3f s, "
                "resumed %zu steps in %.3f s, bit-identical: yes\n",
                recovery_wall, total_steps - kill_step, resume_wall);
  }
  std::remove(ck_path.c_str());
  std::remove((ck_path + ".tmp").c_str());

  if (!out_path.empty() &&
      !bench::write_suite_json(out_path, calibration, entries)) {
    return 1;
  }
  return 0;
}
