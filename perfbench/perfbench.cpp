// The repo benchmark's measuring program (run through run.py, which builds
// it and validates its trace).
//
//   perfbench --workload fleet_1m|fleet_10k|horizon_drift --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//
// Untraced (--trace 0), it repeats set-up + run cycles through the public
// entry points (FleetDriver construction and run_day; MultiDayDriver
// construction and step_period) until S seconds have passed, and reports
// the end-to-end metrics as medians over cycles or periods.
//
// Traced (--trace 1), it drives the same work from the benchmark's side:
// the fleet period loop through the components run_day uses (loop.hpp),
// the horizon through step_period with a span per call, and the rollover
// work replayed through public calls on the driver's own window. Every
// workload measures every layer: a fleet workload also runs a short
// horizon twin of itself (same population, clean, estimation on), and the
// horizon workload runs a clean fleet twin of itself.
//
// The last line of stdout is `PERFBENCH_RESULT {json}`.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "core/paper_data.hpp"
#include "core/waiting_function.hpp"
#include "dynamic/dynamic_optimizer.hpp"
#include "estimation/wf_estimator.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_metrics.hpp"
#include "horizon/checkpoint.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "horizon/multi_day_driver.hpp"
#include "loop.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tdp::fleet::FleetDriverConfig;
using tdp::horizon::DayMetrics;
using tdp::horizon::HorizonConfig;
using tdp::horizon::MultiDayDriver;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kPeriods = 48;

// The paper's TIP -> TDP band for the peak reduction: TDP must lower the
// peak-to-average ratio, and by no more than the paper's own static
// optimum lowers peak-to-valley usage (200 -> 119 MBps, Fig. 5).
constexpr double kBandLow = 0.0;
constexpr double kBandHigh = 1.0 - 119.0 / 200.0;

struct Workload {
  const char* name;
  bool horizon;
  std::uint64_t users;
  std::size_t slices;
  /// Fleet: days per run_day (warmup + the measured day). Horizon:
  /// measured days after one warmup day.
  std::size_t days;
  /// Cycle c runs population seed sub_seed(seed, c % sub_seeds), and a run
  /// makes at least sub_seeds cycles: seed-dependent outputs (P2A, rollover
  /// work) are pooled over this many fleets, so one run's figures do not
  /// hang on one draw of the users.
  std::size_t sub_seeds;
};

// Why each workload exists is recorded in BENCHMARK.json.
const Workload kWorkloads[] = {
    {"fleet_1m", false, 1000000, 128, 4, 3},
    {"fleet_10k", false, 10000, 128, 4, 64},
    {"horizon_drift", true, 20000, 32, 8, 10},
};

std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  return seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

// ---- configurations ---------------------------------------------------------

FleetDriverConfig fleet_config(const Workload& w, std::uint64_t seed) {
  FleetDriverConfig c;
  c.population.users = w.users;
  c.population.periods = kPeriods;
  c.population.seed = seed;
  c.slices = w.slices;  // shard grouping stays at the driver default
  c.threads = kThreads;
  c.warmup_days = w.days - 1;
  return c;
}

HorizonConfig horizon_config(const Workload& w, std::uint64_t seed,
                             const std::string& checkpoint_path) {
  HorizonConfig c;
  c.population.users = w.users;
  c.population.periods = kPeriods;
  c.population.seed = seed;
  c.slices = w.slices;
  c.threads = kThreads;
  c.warmup_days = 1;
  c.horizon_days = w.days;
  c.estimation_window = 4;
  c.estimation_min_days = 2;
  c.estimation_starts = 2;
  c.fault.price_pull_drop = 0.02;
  c.fault.measurement_loss = 0.02;
  c.fault.drift_beta_rate = 0.01;
  c.fault.seed = seed;
  c.incident.enabled = true;
  c.checkpoint_path = checkpoint_path;
  return c;
}

/// A fleet workload's horizon twin: its population and layout, clean, with
/// estimation on for two estimating rollovers.
HorizonConfig horizon_twin(const Workload& w, std::uint64_t seed,
                           const std::string& checkpoint_path) {
  HorizonConfig c = horizon_config(w, seed, checkpoint_path);
  c.shards = FleetDriverConfig{}.shards;
  c.horizon_days = 3;
  c.fault = tdp::FaultPlan{};
  c.incident.enabled = false;
  return c;
}

/// The horizon workload's fleet twin: its population and layout, clean.
FleetDriverConfig fleet_twin(const Workload& w, std::uint64_t seed) {
  FleetDriverConfig c = fleet_config(w, seed);
  c.shards = HorizonConfig{}.shards;
  c.warmup_days = 1;
  return c;
}

// ---- helpers ----------------------------------------------------------------

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// fn() under a span, its wall time written to `ms`.
template <typename Fn>
auto timed(const char* span_name, double& ms, Fn&& fn) {
  tdp::obs::Span span(span_name);
  const auto t0 = Clock::now();
  auto out = fn();
  ms = ms_between(t0, Clock::now());
  return out;
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t counter(const char* name) {
  return tdp::obs::Registry::global().counter(name).value();
}

double p2a_reduction(double tip, double tdp) {
  return tip > 0.0 ? 1.0 - tdp / tip : 0.0;
}

bool days_equal(const DayMetrics& a, const DayMetrics& b) {
  return a.day == b.day && a.offered_units == b.offered_units &&
         a.realized_units == b.realized_units && a.rewards == b.rewards &&
         a.sessions == b.sessions &&
         a.deferred_sessions == b.deferred_sessions &&
         a.reward_paid_units == b.reward_paid_units &&
         a.peak_to_average_tip == b.peak_to_average_tip &&
         a.peak_to_average_tdp == b.peak_to_average_tdp &&
         a.estimated == b.estimated && a.beta_estimate == b.beta_estimate &&
         a.estimate_residual == b.estimate_residual &&
         a.reanchored == b.reanchored &&
         a.fallback_periods == b.fallback_periods &&
         a.estimation_frozen == b.estimation_frozen &&
         a.reanchor_rolled_back == b.reanchor_rolled_back &&
         a.reward_step_linf == b.reward_step_linf;
}

bool all_days_equal(const std::vector<DayMetrics>& a,
                    const std::vector<DayMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t d = 0; d < a.size(); ++d) {
    if (!days_equal(a[d], b[d])) return false;
  }
  return true;
}

/// Mean P2A reduction over the measured days.
double horizon_p2a(const std::vector<DayMetrics>& days,
                   std::size_t warmup_days) {
  std::vector<double> values;
  for (std::size_t d = warmup_days; d < days.size(); ++d) {
    values.push_back(p2a_reduction(days[d].peak_to_average_tip,
                                   days[d].peak_to_average_tdp));
  }
  return mean(values);
}

void remove_checkpoint(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".tmp", ec);
}

// ---- result assembly --------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};

struct Result {
  std::map<std::string, Metric> metrics;
  std::map<std::string, bool> checks;  ///< name -> held on every cycle
  std::uint64_t attempted = 0;
  std::uint64_t failed_periods = 0;
  /// Periods the pricer observed in FALLBACK: designed degradation under
  /// injected faults, reported beside `failed` rather than inside it.
  std::uint64_t fallback_periods = 0;
  std::string mechanism = "unknown";
  std::map<std::string, double> details;

  void check(const std::string& name, bool ok) {
    const auto [it, added] = checks.emplace(name, ok);
    if (!added) it->second = it->second && ok;
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return out + '"';
}

// ---- the counting log sink --------------------------------------------------

struct LogCounts {
  std::uint64_t warn = 0;
  std::uint64_t error = 0;
  std::string first_error;
};

LogCounts& log_counts() {
  static LogCounts counts;
  return counts;
}

/// Warnings about faults the workload injects on purpose are counted, not
/// printed; an ERROR line fails the run.
void install_log_sink() {
  tdp::set_log_sink([](tdp::LogLevel level, const std::string& message) {
    LogCounts& counts = log_counts();
    if (level == tdp::LogLevel::kWarn) ++counts.warn;
    if (level == tdp::LogLevel::kError) {
      if (counts.error++ == 0) counts.first_error = message;
    }
  });
}

// ---- untraced runs ----------------------------------------------------------

/// One untimed cycle first: the thread pool and the allocator's arenas are
/// set up lazily, once per process, and no cycle after the first pays it.
void warm_up(const Workload& w, const Args& args,
             const std::string& checkpoint_path) {
  const std::uint64_t seed = sub_seed(args.seed, 0);
  if (w.horizon) {
    MultiDayDriver driver(horizon_config(w, seed, checkpoint_path));
    driver.run_day();
  } else {
    tdp::fleet::FleetDriver(fleet_config(w, seed)).run_day();
  }
}

void run_fleet_untraced(const Workload& w, const Args& args, Result& r) {
  warm_up(w, args, "");
  std::vector<double> setup_s, throughput, period_ms, day_ms;
  // The measured day's profiles summed over the sub-seed fleets: one
  // 10k-user day's peak is too noisy to compare across seeds.
  std::vector<double> offered(kPeriods, 0.0), realized(kPeriods, 0.0);
  std::vector<tdp::fleet::FleetMetrics> first_pass;
  bool deterministic = true;
  const auto start = Clock::now();
  for (std::size_t cycle = 0;
       cycle < w.sub_seeds || seconds_since(start) < args.seconds;
       ++cycle) {
    const std::size_t k = cycle % w.sub_seeds;
    const FleetDriverConfig config = fleet_config(w, sub_seed(args.seed, k));
    tdp::obs::Journal::global().clear();
    const auto t0 = Clock::now();
    tdp::fleet::FleetDriver driver(config);
    const auto t1 = Clock::now();
    const tdp::fleet::FleetMetrics m = driver.run_day();
    const auto t2 = Clock::now();
    const double wall = std::chrono::duration<double>(t2 - t1).count();
    const double periods = static_cast<double>(w.days * kPeriods);
    setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    throughput.push_back(static_cast<double>(w.users) * periods / wall);
    period_ms.push_back(1e3 * wall / periods);
    day_ms.push_back(1e3 * wall / static_cast<double>(w.days));
    r.mechanism = driver.mechanism().name();
    r.attempted += w.days * kPeriods;
    r.failed_periods += m.solver_failures;
    r.fallback_periods += m.fallback_observations;
    if (cycle < w.sub_seeds) {
      first_pass.push_back(m);
      for (std::size_t p = 0; p < kPeriods; ++p) {
        offered[p] += m.offered_units[p];
        realized[p] += m.realized_units[p];
      }
    } else {
      const tdp::fleet::FleetMetrics& a = first_pass[k];
      deterministic = deterministic && m.offered_units == a.offered_units &&
                      m.realized_units == a.realized_units &&
                      m.sessions == a.sessions &&
                      m.deferred_sessions == a.deferred_sessions;
    }
  }
  const double p2a =
      p2a_reduction(tdp::fleet::peak_to_average(offered),
                    tdp::fleet::peak_to_average(realized));
  r.check("repeated_cycles_bitwise_identical", deterministic);
  r.check("p2a_reduction_in_paper_band", p2a > kBandLow && p2a < kBandHigh);
  r.set("setup_s", median(setup_s), "s");
  r.set("user_periods_per_s", median(throughput), "1/s");
  // run_day has no period boundary a caller can time: the fleet's period
  // figure is loop wall per simulated period, its day-boundary figure loop
  // wall per simulated day (settle included).
  r.set("period_p50_ms", median(period_ms), "ms");
  r.set("rollover_p50_ms", median(day_ms), "ms");
  r.set("p2a_reduction", p2a, "ratio");
  r.details["cycles"] = static_cast<double>(setup_s.size());
}

struct HorizonSteps {
  std::vector<double> ordinary_ms;
  std::vector<double> rollover_ms;
  std::vector<double> estimating_rollover_ms;
  std::vector<std::uint64_t> rollover_solver_iterations;
  std::uint64_t failed_periods = 0;
  std::uint64_t fallback_periods = 0;
  double loop_s = 0.0;
};

/// Step a horizon driver to the end, timing every step_period call.
/// `on_step(step)` runs before each step, outside the timing.
template <typename OnStep>
HorizonSteps step_to_end(MultiDayDriver& driver, bool spans, OnStep on_step) {
  HorizonSteps s;
  tdp::obs::Registry& reg = tdp::obs::Registry::global();
  tdp::obs::Counter& solver_iterations =
      reg.counter("solver.dynamic_iterations_total");
  tdp::obs::Counter& solve_failures =
      reg.counter("pricer.solve_failures_total");
  tdp::obs::Counter& fallback_obs =
      reg.counter("pricer.fallback_observations_total");
  std::size_t step = 0;
  while (!driver.done()) {
    on_step(step++);
    const bool rollover = driver.period() + 1 == kPeriods;
    const std::size_t days_before = driver.completed_days().size();
    const std::uint64_t failures_before = solve_failures.value();
    const std::uint64_t fallback_before = fallback_obs.value();
    const std::uint64_t iterations_before = solver_iterations.value();
    const auto t0 = Clock::now();
    {
      std::optional<tdp::obs::Span> span;
      if (spans) span.emplace(rollover ? "horizon.rollover" : "horizon.period");
      driver.step_period();
    }
    const double ms = ms_between(t0, Clock::now());
    s.loop_s += ms * 1e-3;
    if (solve_failures.value() != failures_before) ++s.failed_periods;
    if (fallback_obs.value() != fallback_before) ++s.fallback_periods;
    if (!rollover) {
      s.ordinary_ms.push_back(ms);
      continue;
    }
    s.rollover_ms.push_back(ms);
    const DayMetrics& finished = driver.completed_days()[days_before];
    if (finished.estimated && finished.reanchored) {
      s.estimating_rollover_ms.push_back(ms);
      s.rollover_solver_iterations.push_back(solver_iterations.value() -
                                             iterations_before);
    }
  }
  return s;
}

void run_horizon_untraced(const Workload& w, const Args& args,
                          const std::string& checkpoint_path, Result& r) {
  warm_up(w, args, checkpoint_path);
  std::vector<double> setup_s, throughput, ordinary, rollover, p2a;
  std::vector<std::vector<DayMetrics>> first_pass;
  bool deterministic = true;
  bool stream_ok = true;
  const auto start = Clock::now();
  for (std::size_t cycle = 0;
       cycle < w.sub_seeds || seconds_since(start) < args.seconds;
       ++cycle) {
    const std::size_t k = cycle % w.sub_seeds;
    const HorizonConfig config =
        horizon_config(w, sub_seed(args.seed, k), checkpoint_path);
    const std::size_t total_days = config.warmup_days + config.horizon_days;
    remove_checkpoint(checkpoint_path);
    tdp::obs::Journal::global().clear();
    const auto t0 = Clock::now();
    MultiDayDriver driver(config);
    setup_s.push_back(seconds_since(t0));
    r.mechanism = driver.mechanism().name();
    const HorizonSteps s = step_to_end(driver, false, [](std::size_t) {});
    throughput.push_back(static_cast<double>(w.users * kPeriods * total_days) /
                         s.loop_s);
    ordinary.insert(ordinary.end(), s.ordinary_ms.begin(), s.ordinary_ms.end());
    rollover.insert(rollover.end(), s.rollover_ms.begin(), s.rollover_ms.end());
    r.attempted += total_days * kPeriods;
    r.failed_periods += s.failed_periods;
    r.fallback_periods += s.fallback_periods;
    if (cycle < w.sub_seeds) {
      first_pass.push_back(driver.completed_days());
      p2a.push_back(horizon_p2a(driver.completed_days(), config.warmup_days));
    } else {
      deterministic = deterministic &&
                      all_days_equal(first_pass[k], driver.completed_days());
    }
    const tdp::horizon::CheckpointData last =
        tdp::horizon::load_checkpoint_file_recover(checkpoint_path);
    stream_ok = stream_ok && last.day == total_days && last.period == 0 &&
                all_days_equal(last.completed_days, driver.completed_days());
  }
  r.check("repeated_cycles_bitwise_identical", deterministic);
  r.check("streamed_checkpoint_is_final_state", stream_ok);
  r.check("p2a_reduction_in_paper_band",
          mean(p2a) > kBandLow && mean(p2a) < kBandHigh);
  r.set("setup_s", median(setup_s), "s");
  r.set("user_periods_per_s", median(throughput), "1/s");
  r.set("period_p50_ms", median(ordinary), "ms");
  r.set("rollover_p50_ms", median(rollover), "ms");
  r.set("p2a_reduction", mean(p2a), "ratio");
  const Tail tail = tail_percentile(ordinary);
  r.details["cycles"] = static_cast<double>(setup_s.size());
  r.details["period_samples"] = static_cast<double>(ordinary.size());
  r.details["rollover_samples"] = static_cast<double>(rollover.size());
  r.details["period_tail_pct"] = tail.percentile;
  r.details["period_tail_ms"] = tail.value;
}

// ---- traced runs ------------------------------------------------------------

/// Per-layer samples pooled over the traced cycles.
struct FleetLayers {
  std::vector<double> publish, table, sweep, shard_max, shard_busy, pool_wait,
      aggregate, guard, observe, settle, population_ms, offline_ms,
      offline_iterations;
  std::vector<double> loop_ms, reference_ms;
  double busy_total = 0.0;
  double sweep_total = 0.0;
  double observe_total = 0.0;
  double loop_total_ms = 0.0;
  std::uint64_t periods = 0;
  std::uint64_t sessions = 0;
  std::uint64_t deferred = 0;
  std::uint64_t fista_iterations = 0;
  std::uint64_t fista_backtracks = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t plan_builds = 0;
  std::uint64_t fetches = 0;
  std::uint64_t failed_periods = 0;
  std::uint64_t fallback_periods = 0;
};

/// FleetDriver::run_day on `config`, untraced: the reference the traced
/// loop must match bitwise, and the untraced wall for the tracing overhead.
struct Reference {
  tdp::fleet::FleetMetrics metrics;
  tdp::math::Vector rewards;
  std::vector<std::vector<double>> trajectory;
  double ms = 0.0;
};

Reference run_reference(const FleetDriverConfig& config) {
  Reference ref;
  tdp::obs::Journal::global().clear();
  tdp::fleet::FleetDriver driver(config);
  const auto t0 = Clock::now();
  ref.metrics = driver.run_day();
  ref.ms = ms_between(t0, Clock::now());
  ref.rewards = driver.mechanism().rewards();
  ref.trajectory = pricer_trajectory();
  return ref;
}

/// One traced fleet cycle plus its untraced reference, run before or after
/// the loop as `reference_first` says so that run order biases neither.
void traced_fleet_cycle(const FleetDriverConfig& config, bool reference_first,
                        FleetLayers& L, Result& r) {
  tdp::obs::Registry& reg = tdp::obs::Registry::global();
  std::optional<Reference> ref;
  if (reference_first) ref = run_reference(config);
  tdp::obs::Journal::global().clear();
  tdp::obs::set_trace_enabled(true);
  FleetLoop loop(config);
  L.population_ms.push_back(loop.population_ms());
  L.offline_ms.push_back(loop.offline_solve_ms());
  L.offline_iterations.push_back(
      static_cast<double>(loop.offline_iterations()));

  const tdp::obs::CounterDelta fista_it(reg.counter("fista.iterations_total"));
  const tdp::obs::CounterDelta fista_bt(reg.counter("fista.backtracks_total"));
  const tdp::obs::CounterDelta hits(reg.counter("kernel.memo_hits_total"));
  const tdp::obs::CounterDelta misses(reg.counter("kernel.memo_misses_total"));
  const tdp::obs::CounterDelta plans(reg.counter("kernel.plan_builds_total"));
  const tdp::obs::CounterDelta fetches(reg.counter("channel.fetches_total"));
  const std::size_t days = config.warmup_days + 1;
  std::vector<PeriodTiming> timings;
  DayOutput measured;
  double loop_ms = 0.0;
  for (std::size_t d = 0; d < days; ++d) {
    measured = loop.run_day(timings);
    loop_ms += measured.wall_ms;
    L.settle.push_back(measured.settle_ms);
    L.sessions += measured.sessions;
    L.deferred += measured.deferred_sessions;
  }
  tdp::obs::set_trace_enabled(false);
  L.fista_iterations += fista_it.delta();
  L.fista_backtracks += fista_bt.delta();
  L.memo_hits += hits.delta();
  L.memo_misses += misses.delta();
  L.plan_builds += plans.delta();
  L.fetches += fetches.delta();
  for (const PeriodTiming& t : timings) {
    L.publish.push_back(t.publish);
    L.table.push_back(t.table);
    L.sweep.push_back(t.sweep);
    L.shard_max.push_back(t.shard_max);
    L.shard_busy.push_back(t.shard_busy);
    L.pool_wait.push_back(t.sweep - t.shard_max);
    L.aggregate.push_back(t.aggregate);
    L.guard.push_back(t.guard);
    L.observe.push_back(t.observe);
    L.busy_total += t.shard_busy;
    L.sweep_total += t.sweep;
    L.observe_total += t.observe;
    if (t.failed) ++L.failed_periods;
    if (t.fallback) ++L.fallback_periods;
  }
  L.loop_total_ms += loop_ms;
  L.periods += timings.size();
  r.attempted += timings.size();
  r.mechanism = loop.mechanism().name();

  const auto loop_trajectory = pricer_trajectory();
  if (!ref) ref = run_reference(config);
  const tdp::fleet::FleetMetrics& m = ref->metrics;
  r.check("bench_loop_matches_run_day_profiles",
          m.offered_units == measured.offered_units &&
              m.realized_units == measured.realized_units &&
              m.sessions == measured.sessions &&
              m.deferred_sessions == measured.deferred_sessions &&
              m.reward_paid_units == measured.reward_paid_units);
  r.check("bench_loop_matches_run_day_rewards",
          ref->rewards == loop.mechanism().rewards() &&
              ref->trajectory == loop_trajectory && !loop_trajectory.empty());
  L.loop_ms.push_back(loop_ms);
  L.reference_ms.push_back(ref->ms);
}

struct HorizonLayers {
  std::vector<double> ordinary, estimating_rollover, fit_ms,
      lm_iterations, resolve_ms, resolve_iterations, rollover_iterations,
      unattributed_ms, encode_ms, decode_ms;
  double checkpoint_bytes = 0.0;
  std::uint64_t stream_commits = 0;
  std::uint64_t retries = 0;
  std::uint64_t repairs = 0;
  std::uint64_t degraded = 0;
  std::uint64_t periods = 0;
  std::uint64_t failed_periods = 0;
  std::uint64_t fallback_periods = 0;
};

/// Replays every estimating rollover of a finished horizon through public
/// calls on the driver's own window (completed_days()): the §IV fit with
/// the driver's options, then the re-anchor re-solve of the fitted model.
/// The fit must reproduce the day's estimate and the re-solve the next
/// day's published schedule, bitwise. `rollover_ms` holds the timed
/// estimating rollovers in day order; each is charged its own fit and
/// re-solve, and the rest is left unattributed.
void replay_rollovers(const HorizonConfig& config, const MultiDayDriver& driver,
                      const std::vector<double>& rollover_ms, HorizonLayers& L,
                      Result& r) {
  const std::vector<DayMetrics>& days = driver.completed_days();
  const tdp::DynamicModel baseline =
      tdp::fleet::baseline_fluid_model(driver.population());
  bool fit_matches = true;
  bool resolve_matches = true;
  std::size_t replayed = 0;
  for (std::size_t d = config.warmup_days; d < days.size(); ++d) {
    if (!days[d].estimated || !days[d].reanchored) continue;
    const std::size_t first = std::max<std::size_t>(
        config.warmup_days, d + 1 - std::min(d + 1, config.estimation_window));
    std::vector<double> tip(kPeriods, 0.0);
    std::vector<tdp::EstimationDataset> data;
    for (std::size_t k = first; k <= d; ++k) {
      tdp::math::Vector change(kPeriods);
      for (std::size_t p = 0; p < kPeriods; ++p) {
        tip[p] += days[k].offered_units[p];
        change[p] = days[k].offered_units[p] - days[k].realized_units[p];
      }
      data.push_back(tdp::EstimationDataset{days[k].rewards, change});
    }
    for (double& v : tip) v /= static_cast<double>(data.size());

    const tdp::WaitingFunctionEstimator estimator(
        kPeriods, 1, tdp::paper::kStaticNormalizationReward);
    tdp::WaitingFunctionEstimator::MultiStartOptions options;
    options.starts = config.estimation_starts;
    options.seed = 1;
    options.threads = driver.thread_count();
    options.tied = true;
    double ms = 0.0;
    const tdp::WaitingFunctionEstimate estimate =
        timed("estimation.fit", ms, [&] {
          return estimator.estimate_multistart(tip, data, options);
        });
    L.fit_ms.push_back(ms);
    L.lm_iterations.push_back(static_cast<double>(estimate.iterations));
    const double beta = estimate.mix.beta(0, 0);
    fit_matches = fit_matches && beta == days[d].beta_estimate &&
                  estimate.residual_norm2 == days[d].estimate_residual;

    tdp::DemandProfile profile(kPeriods);
    const tdp::WaitingFunctionPtr waiting =
        std::make_shared<tdp::PowerLawWaitingFunction>(
            beta, kPeriods, tdp::paper::kStaticNormalizationReward, 1.0,
            tdp::LagNormalization::kContinuous);
    for (std::size_t p = 0; p < kPeriods; ++p) {
      profile.add_class(p, tdp::SessionClass{waiting, tip[p]});
    }
    const tdp::DynamicModel model(std::move(profile), baseline.capacity(),
                                  baseline.backlog_cost(),
                                  baseline.warmup_days());
    const tdp::DynamicPricingSolution solved =
        timed("dynamic.resolve", ms, [&] {
          return tdp::optimize_dynamic_prices(model, config.offline_options);
        });
    L.resolve_ms.push_back(ms);
    L.resolve_iterations.push_back(static_cast<double>(solved.iterations));
    if (replayed < rollover_ms.size()) {
      L.unattributed_ms.push_back(rollover_ms[replayed] - L.fit_ms.back() -
                                  L.resolve_ms.back());
    }
    if (d + 1 < days.size()) {
      resolve_matches =
          resolve_matches && days[d + 1].rewards == solved.rewards;
    }
    ++replayed;
  }
  r.check("rollover_fit_replays_bitwise",
          fit_matches && replayed > 0 && replayed == rollover_ms.size());
  r.check("rollover_resolve_replays_bitwise", resolve_matches);
}

/// One traced horizon cycle: step spans, the rollover replay and the
/// checkpoint codec; with `restore_check`, also kills the run at
/// mid-horizon and restores it.
void traced_horizon_cycle(const HorizonConfig& config, bool restore_check,
                          HorizonLayers& L, Result& r) {
  tdp::obs::Registry& reg = tdp::obs::Registry::global();
  remove_checkpoint(config.checkpoint_path);
  tdp::obs::Journal::global().clear();
  const tdp::obs::CounterDelta commits(
      reg.counter("horizon.stream_commits_total"));
  const tdp::obs::CounterDelta retries(reg.counter("channel.retries_total"));
  const tdp::obs::CounterDelta degraded(
      reg.counter("pricer.degraded_observations_total"));
  const char* repair_counters[] = {
      "guard.gaps_filled_total", "guard.nan_rejected_total",
      "guard.negative_rejected_total", "guard.spikes_clamped_total"};
  std::uint64_t repairs_before = 0;
  for (const char* name : repair_counters) repairs_before += counter(name);

  tdp::obs::set_trace_enabled(true);
  MultiDayDriver driver(config);
  const std::size_t total_steps =
      (config.warmup_days + config.horizon_days) * kPeriods;
  std::vector<std::uint8_t> mid_bytes;
  const HorizonSteps s =
      step_to_end(driver, true, [&](std::size_t step) {
        if (restore_check && step == total_steps / 2) {
          mid_bytes = driver.checkpoint_bytes();
        }
      });
  tdp::obs::set_trace_enabled(false);
  L.ordinary.insert(L.ordinary.end(), s.ordinary_ms.begin(),
                    s.ordinary_ms.end());
  L.estimating_rollover.insert(L.estimating_rollover.end(),
                               s.estimating_rollover_ms.begin(),
                               s.estimating_rollover_ms.end());
  for (std::uint64_t it : s.rollover_solver_iterations) {
    L.rollover_iterations.push_back(static_cast<double>(it));
  }
  L.stream_commits += commits.delta();
  L.retries += retries.delta();
  L.degraded += degraded.delta();
  std::uint64_t repairs_after = 0;
  for (const char* name : repair_counters) repairs_after += counter(name);
  L.repairs += repairs_after - repairs_before;
  L.periods += total_steps;
  L.failed_periods += s.failed_periods;
  L.fallback_periods += s.fallback_periods;
  r.attempted += total_steps;

  tdp::obs::set_trace_enabled(true);
  replay_rollovers(config, driver, s.estimating_rollover_ms, L, r);
  const tdp::horizon::CheckpointData data = driver.checkpoint();
  std::vector<std::uint8_t> bytes;
  bool round_trip = true;
  for (int rep = 0; rep < 9; ++rep) {
    double ms = 0.0;
    bytes = timed("horizon.encode", ms,
                  [&] { return tdp::horizon::encode(data); });
    L.encode_ms.push_back(ms);
    const tdp::horizon::CheckpointData back = timed(
        "horizon.decode", ms, [&] { return tdp::horizon::decode(bytes); });
    L.decode_ms.push_back(ms);
    round_trip = round_trip && all_days_equal(back.completed_days,
                                              data.completed_days);
  }
  r.check("checkpoint_round_trip", round_trip);
  tdp::obs::set_trace_enabled(false);
  L.checkpoint_bytes = static_cast<double>(bytes.size());
  if (!restore_check) return;

  // Kill at mid-horizon, restore onto one shard, run to the end: the
  // resumed run must reproduce every DayMetrics bitwise.
  HorizonConfig restore_config = config;
  restore_config.checkpoint_path.clear();
  restore_config.shards = 1;
  std::unique_ptr<MultiDayDriver> restored =
      MultiDayDriver::restore(restore_config, mid_bytes);
  while (!restored->done()) restored->step_period();
  r.check("mid_horizon_restore_bitwise",
          all_days_equal(restored->completed_days(), driver.completed_days()));
}

void run_traced(const Workload& w, const Args& args,
                const std::string& checkpoint_path,
                const std::string& trace_path, Result& r) {
  FleetLayers F;
  HorizonLayers H;
  std::map<std::string, SpanTotals> spans;
  const auto start = Clock::now();
  std::size_t cycles = 0;
  do {
    const bool first = cycles == 0;
    const std::uint64_t seed = sub_seed(args.seed, cycles % w.sub_seeds);
    const FleetDriverConfig fleet =
        w.horizon ? fleet_twin(w, seed) : fleet_config(w, seed);
    const HorizonConfig horizon = w.horizon
                                      ? horizon_config(w, seed, checkpoint_path)
                                      : horizon_twin(w, seed, checkpoint_path);
    tdp::obs::trace_clear();
    traced_fleet_cycle(fleet, cycles % 2 == 1, F, r);
    traced_horizon_cycle(horizon, first, H, r);
    for (const auto& [name, totals] : self_times(tdp::obs::trace_events())) {
      SpanTotals& row = spans[name];
      row.count += totals.count;
      row.total_ns += totals.total_ns;
      row.self_ns += totals.self_ns;
    }
    if (first && !tdp::obs::write_chrome_trace(trace_path)) {
      r.check("trace_written", false);
    }
    ++cycles;
  } while (seconds_since(start) < args.seconds);
  tdp::obs::trace_clear();
  r.failed_periods += F.failed_periods + H.failed_periods;
  r.fallback_periods += F.fallback_periods + H.fallback_periods;

  // Fleet period phases.
  r.set("fleet.publish_ms", median(F.publish), "ms");
  r.set("fleet.table_ms", median(F.table), "ms");
  r.set("fleet.sweep_ms", median(F.sweep), "ms");
  r.set("fleet.shard_ms", median(F.shard_max), "ms");
  r.set("fleet.shard_busy_ms", median(F.shard_busy), "ms");
  r.set("fleet.aggregate_ms", median(F.aggregate), "ms");
  r.set("tube.guard_ms", median(F.guard), "ms");
  r.set("mech.observe_ms", median(F.observe), "ms");
  r.set("mech.observe_share", F.observe_total / F.loop_total_ms, "ratio");
  r.set("mech.settle_ms", median(F.settle), "ms");
  r.set("common.parallel_efficiency",
        parallel_efficiency(F.busy_total, kThreads, F.sweep_total), "ratio");
  r.set("common.pool_wait_ms", median(F.pool_wait), "ms");
  // Loop time outside every phase span: what the phase self times leave
  // unexplained of the traced loop wall.
  const auto span_ms = [&spans](const char* name, bool self) {
    const auto it = spans.find(name);
    if (it == spans.end()) return 0.0;
    return 1e-6 * static_cast<double>(self ? it->second.self_ns
                                            : it->second.total_ns);
  };
  const double day_total = span_ms("fleet.day", false);
  r.set("fleet.unattributed_frac",
        day_total > 0.0 ? (span_ms("fleet.day", true) +
                           span_ms("fleet.period", true)) /
                              day_total
                        : 0.0,
        "ratio");
  const double observes = static_cast<double>(F.periods);
  r.set("fista.iterations_per_observe",
        static_cast<double>(F.fista_iterations) / observes, "count");
  r.set("fista.backtracks_per_observe",
        static_cast<double>(F.fista_backtracks) / observes, "count");
  const double lookups = static_cast<double>(F.memo_hits + F.memo_misses);
  r.set("kernel.memo_hit_frac",
        lookups > 0.0 ? static_cast<double>(F.memo_hits) / lookups : 0.0,
        "ratio");
  r.set("kernel.plan_builds", static_cast<double>(F.plan_builds) / cycles,
        "count");
  r.set("tube.fetches_per_period", static_cast<double>(F.fetches) / observes,
        "count");
  r.set("fleet.deferred_frac",
        F.sessions > 0 ? static_cast<double>(F.deferred) /
                             static_cast<double>(F.sessions)
                       : 0.0,
        "ratio");
  // Set-up split.
  r.set("fleet.population_ms", median(F.population_ms), "ms");
  r.set("dynamic.offline_solve_ms", median(F.offline_ms), "ms");
  r.set("dynamic.offline_iterations", median(F.offline_iterations), "count");
  // Horizon split.
  r.set("horizon.period_p50_ms", median(H.ordinary), "ms");
  r.set("horizon.rollover_p50_ms", median(H.estimating_rollover), "ms");
  r.set("estimation.fit_ms", median(H.fit_ms), "ms");
  r.set("estimation.lm_iterations", median(H.lm_iterations), "count");
  r.set("dynamic.resolve_ms", median(H.resolve_ms), "ms");
  r.set("dynamic.resolve_iterations", median(H.resolve_iterations), "count");
  r.set("dynamic.rollover_iterations", median(H.rollover_iterations), "count");
  r.set("horizon.encode_ms", median(H.encode_ms), "ms");
  r.set("horizon.decode_ms", median(H.decode_ms), "ms");
  r.set("horizon.checkpoint_bytes", H.checkpoint_bytes, "B");
  r.set("horizon.stream_commits",
        static_cast<double>(H.stream_commits) / cycles, "count");
  r.set("horizon.rollover_unattributed_ms", median(H.unattributed_ms), "ms");
  // Diagnostics.
  const Tail tail = tail_percentile(H.ordinary);
  r.set("horizon.period_p98_ms", tail.value, "ms");
  r.set("horizon.period_tail_pct", tail.percentile, "%");
  r.set("tube.channel_retries", static_cast<double>(H.retries) / cycles,
        "count");
  r.set("tube.guard_repairs", static_cast<double>(H.repairs) / cycles, "count");
  r.set("pricer.degraded_observations",
        static_cast<double>(H.degraded) / cycles, "count");
  r.set("pricer.fallback_frac",
        static_cast<double>(H.fallback_periods) /
            static_cast<double>(H.periods),
        "ratio");
  r.details["cycles"] = static_cast<double>(cycles);
  r.details["fleet_periods"] = static_cast<double>(F.periods);
  r.details["horizon_period_samples"] = static_cast<double>(H.ordinary.size());
  r.details["horizon_rollover_samples"] =
      static_cast<double>(H.estimating_rollover.size());
  r.set("trace_overhead_frac",
        1.0 - median(F.reference_ms) / median(F.loop_ms), "ratio");
}

// ---- main -------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--git-sha SHA]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  install_log_sink();
  // Pin the process default so every parallel_for with kThreads runs on
  // the shared pool, whatever the host's core count.
  tdp::set_default_thread_count(kThreads);
  fs::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + workload->name;
  const std::string checkpoint_path = stem + ".ckpt";
  const std::string trace_path = stem + ".trace.json";

  Result r;
  if (args.trace) {
    run_traced(*workload, args, checkpoint_path, trace_path, r);
    r.set("obs.log_warn", static_cast<double>(log_counts().warn), "count");
  } else if (workload->horizon) {
    run_horizon_untraced(*workload, args, checkpoint_path, r);
  } else {
    run_fleet_untraced(*workload, args, r);
  }
  if (!args.trace) r.set("peak_rss_mb", peak_rss_mb(), "MB");
  remove_checkpoint(checkpoint_path);
  r.check("no_error_log_lines", log_counts().error == 0);
  r.check("mechanism_is_tube_online", r.mechanism == "tube_online");

  bool correct = true;
  for (const auto& check : r.checks) correct = correct && check.second;
  const std::uint64_t failed = correct ? r.failed_periods : r.attempted;

  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(r.attempted);
  json += ",\"failed\":" + std::to_string(failed);
  const double attempted =
      std::max(1.0, static_cast<double>(r.attempted));
  json += ",\"fallback_frac\":" +
          json_number(static_cast<double>(r.fallback_periods) / attempted);
  json += ",\"metrics\":{";
  bool comma = false;
  for (const auto& [name, metric] : r.metrics) {
    if (comma) json += ',';
    comma = true;
    json += json_string(name) + ":{\"value\":" + json_number(metric.value) +
            ",\"unit\":" + json_string(metric.unit) + "}";
  }
  json += "},\"checks\":{";
  comma = false;
  for (const auto& [name, ok] : r.checks) {
    if (comma) json += ',';
    comma = true;
    json += json_string(name) + (ok ? ":true" : ":false");
  }
  json += "},\"details\":{";
  comma = false;
  for (const auto& [name, value] : r.details) {
    if (comma) json += ',';
    comma = true;
    json += json_string(name) + ":" + json_number(value);
  }
  json += "},\"provenance\":{";
  json += "\"workload\":" + json_string(workload->name);
  json += ",\"seed\":" + std::to_string(args.seed);
  json += ",\"seconds\":" + json_number(args.seconds);
  json += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  json += ",\"mechanism\":" + json_string(r.mechanism);
  json += ",\"nproc\":" + std::to_string(tdp::hardware_threads());
  json += ",\"threads\":" + std::to_string(kThreads);
  json += ",\"host_isa\":" + json_string(tdp::simd::host_isa());
  json += ",\"simd_mode\":" + json_string(tdp::simd::mode_name());
  json += ",\"git_sha\":" + json_string(args.git_sha);
  if (args.trace) json += ",\"trace_file\":" + json_string(trace_path);
  if (log_counts().error > 0) {
    json += ",\"first_error\":" + json_string(log_counts().first_error);
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
