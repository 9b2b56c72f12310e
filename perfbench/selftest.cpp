// Self-test of the benchmark's own arithmetic and of its bench-driven fleet
// loop. Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/fleet_driver.hpp"
#include "loop.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void test_quantiles() {
  using perfbench::quantile;
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0, 5.0};
  expect(near(perfbench::median(v), 3.0), "median of 1..5");
  expect(near(quantile(v, 0.25), 2.0), "first quartile of 1..5");
  expect(near(quantile({1.0, 2.0}, 0.5), 1.5), "median interpolates");
  expect(quantile({}, 0.5) == 0.0, "empty quantile is 0");
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_tail_rule() {
  using perfbench::tail_percentile;
  // The highest candidate p with n * (1 - p) >= 10 samples beyond it.
  expect(tail_percentile(ramp(500)).percentile == 98.0, "500 samples -> p98");
  expect(tail_percentile(ramp(499)).percentile == 95.0, "499 samples -> p95");
  expect(tail_percentile(ramp(100)).percentile == 90.0, "100 samples -> p90");
  expect(tail_percentile(ramp(40)).percentile == 75.0, "40 samples -> p75");
  expect(tail_percentile(ramp(20)).percentile == 50.0, "20 samples -> p50");
  const perfbench::Tail few = tail_percentile(ramp(5));
  expect(few.percentile == 50.0 && near(few.value, 3.0),
         "too few samples fall back to the median");
  expect(near(tail_percentile(ramp(100)).value,
              perfbench::quantile(ramp(100), 0.90)),
         "tail value is that percentile's quantile");
}

tdp::obs::TraceEvent event(const char* name, char phase, std::uint64_t ts,
                           std::uint32_t tid) {
  tdp::obs::TraceEvent e;
  e.name = name;
  e.phase = phase;
  e.ts_ns = ts;
  e.tid = tid;
  return e;
}

void test_self_times() {
  // tid 0: A[0,100) holds B[10,40) (which holds C[20,30)) and B[50,60).
  // tid 1: D[5,95) runs beside A and is nobody's child.
  const std::vector<tdp::obs::TraceEvent> events{
      event("A", 'B', 0, 0),  event("B", 'B', 10, 0), event("C", 'B', 20, 0),
      event("C", 'E', 30, 0), event("B", 'E', 40, 0), event("B", 'B', 50, 0),
      event("B", 'E', 60, 0), event("A", 'E', 100, 0), event("D", 'B', 5, 1),
      event("D", 'E', 95, 1)};
  const auto totals = perfbench::self_times(events);
  expect(totals.at("A").total_ns == 100 && totals.at("A").self_ns == 60,
         "A self = 100 - 30 - 10");
  expect(totals.at("B").count == 2 && totals.at("B").total_ns == 40 &&
             totals.at("B").self_ns == 30,
         "B self = 40 - 10 over two spans");
  expect(totals.at("C").self_ns == 10, "leaf self = its duration");
  expect(totals.at("D").self_ns == 90, "other threads are not children");
  std::uint64_t self_sum = 0;
  for (const char* name : {"A", "B", "C"}) self_sum += totals.at(name).self_ns;
  expect(self_sum == totals.at("A").total_ns,
         "self times of a tree sum to its root");
}

void test_parallel_efficiency() {
  using perfbench::parallel_efficiency;
  expect(near(parallel_efficiency(6.0, 4, 2.0), 0.75), "6 / (4 x 2)");
  expect(near(parallel_efficiency(8.0, 4, 2.0), 1.0), "a saturated pool");
  expect(parallel_efficiency(1.0, 0, 2.0) == 0.0, "no threads");
  expect(parallel_efficiency(1.0, 4, 0.0) == 0.0, "no sweep");
}

void test_loop_matches_run_day() {
  tdp::fleet::FleetDriverConfig config;
  config.population.users = 3000;
  config.population.periods = 48;
  config.population.seed = 7;
  config.slices = 12;
  config.shards = 5;
  config.threads = 2;
  config.warmup_days = 1;

  tdp::obs::Journal::global().clear();
  perfbench::FleetLoop loop(config);
  std::vector<perfbench::PeriodTiming> timings;
  perfbench::DayOutput day;
  for (std::size_t d = 0; d <= config.warmup_days; ++d) {
    day = loop.run_day(timings);
  }
  const auto loop_journal = perfbench::pricer_trajectory();

  tdp::obs::Journal::global().clear();
  tdp::fleet::FleetDriver driver(config);
  const tdp::fleet::FleetMetrics m = driver.run_day();
  expect(timings.size() == 96, "one timing per simulated period");
  expect(m.offered_units == day.offered_units &&
             m.realized_units == day.realized_units,
         "measured-day profiles equal run_day's bitwise");
  expect(m.sessions == day.sessions &&
             m.deferred_sessions == day.deferred_sessions &&
             m.reward_paid_units == day.reward_paid_units,
         "measured-day totals equal run_day's");
  expect(driver.mechanism().rewards() == loop.mechanism().rewards(),
         "final schedules equal");
  expect(!loop_journal.empty() &&
             perfbench::pricer_trajectory() == loop_journal,
         "per-observation reward trajectory equals run_day's");
}

}  // namespace

int main() {
  tdp::set_default_thread_count(2);
  test_quantiles();
  test_tail_rule();
  test_self_times();
  test_parallel_efficiency();
  test_loop_matches_run_day();
  std::printf("perfbench selftest: %s (%d failures)\n",
              failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
