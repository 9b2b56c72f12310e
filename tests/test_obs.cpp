#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_metrics.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp::obs {
namespace {

/// Restores the two observability switches on scope exit so tests can
/// flip them freely without leaking state into later tests.
class SwitchGuard {
 public:
  SwitchGuard() : metrics_(metrics_enabled()), trace_(trace_enabled()) {}
  ~SwitchGuard() {
    set_metrics_enabled(metrics_);
    set_trace_enabled(trace_);
  }

 private:
  bool metrics_;
  bool trace_;
};

/// The hammer workload: every task bumps the same counters with
/// task-dependent amounts. Same work regardless of how tasks map to
/// threads, so the merged snapshot must not depend on the thread count.
void hammer(Registry& registry, std::size_t tasks, std::size_t threads) {
  Counter& even = registry.counter("hammer.even_total");
  Counter& odd = registry.counter("hammer.odd_total");
  Counter& values = registry.counter("hammer.values_total");
  parallel_for(
      tasks,
      [&](std::size_t i) {
        if (i % 2 == 0) {
          even.add(i + 1);
        } else {
          odd.add(2 * i + 1);
        }
        values.add(i % 211);
      },
      threads);
}

TEST(Registry, SnapshotIsBitwiseThreadCountIndependent) {
  const std::size_t hw = default_thread_count();
  Registry serial;
  Registry parallel;
  hammer(serial, 10000, 1);
  hammer(parallel, 10000, hw > 1 ? hw : 4);
  // Byte-equal JSON: counter sums merge to identical values regardless of
  // which thread recorded what.
  EXPECT_EQ(metrics_json(serial.snapshot()), metrics_json(parallel.snapshot()));
}

TEST(Registry, CountersIgnoreTheSwitch) {
  SwitchGuard guard;
  Registry registry;
  Counter& counter = registry.counter("switch.counter");
  Journal& journal = Journal::global();
  journal.clear();

  // The switch gates the journal and nothing else.
  set_metrics_enabled(false);
  counter.add(5);
  journal_record("test.kind", 0, -1, "recorded while disabled");
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_EQ(journal.appended(), 0u);

  set_metrics_enabled(true);
  counter.add(5);
  journal_record("test.kind", 1, -1, "recorded while enabled");
  EXPECT_EQ(counter.value(), 10u);
  EXPECT_EQ(journal.appended(), 1u);
  journal.clear();
}

TEST(Registry, GetOrCreateReturnsStableReferences) {
  Registry registry;
  Counter& a = registry.counter("stable.counter");
  a.add(3);
  Counter& b = registry.counter("stable.counter");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);

  CounterDelta delta(a);
  a.add(4);
  EXPECT_EQ(delta.delta(), 4u);
}

TEST(Exporters, MetricsJsonIsCountersOnly) {
  Registry registry;
  registry.counter("exp.requests_total").add(7);
  registry.counter("exp.errors_total").add(2);
  // One name-sorted map of integers and no other top-level key.
  EXPECT_EQ(metrics_json(registry.snapshot()),
            "{\"counters\":{\"exp.errors_total\":2,"
            "\"exp.requests_total\":7}}");
}

TEST(Exporters, PrometheusTextHasSanitizedCounterNames) {
  Registry registry;
  registry.counter("exp.requests_total").add(7);
  registry.counter("exp.latency-ns").add(3);
  // Name-sorted; dots and dashes become underscores.
  EXPECT_EQ(prometheus_text(registry.snapshot()),
            "# HELP exp_latency_ns TDP counter exp.latency-ns\n"
            "# TYPE exp_latency_ns counter\n"
            "exp_latency_ns 3\n"
            "# HELP exp_requests_total TDP counter exp.requests_total\n"
            "# TYPE exp_requests_total counter\n"
            "exp_requests_total 7\n");
}

TEST(Exporters, PrometheusHelpLinesCarryTheDottedTaxonomyName) {
  Registry registry;
  registry.counter("exp.requests_total").add(7);

  const std::string text = prometheus_text(registry.snapshot());
  // Every counter gets a # HELP line naming its registry (dotted)
  // identity, immediately before the # TYPE line scrapers key on.
  EXPECT_NE(
      text.find("# HELP exp_requests_total TDP counter exp.requests_total\n"
                "# TYPE exp_requests_total counter"),
      std::string::npos);
}

TEST(Exporters, PrometheusTextIsByteStableAcrossIdenticalRegistries) {
  // Same hammer workload at different thread counts: the rendered
  // exposition text (not just the snapshot) must be byte-identical, so a
  // scrape diff is always a real telemetry change and never thread-layout
  // noise.
  const std::size_t hw = default_thread_count();
  Registry serial;
  Registry parallel;
  hammer(serial, 6000, 1);
  hammer(parallel, 6000, hw > 1 ? hw : 4);
  const std::string a = prometheus_text(serial.snapshot());
  const std::string b = prometheus_text(parallel.snapshot());
  EXPECT_EQ(a, b);
  EXPECT_NE(
      a.find("# HELP hammer_values_total TDP counter hammer.values_total"),
      std::string::npos);
}

TEST(Trace, SpansNestWithMatchedPairsAndMonotoneTimestamps) {
  SwitchGuard guard;
  set_trace_enabled(true);
  trace_clear();
  {
    TDP_OBS_SPAN("outer");
    {
      TDP_OBS_SPAN("inner");
      trace_instant("tick");
    }
    TDP_OBS_SPAN("sibling");
  }
  std::thread worker([] { TDP_OBS_SPAN("worker"); });
  worker.join();
  set_trace_enabled(false);

  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 9u);

  // Per-thread: B/E strictly stack-matched, timestamps monotone.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) by_tid[e.tid].push_back(&e);
  EXPECT_EQ(by_tid.size(), 2u);
  for (const auto& [tid, list] : by_tid) {
    std::vector<std::string> stack;
    std::uint64_t last_ts = 0;
    for (const TraceEvent* e : list) {
      EXPECT_GE(e->ts_ns, last_ts) << "timestamps regress on tid " << tid;
      last_ts = e->ts_ns;
      if (e->phase == 'B') {
        stack.push_back(e->name);
      } else if (e->phase == 'E') {
        ASSERT_FALSE(stack.empty()) << "E without matching B on tid " << tid;
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }

  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  trace_clear();
}

TEST(Trace, DisabledSpansRecordNothing) {
  SwitchGuard guard;
  set_trace_enabled(false);
  trace_clear();
  const std::size_t before = trace_event_count();
  {
    TDP_OBS_SPAN("invisible");
  }
  EXPECT_EQ(trace_event_count(), before);
}

TEST(Trace, BuffersSurviveThreadExitWithoutLosingEvents) {
  SwitchGuard guard;
  set_trace_enabled(true);
  trace_clear();

  // Short-lived workers record spans and die before anyone reads the
  // session. The session keeps each per-thread buffer alive (shared_ptr
  // ownership), so every event must still be present after join — nothing
  // is flushed-on-read from a thread that no longer exists.
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kSpansPerWorker = 5;
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([] {
      for (std::size_t s = 0; s < kSpansPerWorker; ++s) {
        TDP_OBS_SPAN("short-lived");
        trace_instant("beat");
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  set_trace_enabled(false);

  const std::vector<TraceEvent> events = trace_events();
  // Each span contributes a B/E pair plus one instant.
  ASSERT_EQ(events.size(), kWorkers * kSpansPerWorker * 3);

  // Per exited thread: the full complement of events, B/E balanced.
  std::map<std::uint32_t, std::size_t> begins;
  std::map<std::uint32_t, std::size_t> ends;
  std::map<std::uint32_t, std::size_t> instants;
  for (const TraceEvent& e : events) {
    if (e.phase == 'B') ++begins[e.tid];
    if (e.phase == 'E') ++ends[e.tid];
    if (e.phase == 'i') ++instants[e.tid];
  }
  EXPECT_EQ(begins.size(), kWorkers);
  for (const auto& [tid, count] : begins) {
    EXPECT_EQ(count, kSpansPerWorker) << "tid " << tid;
    EXPECT_EQ(ends[tid], kSpansPerWorker) << "tid " << tid;
    EXPECT_EQ(instants[tid], kSpansPerWorker) << "tid " << tid;
  }
  trace_clear();
}

TEST(Journal, EventsAreSequencedAndBounded) {
  SwitchGuard guard;
  set_metrics_enabled(true);
  Journal& journal = Journal::global();
  journal.clear();
  journal.set_capacity(4);

  for (int i = 0; i < 6; ++i) {
    journal_record("test.kind", i, -1, "event", {{"i", double(i)}});
  }
  const std::vector<JournalEvent> events = journal.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(journal.appended(), 4u);
  EXPECT_EQ(journal.dropped(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].kind, "test.kind");
    EXPECT_EQ(events[i].period, static_cast<std::int64_t>(i));
    ASSERT_EQ(events[i].fields.size(), 1u);
    EXPECT_EQ(events[i].fields[0].first, "i");
  }

  const std::string json = journal.json();
  EXPECT_NE(json.find("\"kind\":\"test.kind\""), std::string::npos);
  EXPECT_NE(json.find("\"seq\":0"), std::string::npos);

  set_metrics_enabled(false);
  journal_record("test.kind", 9, -1, "dropped while disabled");
  EXPECT_EQ(Journal::global().appended(), 4u);

  journal.set_capacity(1 << 16);
  journal.clear();
}

TEST(Journal, JsonlEmitsOneObjectPerLineInSequenceOrder) {
  SwitchGuard guard;
  set_metrics_enabled(true);
  Journal& journal = Journal::global();
  journal.clear();

  journal_record("incident.open", 3, 0, "loop disturbance",
                 {{"severity", 2.0}});
  journal_record("incident.close", 7, 0, "recovered");
  const std::string lines = journal.jsonl();

  // JSONL contract (what tools/validate_trace.py consumes): one complete
  // {...} object per newline-terminated line, seq strictly increasing.
  std::vector<std::string> rows;
  std::size_t start = 0;
  for (std::size_t nl = lines.find('\n'); nl != std::string::npos;
       nl = lines.find('\n', start)) {
    rows.push_back(lines.substr(start, nl - start));
    start = nl + 1;
  }
  EXPECT_EQ(start, lines.size());  // newline-terminated, no trailing junk
  ASSERT_EQ(rows.size(), 2u);
  for (const std::string& row : rows) {
    EXPECT_EQ(row.front(), '{');
    EXPECT_EQ(row.back(), '}');
  }
  EXPECT_NE(rows[0].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(rows[0].find("\"kind\":\"incident.open\""), std::string::npos);
  EXPECT_NE(rows[1].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(rows[1].find("\"kind\":\"incident.close\""), std::string::npos);

  journal.clear();
}

TEST(Logging, RateLimitedMacroCountsSuppressedLines) {
  const LogLevel previous_level = log_level();
  set_log_level(LogLevel::kWarn);
  std::size_t emitted = 0;
  LogSink old_sink = set_log_sink(
      [&emitted](LogLevel, const std::string&) { ++emitted; });

  CounterDelta suppressed(Registry::global().counter("log.suppressed_total"));
  CounterDelta warned(Registry::global().counter("log.emitted_total.warn"));
  for (std::uint64_t occurrence = 1; occurrence <= 100; ++occurrence) {
    TDP_LOG_EVERY_POW2(LogLevel::kWarn, occurrence) << "flood " << occurrence;
  }
  set_log_sink(std::move(old_sink));
  set_log_level(previous_level);

  // Powers of two in [1, 100]: 1, 2, 4, 8, 16, 32, 64 -> 7 emitted.
  EXPECT_EQ(emitted, 7u);
  EXPECT_EQ(warned.delta(), 7u);
  EXPECT_EQ(suppressed.delta(), 93u);
}

TEST(Logging, EmittedLinesAreCountedPerLevel) {
  const LogLevel previous_level = log_level();
  set_log_level(LogLevel::kInfo);
  LogSink old_sink = set_log_sink([](LogLevel, const std::string&) {});

  CounterDelta info(Registry::global().counter("log.emitted_total.info"));
  CounterDelta debug(Registry::global().counter("log.emitted_total.debug"));
  TDP_LOG_INFO << "counted";
  TDP_LOG_INFO << "counted again";
  TDP_LOG_DEBUG << "below threshold, not emitted, not counted";
  set_log_sink(std::move(old_sink));
  set_log_level(previous_level);

  EXPECT_EQ(info.delta(), 2u);
  EXPECT_EQ(debug.delta(), 0u);
}

TEST(FleetObservability, TelemetryNeverPerturbsTheSimulation) {
  SwitchGuard guard;
  fleet::FleetDriverConfig config;
  config.population.users = 400;
  config.population.periods = 12;
  config.population.seed = 20110611;
  config.shards = 4;
  config.threads = 2;
  config.fault.price_pull_drop = 0.05;
  config.fault.seed = 7;

  // `moved` receives how far each of these counters grows over one day.
  const char* const counted[] = {"fleet.periods_total", "mech.publishes_total",
                                 "kernel.plan_builds_total",
                                 "fista.iterations_total"};
  const auto run_day = [&](std::vector<std::uint64_t>& moved) {
    std::vector<CounterDelta> deltas;
    for (const char* name : counted) {
      deltas.emplace_back(Registry::global().counter(name));
    }
    const fleet::FleetMetrics metrics = fleet::FleetDriver(config).run_day();
    for (const CounterDelta& delta : deltas) moved.push_back(delta.delta());
    return metrics;
  };

  std::vector<std::uint64_t> on_moved;
  set_metrics_enabled(true);
  const fleet::FleetMetrics on = run_day(on_moved);

  std::vector<std::uint64_t> off_moved;
  set_metrics_enabled(false);
  set_trace_enabled(false);
  const fleet::FleetMetrics off = run_day(off_moved);

  // Bitwise: telemetry is pure observation, so every simulated number is
  // identical with observability on or off.
  ASSERT_EQ(on.offered_units.size(), off.offered_units.size());
  for (std::size_t i = 0; i < on.offered_units.size(); ++i) {
    EXPECT_EQ(on.offered_units[i], off.offered_units[i]);
    EXPECT_EQ(on.realized_units[i], off.realized_units[i]);
  }
  EXPECT_EQ(on.sessions, off.sessions);
  EXPECT_EQ(on.deferred_sessions, off.deferred_sessions);
  EXPECT_EQ(on.reward_paid_units, off.reward_paid_units);
  EXPECT_EQ(on.pricer_expected_cost, off.pricer_expected_cost);
  // Counters count in both modes: a counter's value is a function of the
  // run alone.
  EXPECT_EQ(on.price_pull_drops, off.price_pull_drops);
  EXPECT_EQ(on.price_server_fetches, off.price_server_fetches);
  EXPECT_EQ(on.final_health, off.final_health);
  for (std::size_t c = 0; c < std::size(counted); ++c) {
    EXPECT_GT(on_moved[c], 0u) << counted[c];
    EXPECT_EQ(off_moved[c], on_moved[c]) << counted[c];
  }
}

TEST(FleetObservability, MetricsAreViewsOverRegistryDeltas) {
  fleet::FleetDriverConfig config;
  config.population.users = 300;
  config.population.periods = 12;
  config.population.seed = 20110611;
  config.shards = 3;
  config.threads = 2;

  CounterDelta fetches(Registry::global().counter("channel.fetches_total"));
  CounterDelta periods(Registry::global().counter("fleet.periods_total"));
  CounterDelta draw_wait(
      Registry::global().counter("fleet.phase.draw_wait_ns"));
  const fleet::FleetMetrics metrics = fleet::FleetDriver(config).run_day();

  EXPECT_EQ(metrics.price_server_fetches, fetches.delta());
  EXPECT_EQ(periods.delta(),
            static_cast<std::uint64_t>(metrics.periods) * metrics.days);
  // Phase timers flowed through the registry's nanosecond counters. Every
  // period but a day's last draws the next one beside the pricer, and the
  // caller's wait for those draws is its own phase.
  EXPECT_GT(metrics.simulate_seconds, 0.0);
  EXPECT_GT(metrics.draw_wait_seconds, 0.0);
  EXPECT_GT(draw_wait.delta(), 0u);
  EXPECT_NE(metrics.to_json().find("\"draw_wait_seconds\":"),
            std::string::npos);
}

}  // namespace
}  // namespace tdp::obs
