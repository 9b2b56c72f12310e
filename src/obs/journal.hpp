// Structured event journal: the control-plane flight recorder.
//
// Where the metrics registry answers "how many" and the trace answers
// "when", the journal answers "what exactly happened": pricer health-ladder
// transitions, measurement repairs and blackouts, channel staleness /
// fallback excursions, solver convergence records — each as one typed
// event with period/shard/user context and a small set of named numeric
// fields. Events are appended from the control loop (once per period, per
// transition, per solve — never from per-session hot paths), sequence-
// numbered, and bounded: past the capacity the journal counts drops
// instead of growing, so a chaos soak cannot exhaust memory.
//
// The journal is pure observation (nothing reads it back into the system)
// and is the one thing the TDP_OBS switch gates (metrics_enabled(): default
// on, TDP_OBS=0 disables). Registry counters ignore the switch and always
// count (obs/registry.hpp).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tdp::obs {

/// The journal's switch: default on; read from TDP_OBS once, at first use
/// (only the literal "0" disables), and overridable in-process.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

struct JournalEvent {
  std::uint64_t seq = 0;     ///< assigned on append, strictly increasing
  std::string kind;          ///< dotted taxonomy, e.g. "pricer.health"
  std::int64_t period = -1;  ///< period index (-1 = not period-scoped)
  std::int64_t shard = -1;   ///< shard / subscriber id (-1 = none)
  std::int64_t user = -1;    ///< user id (-1 = none)
  std::string detail;        ///< human-readable one-liner
  std::vector<std::pair<std::string, double>> fields;  ///< named numbers
};

class Journal {
 public:
  static Journal& global();

  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Append one event (assigns seq). No-op while the switch is off;
  /// counted as dropped once the capacity is reached.
  void append(JournalEvent event);

  /// Events retained so far, in seq order.
  std::vector<JournalEvent> snapshot() const;

  std::uint64_t appended() const;  ///< accepted events (retained)
  std::uint64_t dropped() const;   ///< rejected past capacity

  void set_capacity(std::size_t capacity);
  void clear();  ///< drop all events, reset seq/drop accounting

  /// JSON array of event objects:
  ///   {"seq":N,"kind":"...","period":P,"shard":S,"user":U,
  ///    "detail":"...","fields":{"name":value,...}}
  std::string json() const;
  bool write_json(const std::string& path) const;

  /// JSON Lines: one event object per line (same object shape as json()),
  /// trailing newline after every line. The streaming-friendly form that
  /// tools/validate_trace.py --journal-jsonl checks.
  std::string jsonl() const;
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<JournalEvent> events_;
  std::size_t capacity_ = 1 << 16;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Convenience append to the global journal.
void journal_record(
    std::string_view kind, std::int64_t period, std::int64_t shard,
    std::string detail,
    std::initializer_list<std::pair<std::string, double>> fields = {});

}  // namespace tdp::obs
