#include "obs/journal.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/export.hpp"

namespace tdp::obs {
namespace {

std::atomic<bool>& metrics_flag() {
  // Read TDP_OBS exactly once, at first use; only the literal "0" disables
  // (any other value, including unset, leaves the journal on).
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("TDP_OBS");
    return !(env != nullptr && env[0] == '0' && env[1] == '\0');
  }()};
  return flag;
}

void append_event_json(std::string& out, const JournalEvent& event) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"seq\":%llu,\"kind\":\"",
                static_cast<unsigned long long>(event.seq));
  out += buf;
  append_json_escaped(out, event.kind);
  std::snprintf(buf, sizeof buf,
                "\",\"period\":%lld,\"shard\":%lld,\"user\":%lld,"
                "\"detail\":\"",
                static_cast<long long>(event.period),
                static_cast<long long>(event.shard),
                static_cast<long long>(event.user));
  out += buf;
  append_json_escaped(out, event.detail);
  out += "\",\"fields\":{";
  for (std::size_t f = 0; f < event.fields.size(); ++f) {
    if (f) out += ',';
    out += '"';
    append_json_escaped(out, event.fields[f].first);
    out += "\":";
    std::snprintf(buf, sizeof buf, "%.17g", event.fields[f].second);
    out += buf;
  }
  out += "}}";
}

}  // namespace

bool metrics_enabled() {
  return metrics_flag().load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  metrics_flag().store(enabled, std::memory_order_relaxed);
}

Journal& Journal::global() {
  static Journal* instance = new Journal();
  return *instance;
}

void Journal::append(JournalEvent event) {
  if (!metrics_enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  event.seq = next_seq_++;
  events_.push_back(std::move(event));
}

std::vector<JournalEvent> Journal::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::uint64_t Journal::appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t Journal::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void Journal::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
}

void Journal::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  next_seq_ = 0;
  dropped_ = 0;
}

std::string Journal::json() const {
  const std::vector<JournalEvent> events = snapshot();
  std::string out = "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i) out += ',';
    append_event_json(out, events[i]);
  }
  out += ']';
  return out;
}

bool Journal::write_json(const std::string& path) const {
  const std::string text = json();
  return write_file(path, text.data(), text.size());
}

std::string Journal::jsonl() const {
  const std::vector<JournalEvent> events = snapshot();
  std::string out;
  for (const JournalEvent& event : events) {
    append_event_json(out, event);
    out += '\n';
  }
  return out;
}

bool Journal::write_jsonl(const std::string& path) const {
  const std::string text = jsonl();
  return write_file(path, text.data(), text.size());
}

void journal_record(
    std::string_view kind, std::int64_t period, std::int64_t shard,
    std::string detail,
    std::initializer_list<std::pair<std::string, double>> fields) {
  if (!metrics_enabled()) return;
  JournalEvent event;
  event.kind = std::string(kind);
  event.period = period;
  event.shard = shard;
  event.detail = std::move(detail);
  event.fields.assign(fields.begin(), fields.end());
  Journal::global().append(std::move(event));
}

}  // namespace tdp::obs
