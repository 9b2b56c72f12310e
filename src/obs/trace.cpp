#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/export.hpp"

namespace tdp::obs {
namespace {

std::atomic<bool>& trace_flag() {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("TDP_TRACE");
    return env != nullptr && env[0] == '1' && env[1] == '\0';
  }()};
  return flag;
}

/// Per-thread event buffer. The owning thread appends under the buffer's
/// own mutex (uncontended except while an export or clear is running);
/// the session keeps a shared_ptr so events survive thread exit.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

class TraceSession {
 public:
  static TraceSession& instance() {
    static TraceSession* session = new TraceSession();
    return *session;
  }

  ThreadBuffer& local_buffer() {
    thread_local const std::shared_ptr<ThreadBuffer> buffer = [this] {
      auto fresh = std::make_shared<ThreadBuffer>();
      const std::lock_guard<std::mutex> lock(mutex_);
      fresh->tid = static_cast<std::uint32_t>(buffers_.size());
      buffers_.push_back(fresh);
      return fresh;
    }();
    return *buffer;
  }

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::vector<std::shared_ptr<ThreadBuffer>> buffers() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return buffers_;
  }

 private:
  TraceSession() : epoch_(std::chrono::steady_clock::now()) {}

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::chrono::steady_clock::time_point epoch_;
};

void record(std::string_view name, char phase) {
  TraceSession& session = TraceSession::instance();
  ThreadBuffer& buffer = session.local_buffer();
  const std::uint64_t ts = session.now_ns();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(
      TraceEvent{std::string(name), phase, ts, buffer.tid});
}

}  // namespace

bool trace_enabled() { return trace_flag().load(std::memory_order_relaxed); }

void set_trace_enabled(bool enabled) {
  trace_flag().store(enabled, std::memory_order_relaxed);
}

Span::Span(std::string_view name) {
  if (trace_enabled()) {
    record(name, 'B');
    active_ = true;  // balance the 'E' even if tracing is toggled mid-span
  }
}

Span::~Span() {
  if (active_) record("", 'E');
}

void trace_instant(std::string_view name) {
  if (trace_enabled()) record(name, 'i');
}

std::vector<TraceEvent> trace_events() {
  std::vector<TraceEvent> merged;
  for (const auto& buffer : TraceSession::instance().buffers()) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    merged.insert(merged.end(), buffer->events.begin(), buffer->events.end());
  }
  return merged;
}

std::size_t trace_event_count() {
  std::size_t total = 0;
  for (const auto& buffer : TraceSession::instance().buffers()) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

void trace_clear() {
  for (const auto& buffer : TraceSession::instance().buffers()) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::string chrome_trace_json() {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : trace_events()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, event.name);
    out += "\",\"ph\":\"";
    out += event.phase;
    // Chrome wants microseconds; keep nanosecond resolution in the
    // fractional part.
    char buf[64];
    std::snprintf(buf, sizeof buf,
                  "\",\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                  static_cast<double>(event.ts_ns) / 1000.0, event.tid);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  return write_file(path, json.data(), json.size());
}

}  // namespace tdp::obs
