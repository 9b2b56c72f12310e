#include "common/logging.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>

#include "obs/registry.hpp"

namespace tdp {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_sink_mutex;
LogSink g_sink;  // guarded by g_sink_mutex; empty = stderr

/// Per-level emission counters plus the rate-limiter's suppression count —
/// the logger's registry view.
obs::Counter& emitted_counter(LogLevel level) {
  static obs::Counter& debug =
      obs::Registry::global().counter("log.emitted_total.debug");
  static obs::Counter& info =
      obs::Registry::global().counter("log.emitted_total.info");
  static obs::Counter& warn =
      obs::Registry::global().counter("log.emitted_total.warn");
  static obs::Counter& error =
      obs::Registry::global().counter("log.emitted_total.error");
  switch (level) {
    case LogLevel::kDebug:
      return debug;
    case LogLevel::kInfo:
      return info;
    case LogLevel::kWarn:
      return warn;
    default:
      return error;
  }
}

obs::Counter& suppressed_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("log.suppressed_total");
  return counter;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

LogSink set_log_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  LogSink previous = std::move(g_sink);
  g_sink = std::move(sink);
  return previous;
}

void log_message(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  emitted_counter(level).add(1);
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (g_sink) {
    g_sink(level, message);
    return;
  }
  std::fprintf(stderr, "[tdp %-5s] %s\n", level_name(level), message.c_str());
}

namespace detail {

bool rate_limit_pass(std::uint64_t occurrence) {
  // Power of two (or the 1st): log. Everything else is suppressed and
  // counted so a throttled flood is still visible in the registry.
  if (occurrence != 0 && (occurrence & (occurrence - 1)) == 0) return true;
  suppressed_counter().add(1);
  return false;
}

}  // namespace detail
}  // namespace tdp
