// Minimal leveled logger.
//
// The library logs through a single global sink (stderr by default; tests
// can install their own with set_log_sink). The sink is mutex-guarded and
// the threshold is atomic, so parallel batch solves and pool workers can
// log concurrently without interleaved or torn lines; each log_message call
// emits exactly one whole line. Only the netsim event loop remains a
// single-threaded component (see DESIGN.md "Threading model").
//
// The logger is itself observable: every emitted line bumps
// log.emitted_total.<level> in the metrics registry, and lines dropped by
// the TDP_LOG_EVERY_POW2 rate limiter bump log.suppressed_total instead of
// vanishing — a flooding-but-throttled warning site is visible in any
// metrics export even when no line of it reaches the sink.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace tdp {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Replaceable sink. The previous sink is returned so callers can restore
/// it; an empty function means "write to stderr". The sink runs under the
/// logger's mutex, so it may use non-thread-safe state but must not log.
using LogSink = std::function<void(LogLevel, const std::string&)>;
LogSink set_log_sink(LogSink sink);

/// Emit one log line (used by the TDP_LOG macro; callable directly too).
/// Thread-safe.
void log_message(LogLevel level, const std::string& message);

namespace detail {

/// Power-of-two-cadence gate for rate-limited log sites: true when
/// `occurrence` (1-based) is 1, 2, 4, 8, ... — the cadence every such site
/// in the repo already used by hand. A false return counts the line in
/// log.suppressed_total, so throttled floods stay measurable.
bool rate_limit_pass(std::uint64_t occurrence);

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log_message(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace tdp

#define TDP_LOG(level)                                   \
  if (static_cast<int>(level) < static_cast<int>(::tdp::log_level())) { \
  } else                                                 \
    ::tdp::detail::LogLine(level)

/// Rate-limited logging: emit the line only on the 1st, 2nd, 4th, 8th, ...
/// occurrence (pass the site's own 1-based occurrence counter); suppressed
/// lines are counted in the registry (log.suppressed_total) instead of
/// silently dropped.
#define TDP_LOG_EVERY_POW2(level, occurrence)        \
  if (!::tdp::detail::rate_limit_pass(occurrence)) { \
  } else                                             \
    TDP_LOG(level)

#define TDP_LOG_DEBUG TDP_LOG(::tdp::LogLevel::kDebug)
#define TDP_LOG_INFO TDP_LOG(::tdp::LogLevel::kInfo)
#define TDP_LOG_WARN TDP_LOG(::tdp::LogLevel::kWarn)
#define TDP_LOG_ERROR TDP_LOG(::tdp::LogLevel::kError)
