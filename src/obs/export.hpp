// Exporters for the metrics registry: one JSON snapshot writer (reused by
// benches and examples) and a Prometheus-style text dump. Both serialize a
// merged Snapshot with counters sorted by name, so two runs doing the same
// work produce byte-identical files regardless of registration races.
// Plus the JSON string escaper and the whole-file writer, write_file.
#pragma once

#include <cstddef>
#include <string>

#include "obs/registry.hpp"

namespace tdp::obs {

/// {"counters":{name:value,...}}: one map of non-negative integers.
std::string metrics_json(const Snapshot& snapshot);
std::string metrics_json();  ///< of Registry::global()

/// Prometheus exposition text: "# HELP" + "# TYPE" + value per counter,
/// names sanitized (dots -> underscores; the HELP text carries the
/// original dotted name). Byte-stable for a given snapshot.
std::string prometheus_text(const Snapshot& snapshot);
std::string prometheus_text();  ///< of Registry::global()

/// Append `text` to `out` as the inside of a JSON string: quote, backslash,
/// newline and tab escaped, other control characters as \u00XX. The trace
/// and journal writers share it.
void append_json_escaped(std::string& out, const std::string& text);

/// Write `size` bytes to `path` whole, replacing any file there; false on
/// an open, write or close failure. Every whole-file writer (exports,
/// journal, trace, incident dump) goes through it; checkpoint files, which
/// must be fsync'd before an atomic rename, go through
/// horizon::save_checkpoint_file instead.
bool write_file(const std::string& path, const void* data, std::size_t size);

}  // namespace tdp::obs
