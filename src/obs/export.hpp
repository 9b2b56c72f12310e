// Exporters for the metrics registry: one JSON snapshot writer (reused by
// benches and examples) and a Prometheus-style text dump. Both serialize a
// merged Snapshot with instruments sorted by name, so two runs doing the
// same work produce byte-identical files regardless of registration races.
// Plus the tree's one whole-file writer, write_file.
#pragma once

#include <cstddef>
#include <string>

#include "obs/registry.hpp"

namespace tdp::obs {

/// {"counters":{name:value,...},"gauges":{...},
///  "histograms":{name:{"count":...,"sum":...,"sum_fp":...,"scale":...,
///                      "buckets":[{"le":bound,"count":n},...]}}}
/// The final bucket's "le" is the string "+Inf".
std::string metrics_json(const Snapshot& snapshot);
std::string metrics_json();  ///< of Registry::global()

/// Prometheus exposition text: "# HELP" + "# TYPE" per metric, names
/// sanitized (dots -> underscores; the HELP text carries the original
/// dotted name), histograms as cumulative _bucket series plus _sum and
/// _count. Byte-stable for a given snapshot (fixture-tested).
std::string prometheus_text(const Snapshot& snapshot);
std::string prometheus_text();  ///< of Registry::global()

/// Write `size` bytes to `path` whole, replacing any file there; false on
/// an open, write or close failure. Every whole-file writer (exports,
/// journal, trace, incident dump, checkpoint file) goes through it; only
/// the checkpoint streamer's commit, which must fsync before its rename,
/// has its own path.
bool write_file(const std::string& path, const void* data, std::size_t size);

}  // namespace tdp::obs
