#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>

namespace tdp::obs {
namespace {

void append_number(std::string& out, std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%llu",
                static_cast<unsigned long long>(value));
  out += buffer;
}

/// The snapshot's counters in name order: both exporters' byte order.
std::vector<const Snapshot::CounterRow*> sorted_counters(
    const Snapshot& snapshot) {
  using Row = Snapshot::CounterRow;
  std::vector<const Row*> sorted;
  sorted.reserve(snapshot.counters.size());
  for (const Row& row : snapshot.counters) sorted.push_back(&row);
  std::sort(sorted.begin(), sorted.end(),
            [](const Row* a, const Row* b) { return a->name < b->name; });
  return sorted;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
/// taxonomy maps dots (and anything else) to underscores.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

std::string metrics_json(const Snapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto* row : sorted_counters(snapshot)) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += row->name;
    out += "\":";
    append_number(out, row->value);
  }
  out += "}}";
  return out;
}

std::string metrics_json() { return metrics_json(Registry::global().snapshot()); }

std::string prometheus_text(const Snapshot& snapshot) {
  std::string out;
  for (const auto* row : sorted_counters(snapshot)) {
    const std::string name = prometheus_name(row->name);
    // HELP text is the registry's dotted taxonomy name: deterministic (the
    // exposition bytes are fixture-tested) and it round-trips the original
    // name through the [a-zA-Z0-9_:] sanitization.
    out += "# HELP " + name + " TDP counter " + row->name + '\n';
    out += "# TYPE " + name + " counter\n" + name + ' ';
    append_number(out, row->value);
    out += '\n';
  }
  return out;
}

std::string prometheus_text() {
  return prometheus_text(Registry::global().snapshot());
}

void append_json_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

bool write_file(const std::string& path, const void* data, std::size_t size) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool complete = std::fwrite(data, 1, size, file) == size;
  const bool closed = std::fclose(file) == 0;
  return complete && closed;
}

}  // namespace tdp::obs
