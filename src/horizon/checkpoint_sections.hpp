// Internal: the checkpoint's section tags. Each section is self-contained
// — tag, byte length, fields — and its fields are one field list in
// checkpoint.cpp (DESIGN.md §12), which encode() and decode() both run, so
// the writer and the reader cannot disagree on a layout.
#pragma once

#include <cstdint>

namespace tdp::horizon::detail {

/// Section tags. v1 files carry 1..12 (12 only for non-default mechanism
/// runs); v2 adds kSecStorm and kSecIncident, which v1 readers skip under
/// the unknown-tag policy. The writer always emits v2, in tag order, and
/// never kSecObs.
enum SectionTag : std::uint32_t {
  kSecConfig = 1,
  kSecClock = 2,
  kSecRings = 3,
  kSecChannel = 4,
  kSecFanout = 5,
  kSecGuard = 6,
  kSecPricer = 7,
  kSecWindow = 8,
  kSecDays = 9,
  kSecPartial = 10,
  // Retired: the process-wide counter table older writers emitted. The
  // reader skips it wherever it appears; the tag must never be reused.
  kSecObs = 11,
  // Mechanism config echo and state. Always written; a file without it
  // (pre-arena v1) decodes as TubeOnline with no adaptation.
  kSecMech = 12,
  // v2: storm-regime echo, guard carry floor, health-gate knobs and state,
  // and the per-day health extras. Always written. Must follow
  // kSecDays/kSecPartial (its per-day arrays index into them).
  kSecStorm = 13,
  // v2 only, written only when the incident engine is enabled: the
  // engine's config echo and complete state (obs/incident/incident.hpp's
  // config_echo_fields + state_fields), then the day's running channel
  // fallback count.
  kSecIncident = 14,
};

}  // namespace tdp::horizon::detail
