// Internal: the checkpoint's section inventory, shared by the
// stop-the-world encoder (checkpoint.cpp) and the incremental streamer
// (checkpoint_stream.cpp).
//
// Each section is self-contained — tag, byte length, fields — so the two
// writers can produce identical bytes by construction: encode() writes
// every present section through one Writer; the streamer encodes each
// present section through its own Writer, caches the chunks, and frames
// their concatenation. Keeping the inventory (order, presence, dirtiness)
// in one place is what makes "streamed bytes == encode(checkpoint())" a
// structural property instead of a test-enforced coincidence. Each
// section's fields are one field list in checkpoint.cpp (DESIGN.md §12),
// which write_section, encode() and decode() all run, so the writers and
// the reader cannot disagree on a layout either.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/serialize.hpp"
#include "horizon/checkpoint.hpp"

namespace tdp::horizon::detail {

/// Section tags. v1 files carry 1..12 (12 only for non-default mechanism
/// runs); v2 adds kSecStorm and kSecIncident, which v1 readers skip under
/// the unknown-tag policy. The writer always emits v2.
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

/// Canonical write order (encode() and the streamer must agree).
inline constexpr SectionTag kSectionOrder[] = {
    kSecConfig, kSecClock,  kSecRings,  kSecChannel, kSecFanout,
    kSecGuard,  kSecPricer, kSecWindow, kSecDays,    kSecPartial,
    kSecObs,    kSecMech,   kSecStorm,  kSecIncident,
};
inline constexpr std::size_t kSectionCount =
    sizeof(kSectionOrder) / sizeof(kSectionOrder[0]);

/// Whether this checkpoint writes `tag` at all (only kSecIncident is
/// conditional: its state exists only when the engine is on).
bool section_present(SectionTag tag, const CheckpointData& data);

/// Encode exactly one tagged section — begin_section through end_section —
/// into `w`.
void write_section(ser::Writer& w, SectionTag tag, const CheckpointData& data);

/// True when the section's bytes can change between two period-boundary
/// commits inside the same day. False means only a day rollover (settle,
/// estimation, adaptation) can dirty it — the streamer reuses the cached
/// chunk for mid-day commits.
bool section_dirty_within_day(SectionTag tag);

}  // namespace tdp::horizon::detail
