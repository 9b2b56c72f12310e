// Byte surgery on framed codec buffers (common/serialize.hpp), shared by the
// checkpoint and incident-dump validator tests.
//
// The CRC-32 trailer rejects any patched byte before a field validator can
// see it. A test that wants a validator to judge a hostile value patches the
// payload and re-seals the frame with ser::Writer::frame.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "gtest/gtest.h"

namespace tdp::reframe {

/// Frame layout: magic[4] | version u32 | payload size u64 | payload | CRC.
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kCrcBytes = 4;

/// The frame's payload, header and CRC stripped.
inline std::vector<std::uint8_t> payload(
    const std::vector<std::uint8_t>& bytes) {
  return {bytes.begin() + kHeaderBytes, bytes.end() - kCrcBytes};
}

/// Re-frame `payload` under the magic and version of `like`, with a fresh
/// size and CRC.
inline std::vector<std::uint8_t> seal(const std::vector<std::uint8_t>& like,
                                      const std::vector<std::uint8_t>& body) {
  const std::uint32_t version =
      static_cast<std::uint32_t>(like[4]) |
      static_cast<std::uint32_t>(like[5]) << 8 |
      static_cast<std::uint32_t>(like[6]) << 16 |
      static_cast<std::uint32_t>(like[7]) << 24;
  return ser::Writer::frame(
      std::string_view(reinterpret_cast<const char*>(like.data()), 4),
      version, body);
}

/// `bytes` with its CRC recomputed over the (possibly patched) payload.
inline std::vector<std::uint8_t> reseal(const std::vector<std::uint8_t>& bytes) {
  return seal(bytes, payload(bytes));
}

/// `b` with the first payload byte where it differs from `a` set to
/// `value`, re-sealed. Encoding one record twice with one field toggled
/// locates that field's byte without spelling out the layout.
inline std::vector<std::uint8_t> patch_first_difference(
    const std::vector<std::uint8_t>& a, std::vector<std::uint8_t> b,
    std::uint8_t value) {
  const std::size_t end = std::min(a.size(), b.size()) - kCrcBytes;
  for (std::size_t i = kHeaderBytes; i < end; ++i) {
    if (a[i] != b[i]) {
      b[i] = value;
      return reseal(b);
    }
  }
  ADD_FAILURE() << "the two encodings do not differ";
  return b;
}

/// Byte range [begin, end) of the whole tagged section `tag` (header
/// included) inside framed `bytes`; {0, 0} when absent.
inline std::pair<std::size_t, std::size_t> section_span(
    const std::vector<std::uint8_t>& bytes, std::uint32_t tag) {
  const auto u32_at = [&bytes](std::size_t at) {
    return static_cast<std::uint32_t>(bytes[at]) |
           static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[at + 3]) << 24;
  };
  std::size_t at = kHeaderBytes;
  while (at + 8 <= bytes.size() - kCrcBytes) {
    const std::size_t end = at + 8 + u32_at(at + 4);
    if (u32_at(at) == tag) return {at, end};
    at = end;
  }
  return {0, 0};
}

}  // namespace tdp::reframe
