// Versioned, byte-stable binary serialization for checkpoint/restore.
//
// Long-horizon runs must be able to kill a process mid-day and restore it
// bit-identically, which makes the on-disk encoding part of the system's
// determinism contract. The format here is therefore explicit about
// everything a compiler or platform could otherwise choose for us:
//
//   * all integers are little-endian, written byte by byte;
//   * doubles are written as the little-endian bytes of their IEEE-754
//     bit pattern (std::bit_cast to uint64_t) — bitwise round-trip, no
//     textual conversion;
//   * every payload starts with a magic/version header and ends under a
//     CRC-32 so a truncated or bit-flipped file is *detected*, never
//     trusted;
//   * content is framed into tagged sections (tag + byte length) so future
//     versions can add sections old readers skip and old files stay
//     loadable under the documented compatibility policy (DESIGN.md §12).
//
// The Reader is written for hostile input: every read is bounds-checked,
// vector lengths are validated against the bytes actually remaining before
// any allocation, and all failures throw FormatError — a corrupt checkpoint
// must produce a clean error, never UB or an OOM crash (enforced by the
// corruption fuzz tests in tests/test_serialize.cpp).
//
// Field lists: a record's byte layout is one template over the codec,
//
//   template <class IO, class Record>  // Record is const when IO = Writer
//   void fields(IO& io, Record& r) { io.u64(r.day); io.flags(r.a, r.b); }
//
// run with a Writer and a const record it encodes; run with a Reader and a
// mutable one it decodes and validates. Writer and Reader therefore share
// the calls below: scalars and vectors (the Reader's take a reference to
// fill), list / enumerated / flags, and check. Bounds and checks bind only
// on read. The rare reader-only step branches on IO::kReading.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace tdp::ser {

/// Thrown on any structural problem with serialized bytes: bad magic,
/// unsupported version, truncation, CRC mismatch, implausible lengths,
/// non-finite values where finite ones are required.
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) over `size` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Append-only little-endian encoder. finish() frames the accumulated
/// payload with the magic/version header and trailing CRC.
class Writer {
 public:
  /// @param magic   4-byte format identifier (e.g. "TDPC").
  /// @param version format version written into the header.
  Writer(std::string_view magic, std::uint32_t version);

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const std::uint8_t* data, std::size_t size);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);
  /// Length-prefixed (u64 count) vector of doubles. The count bound (and,
  /// for vec_f64_finite, the finiteness check) binds on read only.
  void vec_f64(const std::vector<double>& v, std::size_t max_count = SIZE_MAX);
  void vec_f64_finite(const std::vector<double>& v,
                      std::size_t max_count = SIZE_MAX) {
    vec_f64(v, max_count);
  }
  /// Length-prefixed (u64 count) vector of u64.
  void vec_u64(const std::vector<std::uint64_t>& v,
               std::size_t max_count = SIZE_MAX);

  // -- field-list calls (see the header comment) --------------------------
  static constexpr bool kReading = false;
  /// u64 count, then each(element) per element.
  template <class T, class Each>
  void list(const std::vector<T>& v, std::size_t /*max_count*/, Each&& each) {
    u64(v.size());
    for (const T& element : v) each(element);
  }
  /// An enum (or enum-like integer) as the `Wire` integer type.
  template <class Wire, class E>
  void enumerated(E e, std::int64_t /*lo*/, std::int64_t /*hi*/) {
    put(static_cast<Wire>(e));
  }
  /// Up to eight bools packed into one byte, the first in bit 0.
  template <class... Bits>
  void flags(Bits... bits) {
    static_assert(sizeof...(Bits) <= 8, "one flag byte holds eight bits");
    unsigned packed = 0;
    unsigned bit = 1;
    ((packed |= static_cast<bool>(bits) ? bit : 0u, bit <<= 1), ...);
    u8(static_cast<std::uint8_t>(packed));
  }
  void check(bool /*ok*/, const char* /*what*/) {}

  /// Open a tagged section; returns a token for end_section. Sections may
  /// not nest (one level of framing keeps corrupt lengths easy to bound).
  std::size_t begin_section(std::uint32_t tag);
  /// Close the section opened by begin_section, patching its byte length.
  void end_section(std::size_t token);

  /// Header + payload + CRC as one buffer. The Writer is spent afterwards.
  std::vector<std::uint8_t> finish();

  /// The accumulated payload alone — no header, no CRC; the Writer is
  /// spent afterwards. frame() of it is what finish() would have returned.
  std::vector<std::uint8_t> take_payload();

  /// Assemble header + `payload` + CRC exactly as finish() would.
  static std::vector<std::uint8_t> frame(
      std::string_view magic, std::uint32_t version,
      const std::vector<std::uint8_t>& payload);

 private:
  // enumerated's wire types.
  void put(std::uint8_t v) { u8(v); }
  void put(std::uint32_t v) { u32(v); }
  void put(std::int64_t v) { i64(v); }

  std::vector<std::uint8_t> payload_;
  std::uint8_t magic_[4];
  std::uint32_t version_;
  bool in_section_ = false;
  bool finished_ = false;
};

/// Bounds-checked little-endian decoder over a framed buffer produced by
/// Writer::finish(). The constructor validates magic, version range, total
/// length, and CRC before any field access.
class Reader {
 public:
  /// @param min_version..max_version inclusive supported version range.
  Reader(const std::uint8_t* data, std::size_t size, std::string_view magic,
         std::uint32_t min_version, std::uint32_t max_version);
  Reader(const std::vector<std::uint8_t>& data, std::string_view magic,
         std::uint32_t min_version, std::uint32_t max_version)
      : Reader(data.data(), data.size(), magic, min_version, max_version) {}

  std::uint32_t version() const { return version_; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  /// Vector of doubles; `max_count` bounds the allocation (defaults to the
  /// count the remaining bytes could actually hold, so a corrupt length can
  /// never drive an over-allocation).
  std::vector<double> vec_f64(std::size_t max_count = SIZE_MAX);
  /// As vec_f64 but every element must be finite (FormatError otherwise).
  std::vector<double> vec_f64_finite(std::size_t max_count = SIZE_MAX);
  std::vector<std::uint64_t> vec_u64(std::size_t max_count = SIZE_MAX);

  // -- field-list calls (see the header comment) --------------------------
  // Each fills its argument, so one field list runs for both directions.
  static constexpr bool kReading = true;
  void u8(std::uint8_t& v) { v = u8(); }
  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void i64(std::int64_t& v) { v = i64(); }
  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  void str(std::string& s) { s = str(); }
  void vec_f64(std::vector<double>& v, std::size_t max_count = SIZE_MAX) {
    v = vec_f64(max_count);
  }
  void vec_f64_finite(std::vector<double>& v,
                      std::size_t max_count = SIZE_MAX) {
    v = vec_f64_finite(max_count);
  }
  void vec_u64(std::vector<std::uint64_t>& v,
               std::size_t max_count = SIZE_MAX) {
    v = vec_u64(max_count);
  }
  /// u64 count — at most `max_count` and at most the bytes remaining (every
  /// element takes at least one) — then `v` resized and each(element).
  template <class T, class Each>
  void list(std::vector<T>& v, std::size_t max_count, Each&& each) {
    const std::uint64_t count = u64();
    if (count > max_count || count > remaining()) {
      throw FormatError("list length " + std::to_string(count) +
                        " is implausible");
    }
    v.resize(static_cast<std::size_t>(count));
    for (T& element : v) each(element);
  }
  /// A `Wire` integer that must lie in [lo, hi], cast to E.
  template <class Wire, class E>
  void enumerated(E& e, std::int64_t lo, std::int64_t hi) {
    Wire wire{};
    get(wire);
    const auto raw = static_cast<std::int64_t>(wire);
    if (raw < lo || raw > hi) {
      throw FormatError("enumerated value " + std::to_string(raw) +
                        " outside [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "]");
    }
    e = static_cast<E>(raw);
  }
  /// One byte of packed bools; bits past the last flag must be clear.
  template <class... Bits>
  void flags(Bits&... bits) {
    static_assert(sizeof...(Bits) <= 8, "one flag byte holds eight bits");
    const std::uint8_t packed = u8();
    if ((packed >> sizeof...(Bits)) != 0) {
      throw FormatError("flag byte " + std::to_string(packed) +
                        " has unknown bits set");
    }
    unsigned bit = 1;
    ((bits = (packed & bit) != 0, bit <<= 1), ...);
  }
  void check(bool ok, const char* what) {
    if (!ok) throw FormatError(what);
  }

  /// Read the next section header; returns its tag and enters the section.
  /// The section's byte length is validated against the remaining payload.
  std::uint32_t begin_section();
  /// Leave the current section: requires all its bytes were consumed
  /// (strict framing — trailing garbage inside a section is corruption).
  void end_section();
  /// Skip the rest of the current section (forward compatibility).
  void skip_section();

  /// Bytes left in the current section (or whole payload outside one).
  std::size_t remaining() const;
  /// True when the whole payload has been consumed.
  bool at_end() const { return pos_ == payload_end_; }

 private:
  void need(std::size_t n) const;
  // enumerated's wire types.
  void get(std::uint8_t& v) { v = u8(); }
  void get(std::uint32_t& v) { v = u32(); }
  void get(std::int64_t& v) { v = i64(); }

  const std::uint8_t* data_;
  std::size_t pos_ = 0;
  std::size_t payload_end_ = 0;
  std::size_t section_end_ = 0;
  bool in_section_ = false;
  std::uint32_t version_ = 0;
};

}  // namespace tdp::ser
