#include "common/serialize.hpp"

#include <bit>
#include <cmath>
#include <cstring>

namespace tdp::ser {
namespace {

/// Header layout: magic[4] | version u32 | payload_size u64. The CRC-32 of
/// the payload follows the payload itself.
constexpr std::size_t kHeaderSize = 4 + 4 + 8;
constexpr std::size_t kCrcSize = 4;

std::uint32_t crc_table_entry(std::uint32_t i) {
  std::uint32_t c = i;
  for (int k = 0; k < 8; ++k) {
    c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
  }
  return c;
}

const std::uint32_t* crc_table() {
  static const auto table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) t[i] = crc_table_entry(i);
    return t;
  }();
  return table;
}

void put_u32_at(std::vector<std::uint8_t>& buf, std::size_t at,
                std::uint32_t v) {
  buf[at + 0] = static_cast<std::uint8_t>(v);
  buf[at + 1] = static_cast<std::uint8_t>(v >> 8);
  buf[at + 2] = static_cast<std::uint8_t>(v >> 16);
  buf[at + 3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const std::uint32_t* table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Writer::Writer(std::string_view magic, std::uint32_t version)
    : version_(version) {
  TDP_REQUIRE(magic.size() == 4, "format magic must be exactly 4 bytes");
  std::memcpy(magic_, magic.data(), 4);
}

void Writer::u8(std::uint8_t v) { payload_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::bytes(const std::uint8_t* data, std::size_t size) {
  payload_.insert(payload_.end(), data, data + size);
}

void Writer::str(std::string_view s) {
  TDP_REQUIRE(s.size() <= 0xFFFFFFFFu, "string too long to serialize");
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void Writer::vec_f64(const std::vector<double>& v, std::size_t) {
  u64(v.size());
  for (double x : v) f64(x);
}

void Writer::vec_u64(const std::vector<std::uint64_t>& v, std::size_t) {
  u64(v.size());
  for (std::uint64_t x : v) u64(x);
}

std::size_t Writer::begin_section(std::uint32_t tag) {
  TDP_REQUIRE(!in_section_, "sections do not nest");
  in_section_ = true;
  u32(tag);
  const std::size_t token = payload_.size();
  u32(0);  // length placeholder, patched by end_section
  return token;
}

void Writer::end_section(std::size_t token) {
  TDP_REQUIRE(in_section_, "no open section");
  in_section_ = false;
  const std::size_t length = payload_.size() - token - 4;
  TDP_REQUIRE(length <= 0xFFFFFFFFu, "section too large");
  put_u32_at(payload_, token, static_cast<std::uint32_t>(length));
}

std::vector<std::uint8_t> Writer::finish() {
  TDP_REQUIRE(!finished_, "Writer::finish is single-shot");
  TDP_REQUIRE(!in_section_, "unclosed section at finish");
  finished_ = true;
  return frame(std::string_view(reinterpret_cast<const char*>(magic_), 4),
               version_, payload_);
}

std::vector<std::uint8_t> Writer::take_payload() {
  TDP_REQUIRE(!finished_, "Writer::take_payload is single-shot");
  TDP_REQUIRE(!in_section_, "unclosed section at take_payload");
  finished_ = true;
  return std::move(payload_);
}

std::vector<std::uint8_t> Writer::frame(
    std::string_view magic, std::uint32_t version,
    const std::vector<std::uint8_t>& payload) {
  TDP_REQUIRE(magic.size() == 4, "format magic must be exactly 4 bytes");
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size() + kCrcSize);
  out.resize(kHeaderSize);
  std::memcpy(out.data(), magic.data(), 4);
  put_u32_at(out, 4, version);
  const std::uint64_t size = payload.size();
  for (int i = 0; i < 8; ++i) {
    out[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(size >> (8 * i));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  out.resize(out.size() + kCrcSize);
  put_u32_at(out, out.size() - kCrcSize, crc);
  return out;
}

Reader::Reader(const std::uint8_t* data, std::size_t size,
               std::string_view magic, std::uint32_t min_version,
               std::uint32_t max_version)
    : data_(data) {
  TDP_REQUIRE(magic.size() == 4, "format magic must be exactly 4 bytes");
  if (data == nullptr || size < kHeaderSize + kCrcSize) {
    throw FormatError("serialized buffer truncated: no room for header");
  }
  if (std::memcmp(data, magic.data(), 4) != 0) {
    throw FormatError("bad magic: not a " + std::string(magic) + " buffer");
  }
  version_ = static_cast<std::uint32_t>(data[4]) |
             static_cast<std::uint32_t>(data[5]) << 8 |
             static_cast<std::uint32_t>(data[6]) << 16 |
             static_cast<std::uint32_t>(data[7]) << 24;
  if (version_ < min_version || version_ > max_version) {
    throw FormatError("unsupported format version " +
                      std::to_string(version_));
  }
  std::uint64_t payload_size = 0;
  for (int i = 0; i < 8; ++i) {
    payload_size |= static_cast<std::uint64_t>(data[8 + i]) << (8 * i);
  }
  if (payload_size != size - kHeaderSize - kCrcSize) {
    throw FormatError("payload length mismatch: header says " +
                      std::to_string(payload_size) + ", buffer holds " +
                      std::to_string(size - kHeaderSize - kCrcSize));
  }
  pos_ = kHeaderSize;
  payload_end_ = kHeaderSize + static_cast<std::size_t>(payload_size);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(data[payload_end_ + i]) << (8 * i);
  }
  const std::uint32_t actual =
      crc32(data + kHeaderSize, static_cast<std::size_t>(payload_size));
  if (stored != actual) {
    throw FormatError("payload CRC mismatch: corrupt or truncated buffer");
  }
}

void Reader::need(std::size_t n) const {
  const std::size_t end = in_section_ ? section_end_ : payload_end_;
  if (n > end - pos_) {
    throw FormatError("serialized buffer truncated: need " +
                      std::to_string(n) + " bytes, " +
                      std::to_string(end - pos_) + " remain");
  }
}

std::size_t Reader::remaining() const {
  return (in_section_ ? section_end_ : payload_end_) - pos_;
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw FormatError("boolean field holds " + std::to_string(v));
  return v == 1;
}

std::string Reader::str() {
  const std::uint32_t size = u32();
  need(size);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), size);
  pos_ += size;
  return s;
}

std::vector<double> Reader::vec_f64(std::size_t max_count) {
  const std::uint64_t count = u64();
  // Validate against the bytes actually present *before* allocating: a
  // corrupt count must fail cleanly, never drive a multi-GB resize.
  if (count > remaining() / 8 || count > max_count) {
    throw FormatError("vector length " + std::to_string(count) +
                      " exceeds remaining payload");
  }
  std::vector<double> v(static_cast<std::size_t>(count));
  for (double& x : v) x = f64();
  return v;
}

std::vector<double> Reader::vec_f64_finite(std::size_t max_count) {
  std::vector<double> v = vec_f64(max_count);
  for (double x : v) {
    if (!std::isfinite(x)) {
      throw FormatError("non-finite value in serialized vector");
    }
  }
  return v;
}

std::vector<std::uint64_t> Reader::vec_u64(std::size_t max_count) {
  const std::uint64_t count = u64();
  if (count > remaining() / 8 || count > max_count) {
    throw FormatError("vector length " + std::to_string(count) +
                      " exceeds remaining payload");
  }
  std::vector<std::uint64_t> v(static_cast<std::size_t>(count));
  for (std::uint64_t& x : v) x = u64();
  return v;
}

std::uint32_t Reader::begin_section() {
  if (in_section_) {
    throw FormatError("sections do not nest");
  }
  const std::uint32_t tag = u32();
  const std::uint32_t length = u32();
  if (length > payload_end_ - pos_) {
    throw FormatError("section length " + std::to_string(length) +
                      " exceeds remaining payload");
  }
  section_end_ = pos_ + length;
  in_section_ = true;
  return tag;
}

void Reader::end_section() {
  if (!in_section_) throw FormatError("end_section outside a section");
  if (pos_ != section_end_) {
    throw FormatError("section has " + std::to_string(section_end_ - pos_) +
                      " unconsumed bytes");
  }
  in_section_ = false;
}

void Reader::skip_section() {
  if (!in_section_) throw FormatError("skip_section outside a section");
  pos_ = section_end_;
  in_section_ = false;
}

}  // namespace tdp::ser
