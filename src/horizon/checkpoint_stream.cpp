#include "horizon/checkpoint_stream.hpp"

#include <cstdio>
#include <optional>
#include <utility>

#include <unistd.h>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace tdp::horizon {
namespace {

/// Write `bytes` to `path`, flushed and fsync'd, so the subsequent rename
/// publishes fully-durable content.
void write_file_durable(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw Error("cannot open checkpoint staging file: " + path);
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool ok = written == bytes.size() && std::fflush(f) == 0;
  if (ok) ok = ::fsync(fileno(f)) == 0;
  const int close_err = std::fclose(f);
  if (!ok || close_err != 0) {
    throw Error("short write to checkpoint staging file: " + path);
  }
}

std::optional<CheckpointData> try_load(const std::string& path) {
  try {
    return load_checkpoint_file(path);
  } catch (const Error&) {
    // Missing, unreadable, torn, truncated or corrupt — exactly what
    // recovery must tolerate.
    return std::nullopt;
  }
}

}  // namespace

CheckpointStream::CheckpointStream(std::string path)
    : path_(std::move(path)), chunks_(detail::kSectionCount) {
  TDP_REQUIRE(!path_.empty(), "checkpoint stream needs a path");
}

void CheckpointStream::commit(const CheckpointData& data, bool day_boundary) {
  // Refresh the dirty chunks. Each section is encoded through its own
  // Writer whose raw payload (no header/CRC) is exactly that section's
  // bytes — self-contained framing makes concatenation associative.
  const std::uint32_t version = detail::format_version_for(data);
  for (std::size_t i = 0; i < detail::kSectionCount; ++i) {
    const detail::SectionTag tag = detail::kSectionOrder[i];
    if (!detail::section_present(tag, data)) {
      chunks_[i].clear();
      continue;
    }
    const bool dirty = first_commit_ || day_boundary ||
                       detail::section_dirty_within_day(tag);
    if (!dirty && !chunks_[i].empty()) continue;
    ser::Writer w(kCheckpointMagic, version);
    detail::write_section(w, tag, data);
    chunks_[i] = w.take_payload();
    ++sections_reencoded_;
  }
  first_commit_ = false;

  std::size_t total = 0;
  for (const std::vector<std::uint8_t>& chunk : chunks_) {
    total += chunk.size();
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(total);
  for (const std::vector<std::uint8_t>& chunk : chunks_) {
    payload.insert(payload.end(), chunk.begin(), chunk.end());
  }
  const std::vector<std::uint8_t> framed =
      ser::Writer::frame(kCheckpointMagic, version, payload);

  // Atomic publish: stage, fsync, rename. POSIX rename replaces the
  // destination atomically, so readers only ever see the old file or the
  // new one — never a prefix of either.
  const std::string tmp = tmp_path();
  write_file_durable(tmp, framed);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw Error("cannot publish checkpoint: rename failed for " + path_);
  }
  ++commits_;
}

CheckpointData load_checkpoint_file_recover(const std::string& path) {
  std::optional<CheckpointData> committed = try_load(path);
  std::optional<CheckpointData> staged = try_load(path + ".tmp");
  if (committed.has_value() && staged.has_value()) {
    // Both complete: the crash landed between fsync and rename. Resume
    // from the later simulated clock; on a tie the committed file wins
    // (the tmp is then a byte-identical re-commit in flight).
    const bool staged_newer =
        staged->day > committed->day ||
        (staged->day == committed->day && staged->period > committed->period);
    return staged_newer ? std::move(*staged) : std::move(*committed);
  }
  if (committed.has_value()) return std::move(*committed);
  if (staged.has_value()) return std::move(*staged);
  throw Error("no recoverable checkpoint at " + path +
              " (committed and staged copies both unreadable)");
}

}  // namespace tdp::horizon
