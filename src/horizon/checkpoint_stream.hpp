// Checkpoint files and torn-write recovery (DESIGN.md §14).
//
// Every checkpoint file is written by save_checkpoint_file
// (horizon/checkpoint.hpp): encode, write `path + ".tmp"`, flush and
// fsync, then std::rename over `path`. A crash at any point leaves the
// previous committed file, a torn or complete tmp beside it, or both.
// load_checkpoint_file_recover() sorts that out.
#pragma once

#include <string>

#include "horizon/checkpoint.hpp"

namespace tdp::horizon {

/// Torn-write-tolerant loader: try `path` and `path + ".tmp"`, reject
/// whichever fails validation (missing, truncated, CRC mismatch), and when
/// both parse prefer the later simulated clock (day, period) — a complete
/// tmp the crash beat to the rename is newer than the committed file; on
/// equal clocks the committed file wins. Throws tdp::Error when neither is
/// recoverable.
CheckpointData load_checkpoint_file_recover(const std::string& path);

}  // namespace tdp::horizon
