// Framed files (DESIGN.md §14): one CRC-checked body behind an 8-byte
// magic, published atomically. Store snapshots ("FAUCSNP\x01") and
// whole-simulation checkpoints ("FAUCCKP\x01") are both framed files.
//
// File layout:
//
//   magic[8] | u32 length | u32 CRC-32 of the body | body[length]
#pragma once

#include <string>
#include <string_view>

namespace faucets::store {

/// Write `magic`, the frame and `body` to `path`.tmp with a POSIX write
/// loop, fsync it, rename it onto `path` and fsync the directory, so a
/// crash leaves either the old file or the whole new one. `magic` is 8
/// bytes. Throws std::runtime_error naming the file.
void write_framed_file(const std::string& path, std::string_view magic,
                       std::string_view body);

/// What read_framed_file found.
enum class FrameCheck {
  kOk,
  kMissing,    // the file cannot be opened
  kNotFramed,  // shorter than a frame header, or another magic
  kCorrupt,    // torn, or the CRC does not match
};

/// Read `path` and check it against `magic`; on kOk, `body` holds the
/// framed body, otherwise it is cleared.
[[nodiscard]] FrameCheck read_framed_file(const std::string& path,
                                          std::string_view magic, std::string& body);

}  // namespace faucets::store
