#pragma once
// The frame container of the compressed SNP output (GSNPOUT2, FORMATS.md
// §5) and of the compressed temporary input (GSNPTMP2, §6), and the only
// code that reads or writes its framing:
//
//   magic   8 bytes naming the format and its container version
//   name    varint byte count, then the sequence name
//   frames  until end of file: varint payload bytes, the payload, then the
//           payload's CRC-32 as 4 little-endian bytes
//
// A file that ends between two frames reads as complete.  One that ends
// anywhere else (inside the header, a frame's size varint, its payload or
// its CRC) is truncated and raises gsnp::Error, as does a CRC mismatch.
// Version 2 of both formats added the frame CRC; version-1 files fail the
// magic check.

#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.hpp"

namespace gsnp::compress {

/// A container's 8-byte magic (core::kOutputMagic, compress::kTempMagic).
using Magic = char[8];

/// Does the file start with `magic`?  Raises gsnp::Error if it cannot be
/// opened.
bool has_magic(const std::filesystem::path& path, const Magic& magic);

/// One frame's bytes as written: varint payload bytes, the payload, then
/// its CRC-32 as 4 little-endian bytes.  Any thread can build one, e.g.
/// next to the payload's encode on the compute executor.
std::vector<u8> make_frame(std::span<const u8> payload);

/// Writes the header on open, then one fault-checked write per frame.
class FrameWriter {
 public:
  FrameWriter(const std::filesystem::path& path, const Magic& magic,
              std::string_view name);

  /// Append one [size][payload][CRC] frame in a single fsfault::write:
  /// either the whole frame goes out or a typed FsFaultError fires (a
  /// short-write fault can still tear it on disk; the reader catches that).
  void write(std::span<const u8> payload);
  /// Append a make_frame result the same way.
  void write_frame(std::span<const u8> frame);
  /// Flush and close; returns the bytes written, header included.
  u64 finish();

 private:
  void put(std::span<const u8> bytes);

  std::ofstream out_;
  std::filesystem::path path_;  ///< for fault routing and error messages
  u64 bytes_ = 0;
};

/// Checks the magic and reads the header on open, then yields frames.
class FrameReader {
 public:
  FrameReader(const std::filesystem::path& path, const Magic& magic);

  const std::string& name() const { return name_; }

  /// The next frame's payload, CRC-checked; false at a clean end of file.
  bool next(std::vector<u8>& payload);

  /// Range queries: peek() starts the next frame and reads at most `n`
  /// leading bytes of its payload, unchecked (false at a clean end of
  /// file).  Then read_rest() completes that payload and checks its CRC, or
  /// skip_rest() seeks past the frame without reading or checking it.
  bool peek(std::size_t n, std::vector<u8>& payload);
  void read_rest(std::vector<u8>& payload);
  void skip_rest();

 private:
  bool read_varint(u64& value);
  void read_exact(void* dst, u64 bytes);

  std::ifstream in_;
  std::filesystem::path path_;
  u64 file_bytes_ = 0;
  u64 offset_ = 0;       ///< bytes consumed so far
  u64 frame_bytes_ = 0;  ///< the open frame's payload size
  u64 frame_end_ = 0;    ///< the open frame's end offset, CRC included
  std::string name_;
};

}  // namespace gsnp::compress
