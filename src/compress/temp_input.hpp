#pragma once
// Compressed temporary alignment input (paper §V-A).
//
// cal_p_matrix must read the whole alignment stream once to build the score
// matrix; read_site then reads the same data again window by window.  The
// two reads cannot be merged, but GSNP has the first pass write the records
// to a *compressed temporary file* that the second pass reads at roughly a
// third of the text size.  Read identifiers are not stored — no downstream
// computation consumes them (records reconstructed from the temporary file
// carry empty ids).
//
// Chunked columnar format per chunk of records:
//   varint n, varint first position, delta-varint positions,
//   dict lengths, strand/pair bit arrays, RLE-DICT hit counts,
//   2-bit packed bases + sparse 'N' exceptions, RLE-DICT qualities.
//
// File layout: 8-byte magic, varint(name length), name bytes, then chunks of
// [varint chunk bytes][chunk payload][4-byte LE CRC-32 of the payload].
// Container version 2 ("GSNPTMP2") added the trailing chunk CRC so a corrupt
// temporary file fails fast instead of feeding garbage records to read_site;
// version-1 files are rejected by the magic check.

#include <filesystem>
#include <span>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/compress/codecs.hpp"
#include "src/reads/alignment.hpp"

namespace gsnp::compress {

/// One chunk's columns, staged record by record without copying records:
/// varint positions, lengths, strand/pair flags, hit counts, 2-bit packed
/// bases with the 'N' positions, and the quality runs.
class ChunkColumns {
 public:
  void add(const reads::AlignmentRecord& rec);
  u64 records() const { return lengths_.size(); }
  /// The chunk payload (format above); leaves the columns empty.
  std::vector<u8> encode();

 private:
  std::vector<u8> positions_;  ///< varint first position, then deltas
  u64 last_pos_ = 0;
  std::vector<u32> lengths_;
  std::vector<u8> strands_;    ///< 1 = reverse
  std::vector<u8> pair_tags_;  ///< 1 = 'b'
  std::vector<u32> hits_;
  std::vector<u8> packed_bases_;  ///< pack_bases payload ('N' packed as 0)
  u64 n_bases_ = 0;
  std::vector<u64> n_positions_;  ///< base indices of the 'N's
  RunDecomposition qual_runs_;
};

/// Encode one chunk of records (exposed for tests and the Fig 10b bench).
std::vector<u8> encode_alignment_chunk(
    std::span<const reads::AlignmentRecord> records);
std::vector<reads::AlignmentRecord> decode_alignment_chunk(
    std::span<const u8> data, const std::string& chr_name);

inline constexpr char kTempMagic[8] = {'G', 'S', 'N', 'P', 'T', 'M', 'P', '2'};

/// Streaming writer: buffers records into fixed-size chunks.
class TempInputWriter {
 public:
  TempInputWriter(const std::filesystem::path& path, std::string chr_name,
                  u32 chunk_records = 4096);

  void add(const reads::AlignmentRecord& rec);
  /// Flush the tail chunk and return total bytes written.
  u64 finish();

 private:
  void flush_chunk();

  std::ofstream out_;
  std::filesystem::path path_;  ///< for fault routing + error messages
  std::string chr_name_;
  u32 chunk_records_;
  ChunkColumns buffer_;
  u64 bytes_ = 0;
};

/// Streaming reader yielding records in file order.
class TempInputReader {
 public:
  explicit TempInputReader(const std::filesystem::path& path);

  std::optional<reads::AlignmentRecord> next();

 private:
  bool load_chunk();

  std::ifstream in_;
  std::string chr_name_;
  std::vector<reads::AlignmentRecord> chunk_;
  std::size_t cursor_ = 0;
};

}  // namespace gsnp::compress
