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
// The file is a frame container (compress/container.hpp) with the magic
// "GSNPTMP2", one frame per chunk, so a corrupt or truncated temporary file
// fails fast instead of feeding garbage records to read_site.

#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/compress/codecs.hpp"
#include "src/compress/container.hpp"
#include "src/reads/alignment.hpp"

namespace gsnp::compress {

/// Records per chunk (one frame each).  Chunk boundaries fall every
/// kTempChunkRecords records of the file, however the records were read.
inline constexpr u32 kTempChunkRecords = 4096;

/// One chunk's columns, staged record by record without copying records:
/// varint positions, lengths, strand/pair flags, hit counts, 2-bit packed
/// bases with the 'N' positions, and the quality runs.
class ChunkColumns {
 public:
  void add(const reads::AlignmentView& rec);
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

/// What a chunk payload's positions and lengths say: its record count, the
/// first record's position (when it has records) and its bases, the sum of
/// the read lengths.  decode_chunk_views fills 2 x bases bytes.
struct ChunkHead {
  u64 records = 0;
  u64 first_pos = 0;
  u64 bases = 0;
};
ChunkHead read_chunk_head(std::span<const u8> payload);

/// The chunk decoder: writes the payload's records into `records`, which
/// must hold exactly its ChunkHead::records entries, as AlignmentViews over
/// `bytes`, which it resizes to hold every record's bases, then every
/// record's qualities.  The views carry no read id and no sequence name.
/// Reusing `bytes` across chunks allocates only when a chunk outgrows it.
void decode_chunk_views(std::span<const u8> payload,
                        std::span<reads::AlignmentView> records,
                        std::vector<char>& bytes);

/// Encode one chunk of records (exposed for tests and the Fig 10b bench).
std::vector<u8> encode_alignment_chunk(
    std::span<const reads::AlignmentRecord> records);
/// decode_chunk_views copied into records named `chr_name`.
std::vector<reads::AlignmentRecord> decode_alignment_chunk(
    std::span<const u8> data, const std::string& chr_name);

inline constexpr char kTempMagic[8] = {'G', 'S', 'N', 'P', 'T', 'M', 'P', '2'};

/// Streaming writer: buffers records into fixed-size chunks.
class TempInputWriter {
 public:
  TempInputWriter(const std::filesystem::path& path, std::string chr_name,
                  u32 chunk_records = kTempChunkRecords);

  void add(const reads::AlignmentRecord& rec);
  /// Flush the tail chunk and return total bytes written.
  u64 finish();

 private:
  void flush_chunk();

  FrameWriter frames_;
  u32 chunk_records_;
  ChunkColumns buffer_;
};

/// Streaming reader yielding records in file order, each a copy of a
/// decode_chunk_views view.  The engines' window pass reads the file
/// through core::WindowLoader instead.
class TempInputReader {
 public:
  explicit TempInputReader(const std::filesystem::path& path);

  std::optional<reads::AlignmentRecord> next();

 private:
  FrameReader frames_;
  std::vector<u8> frame_;
  std::vector<reads::AlignmentView> views_;
  std::vector<char> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace gsnp::compress
