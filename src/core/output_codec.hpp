#pragma once
// Compressed SNP output (paper §V-B) and the plain-text writer it replaces.
//
// The output table is compressed column-by-column per window:
//   cols 1-2  : sequence name once per file; positions are consecutive within
//               a window, so a window stores only (start, count)
//   col 3     : reference base, 2 bits each + sparse 'N' exception list
//   col 4     : consensus genotype as exceptions against the predicted
//               homozygous-reference genotype (SNPs are rare)
//   cols 10-13: second-allele columns, stored sparse (non-zero entries only)
//   cols 5,7,8,9,14,16: the six quality-related columns, RLE-DICT
//   col 6     : best base, 2 bits + 'N' exceptions
//   col 15    : rank-sum p on the 1e-4 grid, dictionary-quantized
//   col 17    : dbSNP flag, sparse
//
// The file is a frame container (compress/container.hpp) with the magic
// "GSNPOUT2"; each frame is one window.  Decompression is a sequential
// in-memory pass per window — the access pattern downstream tools use
// (paper §V-B last paragraph); SnpOutputReader is that tool API.  Range
// queries still skip non-overlapping frames without reading them (the CRC
// is only checked on frames actually decompressed).
//
// Each column is encoded into its own buffer on the compute executor, and
// the buffers are joined in frame order.  The RLE-DICT step is pluggable so
// the GSNP engine can route those columns through the device kernels
// (compress::device_encode_rle_dict) while producing byte-identical files
// to the host path; a pluggable encoder runs on the calling thread, in
// column order.

#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.hpp"
#include "src/compress/container.hpp"
#include "src/core/snp_row.hpp"

namespace gsnp::core {

/// Signature of the RLE-DICT column encoder (host or device-backed).
using RleDictFn =
    std::function<void(std::span<const u32>, std::vector<u8>&)>;

/// The default host RLE-DICT encoder (compress::encode_rle_dict).
RleDictFn host_rle_dict();

/// Compress one window of rows into a self-contained frame payload with the
/// host codecs, every column group an executor task.
std::vector<u8> compress_snp_window(std::span<const SnpRow> rows);
/// The same frame with `rle_dict` encoding the five RLE-DICT columns on the
/// calling thread, in column order.
std::vector<u8> compress_snp_window(std::span<const SnpRow> rows,
                                    const RleDictFn& rle_dict);

/// Decompress a frame payload produced by compress_snp_window.
std::vector<SnpRow> decompress_snp_window(std::span<const u8> data);

inline constexpr char kOutputMagic[8] = {'G', 'S', 'N', 'P',
                                         'O', 'U', 'T', '2'};

/// Streaming writer of the compressed output file.
class SnpOutputWriter {
 public:
  SnpOutputWriter(const std::filesystem::path& path, std::string seq_name);

  void write_window(std::span<const SnpRow> rows);
  void write_window(std::span<const SnpRow> rows, const RleDictFn& rle_dict);
  /// Append one compress_snp_window payload as the next frame.
  void write_frame(std::span<const u8> payload);
  /// Flush and report total bytes written.
  u64 finish();

 private:
  compress::FrameWriter frames_;
};

/// Streaming reader (the decompression API shipped with GSNP).
class SnpOutputReader {
 public:
  explicit SnpOutputReader(const std::filesystem::path& path);

  const std::string& seq_name() const { return frames_.name(); }

  /// Read and decompress the next window; false at EOF.
  bool next_window(std::vector<SnpRow>& rows);

 private:
  compress::FrameReader frames_;
};

/// Plain-text output (the SOAPsnp format), one row per line.
class SnpTextWriter {
 public:
  SnpTextWriter(const std::filesystem::path& path, std::string seq_name);

  /// write(format(rows)).
  void write_window(std::span<const SnpRow> rows);
  /// The rows' lines.
  std::string format(std::span<const SnpRow> rows) const;
  /// Append formatted lines.
  void write(std::string_view lines);
  u64 finish();

 private:
  std::ofstream out_;
  std::filesystem::path path_;
  std::string seq_name_;
  u64 bytes_ = 0;
};

/// Read a whole plain-text output file (consistency checks, tests).
std::vector<SnpRow> read_snp_text_file(const std::filesystem::path& path,
                                       std::string& seq_name);

/// Read a whole compressed output file.
std::vector<SnpRow> read_snp_compressed_file(const std::filesystem::path& path,
                                             std::string& seq_name);

/// Range query on a compressed output file: rows with pos in [lo, hi).
/// Non-overlapping windows are *skipped without decompression* — every frame
/// leads with (row count, start position) varints, so the reader peeks those
/// and seeks past the payload (the "higher level applications ... query
/// sites satisfying certain conditions" use case of §V-B).
std::vector<SnpRow> read_snp_range(const std::filesystem::path& path, u64 lo,
                                   u64 hi, std::string& seq_name);

}  // namespace gsnp::core
