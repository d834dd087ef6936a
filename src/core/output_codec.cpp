#include "src/core/output_codec.hpp"

#include <array>
#include <memory>

#include "src/common/bitio.hpp"
#include "src/common/error.hpp"
#include "src/common/fs_fault.hpp"
#include "src/common/parallel.hpp"
#include "src/compress/codecs.hpp"
#include "src/core/window.hpp"

namespace gsnp::core {

RleDictFn host_rle_dict() {
  return [](std::span<const u32> column, std::vector<u8>& out) {
    compress::encode_rle_dict(column, out);
  };
}

namespace {

void decode_base_column(std::vector<SnpRow>& rows, u8 SnpRow::*field,
                        std::span<const u8> data, std::size_t& pos) {
  const std::vector<u8> codes = compress::unpack_bases(data, pos);
  const std::vector<u32> n_flags = compress::decode_sparse(data, pos);
  GSNP_CHECK(codes.size() == rows.size() && n_flags.size() == rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i].*field = n_flags[i] ? kInvalidBase : codes[i];
}

/// Predicted genotype column: homozygous-reference (encoded rank+1; 0 = 'N').
u32 predicted_genotype(u8 ref_base) {
  return ref_base < kNumBases
             ? static_cast<u32>(genotype_rank(ref_base, ref_base)) + 1
             : 0;
}

std::vector<u32> predicted_genotypes(const std::vector<SnpRow>& rows) {
  std::vector<u32> predicted(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    predicted[i] = predicted_genotype(rows[i].ref_base);
  return predicted;
}

/// The frame's encoded segments, in frame order.  A base column is two
/// segments: 2-bit codes, then the sparse 'N' flags.
enum Segment : std::size_t {
  kRefBase, kRefN, kGenotype, kQuality,              // cols 3-5
  kBestBase, kBestN, kBestAvgQ, kBestUniq, kBestAll,  // cols 6-9
  kSecondBase, kSecondAvgQ, kSecondUniq, kSecondAll,  // cols 10-13
  kDepth, kRankSumP, kCopyNumber, kDbsnp,             // cols 14-17
  kSegments
};
using Segments = std::array<std::vector<u8>, kSegments>;

u8 base_code(u8 b) { return b < kNumBases ? b : u8{0}; }  // 'N' packed as 0

/// Cols 3, 4 and 6: both base columns (2-bit codes and 'N' flags) and the
/// genotype exceptions, fed from one pass over the rows.
void encode_base_segments(std::span<const SnpRow> rows, Segments& encoded) {
  compress::BasePacker ref, best;
  compress::PairListEncoder ref_n, genotype, best_n;
  for (const SnpRow& r : rows) {
    ref.add(base_code(r.ref_base));
    ref_n.add(r.ref_base >= kNumBases, 1);
    const u32 g =
        r.genotype_rank < 0 ? 0u : static_cast<u32>(r.genotype_rank) + 1;
    genotype.add(g != predicted_genotype(r.ref_base), g);
    best.add(base_code(r.best_base));
    best_n.add(r.best_base >= kNumBases, 1);
  }
  ref.finish(encoded[kRefBase]);
  ref_n.finish(encoded[kRefN]);
  genotype.finish(encoded[kGenotype]);
  best.finish(encoded[kBestBase]);
  best_n.finish(encoded[kBestN]);
}

/// Cols 10-13 and 17: the sparse columns (second base stored as code + 1),
/// fed from one pass over the rows.
void encode_sparse_segments(std::span<const SnpRow> rows, Segments& encoded) {
  compress::PairListEncoder base, avg_q, uniq, all, dbsnp;
  for (const SnpRow& r : rows) {
    const u32 b =
        r.second_base < kNumBases ? static_cast<u32>(r.second_base) + 1 : 0u;
    base.add(b != 0, b);
    avg_q.add(r.second_avg_quality != 0, r.second_avg_quality);
    uniq.add(r.second_uniq_count != 0, r.second_uniq_count);
    all.add(r.second_all_count != 0, r.second_all_count);
    dbsnp.add(r.in_dbsnp, 1);
  }
  base.finish(encoded[kSecondBase]);
  avg_q.finish(encoded[kSecondAvgQ]);
  uniq.finish(encoded[kSecondUniq]);
  all.finish(encoded[kSecondAll]);
  dbsnp.finish(encoded[kDbsnp]);
}

/// The five RLE-DICT columns (cols 5, 7, 8, 9 and 14) by segment.
constexpr Segment kRleSegments[] = {kQuality, kBestAvgQ, kBestUniq, kBestAll,
                                    kDepth};
constexpr std::size_t kRleColumns = std::size(kRleSegments);
using RleColumns = std::array<std::vector<u32>, kRleColumns>;

/// The RLE-DICT columns, gathered in one pass over the rows.
void gather_rle_columns(std::span<const SnpRow> rows, RleColumns& columns) {
  for (std::vector<u32>& column : columns) column.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SnpRow& r = rows[i];
    columns[0][i] = r.quality;
    columns[1][i] = r.best_avg_quality;
    columns[2][i] = r.best_uniq_count;
    columns[3][i] = r.best_all_count;
    columns[4][i] = r.depth;
  }
}

/// The quantized columns: col 15 (rank-sum p) on the 1e-4 grid, col 16
/// (copy number) on the 1e-2 grid.
constexpr double kRankSumScale = 1e4;
constexpr double kCopyNumberScale = 1e2;

/// The frame: row count, start position (cols 1-2: positions are
/// consecutive), then the segments in frame order.
std::vector<u8> join_segments(std::span<const SnpRow> rows,
                              const Segments& encoded) {
  std::vector<u8> out;
  varint_append(out, rows.size());
  varint_append(out, rows.front().pos);
  std::size_t bytes = out.size();
  for (const std::vector<u8>& e : encoded) bytes += e.size();
  out.reserve(bytes);
  for (const std::vector<u8>& e : encoded)
    out.insert(out.end(), e.begin(), e.end());
  return out;
}

/// The frame of an empty window: its row count alone.
std::vector<u8> empty_frame() {
  std::vector<u8> out;
  varint_append(out, 0);
  return out;
}

/// A window below kSitesPerChunk rows encodes as one inline chunk.
std::size_t segment_grain(std::size_t rows, std::size_t tasks) {
  return rows < kSitesPerChunk ? tasks : 1;
}

}  // namespace

std::vector<u8> compress_snp_window(std::span<const SnpRow> rows) {
  if (rows.empty()) return empty_frame();
  // The caller allocates the seven columns (a column allocated on a worker
  // would stay in that thread's heap) and executor chunks fill them from
  // the rows, the quantized ones as grid integers.  Then each segment
  // group is one executor task.
  const std::size_t n = rows.size();
  constexpr std::size_t kRankSumColumn = kRleColumns;
  constexpr std::size_t kCopyNumberColumn = kRleColumns + 1;
  std::array<std::unique_ptr<u32[]>, kRleColumns + 2> columns;
  for (auto& column : columns)
    column = std::make_unique_for_overwrite<u32[]>(n);
  parallel_for(n, kSitesPerChunk, [&](std::size_t begin, std::size_t end,
                                      std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      const SnpRow& r = rows[i];
      columns[0][i] = r.quality;
      columns[1][i] = r.best_avg_quality;
      columns[2][i] = r.best_uniq_count;
      columns[3][i] = r.best_all_count;
      columns[4][i] = r.depth;
      columns[kRankSumColumn][i] =
          compress::quantize_value(r.rank_sum_p, kRankSumScale);
      columns[kCopyNumberColumn][i] =
          compress::quantize_value(r.copy_number, kCopyNumberScale);
    }
  });
  const auto column = [&](std::size_t c) {
    return std::span<const u32>(columns[c].get(), n);
  };
  constexpr std::size_t kTasks = 4 + kRleColumns;
  Segments encoded;
  parallel_for(kTasks, segment_grain(n, kTasks),
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t t = begin; t < end; ++t) {
                   if (t == 0) encode_base_segments(rows, encoded);
                   if (t == 1) encode_sparse_segments(rows, encoded);
                   if (t == 2)
                     compress::encode_quantized_ints(column(kRankSumColumn),
                                                     kRankSumScale,
                                                     encoded[kRankSumP]);
                   if (t == 3)
                     compress::encode_quantized_ints(column(kCopyNumberColumn),
                                                     kCopyNumberScale,
                                                     encoded[kCopyNumber]);
                   if (t >= 4)
                     compress::encode_rle_dict(column(t - 4),
                                               encoded[kRleSegments[t - 4]]);
                 }
               });
  return join_segments(rows, encoded);
}

std::vector<u8> compress_snp_window(std::span<const SnpRow> rows,
                                    const RleDictFn& rle_dict) {
  if (rows.empty()) return empty_frame();
  // Chunk 0, which the executor always runs on the calling thread, gathers
  // the five RLE-DICT columns and encodes them in column order, so a
  // device-backed rle_dict launches its kernels from the caller in the
  // serial sequence; then the two quantized columns.  Chunks 1 and 2 feed
  // the other segments from one pass over the rows each and allocate only
  // their output.
  constexpr std::size_t kChunks = 3;
  Segments encoded;
  parallel_for(
      kChunks, segment_grain(rows.size(), kChunks),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t c = begin; c < end; ++c) {
          if (c == 1) encode_base_segments(rows, encoded);
          if (c == 2) encode_sparse_segments(rows, encoded);
          if (c != 0) continue;
          {
            RleColumns rle;
            gather_rle_columns(rows, rle);
            for (std::size_t k = 0; k < kRleColumns; ++k)
              rle_dict(rle[k], encoded[kRleSegments[k]]);
          }
          std::vector<double> x(rows.size());
          for (std::size_t i = 0; i < rows.size(); ++i)
            x[i] = rows[i].rank_sum_p;
          compress::encode_quantized(x, kRankSumScale, encoded[kRankSumP]);
          for (std::size_t i = 0; i < rows.size(); ++i)
            x[i] = rows[i].copy_number;
          compress::encode_quantized(x, kCopyNumberScale,
                                     encoded[kCopyNumber]);
        }
      });
  return join_segments(rows, encoded);
}

std::vector<SnpRow> decompress_snp_window(std::span<const u8> data) {
  std::size_t pos = 0;
  const u64 n = varint_read(data, pos);
  GSNP_CHECK_MSG(n <= (1ULL << 28), "implausible window row count " << n);
  std::vector<SnpRow> rows(n);
  if (n == 0) return rows;

  const u64 start = varint_read(data, pos);
  for (u64 i = 0; i < n; ++i) rows[i].pos = start + i;

  decode_base_column(rows, &SnpRow::ref_base, data, pos);

  {
    const std::vector<u32> genotype = compress::decode_exceptions(
        predicted_genotypes(rows), data, pos);
    for (u64 i = 0; i < n; ++i)
      rows[i].genotype_rank =
          genotype[i] == 0 ? i8{-1} : static_cast<i8>(genotype[i] - 1);
  }

  const auto scatter_u32 = [&](auto set, const std::vector<u32>& col) {
    GSNP_CHECK(col.size() == n);
    for (u64 i = 0; i < n; ++i) set(rows[i], col[i]);
  };

  scatter_u32([](SnpRow& r, u32 v) { r.quality = static_cast<u16>(v); },
              compress::decode_rle_dict(data, pos));
  decode_base_column(rows, &SnpRow::best_base, data, pos);
  scatter_u32(
      [](SnpRow& r, u32 v) { r.best_avg_quality = static_cast<u16>(v); },
      compress::decode_rle_dict(data, pos));
  scatter_u32([](SnpRow& r, u32 v) { r.best_uniq_count = v; },
              compress::decode_rle_dict(data, pos));
  scatter_u32([](SnpRow& r, u32 v) { r.best_all_count = v; },
              compress::decode_rle_dict(data, pos));

  scatter_u32(
      [](SnpRow& r, u32 v) {
        r.second_base = v == 0 ? kInvalidBase : static_cast<u8>(v - 1);
      },
      compress::decode_sparse(data, pos));
  scatter_u32(
      [](SnpRow& r, u32 v) { r.second_avg_quality = static_cast<u16>(v); },
      compress::decode_sparse(data, pos));
  scatter_u32([](SnpRow& r, u32 v) { r.second_uniq_count = v; },
              compress::decode_sparse(data, pos));
  scatter_u32([](SnpRow& r, u32 v) { r.second_all_count = v; },
              compress::decode_sparse(data, pos));
  scatter_u32([](SnpRow& r, u32 v) { r.depth = v; },
              compress::decode_rle_dict(data, pos));

  {
    const std::vector<double> p = compress::decode_quantized(data, pos);
    GSNP_CHECK(p.size() == n);
    for (u64 i = 0; i < n; ++i) rows[i].rank_sum_p = p[i];
  }
  {
    const std::vector<double> cn = compress::decode_quantized(data, pos);
    GSNP_CHECK(cn.size() == n);
    for (u64 i = 0; i < n; ++i) rows[i].copy_number = cn[i];
  }
  scatter_u32([](SnpRow& r, u32 v) { r.in_dbsnp = v != 0; },
              compress::decode_sparse(data, pos));

  GSNP_CHECK_MSG(pos == data.size(), "trailing bytes in SNP window frame");
  return rows;
}

// ---- file-level writer / reader -------------------------------------------------

SnpOutputWriter::SnpOutputWriter(const std::filesystem::path& path,
                                 std::string seq_name)
    : frames_(path, kOutputMagic, seq_name) {}

void SnpOutputWriter::write_window(std::span<const SnpRow> rows) {
  write_frame(compress_snp_window(rows));
}

void SnpOutputWriter::write_window(std::span<const SnpRow> rows,
                                   const RleDictFn& rle_dict) {
  frames_.write(compress_snp_window(rows, rle_dict));
}

void SnpOutputWriter::write_frame(std::span<const u8> payload) {
  frames_.write(payload);
}

u64 SnpOutputWriter::finish() { return frames_.finish(); }

SnpOutputReader::SnpOutputReader(const std::filesystem::path& path)
    : frames_(path, kOutputMagic) {}

bool SnpOutputReader::next_window(std::vector<SnpRow>& rows) {
  std::vector<u8> frame;
  if (!frames_.next(frame)) return false;
  rows = decompress_snp_window(frame);
  return true;
}

SnpTextWriter::SnpTextWriter(const std::filesystem::path& path,
                             std::string seq_name)
    : out_(path), path_(path), seq_name_(std::move(seq_name)) {
  GSNP_CHECK_MSG(out_.good(), "cannot open output file " << path);
}

void SnpTextWriter::write_window(std::span<const SnpRow> rows) {
  write(format(rows));
}

std::string SnpTextWriter::format(std::span<const SnpRow> rows) const {
  std::string lines;
  for (const SnpRow& row : rows) {
    lines += format_snp_row(seq_name_, row);
    lines += '\n';
  }
  return lines;
}

void SnpTextWriter::write(std::string_view lines) {
  fsfault::write(out_, path_, lines);
  bytes_ += lines.size();
}

u64 SnpTextWriter::finish() {
  out_.flush();
  fsfault::check_stream(out_, path_, "flush");
  out_.close();
  return bytes_;
}

std::vector<SnpRow> read_snp_text_file(const std::filesystem::path& path,
                                       std::string& seq_name) {
  std::ifstream in(path);
  GSNP_CHECK_MSG(in.good(), "cannot open " << path);
  std::vector<SnpRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(parse_snp_row(line, seq_name));
  }
  return rows;
}

std::vector<SnpRow> read_snp_compressed_file(
    const std::filesystem::path& path, std::string& seq_name) {
  SnpOutputReader reader(path);
  seq_name = reader.seq_name();
  std::vector<SnpRow> rows, window;
  while (reader.next_window(window))
    rows.insert(rows.end(), window.begin(), window.end());
  return rows;
}

std::vector<SnpRow> read_snp_range(const std::filesystem::path& path, u64 lo,
                                   u64 hi, std::string& seq_name) {
  compress::FrameReader frames(path, kOutputMagic);
  seq_name = frames.name();
  std::vector<SnpRow> result;
  std::vector<u8> frame;
  // A frame leads with two varints, row count and start position: at most
  // 20 bytes.  Frames outside [lo, hi) are skipped unread and unchecked.
  while (frames.peek(20, frame)) {
    std::size_t pos = 0;
    const u64 n = varint_read(frame, pos);
    const u64 start = n == 0 ? 0 : varint_read(frame, pos);
    if (n == 0 || start >= hi || start + n <= lo) {
      frames.skip_rest();
      continue;
    }
    frames.read_rest(frame);
    for (SnpRow& row : decompress_snp_window(frame)) {
      if (row.pos >= lo && row.pos < hi) result.push_back(std::move(row));
    }
  }
  return result;
}

}  // namespace gsnp::core
