#include "src/core/output_codec.hpp"

#include <array>
#include <cstring>

#include "src/common/bitio.hpp"
#include "src/common/crc32.hpp"
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

/// The segments that stay on the calling thread.  The five RLE-DICT columns,
/// gathered in one pass into contiguous columns (a device rle_dict uploads
/// them), are encoded in column order.  Then the two quantized columns,
/// whose dictionary coding allocates column-sized scratch that on a worker
/// would stay in that thread's heap.
void encode_caller_segments(std::span<const SnpRow> rows,
                            const RleDictFn& rle_dict, Segments& encoded) {
  const std::size_t n = rows.size();
  {
    std::vector<u32> quality(n), avg_q(n), uniq(n), all(n), depth(n);
    for (std::size_t i = 0; i < n; ++i) {
      const SnpRow& r = rows[i];
      quality[i] = r.quality;
      avg_q[i] = r.best_avg_quality;
      uniq[i] = r.best_uniq_count;
      all[i] = r.best_all_count;
      depth[i] = r.depth;
    }
    rle_dict(quality, encoded[kQuality]);
    rle_dict(avg_q, encoded[kBestAvgQ]);
    rle_dict(uniq, encoded[kBestUniq]);
    rle_dict(all, encoded[kBestAll]);
    rle_dict(depth, encoded[kDepth]);
  }
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = rows[i].rank_sum_p;
  compress::encode_quantized(x, 1e4, encoded[kRankSumP]);  // the 1e-4 grid
  for (std::size_t i = 0; i < n; ++i) x[i] = rows[i].copy_number;
  compress::encode_quantized(x, 1e2, encoded[kCopyNumber]);  // the 1e-2 grid
}

}  // namespace

std::vector<u8> compress_snp_window(std::span<const SnpRow> rows,
                                    const RleDictFn& rle_dict) {
  std::vector<u8> out;
  varint_append(out, rows.size());
  if (rows.empty()) return out;

  // Cols 1-2: positions are consecutive — store the start only.
  varint_append(out, rows.front().pos);

  // Each segment is encoded into its own buffer; the buffers are joined in
  // frame order.  Chunk 0, which the executor always runs on the calling
  // thread, encodes the caller's segments, so a device-backed rle_dict
  // launches its kernels from the caller in the serial sequence.  Chunks 1
  // and 2 feed the other segments from one pass over the rows each and
  // allocate only their output.  A window below kSitesPerChunk rows runs as
  // one inline chunk.
  constexpr std::size_t kChunks = 3;
  Segments encoded;
  parallel_for(kChunks, rows.size() < kSitesPerChunk ? kChunks : 1,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t c = begin; c < end; ++c) {
                   if (c == 0) encode_caller_segments(rows, rle_dict, encoded);
                   if (c == 1) encode_base_segments(rows, encoded);
                   if (c == 2) encode_sparse_segments(rows, encoded);
                 }
               });
  std::size_t bytes = out.size();
  for (const std::vector<u8>& e : encoded) bytes += e.size();
  out.reserve(bytes);
  for (const std::vector<u8>& e : encoded)
    out.insert(out.end(), e.begin(), e.end());
  return out;
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
    : out_(path, std::ios::binary), path_(path) {
  GSNP_CHECK_MSG(out_.good(), "cannot open output file " << path);
  std::string header(kOutputMagic, sizeof(kOutputMagic));
  std::vector<u8> len;
  varint_append(len, seq_name.size());
  header.append(reinterpret_cast<const char*>(len.data()), len.size());
  header.append(seq_name);
  fsfault::write(out_, path_, header);
  bytes_ = header.size();
}

void SnpOutputWriter::write_window(std::span<const SnpRow> rows,
                                   const RleDictFn& rle_dict) {
  const std::vector<u8> frame = compress_snp_window(rows, rle_dict);
  std::vector<u8> size_prefix;
  varint_append(size_prefix, frame.size());
  const u32 crc = crc32(frame.data(), frame.size());
  const u8 crc_le[4] = {static_cast<u8>(crc), static_cast<u8>(crc >> 8),
                        static_cast<u8>(crc >> 16), static_cast<u8>(crc >> 24)};
  // One fault-checked write per window: either the whole [size][frame][crc]
  // record goes out or a typed FsFaultError fires (a short-write fault can
  // still truncate mid-record on disk — the reader's CRC catches it).
  std::string record;
  record.reserve(size_prefix.size() + frame.size() + sizeof(crc_le));
  record.append(reinterpret_cast<const char*>(size_prefix.data()),
                size_prefix.size());
  record.append(reinterpret_cast<const char*>(frame.data()), frame.size());
  record.append(reinterpret_cast<const char*>(crc_le), sizeof(crc_le));
  fsfault::write(out_, path_, record);
  bytes_ += record.size();
}

u64 SnpOutputWriter::finish() {
  out_.flush();
  fsfault::check_stream(out_, path_, "flush");
  out_.close();
  return bytes_;
}

namespace {

/// Read one varint directly from a stream (frame sizes in file headers).
bool stream_varint(std::istream& in, u64& value) {
  value = 0;
  int shift = 0;
  for (;;) {
    const int c = in.get();
    if (c == EOF) return false;
    value |= static_cast<u64>(c & 0x7F) << shift;
    if (!(c & 0x80)) return true;
    shift += 7;
    GSNP_CHECK_MSG(shift < 64, "varint too long in stream");
  }
}

/// Read the trailing 4-byte little-endian frame CRC-32.
bool stream_crc32(std::istream& in, u32& crc) {
  u8 le[4];
  in.read(reinterpret_cast<char*>(le), sizeof(le));
  if (in.gcount() != sizeof(le)) return false;
  crc = static_cast<u32>(le[0]) | (static_cast<u32>(le[1]) << 8) |
        (static_cast<u32>(le[2]) << 16) | (static_cast<u32>(le[3]) << 24);
  return true;
}

}  // namespace

SnpOutputReader::SnpOutputReader(const std::filesystem::path& path)
    : in_(path, std::ios::binary) {
  GSNP_CHECK_MSG(in_.good(), "cannot open compressed output " << path);
  char magic[sizeof(kOutputMagic)];
  in_.read(magic, sizeof(magic));
  GSNP_CHECK_MSG(
      in_.gcount() == sizeof(magic) &&
          std::memcmp(magic, kOutputMagic, sizeof(magic)) == 0,
      "bad magic in " << path);
  u64 name_len = 0;
  GSNP_CHECK(stream_varint(in_, name_len));
  seq_name_.resize(name_len);
  in_.read(seq_name_.data(), static_cast<std::streamsize>(name_len));
  GSNP_CHECK(in_.gcount() == static_cast<std::streamsize>(name_len));
}

bool SnpOutputReader::next_window(std::vector<SnpRow>& rows) {
  u64 frame_size = 0;
  if (!stream_varint(in_, frame_size)) return false;
  GSNP_CHECK_MSG(frame_size <= (1ULL << 32), "implausible frame size");
  std::vector<u8> frame(frame_size);
  in_.read(reinterpret_cast<char*>(frame.data()),
           static_cast<std::streamsize>(frame_size));
  GSNP_CHECK_MSG(in_.gcount() == static_cast<std::streamsize>(frame_size),
                 "truncated frame");
  u32 stored_crc = 0;
  GSNP_CHECK_MSG(stream_crc32(in_, stored_crc), "truncated frame CRC");
  GSNP_CHECK_MSG(crc32(frame.data(), frame.size()) == stored_crc,
                 "SNP output frame CRC mismatch (corrupt file)");
  rows = decompress_snp_window(frame);
  return true;
}

SnpTextWriter::SnpTextWriter(const std::filesystem::path& path,
                             std::string seq_name)
    : out_(path), path_(path), seq_name_(std::move(seq_name)) {
  GSNP_CHECK_MSG(out_.good(), "cannot open output file " << path);
}

void SnpTextWriter::write_window(std::span<const SnpRow> rows) {
  std::string block;
  for (const SnpRow& row : rows) {
    block += format_snp_row(seq_name_, row);
    block += '\n';
  }
  fsfault::write(out_, path_, block);
  bytes_ += block.size();
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
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open compressed output " << path);
  {
    char magic[sizeof(kOutputMagic)];
    in.read(magic, sizeof(magic));
    GSNP_CHECK_MSG(in.gcount() == sizeof(magic) &&
                       std::memcmp(magic, kOutputMagic, sizeof(magic)) == 0,
                   "bad magic in " << path);
    u64 name_len = 0;
    GSNP_CHECK(stream_varint(in, name_len));
    seq_name.resize(name_len);
    in.read(seq_name.data(), static_cast<std::streamsize>(name_len));
    GSNP_CHECK(in.gcount() == static_cast<std::streamsize>(name_len));
  }

  std::vector<SnpRow> result;
  u64 frame_size = 0;
  while (stream_varint(in, frame_size)) {
    GSNP_CHECK_MSG(frame_size <= (1ULL << 32), "implausible frame size");
    // Peek the frame header: varint row count, varint start position.
    // Two varints are at most 20 bytes.
    const std::size_t peek_len =
        static_cast<std::size_t>(std::min<u64>(frame_size, 20));
    std::vector<u8> head(peek_len);
    in.read(reinterpret_cast<char*>(head.data()),
            static_cast<std::streamsize>(peek_len));
    GSNP_CHECK_MSG(in.gcount() == static_cast<std::streamsize>(peek_len),
                   "truncated frame");
    std::size_t pos = 0;
    const u64 n = varint_read(head, pos);
    const u64 start = n == 0 ? 0 : varint_read(head, pos);

    const bool overlaps = n > 0 && start < hi && start + n > lo;
    if (!overlaps) {
      // Skip the rest of the payload plus its trailing CRC without
      // reading (the CRC is only verified on frames we decompress).
      in.seekg(static_cast<std::streamoff>(frame_size - peek_len + 4),
               std::ios::cur);
      continue;
    }
    // Read the remainder and decompress just this window.
    std::vector<u8> frame(frame_size);
    std::copy(head.begin(), head.end(), frame.begin());
    in.read(reinterpret_cast<char*>(frame.data() + peek_len),
            static_cast<std::streamsize>(frame_size - peek_len));
    GSNP_CHECK_MSG(in.gcount() ==
                       static_cast<std::streamsize>(frame_size - peek_len),
                   "truncated frame");
    u32 stored_crc = 0;
    GSNP_CHECK_MSG(stream_crc32(in, stored_crc), "truncated frame CRC");
    GSNP_CHECK_MSG(crc32(frame.data(), frame.size()) == stored_crc,
                   "SNP output frame CRC mismatch (corrupt file)");
    for (SnpRow& row : decompress_snp_window(frame)) {
      if (row.pos >= lo && row.pos < hi) result.push_back(std::move(row));
    }
  }
  return result;
}

}  // namespace gsnp::core
