#include "src/compress/temp_input.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/common/bitio.hpp"
#include "src/common/error.hpp"
#include "src/common/phred.hpp"
#include "src/compress/codecs.hpp"

namespace gsnp::compress {

void ChunkColumns::add(const reads::AlignmentView& rec) {
  // Positions: sorted input -> non-negative deltas.
  if (lengths_.empty()) {
    varint_append(positions_, rec.pos);
  } else {
    GSNP_CHECK_MSG(rec.pos >= last_pos_,
                   "temp input requires position-sorted records");
    varint_append(positions_, rec.pos - last_pos_);
  }
  last_pos_ = rec.pos;
  lengths_.push_back(rec.length);
  strands_.push_back(rec.strand == Strand::kReverse ? 1 : 0);
  pair_tags_.push_back(rec.pair_tag == 'b' ? 1 : 0);
  hits_.push_back(rec.hit_count);

  // Bases: concatenated 2-bit codes, 'N' (any non-ACGT letter) packed as 0
  // and listed separately.
  packed_bases_.resize((n_bases_ + rec.seq.size() + 3) / 4);
  u8* const packed = packed_bases_.data();
  for (const char c : rec.seq) {
    u8 b = base_from_char(c);
    if (b >= kNumBases) {
      n_positions_.push_back(n_bases_);
      b = 0;
    }
    packed[n_bases_ >> 2] |= static_cast<u8>(b << ((n_bases_ & 3) * 2));
    ++n_bases_;
  }

  // Qualities: runs over the concatenated values (auto-correlated within
  // reads -> long runs).
  for (const char c : rec.qual) {
    const u32 q = static_cast<u32>(quality_from_char(c));
    if (!qual_runs_.values.empty() && qual_runs_.values.back() == q) {
      ++qual_runs_.lengths.back();
    } else {
      qual_runs_.values.push_back(q);
      qual_runs_.lengths.push_back(1);
    }
  }
}

std::vector<u8> ChunkColumns::encode() {
  std::vector<u8> out;
  varint_append(out, records());
  if (records() > 0) {
    out.insert(out.end(), positions_.begin(), positions_.end());
    // Lengths: dictionary (usually a single value).
    encode_dict(lengths_, out);
    // Strand and pair-tag bit arrays.
    BitWriter bw;
    for (const u8 bit : strands_) bw.write(bit, 1);
    for (const u8 bit : pair_tags_) bw.write(bit, 1);
    const auto bits = bw.finish();
    out.insert(out.end(), bits.begin(), bits.end());
    // Hit counts: mostly 1 -> RLE-DICT.
    encode_rle_dict(hits_, out);
    // Bases: the pack_bases frame, then the 'N' flags as an encode_sparse
    // frame (value 1 at each N).
    varint_append(out, n_bases_);
    out.insert(out.end(), packed_bases_.begin(), packed_bases_.end());
    varint_append(out, n_bases_);
    varint_append(out, n_positions_.size());
    u64 prev = 0;
    for (const u64 index : n_positions_) {
      varint_append(out, index - prev);
      varint_append(out, 1);
      prev = index;
    }
    // Qualities: the encode_rle_dict frame of the concatenated values.
    encode_dict(qual_runs_.values, out);
    encode_dict(qual_runs_.lengths, out);
  }
  *this = ChunkColumns();
  return out;
}

std::vector<u8> encode_alignment_chunk(
    std::span<const reads::AlignmentRecord> records) {
  ChunkColumns columns;
  for (const auto& rec : records) columns.add(reads::view_of(rec));
  return columns.encode();
}

namespace {

/// Upper bound on a chunk's records and bases, as on any decoded column
/// (codecs.cpp): a corrupt count raises instead of allocating gigabytes.
constexpr u64 kMaxChunkElements = 1ULL << 28;

/// The four bases of each byte of a pack_bases payload, as letters.
constexpr auto kBaseQuads = [] {
  std::array<std::array<char, 4>, 256> quads{};
  for (u32 byte = 0; byte < 256; ++byte)
    for (u32 k = 0; k < 4; ++k)
      quads[byte][k] = char_from_base(static_cast<u8>((byte >> (2 * k)) & 3));
  return quads;
}();

/// The lengths column of a chunk of `n` records, each checked to fit a u16,
/// and their sum.
std::vector<u32> decode_lengths(std::span<const u8> data, std::size_t& pos,
                                u64 n, u64& bases) {
  std::vector<u32> lengths = decode_dict(data, pos);
  GSNP_CHECK(lengths.size() == n);
  bases = 0;
  for (const u32 length : lengths) {
    GSNP_CHECK_MSG(length <= 0xFFFF, "read length " << length);
    bases += length;
  }
  GSNP_CHECK_MSG(bases <= kMaxChunkElements, "implausible base count " << bases);
  return lengths;
}

}  // namespace

ChunkHead read_chunk_head(std::span<const u8> payload) {
  std::size_t pos = 0;
  ChunkHead head;
  head.records = varint_read(payload, pos);
  // Every record takes at least one byte: its position varint.
  GSNP_CHECK_MSG(head.records <= kMaxChunkElements &&
                     head.records <= payload.size(),
                 "implausible record count " << head.records);
  if (head.records == 0) return head;
  head.first_pos = varint_read(payload, pos);
  for (u64 i = 1; i < head.records; ++i) varint_read(payload, pos);
  decode_lengths(payload, pos, head.records, head.bases);
  return head;
}

void decode_chunk_views(std::span<const u8> data,
                        std::span<reads::AlignmentView> records,
                        std::vector<char>& bytes) {
  std::size_t pos = 0;
  const u64 n = varint_read(data, pos);
  GSNP_CHECK_MSG(n == records.size(),
                 "chunk of " << n << " records, " << records.size()
                             << " expected");
  std::fill(records.begin(), records.end(), reads::AlignmentView{});
  if (n == 0) return;

  u64 position = varint_read(data, pos);
  records[0].pos = position;
  for (u64 i = 1; i < n; ++i) {
    position += varint_read(data, pos);
    records[i].pos = position;
  }

  u64 total_bases = 0;
  const std::vector<u32> lengths = decode_lengths(data, pos, n, total_bases);
  for (u64 i = 0; i < n; ++i) records[i].length = static_cast<u16>(lengths[i]);

  {
    const std::size_t flag_bytes = (2 * n + 7) / 8;
    GSNP_CHECK(pos + flag_bytes <= data.size());
    BitReader br(data.subspan(pos, flag_bytes));
    pos += flag_bytes;
    for (u64 i = 0; i < n; ++i)
      records[i].strand = br.read(1) ? Strand::kReverse : Strand::kForward;
    for (u64 i = 0; i < n; ++i) records[i].pair_tag = br.read(1) ? 'b' : 'a';
  }

  const std::vector<u32> hits = decode_rle_dict(data, pos);
  GSNP_CHECK(hits.size() == n);
  for (u64 i = 0; i < n; ++i) records[i].hit_count = hits[i];

  if (2 * total_bases > bytes.capacity()) {
    bytes.clear();  // grow without copying the old contents
    bytes.reserve(2 * total_bases);
  }
  bytes.resize(2 * total_bases);
  char* const seq = bytes.data();
  char* const qual = seq + total_bases;
  {
    // The pack_bases frame, four letters per byte, then the encode_sparse
    // frame of the 'N' flags.
    GSNP_CHECK(varint_read(data, pos) == total_bases);
    const std::size_t packed_bytes = (total_bases + 3) / 4;
    GSNP_CHECK_MSG(pos + packed_bytes <= data.size(),
                   "unpack_bases: truncated frame");
    const u8* const packed = data.data() + pos;
    pos += packed_bytes;
    const auto letter = [packed](u64 k) {
      return kBaseQuads[packed[k >> 2]][k & 3];
    };
    for (u64 b = 0; b < total_bases / 4; ++b)
      std::memcpy(seq + 4 * b, kBaseQuads[packed[b]].data(), 4);
    for (u64 k = total_bases & ~u64{3}; k < total_bases; ++k)
      seq[k] = letter(k);
    GSNP_CHECK(varint_read(data, pos) == total_bases);
    const u64 nnz = varint_read(data, pos);
    GSNP_CHECK_MSG(nnz <= total_bases,
                   "decode_sparse: nnz " << nnz << " > n " << total_bases);
    u64 index = 0;
    for (u64 k = 0; k < nnz; ++k) {
      index += varint_read(data, pos);
      GSNP_CHECK_MSG(index < total_bases, "decode_sparse: index out of range");
      seq[index] = varint_read(data, pos) != 0 ? 'N' : letter(index);
    }
  }
  {
    // The encode_rle_dict frame of the concatenated qualities.
    const std::vector<u32> values = decode_dict(data, pos);
    const std::vector<u32> run_lengths = decode_dict(data, pos);
    GSNP_CHECK(values.size() == run_lengths.size());
    u64 filled = 0;
    for (std::size_t r = 0; r < values.size(); ++r) {
      GSNP_CHECK(run_lengths[r] <= total_bases - filled);
      std::memset(qual + filled, quality_to_char(static_cast<int>(values[r])),
                  run_lengths[r]);
      filled += run_lengths[r];
    }
    GSNP_CHECK(filled == total_bases);
  }

  u64 cursor = 0;
  for (reads::AlignmentView& rec : records) {
    rec.seq = std::string_view(seq + cursor, rec.length);
    rec.qual = std::string_view(qual + cursor, rec.length);
    cursor += rec.length;
  }
  GSNP_CHECK_MSG(pos == data.size(), "trailing bytes in alignment chunk");
}

std::vector<reads::AlignmentRecord> decode_alignment_chunk(
    std::span<const u8> data, const std::string& chr_name) {
  std::vector<reads::AlignmentView> views(read_chunk_head(data).records);
  std::vector<char> bytes;
  decode_chunk_views(data, views, bytes);
  std::vector<reads::AlignmentRecord> records;
  records.reserve(views.size());
  for (reads::AlignmentView& view : views) {
    view.chr_name = chr_name;
    records.push_back(reads::to_record(view));
  }
  return records;
}

// ---- file-level ------------------------------------------------------------------

TempInputWriter::TempInputWriter(const std::filesystem::path& path,
                                 std::string chr_name, u32 chunk_records)
    : frames_(path, kTempMagic, chr_name), chunk_records_(chunk_records) {
  GSNP_CHECK(chunk_records_ > 0);
}

void TempInputWriter::add(const reads::AlignmentRecord& rec) {
  buffer_.add(reads::view_of(rec));
  if (buffer_.records() >= chunk_records_) flush_chunk();
}

void TempInputWriter::flush_chunk() {
  if (buffer_.records() > 0) frames_.write(buffer_.encode());
}

u64 TempInputWriter::finish() {
  flush_chunk();
  return frames_.finish();
}

TempInputReader::TempInputReader(const std::filesystem::path& path)
    : frames_(path, kTempMagic) {}

std::optional<reads::AlignmentRecord> TempInputReader::next() {
  while (cursor_ >= views_.size()) {
    if (!frames_.next(frame_)) return std::nullopt;
    views_.resize(read_chunk_head(frame_).records);
    decode_chunk_views(frame_, views_, bytes_);
    cursor_ = 0;
  }
  reads::AlignmentView view = views_[cursor_++];
  view.chr_name = frames_.name();
  return reads::to_record(view);
}

}  // namespace gsnp::compress
