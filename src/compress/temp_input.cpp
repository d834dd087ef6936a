#include "src/compress/temp_input.hpp"

#include <algorithm>

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

std::vector<reads::AlignmentRecord> decode_alignment_chunk(
    std::span<const u8> data, const std::string& chr_name) {
  std::size_t pos = 0;
  const u64 n = varint_read(data, pos);
  GSNP_CHECK_MSG(n <= (1ULL << 28), "implausible record count " << n);
  std::vector<reads::AlignmentRecord> records(n);
  if (n == 0) return records;

  u64 position = varint_read(data, pos);
  records[0].pos = position;
  for (u64 i = 1; i < n; ++i) {
    position += varint_read(data, pos);
    records[i].pos = position;
  }

  const std::vector<u32> lengths = decode_dict(data, pos);
  GSNP_CHECK(lengths.size() == n);
  u64 total_bases = 0;
  for (u64 i = 0; i < n; ++i) {
    records[i].length = static_cast<u16>(lengths[i]);
    total_bases += lengths[i];
  }

  {
    const std::size_t bytes = (2 * n + 7) / 8;
    GSNP_CHECK(pos + bytes <= data.size());
    BitReader br(data.subspan(pos, bytes));
    pos += bytes;
    for (u64 i = 0; i < n; ++i)
      records[i].strand = br.read(1) ? Strand::kReverse : Strand::kForward;
    for (u64 i = 0; i < n; ++i) records[i].pair_tag = br.read(1) ? 'b' : 'a';
  }

  const std::vector<u32> hits = decode_rle_dict(data, pos);
  GSNP_CHECK(hits.size() == n);
  for (u64 i = 0; i < n; ++i) records[i].hit_count = hits[i];

  // Bases and qualities decode straight into two concatenated character
  // buffers that the records' strings are cut from.
  std::string seq(total_bases, '\0');
  {
    const std::vector<u8> codes = unpack_bases(data, pos);
    GSNP_CHECK(codes.size() == total_bases);
    for (u64 k = 0; k < total_bases; ++k) seq[k] = char_from_base(codes[k]);
    // The encode_sparse frame of the 'N' flags.
    GSNP_CHECK(varint_read(data, pos) == total_bases);
    const u64 nnz = varint_read(data, pos);
    GSNP_CHECK_MSG(nnz <= total_bases,
                   "decode_sparse: nnz " << nnz << " > n " << total_bases);
    u64 index = 0;
    for (u64 k = 0; k < nnz; ++k) {
      index += varint_read(data, pos);
      GSNP_CHECK_MSG(index < total_bases, "decode_sparse: index out of range");
      seq[index] =
          varint_read(data, pos) != 0 ? 'N' : char_from_base(codes[index]);
    }
  }
  std::string qual(total_bases, '\0');
  {
    // The encode_rle_dict frame of the concatenated qualities.
    const std::vector<u32> values = decode_dict(data, pos);
    const std::vector<u32> run_lengths = decode_dict(data, pos);
    GSNP_CHECK(values.size() == run_lengths.size());
    u64 filled = 0;
    for (std::size_t r = 0; r < values.size(); ++r) {
      GSNP_CHECK(run_lengths[r] <= total_bases - filled);
      std::fill_n(qual.begin() + static_cast<std::ptrdiff_t>(filled),
                  run_lengths[r],
                  quality_to_char(static_cast<int>(values[r])));
      filled += run_lengths[r];
    }
    GSNP_CHECK(filled == total_bases);
  }

  u64 cursor = 0;
  for (u64 i = 0; i < n; ++i) {
    auto& rec = records[i];
    rec.chr_name = chr_name;
    rec.seq.assign(seq, cursor, rec.length);
    rec.qual.assign(qual, cursor, rec.length);
    cursor += rec.length;
  }
  GSNP_CHECK_MSG(pos == data.size(), "trailing bytes in alignment chunk");
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
  while (cursor_ >= chunk_.size()) {
    std::vector<u8> frame;
    if (!frames_.next(frame)) return std::nullopt;
    chunk_ = decode_alignment_chunk(frame, frames_.name());
    cursor_ = 0;
  }
  return std::move(chunk_[cursor_++]);
}

}  // namespace gsnp::compress
