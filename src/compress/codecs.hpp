#pragma once
// Customized column codecs (paper §V-B).
//
// The SNP output table compresses column-by-column with simple, cache-friendly
// single-scan algorithms chosen per column characteristic:
//
//  * pack_bases / unpack_bases            — 2 bits per base (columns holding
//                                           one of the four base types)
//  * encode_rle / decode_rle              — run-length (value, length) pairs
//  * encode_dict / decode_dict            — dictionary + least-bits packing
//  * encode_rle_dict / decode_rle_dict    — RLE then DICT on both run arrays
//                                           (the paper's "RLE-DICT" scheme for
//                                           the six quality-related columns)
//  * encode_sparse / decode_sparse        — (index, value) pairs for columns
//                                           that are mostly zero (second-
//                                           allele columns)
//  * encode_exceptions / decode_exceptions — positions where a column differs
//                                           from a predicted column (genotype
//                                           vs homozygous-reference: SNPs are
//                                           rare, so exceptions are few)
//
// Every encoder is self-describing (varint-framed) and appends to a byte
// vector; decoders consume from a (data, pos) cursor so frames can be
// concatenated freely.  All codecs are exact (lossless) and single-scan.
// The base, sparse and exception frames also have incremental encoders
// (BasePacker, PairListEncoder) that take a column one value at a time, so
// one pass over a row array can feed several columns' frames.
//
// The dictionary codec's value-range rule: encode_dict marks the column's
// values in a presence table spanning [min, max], then one scan of that
// table yields the sorted dictionary and the value-to-index map.  The table
// holds one u32 per value in the range, so it is used only while the range
// is at most kDictScanSpan times the column length, as it is for the value
// columns of a full output window.  A wider range, such as a few values
// scattered up to 2^32-1, sorts a copy of the column instead; both paths
// emit the same bytes.

#include <span>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/error.hpp"
#include "src/common/types.hpp"

namespace gsnp::compress {

// ---- 2-bit base packing ----------------------------------------------------

/// Pack base codes (each must be < 4) at 2 bits each.
void pack_bases(std::span<const u8> bases, std::vector<u8>& out);

/// pack_bases one code at a time: add() the column in order, then finish()
/// appends the same frame.
class BasePacker {
 public:
  void add(u8 base) {
    GSNP_CHECK_MSG(base < kNumBases,
                   "pack_bases: base out of range " << int(base));
    if ((n_ & 3) == 0) packed_.push_back(0);
    packed_.back() |= static_cast<u8>(base << ((n_ & 3) * 2));
    ++n_;
  }
  void finish(std::vector<u8>& out) const;

 private:
  std::vector<u8> packed_;
  u64 n_ = 0;
};
std::vector<u8> unpack_bases(std::span<const u8> data, std::size_t& pos);

// ---- run-length encoding ---------------------------------------------------

/// The raw (values, lengths) decomposition of a column.
struct RunDecomposition {
  std::vector<u32> values;
  std::vector<u32> lengths;
};
RunDecomposition run_decompose(std::span<const u32> column);
std::vector<u32> run_compose(const RunDecomposition& runs);

/// RLE with varint-coded runs.
void encode_rle(std::span<const u32> column, std::vector<u8>& out);
std::vector<u32> decode_rle(std::span<const u8> data, std::size_t& pos);

// ---- dictionary encoding ---------------------------------------------------

/// Dictionary + fixed-width index packing ("least bits through a map").
void encode_dict(std::span<const u32> column, std::vector<u8>& out);
std::vector<u32> decode_dict(std::span<const u8> data, std::size_t& pos);

/// The dictionary a column would use (sorted unique values) — exposed so the
/// device implementation and tests can validate against the host.
std::vector<u32> build_dictionary(std::span<const u32> column);

/// encode_dict's value-range rule (see the header comment): a column of
/// `n` values spanning `range` = max - min + 1 takes the single-scan path
/// iff range <= kDictScanSpan * n.
inline constexpr u64 kDictScanSpan = 4;
constexpr bool dict_single_scan(u64 n, u64 range) {
  return range <= kDictScanSpan * n;
}

/// The dictionary frame for a column given its sorted dictionary and each
/// value's index into it (shared by encode_dict and the device encoder).
void append_dict_frame(std::span<const u32> dict, std::span<const u32> indices,
                       std::vector<u8>& out);

// ---- RLE-DICT (the paper's scheme for quality columns) ----------------------

void encode_rle_dict(std::span<const u32> column, std::vector<u8>& out);
std::vector<u32> decode_rle_dict(std::span<const u8> data, std::size_t& pos);

// ---- sparse columns ----------------------------------------------------------

/// Store only non-zero entries as (delta-index, value) pairs.
void encode_sparse(std::span<const u32> column, std::vector<u8>& out);

/// The frame of encode_sparse and encode_exceptions built one entry at a
/// time: add(keep, value) for every index in order, then finish() appends
/// the (n, kept) header and the (delta-index, value) pairs of the kept ones.
class PairListEncoder {
 public:
  void add(bool keep, u32 value) {
    if (keep) {
      varint_append(pairs_, index_ - prev_);  // delta to the previous entry
      varint_append(pairs_, value);
      prev_ = index_;
      ++count_;
    }
    ++index_;
  }
  void finish(std::vector<u8>& out) const;

 private:
  std::vector<u8> pairs_;
  u64 index_ = 0;
  u64 prev_ = 0;
  u64 count_ = 0;
};
std::vector<u32> decode_sparse(std::span<const u8> data, std::size_t& pos);

// ---- difference-from-prediction columns -------------------------------------

/// Store only entries where `actual` differs from `predicted` (sizes equal).
void encode_exceptions(std::span<const u32> actual,
                       std::span<const u32> predicted, std::vector<u8>& out);
/// Reconstruct `actual` given the same `predicted` column.
std::vector<u32> decode_exceptions(std::span<const u32> predicted,
                                   std::span<const u8> data, std::size_t& pos);

// ---- doubles via fixed-point quantization header ----------------------------

/// Lossless encoding of doubles that are known to be quantized values (e.g.
/// rank-sum p rounded to 1e-4): scales to u32 and dictionary-encodes.  The
/// scale is part of the frame.
void encode_quantized(std::span<const double> column, double scale,
                      std::vector<u8>& out);
/// One value's u32 on the 1/scale grid; throws when it is off the grid.
u32 quantize_value(double value, double scale);
/// encode_quantized of a column whose values are already quantize_value'd.
void encode_quantized_ints(std::span<const u32> ints, double scale,
                           std::vector<u8>& out);
std::vector<double> decode_quantized(std::span<const u8> data,
                                     std::size_t& pos);

}  // namespace gsnp::compress
