#include "src/compress/codecs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/error.hpp"

namespace gsnp::compress {

namespace {
/// Upper bound on any decoded element count: corrupted varints must raise
/// gsnp::Error, not trigger multi-gigabyte allocations.
constexpr u64 kMaxDecodedElements = 1ULL << 28;

void check_count(u64 n, const char* what) {
  GSNP_CHECK_MSG(n <= kMaxDecodedElements,
                 what << ": implausible element count " << n);
}
}  // namespace

// ---- 2-bit base packing ----------------------------------------------------

void BasePacker::finish(std::vector<u8>& out) const {
  varint_append(out, n_);
  out.insert(out.end(), packed_.begin(), packed_.end());
}

void pack_bases(std::span<const u8> bases, std::vector<u8>& out) {
  BasePacker packer;
  for (const u8 b : bases) packer.add(b);
  packer.finish(out);
}

std::vector<u8> unpack_bases(std::span<const u8> data, std::size_t& pos) {
  const u64 n = varint_read(data, pos);
  check_count(n, "unpack_bases");
  const std::size_t bytes = (n * 2 + 7) / 8;
  GSNP_CHECK_MSG(pos + bytes <= data.size(), "unpack_bases: truncated frame");
  const u8* src = data.data() + pos;
  pos += bytes;
  std::vector<u8> out(n);
  for (u64 i = 0; i < n; ++i)
    out[i] = static_cast<u8>((src[i >> 2] >> ((i & 3) * 2)) & 3);
  return out;
}

// ---- run-length encoding ---------------------------------------------------

RunDecomposition run_decompose(std::span<const u32> column) {
  // Count the runs first, so both arrays are sized exactly once.
  std::size_t n_runs = column.empty() ? 0 : 1;
  for (std::size_t i = 1; i < column.size(); ++i)
    n_runs += column[i] != column[i - 1];
  RunDecomposition runs;
  runs.values.resize(n_runs);
  runs.lengths.resize(n_runs);
  std::size_t r = 0, run_start = 0;
  for (std::size_t i = 1; i <= column.size(); ++i) {
    if (i < column.size() && column[i] == column[i - 1]) continue;
    runs.values[r] = column[run_start];
    runs.lengths[r] = static_cast<u32>(i - run_start);
    ++r;
    run_start = i;
  }
  return runs;
}

std::vector<u32> run_compose(const RunDecomposition& runs) {
  GSNP_CHECK(runs.values.size() == runs.lengths.size());
  std::vector<u32> column;
  for (std::size_t r = 0; r < runs.values.size(); ++r) {
    check_count(column.size() + runs.lengths[r], "run_compose elements");
    column.insert(column.end(), runs.lengths[r], runs.values[r]);
  }
  return column;
}

void encode_rle(std::span<const u32> column, std::vector<u8>& out) {
  const RunDecomposition runs = run_decompose(column);
  varint_append(out, runs.values.size());
  for (std::size_t r = 0; r < runs.values.size(); ++r) {
    varint_append(out, runs.values[r]);
    varint_append(out, runs.lengths[r]);
  }
}

std::vector<u32> decode_rle(std::span<const u8> data, std::size_t& pos) {
  const u64 n_runs = varint_read(data, pos);
  check_count(n_runs, "decode_rle runs");
  std::vector<u32> column;
  for (u64 r = 0; r < n_runs; ++r) {
    const u32 value = static_cast<u32>(varint_read(data, pos));
    const u32 length = static_cast<u32>(varint_read(data, pos));
    check_count(column.size() + length, "decode_rle elements");
    column.insert(column.end(), length, value);
  }
  return column;
}

// ---- dictionary encoding ---------------------------------------------------

std::vector<u32> build_dictionary(std::span<const u32> column) {
  std::vector<u32> dict(column.begin(), column.end());
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  return dict;
}

void append_dict_frame(std::span<const u32> dict, std::span<const u32> indices,
                       std::vector<u8>& out) {
  varint_append(out, dict.size());
  // Delta-code the sorted dictionary entries.
  u32 prev = 0;
  for (const u32 v : dict) {
    varint_append(out, v - prev);
    prev = v;
  }
  varint_append(out, indices.size());
  if (indices.empty()) return;
  // Fixed-width LSB-first packing, byte-identical to BitWriter (every index
  // is below dict.size(), so it fits `width` bits unmasked).
  const int width = bits_for(dict.size());
  const std::size_t base = out.size();
  out.resize(base + (indices.size() * static_cast<u64>(width) + 7) / 8);
  u8* p = out.data() + base;
  u64 acc = 0;
  int fill = 0;
  for (const u32 idx : indices) {
    acc |= static_cast<u64>(idx) << fill;
    fill += width;
    for (; fill >= 8; fill -= 8, acc >>= 8) *p++ = static_cast<u8>(acc);
  }
  if (fill > 0) *p = static_cast<u8>(acc);
}

void encode_dict(std::span<const u32> column, std::vector<u8>& out) {
  std::vector<u32> dict;
  std::vector<u32> indices(column.size());
  if (!column.empty()) {
    const auto [lo_it, hi_it] = std::minmax_element(column.begin(), column.end());
    const u32 lo = *lo_it;
    const u64 range = static_cast<u64>(*hi_it) - lo + 1;
    if (dict_single_scan(column.size(), range)) {
      // Mark present values, then one ascending scan assigns each its index.
      std::vector<u32> slot(range, 0);
      for (const u32 v : column) slot[v - lo] = 1;
      for (u64 r = 0; r < range; ++r) {
        if (slot[r] == 0) continue;
        slot[r] = static_cast<u32>(dict.size());
        dict.push_back(lo + static_cast<u32>(r));
      }
      for (std::size_t i = 0; i < column.size(); ++i)
        indices[i] = slot[column[i] - lo];
    } else {
      dict = build_dictionary(column);
      for (std::size_t i = 0; i < column.size(); ++i)
        indices[i] = static_cast<u32>(
            std::lower_bound(dict.begin(), dict.end(), column[i]) -
            dict.begin());
    }
  }
  append_dict_frame(dict, indices, out);
}

std::vector<u32> decode_dict(std::span<const u8> data, std::size_t& pos) {
  const u64 dict_size = varint_read(data, pos);
  check_count(dict_size, "decode_dict dictionary");
  std::vector<u32> dict(dict_size);
  u32 prev = 0;
  for (auto& v : dict) {
    prev += static_cast<u32>(varint_read(data, pos));
    v = prev;
  }
  const u64 n = varint_read(data, pos);
  check_count(n, "decode_dict column");
  std::vector<u32> column(n);
  if (n == 0) return column;
  GSNP_CHECK_MSG(dict_size > 0, "decode_dict: empty dictionary, n>0");
  const int width = bits_for(dict_size);
  const std::size_t bytes = (n * static_cast<u64>(width) + 7) / 8;
  GSNP_CHECK_MSG(pos + bytes <= data.size(), "decode_dict: truncated frame");
  BitReader br(data.subspan(pos, bytes));
  pos += bytes;
  for (auto& v : column) {
    const u64 idx = br.read(width);
    GSNP_CHECK_MSG(idx < dict_size, "decode_dict: index out of range");
    v = dict[idx];
  }
  return column;
}

// ---- RLE-DICT ----------------------------------------------------------------

void encode_rle_dict(std::span<const u32> column, std::vector<u8>& out) {
  const RunDecomposition runs = run_decompose(column);
  encode_dict(runs.values, out);
  encode_dict(runs.lengths, out);
}

std::vector<u32> decode_rle_dict(std::span<const u8> data, std::size_t& pos) {
  RunDecomposition runs;
  runs.values = decode_dict(data, pos);
  runs.lengths = decode_dict(data, pos);
  return run_compose(runs);
}

// ---- sparse columns ----------------------------------------------------------

void PairListEncoder::finish(std::vector<u8>& out) const {
  varint_append(out, index_);
  varint_append(out, count_);
  out.insert(out.end(), pairs_.begin(), pairs_.end());
}

void encode_sparse(std::span<const u32> column, std::vector<u8>& out) {
  PairListEncoder pairs;
  for (const u32 v : column) pairs.add(v != 0, v);
  pairs.finish(out);
}

std::vector<u32> decode_sparse(std::span<const u8> data, std::size_t& pos) {
  const u64 n = varint_read(data, pos);
  check_count(n, "decode_sparse");
  const u64 nnz = varint_read(data, pos);
  GSNP_CHECK_MSG(nnz <= n, "decode_sparse: nnz " << nnz << " > n " << n);
  std::vector<u32> column(n, 0);
  u64 index = 0;
  for (u64 k = 0; k < nnz; ++k) {
    index += varint_read(data, pos);
    GSNP_CHECK_MSG(index < n, "decode_sparse: index out of range");
    column[index] = static_cast<u32>(varint_read(data, pos));
  }
  return column;
}

// ---- difference-from-prediction columns ---------------------------------------

void encode_exceptions(std::span<const u32> actual,
                       std::span<const u32> predicted, std::vector<u8>& out) {
  GSNP_CHECK_MSG(actual.size() == predicted.size(),
                 "encode_exceptions: size mismatch");
  PairListEncoder pairs;
  for (std::size_t i = 0; i < actual.size(); ++i)
    pairs.add(actual[i] != predicted[i], actual[i]);
  pairs.finish(out);
}

std::vector<u32> decode_exceptions(std::span<const u32> predicted,
                                   std::span<const u8> data, std::size_t& pos) {
  const u64 n = varint_read(data, pos);
  GSNP_CHECK_MSG(n == predicted.size(), "decode_exceptions: size mismatch");
  const u64 n_exceptions = varint_read(data, pos);
  std::vector<u32> actual(predicted.begin(), predicted.end());
  u64 index = 0;
  for (u64 k = 0; k < n_exceptions; ++k) {
    index += varint_read(data, pos);
    GSNP_CHECK_MSG(index < n, "decode_exceptions: index out of range");
    actual[index] = static_cast<u32>(varint_read(data, pos));
  }
  return actual;
}

// ---- quantized doubles ---------------------------------------------------------

u32 quantize_value(double value, double scale) {
  const double scaled = value * scale;
  const auto v = static_cast<u32>(std::llround(scaled));
  GSNP_CHECK_MSG(std::abs(scaled - static_cast<double>(v)) < 1e-6,
                 "encode_quantized: value " << value << " not on the 1/"
                                            << scale << " grid");
  return v;
}

void encode_quantized_ints(std::span<const u32> ints, double scale,
                           std::vector<u8>& out) {
  GSNP_CHECK(scale > 0.0);
  // The scale is stored as a u64 reinterpretation for exactness.
  u64 scale_bits;
  static_assert(sizeof(scale_bits) == sizeof(scale));
  std::memcpy(&scale_bits, &scale, sizeof(scale));
  varint_append(out, scale_bits);
  encode_dict(ints, out);
}

void encode_quantized(std::span<const double> column, double scale,
                      std::vector<u8>& out) {
  GSNP_CHECK(scale > 0.0);
  std::vector<u32> ints(column.size());
  for (std::size_t i = 0; i < column.size(); ++i)
    ints[i] = quantize_value(column[i], scale);
  encode_quantized_ints(ints, scale, out);
}

std::vector<double> decode_quantized(std::span<const u8> data,
                                     std::size_t& pos) {
  const u64 scale_bits = varint_read(data, pos);
  double scale;
  std::memcpy(&scale, &scale_bits, sizeof(scale));
  const std::vector<u32> ints = decode_dict(data, pos);
  std::vector<double> column(ints.size());
  for (std::size_t i = 0; i < ints.size(); ++i)
    column[i] = static_cast<double>(ints[i]) / scale;
  return column;
}

}  // namespace gsnp::compress
