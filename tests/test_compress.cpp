// Unit and property tests for the compression module: column codecs, zlib
// wrapper, device RLE-DICT parity, and the temporary-input codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/compress/codecs.hpp"
#include "src/compress/device_rledict.hpp"
#include "src/compress/temp_input.hpp"
#include "src/compress/zlibwrap.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::compress {
namespace {

namespace fs = std::filesystem;

/// Column shapes the codecs must handle; mirrors the real output columns,
/// plus the two sides of encode_dict's value-range rule.
enum class Shape {
  kConstant,
  kRunny,
  kRandomSmall,
  kSparse,
  kEmpty,
  kSingle,
  kWideRange,  ///< values up to 2^32-1: the sorting path
  kScanLimit,  ///< range exactly kDictScanSpan x length: the widest scan
};

constexpr u32 kScanLimitLength = 300;

std::vector<u32> make_column(Shape shape, u64 seed) {
  Rng rng(seed);
  std::vector<u32> column;
  switch (shape) {
    case Shape::kConstant:
      column.assign(500, 37);
      break;
    case Shape::kRunny:
      while (column.size() < 1000) {
        const u32 v = static_cast<u32>(rng.uniform(50));
        const u64 run = 1 + rng.uniform(30);
        column.insert(column.end(), run, v);
      }
      break;
    case Shape::kRandomSmall:
      column.resize(800);
      for (auto& v : column) v = static_cast<u32>(rng.uniform(97));
      break;
    case Shape::kSparse:
      column.assign(1000, 0);
      for (int i = 0; i < 30; ++i)
        column[rng.uniform(1000)] = static_cast<u32>(1 + rng.uniform(255));
      break;
    case Shape::kEmpty:
      break;
    case Shape::kSingle:
      column.assign(1, 123456);
      break;
    case Shape::kWideRange:
      column.resize(700);
      for (auto& v : column)
        v = rng.bernoulli(0.2) ? 0xFFFFFFFFu : static_cast<u32>(rng.uniform(40));
      column[3] = 0;
      column[9] = 0xFFFFFFFFu;
      break;
    case Shape::kScanLimit: {
      const u32 lo = 17;
      const u32 range = static_cast<u32>(kDictScanSpan) * kScanLimitLength;
      column.resize(kScanLimitLength);
      for (auto& v : column) v = lo + static_cast<u32>(rng.uniform(range));
      column[0] = lo + range - 1;
      column[kScanLimitLength / 2] = lo;
      break;
    }
  }
  return column;
}

/// The dictionary frame as encode_dict wrote it before its single-scan
/// build: the sorted dictionary from build_dictionary, delta varints, then
/// each value's lower_bound index packed through BitWriter.
std::vector<u8> reference_dict_frame(const std::vector<u32>& column) {
  const std::vector<u32> dict = build_dictionary(column);
  std::vector<u8> out;
  varint_append(out, dict.size());
  u32 prev = 0;
  for (const u32 v : dict) {
    varint_append(out, v - prev);
    prev = v;
  }
  varint_append(out, column.size());
  if (column.empty()) return out;
  BitWriter bw;
  for (const u32 v : column)
    bw.write(static_cast<u64>(std::lower_bound(dict.begin(), dict.end(), v) -
                              dict.begin()),
             bits_for(dict.size()));
  const auto bits = bw.finish();
  out.insert(out.end(), bits.begin(), bits.end());
  return out;
}

class CodecShapes
    : public ::testing::TestWithParam<std::pair<Shape, u64>> {};

TEST_P(CodecShapes, RleRoundTrip) {
  const auto [shape, seed] = GetParam();
  const auto column = make_column(shape, seed);
  std::vector<u8> buf;
  encode_rle(column, buf);
  std::size_t pos = 0;
  EXPECT_EQ(decode_rle(buf, pos), column);
  EXPECT_EQ(pos, buf.size());
}

TEST_P(CodecShapes, DictRoundTrip) {
  const auto [shape, seed] = GetParam();
  const auto column = make_column(shape, seed);
  std::vector<u8> buf;
  encode_dict(column, buf);
  std::size_t pos = 0;
  EXPECT_EQ(decode_dict(buf, pos), column);
  EXPECT_EQ(pos, buf.size());
}

TEST_P(CodecShapes, DictFrameMatchesReference) {
  const auto [shape, seed] = GetParam();
  const auto column = make_column(shape, seed);
  std::vector<u8> buf = {0xAB};  // encode_dict appends after existing bytes
  encode_dict(column, buf);
  std::vector<u8> expected = {0xAB};
  const std::vector<u8> frame = reference_dict_frame(column);
  expected.insert(expected.end(), frame.begin(), frame.end());
  EXPECT_EQ(buf, expected);
}

TEST(DictRangeRule, ShapesSitOnEitherSideOfTheLimit) {
  const auto range = [](const std::vector<u32>& c) {
    const auto [lo, hi] = std::minmax_element(c.begin(), c.end());
    return static_cast<u64>(*hi) - *lo + 1;
  };
  const auto at_limit = make_column(Shape::kScanLimit, 8);
  EXPECT_EQ(range(at_limit), kDictScanSpan * kScanLimitLength);
  EXPECT_TRUE(dict_single_scan(at_limit.size(), range(at_limit)));
  EXPECT_FALSE(dict_single_scan(at_limit.size(), range(at_limit) + 1));
  const auto wide = make_column(Shape::kWideRange, 9);
  EXPECT_EQ(range(wide), 1ull << 32);
  EXPECT_FALSE(dict_single_scan(wide.size(), range(wide)));
}

TEST_P(CodecShapes, RleDictRoundTrip) {
  const auto [shape, seed] = GetParam();
  const auto column = make_column(shape, seed);
  std::vector<u8> buf;
  encode_rle_dict(column, buf);
  std::size_t pos = 0;
  EXPECT_EQ(decode_rle_dict(buf, pos), column);
  EXPECT_EQ(pos, buf.size());
}

TEST_P(CodecShapes, SparseRoundTrip) {
  const auto [shape, seed] = GetParam();
  const auto column = make_column(shape, seed);
  std::vector<u8> buf;
  encode_sparse(column, buf);
  std::size_t pos = 0;
  EXPECT_EQ(decode_sparse(buf, pos), column);
}

TEST_P(CodecShapes, DeviceRleDictMatchesHostBytes) {
  const auto [shape, seed] = GetParam();
  const auto column = make_column(shape, seed);
  std::vector<u8> host_bytes, device_bytes;
  encode_rle_dict(column, host_bytes);
  device::Device dev;
  device_encode_rle_dict(dev, column, device_bytes);
  EXPECT_EQ(device_bytes, host_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodecShapes,
    ::testing::Values(std::pair{Shape::kConstant, 1ull},
                      std::pair{Shape::kRunny, 2ull},
                      std::pair{Shape::kRunny, 3ull},
                      std::pair{Shape::kRandomSmall, 4ull},
                      std::pair{Shape::kSparse, 5ull},
                      std::pair{Shape::kEmpty, 6ull},
                      std::pair{Shape::kSingle, 7ull},
                      std::pair{Shape::kWideRange, 8ull},
                      std::pair{Shape::kScanLimit, 9ull}));

// ---- pack_bases -------------------------------------------------------------

TEST(PackBases, RoundTrip) {
  std::vector<u8> bases = {0, 1, 2, 3, 3, 2, 1, 0, 2};
  std::vector<u8> buf;
  pack_bases(bases, buf);
  std::size_t pos = 0;
  EXPECT_EQ(unpack_bases(buf, pos), bases);
  // 9 bases -> varint(9) + 3 payload bytes.
  EXPECT_EQ(buf.size(), 4u);
}

TEST(PackBases, RejectsOutOfRange) {
  std::vector<u8> bases = {0, 4};
  std::vector<u8> buf;
  EXPECT_THROW(pack_bases(bases, buf), Error);
}

TEST(PackBases, QuarterByteDensity) {
  std::vector<u8> bases(4000, 2);
  std::vector<u8> buf;
  pack_bases(bases, buf);
  EXPECT_LE(buf.size(), 1003u);
}

// ---- run decomposition ---------------------------------------------------------

TEST(RunDecompose, KnownCase) {
  const std::vector<u32> column = {5, 5, 5, 2, 9, 9};
  const RunDecomposition runs = run_decompose(column);
  EXPECT_EQ(runs.values, (std::vector<u32>{5, 2, 9}));
  EXPECT_EQ(runs.lengths, (std::vector<u32>{3, 1, 2}));
  EXPECT_EQ(run_compose(runs), column);
}

TEST(RunDecompose, DeviceMatchesHost) {
  for (const u64 seed : {10ull, 11ull, 12ull}) {
    const auto column = make_column(Shape::kRunny, seed);
    const RunDecomposition host = run_decompose(column);
    device::Device dev;
    const RunDecomposition device = device_run_decompose(dev, column);
    EXPECT_EQ(device.values, host.values);
    EXPECT_EQ(device.lengths, host.lengths);
  }
}

TEST(DeviceDict, MatchesHostDictionary) {
  const auto column = make_column(Shape::kRandomSmall, 21);
  device::Device dev;
  const DictMapping m = device_build_dict(dev, column);
  EXPECT_EQ(m.dict, build_dictionary(column));
  ASSERT_EQ(m.indices.size(), column.size());
  for (std::size_t i = 0; i < column.size(); ++i)
    EXPECT_EQ(m.dict[m.indices[i]], column[i]);
}

// ---- exceptions codec ----------------------------------------------------------

TEST(Exceptions, RoundTripWithFewDiffs) {
  std::vector<u32> predicted(1000, 7);
  std::vector<u32> actual = predicted;
  actual[3] = 9;
  actual[500] = 0;
  actual[999] = 1;
  std::vector<u8> buf;
  encode_exceptions(actual, predicted, buf);
  std::size_t pos = 0;
  EXPECT_EQ(decode_exceptions(predicted, buf, pos), actual);
  EXPECT_LT(buf.size(), 20u);  // three exceptions, a handful of bytes
}

TEST(Exceptions, SizeMismatchThrows) {
  std::vector<u32> a(5), b(6);
  std::vector<u8> buf;
  EXPECT_THROW(encode_exceptions(a, b, buf), Error);
}

// ---- quantized doubles ------------------------------------------------------------

TEST(Quantized, RoundTripOnGrid) {
  std::vector<double> values = {0.0, 0.5, 0.1234, 1.0, 0.9999};
  std::vector<u8> buf;
  encode_quantized(values, 1e4, buf);
  std::size_t pos = 0;
  const auto decoded = decode_quantized(buf, pos);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_DOUBLE_EQ(decoded[i], values[i]);
}

TEST(Quantized, OffGridThrows) {
  std::vector<double> values = {0.12345};  // not on the 1e-4 grid
  std::vector<u8> buf;
  EXPECT_THROW(encode_quantized(values, 1e4, buf), Error);
}

// ---- zlib ---------------------------------------------------------------------------

TEST(Zlib, RoundTrip) {
  Rng rng(31);
  std::vector<u8> data(10000);
  for (auto& b : data) b = static_cast<u8>(rng.uniform(5));  // compressible
  const auto packed = zlib_compress(data);
  EXPECT_LT(packed.size(), data.size() / 2);
  EXPECT_EQ(zlib_decompress(packed), data);
}

TEST(Zlib, EmptyInput) {
  const std::vector<u8> empty;
  EXPECT_EQ(zlib_decompress(zlib_compress(empty)), empty);
}

// ---- codec effectiveness (the paper's premise) ----------------------------------------

TEST(Effectiveness, RleDictBeatsRawOnQualityLikeColumns) {
  const auto column = make_column(Shape::kRunny, 41);
  std::vector<u8> buf;
  encode_rle_dict(column, buf);
  EXPECT_LT(buf.size(), column.size());  // < 1 byte per 4-byte value
}

TEST(Effectiveness, SparseBeatsDenseOnSecondAlleleColumns) {
  const auto column = make_column(Shape::kSparse, 42);
  std::vector<u8> buf;
  encode_sparse(column, buf);
  EXPECT_LT(buf.size(), 200u);  // 30 non-zeros out of 1000
}

// ---- temp input codec -------------------------------------------------------------------

class TempInput : public ::testing::Test {
 protected:
  void SetUp() override {
    genome::GenomeSpec gspec;
    gspec.length = 20000;
    ref_ = genome::generate_reference(gspec);
    individual_.emplace(ref_, std::vector<genome::PlantedSnp>{});
    reads::ReadSimSpec rspec;
    rspec.depth = 5.0;
    records_ = reads::simulate_reads(*individual_, rspec);
  }
  genome::Reference ref_;
  std::optional<genome::Diploid> individual_;
  std::vector<reads::AlignmentRecord> records_;
};

TEST_F(TempInput, ChunkRoundTripPreservesEverythingButIds) {
  const auto chunk = encode_alignment_chunk(records_);
  const auto decoded = decode_alignment_chunk(chunk, ref_.name());
  ASSERT_EQ(decoded.size(), records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    EXPECT_EQ(decoded[i].seq, records_[i].seq);
    EXPECT_EQ(decoded[i].qual, records_[i].qual);
    EXPECT_EQ(decoded[i].pos, records_[i].pos);
    EXPECT_EQ(decoded[i].strand, records_[i].strand);
    EXPECT_EQ(decoded[i].hit_count, records_[i].hit_count);
    EXPECT_EQ(decoded[i].length, records_[i].length);
    EXPECT_EQ(decoded[i].pair_tag, records_[i].pair_tag);
    EXPECT_EQ(decoded[i].chr_name, ref_.name());
    EXPECT_TRUE(decoded[i].read_id.empty());  // ids are dropped by design
  }
}

TEST_F(TempInput, FileRoundTripStreaming) {
  const fs::path path = test_temp_path("gsnp_test.tmp");
  TempInputWriter writer(path, ref_.name(), /*chunk_records=*/100);
  for (const auto& rec : records_) writer.add(rec);
  const u64 bytes = writer.finish();
  EXPECT_GT(bytes, 0u);

  TempInputReader reader(path);
  std::size_t i = 0;
  while (auto rec = reader.next()) {
    ASSERT_LT(i, records_.size());
    EXPECT_EQ(rec->pos, records_[i].pos);
    EXPECT_EQ(rec->seq, records_[i].seq);
    ++i;
  }
  EXPECT_EQ(i, records_.size());
  fs::remove(path);
}

TEST_F(TempInput, ChunkViewsReuseOneByteBuffer) {
  // One buffer decodes a large chunk, a small one, then the large one again;
  // each time the views equal the records.
  const std::span<const reads::AlignmentRecord> all(records_);
  const std::vector<u8> large = encode_alignment_chunk(all);
  const std::vector<u8> small = encode_alignment_chunk(all.subspan(7, 3));
  std::vector<char> bytes;
  for (const auto& [chunk, first] :
       {std::pair{&large, 0}, std::pair{&small, 7}, std::pair{&large, 0}}) {
    const ChunkHead head = read_chunk_head(*chunk);
    ASSERT_EQ(head.first_pos, records_[first].pos);
    std::vector<reads::AlignmentView> views(head.records);
    decode_chunk_views(*chunk, views, bytes);
    EXPECT_EQ(bytes.size(), 2 * head.bases);
    for (std::size_t i = 0; i < views.size(); ++i) {
      const reads::AlignmentRecord& rec = records_[first + i];
      ASSERT_EQ(views[i].pos, rec.pos);
      EXPECT_EQ(views[i].seq, rec.seq);
      EXPECT_EQ(views[i].qual, rec.qual);
      EXPECT_EQ(views[i].length, rec.length);
      EXPECT_EQ(views[i].strand, rec.strand);
      EXPECT_EQ(views[i].hit_count, rec.hit_count);
      EXPECT_EQ(views[i].pair_tag, rec.pair_tag);
      EXPECT_TRUE(views[i].read_id.empty());
      EXPECT_TRUE(views[i].chr_name.empty());
    }
  }
  // The views must match the chunk's record count.
  std::vector<reads::AlignmentView> wrong(2);
  EXPECT_THROW(decode_chunk_views(small, wrong, bytes), Error);
}

TEST(TempInputEdge, RecordCountBeyondThePayloadRaises) {
  // Every record has a position varint, so a count above the payload's
  // size cannot be right.
  std::vector<u8> payload;
  varint_append(payload, 1000);
  varint_append(payload, 5);
  EXPECT_THROW(read_chunk_head(payload), Error);
  EXPECT_THROW(decode_alignment_chunk(payload, "c"), Error);
}

TEST_F(TempInput, CompressionBeatsTextFormat) {
  u64 text_bytes = 0;
  for (const auto& rec : records_)
    text_bytes += reads::format_alignment(rec).size() + 1;
  const auto chunk = encode_alignment_chunk(records_);
  // Paper §V-A / Fig 10(b): compressed temp input is ~1/3 of the original.
  EXPECT_LT(chunk.size(), text_bytes / 2);
}

TEST(TempInputEdge, EmptyChunk) {
  const auto chunk =
      encode_alignment_chunk(std::vector<reads::AlignmentRecord>{});
  const auto decoded = decode_alignment_chunk(chunk, "c");
  EXPECT_TRUE(decoded.empty());
}

TEST(TempInputEdge, UnsortedRecordsRejected) {
  std::vector<reads::AlignmentRecord> recs(2);
  recs[0].pos = 10;
  recs[0].length = 4;
  recs[0].seq = "ACGT";
  recs[0].qual = "IIII";
  recs[1] = recs[0];
  recs[1].pos = 5;
  EXPECT_THROW(encode_alignment_chunk(recs), Error);
}

TEST(TempInputEdge, NBasesSurvive) {
  std::vector<reads::AlignmentRecord> recs(1);
  recs[0].pos = 0;
  recs[0].length = 5;
  recs[0].seq = "ACNGT";
  recs[0].qual = "IIIII";
  const auto decoded =
      decode_alignment_chunk(encode_alignment_chunk(recs), "c");
  EXPECT_EQ(decoded[0].seq, "ACNGT");
}

}  // namespace
}  // namespace gsnp::compress
