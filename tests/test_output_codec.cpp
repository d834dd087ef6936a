// Tests for the 17-column output compression: window frames, file container,
// device/host parity, and the decompression reader API.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/compress/device_rledict.hpp"
#include <cmath>

#include "src/core/consistency.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/ranksum.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::core {
namespace {

namespace fs = std::filesystem;

/// Rows shaped like real output: mostly hom-ref with high-quality stats and
/// occasional SNPs / uncovered sites / N reference bases.
std::vector<SnpRow> realistic_rows(u64 n, u64 start_pos, u64 seed) {
  Rng rng(seed);
  std::vector<SnpRow> rows(n);
  for (u64 i = 0; i < n; ++i) {
    SnpRow& r = rows[i];
    r.pos = start_pos + i;
    const bool n_ref = rng.bernoulli(0.002);
    r.ref_base = n_ref ? kInvalidBase : static_cast<u8>(rng.uniform(4));
    const bool covered = rng.bernoulli(0.9);
    if (!covered || n_ref) {
      r.genotype_rank =
          n_ref ? i8{-1}
                : static_cast<i8>(genotype_rank(r.ref_base, r.ref_base));
      r.rank_sum_p = 1.0;
      continue;
    }
    const bool snp = rng.bernoulli(0.001);
    const u8 alt = static_cast<u8>((r.ref_base + 1 + rng.uniform(3)) & 3);
    r.genotype_rank = static_cast<i8>(
        snp ? genotype_rank(std::min(r.ref_base, alt), std::max(r.ref_base, alt))
            : genotype_rank(r.ref_base, r.ref_base));
    r.quality = static_cast<u16>(rng.uniform(100));
    r.best_base = r.ref_base;
    r.best_avg_quality = static_cast<u16>(24 + 3 * rng.uniform(6));
    r.best_uniq_count = static_cast<u32>(5 + rng.uniform(10));
    r.best_all_count = r.best_uniq_count + static_cast<u32>(rng.uniform(2));
    if (snp) {
      r.second_base = alt;
      r.second_avg_quality = static_cast<u16>(20 + rng.uniform(20));
      r.second_uniq_count = static_cast<u32>(1 + rng.uniform(5));
      r.second_all_count = r.second_uniq_count;
    }
    r.depth = r.best_all_count + r.second_all_count;
    r.rank_sum_p = round_p(rng.uniform_double());
    r.copy_number =
        std::round(100.0 * (1.0 + rng.uniform_double() * 0.2)) / 100.0;
    r.in_dbsnp = rng.bernoulli(0.01);
  }
  return rows;
}

class WindowCodec : public ::testing::TestWithParam<u64> {};

TEST_P(WindowCodec, RoundTrip) {
  const auto rows = realistic_rows(3000, 64000, GetParam());
  const auto frame = compress_snp_window(rows, host_rle_dict());
  const auto decoded = decompress_snp_window(frame);
  ASSERT_EQ(decoded.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    ASSERT_EQ(decoded[i], rows[i]) << "row " << i;
}

TEST_P(WindowCodec, DeviceRleDictProducesIdenticalFrames) {
  const auto rows = realistic_rows(2000, 0, GetParam());
  const auto host_frame = compress_snp_window(rows, host_rle_dict());
  device::Device dev;
  const RleDictFn device_rle = [&dev](std::span<const u32> col,
                                      std::vector<u8>& out) {
    compress::device_encode_rle_dict(dev, col, out);
  };
  const auto device_frame = compress_snp_window(rows, device_rle);
  EXPECT_EQ(device_frame, host_frame);
}

TEST_P(WindowCodec, HostCodecTasksMatchTheCallerOrderedFrame) {
  // The host codec fills its columns and encodes every column group as an
  // executor task; its frame is the caller-ordered frame a pluggable
  // rle_dict makes, fanned out (a window past kSitesPerChunk rows) and
  // inline.
  for (const u64 n : {u64{3000}, u64{40'000}}) {
    const auto rows = realistic_rows(n, 1000, GetParam());
    const auto ordered = compress_snp_window(rows, host_rle_dict());
    EXPECT_EQ(compress_snp_window(rows), ordered) << n << " rows";
    const InlineComputeScope one_thread;
    EXPECT_EQ(compress_snp_window(rows), ordered) << n << " rows, inline";
  }
  EXPECT_EQ(compress_snp_window(std::vector<SnpRow>{}),
            compress_snp_window(std::vector<SnpRow>{}, host_rle_dict()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowCodec, ::testing::Values(1, 2, 3));

TEST(WindowCodecEdge, EmptyWindow) {
  const auto frame =
      compress_snp_window(std::vector<SnpRow>{}, host_rle_dict());
  EXPECT_TRUE(decompress_snp_window(frame).empty());
}

TEST(WindowCodecEdge, SingleRow) {
  const auto rows = realistic_rows(1, 42, 9);
  const auto frame = compress_snp_window(rows, host_rle_dict());
  const auto decoded = decompress_snp_window(frame);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], rows[0]);
}

TEST(WindowCodecEdge, TrailingGarbageDetected) {
  const auto rows = realistic_rows(10, 0, 10);
  auto frame = compress_snp_window(rows, host_rle_dict());
  frame.push_back(0xAB);
  EXPECT_THROW(decompress_snp_window(frame), Error);
}

TEST(CompressionRatio, BeatsTextByALot) {
  // The Fig 9(a) effect: custom columnar compression vs the text format.
  const auto rows = realistic_rows(20000, 0, 21);
  const auto frame = compress_snp_window(rows, host_rle_dict());
  u64 text_bytes = 0;
  for (const auto& r : rows) text_bytes += format_snp_row("chr1", r).size() + 1;
  EXPECT_LT(frame.size() * 5, text_bytes);
}

// ---- file container -----------------------------------------------------------------

TEST(OutputFile, MultiWindowRoundTrip) {
  const fs::path path = test_temp_path("gsnp_out_test.bin");
  const auto w1 = realistic_rows(500, 0, 31);
  const auto w2 = realistic_rows(500, 500, 32);
  {
    SnpOutputWriter writer(path, "chrF");
    writer.write_window(w1, host_rle_dict());
    writer.write_window(w2, host_rle_dict());
    EXPECT_GT(writer.finish(), 0u);
  }
  SnpOutputReader reader(path);
  EXPECT_EQ(reader.seq_name(), "chrF");
  std::vector<SnpRow> rows;
  ASSERT_TRUE(reader.next_window(rows));
  EXPECT_EQ(rows, w1);
  ASSERT_TRUE(reader.next_window(rows));
  EXPECT_EQ(rows, w2);
  EXPECT_FALSE(reader.next_window(rows));
  fs::remove(path);
}

TEST(OutputFile, BadMagicRejected) {
  const fs::path path = test_temp_path("gsnp_bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTMAGIC and some data";
  }
  EXPECT_THROW(SnpOutputReader reader(path), Error);
  fs::remove(path);
}

TEST(OutputFile, TextWriterRoundTrip) {
  const fs::path path = test_temp_path("gsnp_out_test.txt");
  const auto rows = realistic_rows(300, 0, 41);
  {
    SnpTextWriter writer(path, "chrT");
    writer.write_window(rows);
    writer.finish();
  }
  std::string seq_name;
  const auto parsed = read_snp_text_file(path, seq_name);
  EXPECT_EQ(seq_name, "chrT");
  EXPECT_EQ(parsed, rows);
  fs::remove(path);
}

TEST(OutputFile, ReadSnpOutputSniffsFormat) {
  const fs::path bin = test_temp_path("gsnp_sniff.bin");
  const fs::path txt = test_temp_path("gsnp_sniff.txt");
  const auto rows = realistic_rows(100, 0, 51);
  {
    SnpOutputWriter writer(bin, "chrS");
    writer.write_window(rows, host_rle_dict());
    writer.finish();
    SnpTextWriter twriter(txt, "chrS");
    twriter.write_window(rows);
    twriter.finish();
  }
  std::string name_a, name_b;
  EXPECT_EQ(read_snp_output(bin, name_a), read_snp_output(txt, name_b));
  EXPECT_EQ(name_a, name_b);
  fs::remove(bin);
  fs::remove(txt);
}

}  // namespace
}  // namespace gsnp::core
