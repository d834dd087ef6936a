// Tests for the SAM-format subset: record conversion (both strands, soft
// clips, tags), streaming reader, and engine-result equivalence between SAM
// and native SOAP input.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/consistency.hpp"
#include "src/core/engine.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/sam.hpp"
#include "src/reads/simulator.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::reads {
namespace {

namespace fs = std::filesystem;

AlignmentRecord forward_record() {
  AlignmentRecord rec;
  rec.read_id = "r1";
  rec.seq = "ACGTA";
  rec.qual = "IJKLM";
  rec.hit_count = 3;
  rec.pair_tag = 'a';
  rec.length = 5;
  rec.strand = Strand::kForward;
  rec.chr_name = "chrZ";
  rec.pos = 99;
  return rec;
}

TEST(Sam, ForwardRoundTrip) {
  const AlignmentRecord rec = forward_record();
  const auto parsed = parse_sam_record(format_sam_record(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, rec);
}

TEST(Sam, ReverseRoundTrip) {
  AlignmentRecord rec = forward_record();
  rec.strand = Strand::kReverse;
  rec.pair_tag = 'b';
  const std::string line = format_sam_record(rec);
  // SAM stores the forward-strand sequence: reverse complement of the read.
  EXPECT_NE(line.find("TACGT"), std::string::npos);
  const auto parsed = parse_sam_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, rec);
}

TEST(Sam, FlagBitsInterpreted) {
  // Unmapped / secondary / supplementary records are skipped.
  EXPECT_FALSE(parse_sam_record("r\t4\tchr\t100\t60\t5M\t*\t0\t0\tACGTA\tIIIII")
                   .has_value());
  EXPECT_FALSE(
      parse_sam_record("r\t256\tchr\t100\t60\t5M\t*\t0\t0\tACGTA\tIIIII")
          .has_value());
  EXPECT_FALSE(
      parse_sam_record("r\t2048\tchr\t100\t60\t5M\t*\t0\t0\tACGTA\tIIIII")
          .has_value());
  EXPECT_TRUE(parse_sam_record("r\t0\tchr\t100\t60\t5M\t*\t0\t0\tACGTA\tIIIII")
                  .has_value());
}

TEST(Sam, SoftClipsTrimmed) {
  const auto rec =
      parse_sam_record("r\t0\tchr\t100\t60\t2S3M\t*\t0\t0\tNNACG\t##III");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->seq, "ACG");
  EXPECT_EQ(rec->length, 3);
  EXPECT_EQ(rec->pos, 99u);
}

TEST(Sam, GappedAlignmentsSkipped) {
  EXPECT_FALSE(
      parse_sam_record("r\t0\tchr\t100\t60\t2M1D3M\t*\t0\t0\tACGTA\tIIIII")
          .has_value());
  EXPECT_FALSE(
      parse_sam_record("r\t0\tchr\t100\t60\t2M1I2M\t*\t0\t0\tACGTA\tIIIII")
          .has_value());
}

TEST(Sam, NhTagSetsHitCount) {
  const auto rec = parse_sam_record(
      "r\t0\tchr\t100\t60\t5M\t*\t0\t0\tACGTA\tIIIII\tAS:i:0\tNH:i:7");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->hit_count, 7u);
}

TEST(Sam, MissingQualBecomesQ0) {
  const auto rec =
      parse_sam_record("r\t0\tchr\t100\t60\t3M\t*\t0\t0\tACG\t*");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->qual, "!!!");
}

TEST(Sam, MalformedLineThrows) {
  EXPECT_THROW(parse_sam_record("too\tfew"), Error);
  EXPECT_THROW(parse_sam_record("r\t0\tchr\t0\t60\t3M\t*\t0\t0\tACG\tIII"),
               Error);  // 0-based pos
}

TEST(SamCigar, RejectsMissingZeroOrStrayCounts) {
  u32 m = 0, clip = 0;
  EXPECT_EQ(parse_simple_cigar("M", m, clip), CigarStatus::kMalformed);
  EXPECT_EQ(parse_simple_cigar("0M", m, clip), CigarStatus::kMalformed);
  EXPECT_EQ(parse_simple_cigar("2S0M", m, clip), CigarStatus::kMalformed);
  EXPECT_EQ(parse_simple_cigar("5M3", m, clip), CigarStatus::kMalformed);
  EXPECT_EQ(parse_simple_cigar("1?1M", m, clip), CigarStatus::kMalformed);
}

TEST(SamCigar, GuardsU32Overflow) {
  u32 m = 0, clip = 0;
  EXPECT_EQ(parse_simple_cigar("4294967296M", m, clip),
            CigarStatus::kOverflow);
  EXPECT_EQ(parse_simple_cigar("99999999999999999999M", m, clip),
            CigarStatus::kOverflow);
  EXPECT_EQ(parse_simple_cigar("4000000000S4000000000S5M", m, clip),
            CigarStatus::kOverflow);  // left-clip accumulation
}

TEST(SamCigar, AcceptsClippedSingleRun) {
  u32 m = 0, clip = 0;
  EXPECT_EQ(parse_simple_cigar("2S3M1S", m, clip), CigarStatus::kSimple);
  EXPECT_EQ(m, 3u);
  EXPECT_EQ(clip, 2u);
  EXPECT_EQ(parse_simple_cigar("*", m, clip), CigarStatus::kUnsupported);
  EXPECT_EQ(parse_simple_cigar("2M1D3M", m, clip), CigarStatus::kUnsupported);
}

/// The reason code a malformed SAM line is rejected with.
IngestReason sam_reason(const std::string& line) {
  try {
    parse_sam_record(line);
  } catch (const ParseError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "no ParseError for: " << line;
  return IngestReason::kCount;
}

TEST(Sam, ReasonCodeTaxonomy) {
  EXPECT_EQ(sam_reason("too\tfew"), IngestReason::kTruncatedRecord);
  EXPECT_EQ(sam_reason("r\tx\tchr\t100\t60\t3M\t*\t0\t0\tACG\tIII"),
            IngestReason::kBadInteger);
  EXPECT_EQ(sam_reason(
                "r\t99999999999999999999\tchr\t100\t60\t3M\t*\t0\t0\tACG\tIII"),
            IngestReason::kIntegerOverflow);
  EXPECT_EQ(sam_reason("r\t0\tchr\t100\t60\t0M\t*\t0\t0\tACG\tIII"),
            IngestReason::kBadCigar);
  EXPECT_EQ(sam_reason("r\t0\tchr\t100\t60\t4294967296M\t*\t0\t0\tACG\tIII"),
            IngestReason::kCigarOverflow);
  // A match run that fits u32 but overflows the u16 record length.
  EXPECT_EQ(sam_reason("r\t0\tchr\t100\t60\t70000M\t*\t0\t0\tACG\tIII"),
            IngestReason::kCigarOverflow);
  // Fits u16 but exceeds the 256-base engine limit (kMaxReadLen guard).
  EXPECT_EQ(sam_reason("r\t0\tchr\t100\t60\t300M\t*\t0\t0\tACG\tIII"),
            IngestReason::kReadTooLong);
  EXPECT_EQ(sam_reason("r\t0\tchr\t0\t60\t3M\t*\t0\t0\tACG\tIII"),
            IngestReason::kPositionOutOfRange);
  EXPECT_EQ(sam_reason("r\t0\tchr\t100\t60\t3M\t*\t0\t0\tACGT\tIII"),
            IngestReason::kLengthMismatch);
  EXPECT_EQ(sam_reason("r\t0\tchr\t100\t60\t3M\t*\t0\t0\tA#G\tIII"),
            IngestReason::kBadField);  // non-base character
  EXPECT_EQ(sam_reason("r\t0\tchr\t100\t60\t3M\t*\t0\t0\tACG\tI I"),
            IngestReason::kBadField);  // quality byte below '!'
  EXPECT_EQ(sam_reason("r\t0\t*\t100\t60\t3M\t*\t0\t0\tACG\tIII"),
            IngestReason::kBadField);  // mapped record without RNAME
}

TEST(Sam, PositionBoundsCheckedAgainstReference) {
  ParseContext ctx;
  ctx.reference_length = 100;
  // [97, 100) fits exactly; [98, 101) extends past the end.
  EXPECT_TRUE(
      parse_sam_record("r\t0\tchr\t98\t60\t3M\t*\t0\t0\tACG\tIII", ctx)
          .has_value());
  try {
    parse_sam_record("r\t0\tchr\t99\t60\t3M\t*\t0\t0\tACG\tIII", ctx);
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.reason(), IngestReason::kPositionOutOfRange);
  }
}

TEST(Sam, SeededPropertyRoundTrip) {
  // Any record the writer can produce must survive format -> parse exactly,
  // across strands, lengths, qualities, and hit counts.
  Rng rng(20260806);
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  for (int i = 0; i < 200; ++i) {
    AlignmentRecord rec;
    rec.read_id = "read" + std::to_string(i);
    const u32 len = 1 + static_cast<u32>(rng.uniform(255));
    for (u32 j = 0; j < len; ++j) {
      rec.seq.push_back(kBases[rng.uniform(4)]);
      rec.qual.push_back(static_cast<char>('!' + rng.uniform(64)));
    }
    rec.length = static_cast<u16>(len);
    rec.hit_count = 1 + static_cast<u32>(rng.uniform(999));
    rec.pair_tag = rng.bernoulli(0.5) ? 'a' : 'b';
    rec.strand = rng.bernoulli(0.5) ? Strand::kForward : Strand::kReverse;
    rec.chr_name = "chrP";
    rec.pos = 1 + rng.uniform(1'000'000);
    const auto parsed = parse_sam_record(format_sam_record(rec));
    ASSERT_TRUE(parsed.has_value()) << "record " << i;
    EXPECT_EQ(*parsed, rec) << "record " << i;
  }
}

class SamFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_sam_test");
    fs::create_directories(dir_);
    genome::GenomeSpec gspec;
    gspec.name = "chrS";
    gspec.length = 15'000;
    ref_ = genome::generate_reference(gspec);
    genome::SnpPlantSpec pspec;
    const auto snps = genome::plant_snps(ref_, pspec);
    const genome::Diploid individual(ref_, snps);
    ReadSimSpec rspec;
    rspec.depth = 6.0;
    records_ = simulate_reads(individual, rspec);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  genome::Reference ref_;
  std::vector<AlignmentRecord> records_;
};

TEST_F(SamFiles, FileRoundTripPreservesRecords) {
  write_sam_file(dir_ / "a.sam", records_, ref_.name(), ref_.size());
  SamReader reader(dir_ / "a.sam");
  std::size_t i = 0;
  while (auto rec = reader.next()) {
    ASSERT_LT(i, records_.size());
    EXPECT_EQ(*rec, records_[i]) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, records_.size());
  EXPECT_EQ(reader.skipped(), 0u);
}

TEST_F(SamFiles, SamInputGivesIdenticalCalls) {
  // The integration property: calling from SAM-converted input must produce
  // exactly the rows the native SOAP path produces.
  write_alignment_file(dir_ / "a.soap", records_);
  write_sam_file(dir_ / "a.sam", records_, ref_.name(), ref_.size());
  const u64 n = sam_to_soap(dir_ / "a.sam", dir_ / "converted.soap");
  EXPECT_EQ(n, records_.size());

  core::EngineConfig config;
  config.reference = &ref_;
  config.temp_file = dir_ / "t.tmp";

  config.alignment_file = dir_ / "a.soap";
  config.output_file = dir_ / "native.snp";
  core::run_gsnp_cpu(config);

  config.alignment_file = dir_ / "converted.soap";
  config.output_file = dir_ / "fromsam.snp";
  core::run_gsnp_cpu(config);

  const auto report =
      core::compare_output_files(dir_ / "native.snp", dir_ / "fromsam.snp");
  EXPECT_TRUE(report.identical) << report.detail;
}

TEST_F(SamFiles, UnsortedSamRejectedByConverter) {
  std::vector<AlignmentRecord> unsorted = {records_[10], records_[2]};
  write_sam_file(dir_ / "u.sam", unsorted, ref_.name(), ref_.size());
  EXPECT_THROW(sam_to_soap(dir_ / "u.sam", dir_ / "u.soap"), Error);
}

TEST_F(SamFiles, UnsortedSamErrorNamesTheLine) {
  std::vector<AlignmentRecord> unsorted = {records_[10], records_[2]};
  write_sam_file(dir_ / "u.sam", unsorted, ref_.name(), ref_.size());
  try {
    sam_to_soap(dir_ / "u.sam", dir_ / "u.soap");
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.reason(), IngestReason::kSortOrderViolation);
    // 3 header lines + 2 records: the violation is on line 5.
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

TEST_F(SamFiles, MultiChromosomeBlocksAccepted) {
  // chr order A then B with positions restarting is valid (chr, pos) order.
  std::ofstream out(dir_ / "m.sam");
  out << "@HD\tVN:1.6\tSO:coordinate\n"
      << "r1\t0\tchrA\t100\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r2\t0\tchrA\t150\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r3\t0\tchrB\t10\t60\t3M\t*\t0\t0\tACG\tIII\n";
  out.close();
  SamReader reader(dir_ / "m.sam");
  u64 n = 0;
  while (reader.next()) ++n;
  EXPECT_EQ(n, 3u);
  EXPECT_TRUE(reader.stats().clean());
}

TEST_F(SamFiles, ChromosomeReappearanceRejected) {
  std::ofstream out(dir_ / "r.sam");
  out << "r1\t0\tchrA\t100\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r2\t0\tchrB\t10\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r3\t0\tchrA\t200\t60\t3M\t*\t0\t0\tACG\tIII\n";
  out.close();
  SamReader reader(dir_ / "r.sam");
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_TRUE(reader.next().has_value());
  try {
    reader.next();
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.reason(), IngestReason::kSortOrderViolation);
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST_F(SamFiles, ReaderSurfacesSkippedAndStats) {
  // One supported record, one unmapped, one secondary: skipped() == 2.
  std::ofstream out(dir_ / "s.sam");
  out << "@HD\tVN:1.6\tSO:coordinate\n"
      << "r1\t0\tchrA\t100\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r2\t4\tchrA\t150\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r3\t256\tchrA\t200\t60\t3M\t*\t0\t0\tACG\tIII\n";
  out.close();
  SamReader reader(dir_ / "s.sam");
  u64 n = 0;
  while (reader.next()) ++n;
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(reader.skipped(), 2u);
  EXPECT_EQ(reader.stats().records_ok, 1u);
  EXPECT_EQ(reader.stats().records_unsupported, 2u);
  EXPECT_EQ(reader.stats().records_quarantined, 0u);
  EXPECT_EQ(reader.stats().total(), 3u);

  IngestStats stats;
  sam_to_soap(dir_ / "s.sam", dir_ / "s.soap", {}, &stats);
  EXPECT_EQ(stats.records_unsupported, 2u);
  EXPECT_EQ(stats.records_ok, 1u);
}

}  // namespace
}  // namespace gsnp::reads
