// Tests for the SAM-format subset: the line parser (both strands, soft
// clips, tags), the alignment readers on SAM files, and engine-result
// equivalence between SAM and SOAP input on every backend.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/backend.hpp"
#include "src/core/consistency.hpp"
#include "src/core/engine.hpp"
#include "src/device/device.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/sam.hpp"
#include "src/reads/simulator.hpp"
#include "tests/sam_text.hpp"
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
    gspec.length = 20'000;
    ref_ = genome::generate_reference(gspec);
    genome::SnpPlantSpec pspec;
    const auto snps = genome::plant_snps(ref_, pspec);
    const genome::Diploid individual(ref_, snps);
    ReadSimSpec rspec;
    rspec.depth = 6.0;
    records_ = simulate_reads(individual, rspec);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The first 1,000 records, the last moved to end one base past the
  /// reference (still in sort order).  As SAM, record i is on line i + 4.
  std::vector<AlignmentRecord> thousand_with_last_past_end() const {
    std::vector<AlignmentRecord> recs(records_.begin(),
                                      records_.begin() + 1'000);
    recs.back().pos = ref_.size() - recs.back().length + 1;
    return recs;
  }

  core::EngineConfig config(const fs::path& align,
                            const std::string& out) const {
    core::EngineConfig c;
    c.alignment_file = align;
    c.reference = &ref_;
    c.output_file = dir_ / out;
    c.temp_file = dir_ / "t.tmp";
    return c;
  }

  /// The output of every backend, serial and overlapped, called from
  /// `align`, with the run's ingest stats.
  std::vector<std::pair<std::string, IngestStats>> call_every_backend(
      const fs::path& align) const {
    std::vector<std::pair<std::string, IngestStats>> runs;
    for (const core::BackendInfo& backend : core::backend_registry()) {
      for (const bool overlapped : {false, true}) {
        core::EngineConfig c = config(align, "out.snp");
        c.window_size = 4'096;
        c.overlapped = overlapped;
        device::Device dev;
        const core::RunReport report = core::run_backend(
            backend, c, backend.needs_device ? &dev : nullptr);
        std::ifstream in(c.output_file, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        runs.emplace_back(bytes.str(), report.ingest);
      }
    }
    return runs;
  }

  fs::path dir_;
  genome::Reference ref_;
  std::vector<AlignmentRecord> records_;
};

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_same_stats(const IngestStats& a, const IngestStats& b) {
  EXPECT_EQ(a.records_ok, b.records_ok);
  EXPECT_EQ(a.records_unsupported, b.records_unsupported);
  EXPECT_EQ(a.records_quarantined, b.records_quarantined);
  EXPECT_EQ(a.by_reason, b.by_reason);
}

TEST_F(SamFiles, FileRoundTripPreservesRecords) {
  write_sam_file(dir_ / "a.sam", records_, ref_.name(), ref_.size());
  AlignmentReader reader(dir_ / "a.sam");
  std::size_t i = 0;
  while (auto rec = reader.next()) {
    ASSERT_LT(i, records_.size());
    EXPECT_EQ(*rec, records_[i]) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, records_.size());
  EXPECT_EQ(reader.stats().records_unsupported, 0u);
}

TEST_F(SamFiles, SamInputGivesIdenticalCalls) {
  // The integration property: the engines calling from SAM input must
  // produce exactly the rows the native SOAP path produces.
  write_alignment_file(dir_ / "a.soap", records_);
  write_sam_file(dir_ / "a.sam", records_, ref_.name(), ref_.size());
  core::run_gsnp_cpu(config(dir_ / "a.soap", "native.snp"));
  const core::RunReport report =
      core::run_gsnp_cpu(config(dir_ / "a.sam", "fromsam.snp"));
  EXPECT_EQ(report.records, records_.size());

  const auto cmp =
      core::compare_output_files(dir_ / "native.snp", dir_ / "fromsam.snp");
  EXPECT_TRUE(cmp.identical) << cmp.detail;
}

TEST_F(SamFiles, SamAndSoapCallAlikeOnEveryBackend) {
  // The same records as SOAP and as SAM, with reverse, soft-clipped,
  // NH:i:2 and `*`-QUAL records among them: every backend, serial and
  // overlapped, writes the same bytes and ingest stats from either file.
  std::ofstream sam(dir_ / "a.sam");
  sam << "@HD\tVN:1.6\tSO:coordinate\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    AlignmentRecord& rec = records_[i];
    if (i % 5 == 0) rec.hit_count = 2;
    const bool no_qual = i % 50 == 7;
    if (no_qual) rec.qual.assign(rec.length, '!');
    const u32 clip = i % 3 == 0 ? 2 : 0;
    sam << clipped_sam_line(rec, clip, clip, no_qual) << '\n';
  }
  sam.close();
  write_alignment_file(dir_ / "a.soap", records_);
  EXPECT_EQ(read_alignment_file(dir_ / "a.sam"), records_);

  const auto from_soap = call_every_backend(dir_ / "a.soap");
  const auto from_sam = call_every_backend(dir_ / "a.sam");
  ASSERT_EQ(from_soap.size(), 6u);
  ASSERT_EQ(from_sam.size(), from_soap.size());
  for (std::size_t r = 0; r < from_soap.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    EXPECT_EQ(from_sam[r].first, from_soap[r].first);
    expect_same_stats(from_sam[r].second, from_soap[r].second);
    EXPECT_EQ(from_sam[r].second.records_ok, records_.size());
  }
}

TEST_F(SamFiles, EqualsSignInSeqCallsLikeN) {
  // SAM's `=` and `.` in SEQ read as no base: forward records holding them
  // call exactly like the same records with `N` in SOAP.
  std::vector<AlignmentRecord> with_n = records_;
  std::vector<AlignmentRecord> with_eq = records_;
  u64 edited = 0;
  for (std::size_t i = 0; i < records_.size(); i += 7) {
    if (records_[i].strand != Strand::kForward) continue;
    with_n[i].seq[5] = 'N';
    with_eq[i].seq[5] = edited++ % 2 == 0 ? '=' : '.';
  }
  ASSERT_GT(edited, 20u);
  write_alignment_file(dir_ / "n.soap", with_n);
  write_sam_file(dir_ / "eq.sam", with_eq, ref_.name(), ref_.size());
  for (const core::BackendInfo& backend : core::backend_registry()) {
    SCOPED_TRACE(backend.name);
    device::Device dev;
    core::EngineConfig c = config(dir_ / "n.soap", "n.snp");
    core::run_backend(backend, c, backend.needs_device ? &dev : nullptr);
    c = config(dir_ / "eq.sam", "eq.snp");
    const core::RunReport report =
        core::run_backend(backend, c, backend.needs_device ? &dev : nullptr);
    EXPECT_EQ(report.ingest.records_ok, records_.size());
    EXPECT_EQ(read_text(dir_ / "eq.snp"), read_text(dir_ / "n.snp"));
  }
}

TEST_F(SamFiles, RecordPastTheReferenceEndNamesTheSamLine) {
  // The engine checks SAM positions against the reference and names the
  // SAM file and its line.
  write_sam_file(dir_ / "end.sam", thousand_with_last_past_end(), ref_.name(),
                 ref_.size());
  try {
    core::run_gsnp_cpu(config(dir_ / "end.sam", "end.snp"));
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), (dir_ / "end.sam").string());
    EXPECT_EQ(e.line(), 1'003u);
    EXPECT_EQ(e.field(), "POS");
    EXPECT_EQ(e.reason(), IngestReason::kPositionOutOfRange);
  }
}

TEST_F(SamFiles, LenientQuarantineHoldsEverySamEntry) {
  // A bad CIGAR on line 10 and a record past the reference end on the last
  // line: a lenient call quarantines both, each under the SAM file and its
  // line, and its ingest stats count all 1,000 records.
  write_sam_file(dir_ / "bad.sam", thousand_with_last_past_end(), ref_.name(),
                 ref_.size());
  std::string text = read_text(dir_ / "bad.sam");
  std::size_t at = 0;
  for (int line = 1; line < 10; ++line) at = text.find('\n', at) + 1;
  for (int tab = 0; tab < 5; ++tab) at = text.find('\t', at) + 1;
  text.replace(at, text.find('\t', at) - at, "100Q");
  std::ofstream(dir_ / "bad.sam", std::ios::binary) << text;

  core::EngineConfig c = config(dir_ / "bad.sam", "bad.snp");
  c.ingest = IngestPolicy::make_lenient(dir_ / "bad.quarantine.txt");
  const core::RunReport report = core::run_gsnp_cpu(c);
  EXPECT_EQ(report.ingest.records_ok, 998u);
  EXPECT_EQ(report.ingest.records_quarantined, 2u);
  EXPECT_EQ(report.ingest.total(), 1'000u);
  const std::string quarantine = read_text(dir_ / "bad.quarantine.txt");
  const std::string sam = (dir_ / "bad.sam").string();
  EXPECT_NE(quarantine.find(sam + ":10\tbad_cigar\tCIGAR\t"),
            std::string::npos)
      << quarantine;
  EXPECT_NE(quarantine.find(sam + ":1003\tposition_out_of_range\tPOS\t"),
            std::string::npos)
      << quarantine;
}

TEST_F(SamFiles, UnsortedSamRejected) {
  std::vector<AlignmentRecord> unsorted = {records_[10], records_[2]};
  write_sam_file(dir_ / "u.sam", unsorted, ref_.name(), ref_.size());
  EXPECT_THROW(read_alignment_file(dir_ / "u.sam"), Error);
}

TEST_F(SamFiles, UnsortedSamErrorNamesTheLine) {
  std::vector<AlignmentRecord> unsorted = {records_[10], records_[2]};
  write_sam_file(dir_ / "u.sam", unsorted, ref_.name(), ref_.size());
  try {
    read_alignment_file(dir_ / "u.sam");
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.reason(), IngestReason::kSortOrderViolation);
    // 3 header lines + 2 records: the violation is on line 5.
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

TEST_F(SamFiles, SecondSequenceRejectedAtItsLine) {
  // One sequence per file, as in SOAP: a record of a second sequence fails
  // at its own line; lenient, it alone is quarantined.
  std::ofstream out(dir_ / "m.sam");
  out << "@HD\tVN:1.6\tSO:coordinate\n"
      << "r1\t0\tchrA\t100\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r2\t0\tchrA\t150\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r3\t0\tchrB\t10\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r4\t0\tchrA\t200\t60\t3M\t*\t0\t0\tACG\tIII\n";
  out.close();
  AlignmentReader reader(dir_ / "m.sam");
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_TRUE(reader.next().has_value());
  try {
    reader.next();
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), (dir_ / "m.sam").string());
    EXPECT_EQ(e.line(), 4u);
    EXPECT_EQ(e.field(), "RNAME");
    EXPECT_EQ(e.reason(), IngestReason::kBadField);
  }
  AlignmentReader lenient(dir_ / "m.sam", IngestPolicy::make_lenient());
  u64 n = 0;
  while (lenient.next()) ++n;
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(lenient.stats().records_quarantined, 1u);
}

TEST_F(SamFiles, ReaderSurfacesSkippedAndStats) {
  // One supported record, one unmapped, one secondary: two unsupported.
  std::ofstream out(dir_ / "s.sam");
  out << "@HD\tVN:1.6\tSO:coordinate\n"
      << "r1\t0\tchrA\t100\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r2\t4\tchrA\t150\t60\t3M\t*\t0\t0\tACG\tIII\n"
      << "r3\t256\tchrA\t200\t60\t3M\t*\t0\t0\tACG\tIII\n";
  out.close();
  AlignmentReader reader(dir_ / "s.sam");
  u64 n = 0;
  while (reader.next()) ++n;
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(reader.stats().records_ok, 1u);
  EXPECT_EQ(reader.stats().records_unsupported, 2u);
  EXPECT_EQ(reader.stats().records_quarantined, 0u);
  EXPECT_EQ(reader.stats().total(), 3u);

  // The engines' block-parallel reader counts the same.
  AlignmentBatchReader batches(dir_ / "s.sam", {}, 0, 1);
  while (!batches.next().empty()) {
  }
  EXPECT_EQ(batches.stats().records_unsupported, 2u);
  EXPECT_EQ(batches.stats().records_ok, 1u);
}

}  // namespace
}  // namespace gsnp::reads
