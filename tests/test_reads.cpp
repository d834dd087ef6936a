// Unit tests for src/reads: alignment format, quality model, read simulator,
// dataset statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "src/common/error.hpp"
#include "src/common/phred.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/alignment.hpp"
#include "src/reads/quality_model.hpp"
#include "src/reads/simulator.hpp"
#include "src/reads/stats.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::reads {
namespace {

namespace fs = std::filesystem;

AlignmentRecord sample_record() {
  AlignmentRecord rec;
  rec.read_id = "read_7";
  rec.seq = "ACGT";
  rec.qual = "IIII";
  rec.hit_count = 1;
  rec.pair_tag = 'a';
  rec.length = 4;
  rec.strand = Strand::kReverse;
  rec.chr_name = "chrR";
  rec.pos = 41;
  return rec;
}

// ---- format ------------------------------------------------------------------

TEST(AlignmentFormat, RoundTrip) {
  const AlignmentRecord rec = sample_record();
  const AlignmentRecord parsed = parse_alignment(format_alignment(rec));
  EXPECT_EQ(parsed, rec);
}

TEST(AlignmentFormat, PositionIsOneBasedInText) {
  const std::string line = format_alignment(sample_record());
  EXPECT_NE(line.find("\t42"), std::string::npos);
}

TEST(AlignmentFormat, StrandCharacters) {
  AlignmentRecord rec = sample_record();
  rec.strand = Strand::kForward;
  EXPECT_NE(format_alignment(rec).find("\t+\t"), std::string::npos);
  rec.strand = Strand::kReverse;
  EXPECT_NE(format_alignment(rec).find("\t-\t"), std::string::npos);
}

TEST(AlignmentFormat, RejectsMalformedLines) {
  EXPECT_THROW(parse_alignment("too\tfew\tfields"), Error);
  EXPECT_THROW(parse_alignment("id\tACGT\tIIII\t1\ta\t4\t?\tchr\t42"), Error);
  EXPECT_THROW(parse_alignment("id\tACGT\tIIII\t1\ta\t4\t+\tchr\t0"), Error);
  // seq/qual length mismatch with declared length:
  EXPECT_THROW(parse_alignment("id\tACG\tIIII\t1\ta\t4\t+\tchr\t42"), Error);
  // A rejected byte is named in hex: '=' is 0x3d, a space 0x20.
  const auto error = [](std::string_view line) -> std::string {
    try {
      parse_alignment(line);
    } catch (const ParseError& e) {
      return e.what();
    }
    return "no ParseError";
  };
  EXPECT_NE(error("id\tAC=T\tIIII\t1\ta\t4\t+\tchr\t42").find(
                "non-base character 0x3d"),
            std::string::npos);
  EXPECT_NE(error("id\tACGT\tI II\t1\ta\t4\t+\tchr\t42").find(
                "quality byte 0x20 outside"),
            std::string::npos);
}

TEST(AlignmentFormat, FileRoundTripAndStreaming) {
  const fs::path path = test_temp_path("gsnp_test.soap");
  std::vector<AlignmentRecord> recs(3, sample_record());
  recs[1].pos = 50;
  recs[2].pos = 60;
  write_alignment_file(path, recs);

  AlignmentReader reader(path);
  for (const auto& expected : recs) {
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(read_alignment_file(path), recs);
  fs::remove(path);
}

TEST(AlignmentFormat, MissingFileThrows) {
  EXPECT_THROW(AlignmentReader("/nonexistent/path.soap"), Error);
}

// ---- quality model ---------------------------------------------------------------

TEST(QualityModel, ValuesInRange) {
  QualityModel model({});
  Rng rng(1);
  const auto quals = model.sample(100, rng);
  ASSERT_EQ(quals.size(), 100u);
  for (const u8 q : quals) EXPECT_LT(q, kQualityLevels);
}

TEST(QualityModel, QuantizationCreatesRuns) {
  QualityModelSpec spec;
  spec.glitch_rate = 0.0;
  spec.quantization = 4;
  QualityModel model(spec);
  Rng rng(2);
  const auto quals = model.sample(100, rng);
  u64 runs = 1;
  for (std::size_t i = 1; i < quals.size(); ++i)
    runs += (quals[i] != quals[i - 1]);
  // Heavy quantization of a smooth decline -> few distinct runs.
  EXPECT_LT(runs, 20u);
  for (const u8 q : quals) EXPECT_EQ(q % 4, 0);
}

TEST(QualityModel, QualityDeclinesAlongRead) {
  QualityModelSpec spec;
  spec.glitch_rate = 0.0;
  spec.read_spread = 0;
  QualityModel model(spec);
  Rng rng(3);
  const auto quals = model.sample(100, rng);
  EXPECT_GT(static_cast<int>(quals.front()), static_cast<int>(quals.back()));
}

// ---- simulator ---------------------------------------------------------------------

class Simulator : public ::testing::Test {
 protected:
  void SetUp() override {
    genome::GenomeSpec gspec;
    gspec.length = 50000;
    ref_ = genome::generate_reference(gspec);
    genome::SnpPlantSpec pspec;
    pspec.snp_rate = 0.002;
    snps_ = genome::plant_snps(ref_, pspec);
    individual_.emplace(ref_, snps_);
    spec_.depth = 8.0;
    records_ = simulate_reads(*individual_, spec_);
  }

  genome::Reference ref_;
  std::vector<genome::PlantedSnp> snps_;
  std::optional<genome::Diploid> individual_;
  ReadSimSpec spec_;
  std::vector<AlignmentRecord> records_;
};

TEST_F(Simulator, RecordsSortedByPosition) {
  for (std::size_t i = 1; i < records_.size(); ++i)
    EXPECT_LE(records_[i - 1].pos, records_[i].pos);
}

TEST_F(Simulator, DepthApproximatelyHonored) {
  const DatasetStats stats = compute_stats(records_, ref_.size());
  EXPECT_NEAR(stats.depth, spec_.depth, 0.2);
}

TEST_F(Simulator, ReadsStayInBounds) {
  for (const auto& rec : records_) {
    EXPECT_EQ(rec.length, spec_.read_len);
    EXPECT_LE(rec.pos + rec.length, ref_.size());
    EXPECT_EQ(rec.seq.size(), spec_.read_len);
    EXPECT_EQ(rec.qual.size(), spec_.read_len);
  }
}

TEST_F(Simulator, StrandsBalanced) {
  u64 fwd = 0;
  for (const auto& rec : records_) fwd += (rec.strand == Strand::kForward);
  EXPECT_NEAR(static_cast<double>(fwd) / records_.size(), 0.5, 0.05);
}

TEST_F(Simulator, MultiHitRateHonored) {
  u64 multi = 0;
  for (const auto& rec : records_) multi += (rec.hit_count > 1);
  EXPECT_NEAR(static_cast<double>(multi) / records_.size(),
              spec_.multi_hit_rate, 0.03);
}

TEST_F(Simulator, ObservedBasesMostlyMatchHaplotypes) {
  // With mean quality ~30 and error_scale 1, mismatches vs *both* haplotypes
  // should be rare (sequencing errors only).
  u64 total = 0, mismatch = 0;
  for (const auto& rec : records_) {
    for (u64 p = rec.pos; p < rec.pos + rec.length; ++p) {
      SiteObservation so;
      ASSERT_TRUE(observe_site(rec, p, so));
      ++total;
      const u8 h0 = individual_->haplotype_base(p, 0);
      const u8 h1 = individual_->haplotype_base(p, 1);
      if (so.base != h0 && so.base != h1) ++mismatch;
    }
  }
  EXPECT_LT(static_cast<double>(mismatch) / total, 0.02);
}

TEST_F(Simulator, ObserveSiteCoordinatesAreCycles) {
  for (const auto& rec : records_) {
    SiteObservation first, last;
    ASSERT_TRUE(observe_site(rec, rec.pos, first));
    ASSERT_TRUE(observe_site(rec, rec.pos + rec.length - 1, last));
    if (rec.strand == Strand::kForward) {
      EXPECT_EQ(first.coord, 0);
      EXPECT_EQ(last.coord, rec.length - 1);
    } else {
      // Reverse reads sequence the rightmost reference base first.
      EXPECT_EQ(first.coord, rec.length - 1);
      EXPECT_EQ(last.coord, 0);
    }
  }
}

TEST_F(Simulator, ObserveSiteRejectsUncoveredPositions) {
  const auto& rec = records_.front();
  SiteObservation so;
  EXPECT_FALSE(observe_site(rec, rec.pos + rec.length, so));
  if (rec.pos > 0) EXPECT_FALSE(observe_site(rec, rec.pos - 1, so));
}

TEST_F(Simulator, DeterministicBySeed) {
  const auto again = simulate_reads(*individual_, spec_);
  EXPECT_EQ(again.size(), records_.size());
  EXPECT_EQ(again.front(), records_.front());
  EXPECT_EQ(again.back(), records_.back());
}

TEST_F(Simulator, ReverseStrandObservationConsistency) {
  // For a reverse-strand read the stored read base complements the observed
  // forward-strand base at the mirrored cycle.
  for (const auto& rec : records_) {
    if (rec.strand != Strand::kReverse) continue;
    SiteObservation so;
    ASSERT_TRUE(observe_site(rec, rec.pos + 2, so));
    const u32 cycle = rec.length - 1 - 2;
    EXPECT_EQ(so.coord, cycle);
    EXPECT_EQ(so.base, complement(base_from_char(rec.seq[cycle])));
    EXPECT_EQ(so.quality, quality_from_char(rec.qual[cycle]));
    break;
  }
}

TEST(SimulatorEdge, HighErrorScaleRaisesMismatchRate) {
  genome::GenomeSpec gspec;
  gspec.length = 20000;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid ind(ref, {});
  ReadSimSpec clean, noisy;
  clean.depth = noisy.depth = 4.0;
  noisy.error_scale = 20.0;

  const auto count_mismatch = [&](const std::vector<AlignmentRecord>& recs) {
    u64 total = 0, mm = 0;
    for (const auto& rec : recs)
      for (u64 p = rec.pos; p < rec.pos + rec.length; ++p) {
        SiteObservation so;
        observe_site(rec, p, so);
        ++total;
        mm += (so.base != ref.base(p));
      }
    return static_cast<double>(mm) / total;
  };
  EXPECT_GT(count_mismatch(simulate_reads(ind, noisy)),
            5.0 * count_mismatch(simulate_reads(ind, clean)));
}

// ---- paired-end simulation --------------------------------------------------------------

class PairedSimulator : public ::testing::Test {
 protected:
  void SetUp() override {
    genome::GenomeSpec gspec;
    gspec.length = 40000;
    ref_ = genome::generate_reference(gspec);
    genome::SnpPlantSpec pspec;
    snps_ = genome::plant_snps(ref_, pspec);
    individual_.emplace(ref_, snps_);
    spec_.depth = 8.0;
    spec_.paired_end = true;
    records_ = simulate_reads(*individual_, spec_);
  }
  genome::Reference ref_;
  std::vector<genome::PlantedSnp> snps_;
  std::optional<genome::Diploid> individual_;
  ReadSimSpec spec_;
  std::vector<AlignmentRecord> records_;
};

TEST_F(PairedSimulator, MatesShareIdAndHaveOppositeTags) {
  std::map<std::string, std::vector<const AlignmentRecord*>> frags;
  for (const auto& rec : records_) frags[rec.read_id].push_back(&rec);
  for (const auto& [id, mates] : frags) {
    ASSERT_EQ(mates.size(), 2u) << id;
    EXPECT_NE(mates[0]->pair_tag, mates[1]->pair_tag) << id;
    EXPECT_NE(mates[0]->strand, mates[1]->strand) << id;
  }
}

TEST_F(PairedSimulator, InsertSizesNearTarget) {
  std::map<std::string, std::vector<const AlignmentRecord*>> frags;
  for (const auto& rec : records_) frags[rec.read_id].push_back(&rec);
  for (const auto& [id, mates] : frags) {
    const u64 lo = std::min(mates[0]->pos, mates[1]->pos);
    const u64 hi = std::max(mates[0]->pos, mates[1]->pos);
    const u64 insert = hi + spec_.read_len - lo;
    EXPECT_GE(insert, static_cast<u64>(spec_.insert_size) -
                          2 * spec_.insert_spread) << id;
    EXPECT_LE(insert, static_cast<u64>(spec_.insert_size) +
                          2 * spec_.insert_spread) << id;
  }
}

TEST_F(PairedSimulator, StillPositionSortedAndInBounds) {
  for (std::size_t i = 1; i < records_.size(); ++i)
    EXPECT_LE(records_[i - 1].pos, records_[i].pos);
  for (const auto& rec : records_)
    EXPECT_LE(rec.pos + rec.length, ref_.size());
}

TEST_F(PairedSimulator, DepthStillApproximatelyHonored) {
  const DatasetStats stats = compute_stats(records_, ref_.size());
  EXPECT_NEAR(stats.depth, spec_.depth, 0.4);
}

// ---- stats ----------------------------------------------------------------------------

TEST(Stats, ExactOnConstructedCase) {
  std::vector<AlignmentRecord> recs(2);
  recs[0].pos = 0;
  recs[0].length = 10;
  recs[1].pos = 5;
  recs[1].length = 10;
  const DatasetStats stats = compute_stats(recs, 100);
  EXPECT_EQ(stats.num_reads, 2u);
  EXPECT_EQ(stats.total_bases, 20u);
  EXPECT_DOUBLE_EQ(stats.depth, 0.2);
  EXPECT_DOUBLE_EQ(stats.coverage, 0.15);  // sites 0..14 covered
}

TEST(Stats, CoverageClampedAtReferenceEnd) {
  std::vector<AlignmentRecord> recs(1);
  recs[0].pos = 95;
  recs[0].length = 10;  // extends past the end
  const DatasetStats stats = compute_stats(recs, 100);
  EXPECT_DOUBLE_EQ(stats.coverage, 0.05);
}

TEST(Stats, EmptyDataset) {
  const DatasetStats stats = compute_stats({}, 50);
  EXPECT_EQ(stats.num_reads, 0u);
  EXPECT_DOUBLE_EQ(stats.depth, 0.0);
  EXPECT_DOUBLE_EQ(stats.coverage, 0.0);
}

// ---- hotspot pileups -------------------------------------------------------

/// Per-position coverage over [0, length).
std::vector<u32> coverage_profile(const std::vector<AlignmentRecord>& recs,
                                  u64 length) {
  std::vector<u32> depth(length, 0);
  for (const auto& rec : recs)
    for (u64 p = rec.pos; p < std::min<u64>(rec.pos + rec.length, length); ++p)
      ++depth[p];
  return depth;
}

/// Mean depth over [lo, hi).
double mean_depth(const std::vector<u32>& depth, u64 lo, u64 hi) {
  double sum = 0.0;
  for (u64 p = lo; p < hi; ++p) sum += depth[p];
  return sum / static_cast<double>(hi - lo);
}

TEST(Hotspot, RealizedDepthProfileMatchesIslands) {
  genome::GenomeSpec gspec;
  gspec.length = 60'000;
  gspec.seed = 41;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid individual(ref, {});

  // Hand-placed islands with known multipliers so the expected profile is
  // exact: 50x and 120x pileups over a 6x baseline.
  ReadSimSpec spec;
  spec.depth = 6.0;
  spec.seed = 42;
  spec.hotspots = {{10'000, 3'000, 50.0}, {40'000, 3'000, 120.0}};
  const auto records = simulate_reads(individual, spec);

  // Records stay position-sorted with the hotspot reads merged in.
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_LE(records[i - 1].pos, records[i].pos);

  const auto depth = coverage_profile(records, ref.size());
  // Island interiors (trimmed a read length on each side to dodge the ramp
  // where reads start before/inside the boundary) sit at multiplier *
  // baseline; far outside the islands the profile is plain baseline.
  const double in1 = mean_depth(depth, 10'000 + spec.read_len,
                                13'000 - spec.read_len);
  const double in2 = mean_depth(depth, 40'000 + spec.read_len,
                                43'000 - spec.read_len);
  const double outside = mean_depth(depth, 20'000, 35'000);
  EXPECT_NEAR(in1, 50.0 * 6.0, 0.25 * 50.0 * 6.0);
  EXPECT_NEAR(in2, 120.0 * 6.0, 0.25 * 120.0 * 6.0);
  EXPECT_NEAR(outside, 6.0, 0.25 * 6.0);
  // The skew is real: islands are an order of magnitude above baseline.
  EXPECT_GT(in1, 10.0 * outside);
  EXPECT_GT(in2, in1);
}

TEST(Hotspot, NoIslandsMeansUnchangedOutput) {
  genome::GenomeSpec gspec;
  gspec.length = 20'000;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid individual(ref, {});
  ReadSimSpec spec;
  spec.depth = 4.0;
  const auto base = simulate_reads(individual, spec);
  spec.hotspots = {};  // explicit empty == default
  const auto again = simulate_reads(individual, spec);
  ASSERT_EQ(base.size(), again.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].pos, again[i].pos);
    EXPECT_EQ(base[i].seq, again[i].seq);
  }
}

TEST(Hotspot, OutOfBoundsIslandRejected) {
  genome::GenomeSpec gspec;
  gspec.length = 5'000;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid individual(ref, {});
  ReadSimSpec spec;
  spec.hotspots = {{4'000, 2'000, 10.0}};  // spills past the sequence end
  EXPECT_THROW(simulate_reads(individual, spec), Error);
  spec.hotspots = {{1'000, 500, 0.5}};  // multiplier below baseline
  EXPECT_THROW(simulate_reads(individual, spec), Error);
}

}  // namespace
}  // namespace gsnp::reads
