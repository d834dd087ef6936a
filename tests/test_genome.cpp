// Unit tests for src/genome: reference/FASTA, synthetic generation, SNP
// planting, dbSNP prior tables, karyotype scaling.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "src/common/error.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/karyotype.hpp"
#include "src/genome/reference.hpp"
#include "src/genome/synthetic.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::genome {
namespace {

namespace fs = std::filesystem;

Reference make_ref(std::string name, std::string_view seq) {
  std::vector<u8> bases;
  for (const char c : seq) bases.push_back(base_from_char(c));
  return Reference(std::move(name), std::move(bases));
}

// ---- FASTA -----------------------------------------------------------------

TEST(Fasta, RoundTripSingleSequence) {
  const Reference ref = make_ref("chrT", "ACGTACGTTTGCA");
  std::ostringstream out;
  write_fasta(out, ref, 5);
  std::istringstream in(out.str());
  const auto refs = read_fasta(in);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].name(), "chrT");
  EXPECT_EQ(refs[0].bases(), ref.bases());
}

TEST(Fasta, RoundTripMultipleSequences) {
  std::ostringstream out;
  write_fasta(out, make_ref("a", "ACGT"), 70);
  write_fasta(out, make_ref("b", "TTTT"), 70);
  std::istringstream in(out.str());
  const auto refs = read_fasta(in);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].name(), "a");
  EXPECT_EQ(refs[1].name(), "b");
  EXPECT_EQ(refs[1].substring(0, 4), "TTTT");
}

TEST(Fasta, NBasesPreserved) {
  const Reference ref = make_ref("n", "ACNNT");
  std::ostringstream out;
  write_fasta(out, ref);
  std::istringstream in(out.str());
  const auto refs = read_fasta(in);
  EXPECT_EQ(refs[0].base(2), kInvalidBase);
  EXPECT_EQ(refs[0].substring(0, 5), "ACNNT");
}

TEST(Fasta, HeaderNameStopsAtSpace) {
  std::istringstream in(">chr1 homo sapiens\nACGT\n");
  const auto refs = read_fasta(in);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].name(), "chr1");
}

TEST(Fasta, DataBeforeHeaderThrows) {
  std::istringstream in("ACGT\n>late\nACGT\n");
  EXPECT_THROW(read_fasta(in), Error);
}

TEST(Fasta, AmbiguityCodesBecomeN) {
  std::istringstream in(">x\nARYT\n");
  const auto refs = read_fasta(in);
  EXPECT_EQ(refs[0].substring(0, 4), "ANNT");
}

TEST(Fasta, FileRoundTrip) {
  const fs::path path = test_temp_path("gsnp_test.fasta");
  const Reference ref = make_ref("chrF", "ACGTACGTACGTACGT");
  write_fasta_file(path, {ref}, 7);
  const auto refs = read_fasta_file(path);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].bases(), ref.bases());
  fs::remove(path);
}

TEST(Reference, SubstringBoundsChecked) {
  const Reference ref = make_ref("x", "ACGT");
  EXPECT_THROW(ref.substring(2, 3), Error);
}

// ---- synthetic generation -----------------------------------------------------

TEST(Synthetic, GeneratesRequestedLength) {
  GenomeSpec spec;
  spec.length = 12345;
  EXPECT_EQ(generate_reference(spec).size(), 12345u);
}

TEST(Synthetic, GcContentApproximatelyHonored) {
  GenomeSpec spec;
  spec.length = 200000;
  spec.gc_content = 0.6;
  const Reference ref = generate_reference(spec);
  u64 gc = 0;
  for (u64 i = 0; i < ref.size(); ++i) {
    const char c = char_from_base(ref.base(i));
    gc += (c == 'G' || c == 'C');
  }
  EXPECT_NEAR(static_cast<double>(gc) / ref.size(), 0.6, 0.01);
}

TEST(Synthetic, NGapRateHonored) {
  GenomeSpec spec;
  spec.length = 100000;
  spec.n_gap_rate = 0.05;
  const Reference ref = generate_reference(spec);
  u64 n = 0;
  for (u64 i = 0; i < ref.size(); ++i) n += (ref.base(i) == kInvalidBase);
  EXPECT_NEAR(static_cast<double>(n) / ref.size(), 0.05, 0.005);
}

TEST(Synthetic, DeterministicBySeed) {
  GenomeSpec spec;
  spec.length = 1000;
  const Reference a = generate_reference(spec);
  const Reference b = generate_reference(spec);
  EXPECT_EQ(a.bases(), b.bases());
  spec.seed = 99;
  EXPECT_NE(generate_reference(spec).bases(), a.bases());
}

// ---- SNP planting ----------------------------------------------------------------

class PlantSnps : public ::testing::Test {
 protected:
  void SetUp() override {
    GenomeSpec gspec;
    gspec.length = 300000;
    ref_ = generate_reference(gspec);
    snps_ = plant_snps(ref_, spec_);
  }
  Reference ref_;
  SnpPlantSpec spec_;
  std::vector<PlantedSnp> snps_;
};

TEST_F(PlantSnps, RateApproximatelyHonored) {
  EXPECT_NEAR(static_cast<double>(snps_.size()) / ref_.size(), spec_.snp_rate,
              spec_.snp_rate * 0.3);
}

TEST_F(PlantSnps, SortedByPosition) {
  for (std::size_t i = 1; i < snps_.size(); ++i)
    EXPECT_LT(snps_[i - 1].pos, snps_[i].pos);
}

TEST_F(PlantSnps, GenotypesDifferFromReference) {
  for (const auto& snp : snps_) {
    EXPECT_EQ(snp.ref_base, ref_.base(snp.pos));
    EXPECT_FALSE(snp.genotype.allele1 == snp.ref_base &&
                 snp.genotype.allele2 == snp.ref_base);
    EXPECT_LE(snp.genotype.allele1, snp.genotype.allele2);
  }
}

TEST_F(PlantSnps, HetFractionApproximatelyHonored) {
  u64 het = 0;
  for (const auto& snp : snps_) het += !snp.genotype.homozygous();
  EXPECT_NEAR(static_cast<double>(het) / snps_.size(), spec_.het_fraction,
              0.12);
}

TEST_F(PlantSnps, HetSitesKeepReferenceAllele) {
  for (const auto& snp : snps_) {
    if (snp.genotype.homozygous()) continue;
    EXPECT_TRUE(snp.genotype.allele1 == snp.ref_base ||
                snp.genotype.allele2 == snp.ref_base);
  }
}

TEST(PlantSnpsEdge, NeverOnNGaps) {
  GenomeSpec gspec;
  gspec.length = 50000;
  gspec.n_gap_rate = 0.3;
  const Reference ref = generate_reference(gspec);
  SnpPlantSpec pspec;
  pspec.snp_rate = 0.05;
  for (const auto& snp : plant_snps(ref, pspec))
    EXPECT_NE(ref.base(snp.pos), kInvalidBase);
}

TEST(AltAllele, TransitionBias) {
  Rng rng(5);
  int transitions = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    transitions += is_transition(0, draw_alt_allele(0, 2.0, rng));
  // Expect ti/(ti+tv) = 2/4 = 0.5 with bias 2.0.
  EXPECT_NEAR(static_cast<double>(transitions) / n, 0.5, 0.02);
}

TEST(AltAllele, NeverReturnsReference) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i)
    for (u8 r = 0; r < kNumBases; ++r)
      EXPECT_NE(draw_alt_allele(r, 2.0, rng), r);
}

// ---- Diploid ------------------------------------------------------------------------

TEST(Diploid, GenotypeQueries) {
  const Reference ref = make_ref("d", "AAAAAAAA");
  std::vector<PlantedSnp> snps(1);
  snps[0].pos = 3;
  snps[0].ref_base = 0;
  snps[0].genotype = {0, 2};  // A/G het
  const Diploid ind(ref, snps);

  EXPECT_EQ(ind.genotype_at(0), (Genotype{0, 0}));
  EXPECT_EQ(ind.genotype_at(3), (Genotype{0, 2}));
  EXPECT_EQ(ind.haplotype_base(3, 0), 0);
  EXPECT_EQ(ind.haplotype_base(3, 1), 2);
  EXPECT_EQ(ind.haplotype_base(5, 0), 0);
  EXPECT_NE(ind.find(3), nullptr);
  EXPECT_EQ(ind.find(4), nullptr);
}

TEST(Diploid, RejectsUnsortedSnps) {
  const Reference ref = make_ref("d", "AAAA");
  std::vector<PlantedSnp> snps(2);
  snps[0].pos = 3;
  snps[1].pos = 1;
  EXPECT_THROW(Diploid(ref, snps), Error);
}

// ---- dbSNP ---------------------------------------------------------------------------

TEST(DbSnp, RoundTripTextFormat) {
  std::vector<KnownSnpEntry> entries(2);
  entries[0].pos = 10;
  entries[0].freq = {0.7, 0.3, 0.0, 0.0};
  entries[0].validated = true;
  entries[1].pos = 99;
  entries[1].freq = {0.0, 0.0, 0.5, 0.5};
  const DbSnpTable table("chrD", entries);

  std::ostringstream out;
  write_dbsnp(out, table);
  std::istringstream in(out.str());
  const DbSnpTable parsed = read_dbsnp(in);
  EXPECT_EQ(parsed.seq_name(), "chrD");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.entries()[0].pos, 10u);
  EXPECT_TRUE(parsed.entries()[0].validated);
  EXPECT_NEAR(parsed.entries()[1].freq[2], 0.5, 1e-9);
}

TEST(DbSnp, FindByPosition) {
  std::vector<KnownSnpEntry> entries(3);
  entries[0].pos = 5;
  entries[1].pos = 10;
  entries[2].pos = 20;
  const DbSnpTable table("c", entries);
  EXPECT_NE(table.find(10), nullptr);
  EXPECT_EQ(table.find(10)->pos, 10u);
  EXPECT_EQ(table.find(11), nullptr);
  EXPECT_EQ(table.find(0), nullptr);
}

TEST(DbSnp, RejectsUnsortedEntries) {
  std::vector<KnownSnpEntry> entries(2);
  entries[0].pos = 10;
  entries[1].pos = 5;
  EXPECT_THROW(DbSnpTable("c", entries), Error);
}

TEST(DbSnp, MakeCoversKnownPlantedSnps) {
  GenomeSpec gspec;
  gspec.length = 100000;
  const Reference ref = generate_reference(gspec);
  SnpPlantSpec pspec;
  pspec.snp_rate = 0.005;
  const auto snps = plant_snps(ref, pspec);
  const DbSnpTable table = make_dbsnp(ref, snps, 0.001, 3);

  for (const auto& snp : snps) {
    if (snp.in_dbsnp) {
      const KnownSnpEntry* e = table.find(snp.pos);
      ASSERT_NE(e, nullptr);
      // The alternate allele must carry some population frequency.
      const u8 alt = snp.genotype.allele1 == snp.ref_base
                         ? snp.genotype.allele2
                         : snp.genotype.allele1;
      EXPECT_GT(e->freq[alt], 0.0);
    }
  }
}

TEST(DbSnp, MakeAddsDecoys) {
  GenomeSpec gspec;
  gspec.length = 100000;
  const Reference ref = generate_reference(gspec);
  const std::vector<PlantedSnp> no_snps;
  const DbSnpTable table = make_dbsnp(ref, no_snps, 0.01, 4);
  EXPECT_GT(table.size(), 500u);
  EXPECT_LT(table.size(), 1100u);
}

TEST(DbSnp, FrequenciesNormalized) {
  GenomeSpec gspec;
  gspec.length = 50000;
  const Reference ref = generate_reference(gspec);
  SnpPlantSpec pspec;
  const auto snps = plant_snps(ref, pspec);
  const DbSnpTable table = make_dbsnp(ref, snps, 0.005, 5);
  for (const auto& e : table.entries()) {
    double total = 0.0;
    for (const double f : e.freq) total += f;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

// ---- karyotype -----------------------------------------------------------------------

TEST(Karyotype, Has24Chromosomes) {
  EXPECT_EQ(kHumanKaryotype.size(), 24u);
  EXPECT_EQ(kHumanKaryotype[0].name, "chr1");
  EXPECT_EQ(kHumanKaryotype[23].name, "chrY");
}

TEST(Karyotype, Chr1IsLargestAndChr21Smallest) {
  // Matches paper Table II: chr1 largest, chr21 the smallest sequence used.
  for (const auto& info : kHumanKaryotype)
    EXPECT_LE(info.mbp, kHumanKaryotype[0].mbp);
  EXPECT_DOUBLE_EQ(kHumanKaryotype[20].mbp, 46.9);
}

TEST(Karyotype, ScalingProportional) {
  const u64 chr1 = scaled_sites(kHumanKaryotype[0], 100000);
  const u64 chr21 = scaled_sites(kHumanKaryotype[20], 100000);
  EXPECT_EQ(chr1, 100000u);
  EXPECT_NEAR(static_cast<double>(chr21) / chr1, 46.9 / 247.2, 1e-3);
}

// ---- hotspot islands -------------------------------------------------------

TEST(Hotspot, IslandsSortedDisjointInBoundsAndSeeded) {
  HotspotSpec spec;
  spec.islands = 6;
  spec.island_length = 3'000;
  spec.seed = 77;
  const auto islands = place_hotspot_islands(500'000, spec);
  ASSERT_EQ(islands.size(), 6u);
  for (std::size_t i = 0; i < islands.size(); ++i) {
    EXPECT_EQ(islands[i].length, spec.island_length);
    EXPECT_LE(islands[i].start + islands[i].length, 500'000u);
    EXPECT_GE(islands[i].depth_multiplier, spec.multiplier_lo);
    EXPECT_LE(islands[i].depth_multiplier, spec.multiplier_hi);
    if (i > 0)  // sorted and pairwise disjoint
      EXPECT_LE(islands[i - 1].start + islands[i - 1].length,
                islands[i].start);
  }
  // Deterministic in the seed; a different seed moves the islands.
  const auto again = place_hotspot_islands(500'000, spec);
  ASSERT_EQ(again.size(), islands.size());
  for (std::size_t i = 0; i < islands.size(); ++i) {
    EXPECT_EQ(again[i].start, islands[i].start);
    EXPECT_DOUBLE_EQ(again[i].depth_multiplier, islands[i].depth_multiplier);
  }
  spec.seed = 78;
  const auto moved = place_hotspot_islands(500'000, spec);
  bool any_differs = false;
  for (std::size_t i = 0; i < moved.size(); ++i)
    any_differs = any_differs || moved[i].start != islands[i].start;
  EXPECT_TRUE(any_differs);
}

TEST(Hotspot, MultipliersSpanTheConfiguredRange) {
  HotspotSpec spec;
  spec.islands = 32;
  spec.island_length = 1'000;
  spec.multiplier_lo = 50.0;
  spec.multiplier_hi = 200.0;
  const auto islands = place_hotspot_islands(2'000'000, spec);
  double lo = spec.multiplier_hi, hi = spec.multiplier_lo;
  for (const auto& h : islands) {
    lo = std::min(lo, h.depth_multiplier);
    hi = std::max(hi, h.depth_multiplier);
  }
  // 32 uniform draws: the empirical range covers most of [50, 200].
  EXPECT_LT(lo, 90.0);
  EXPECT_GT(hi, 160.0);
}

TEST(Hotspot, RejectsImpossibleSpecs) {
  HotspotSpec spec;
  spec.islands = 4;
  spec.island_length = 3'000;
  EXPECT_THROW(place_hotspot_islands(2'000, spec), Error);  // island > genome
  spec.island_length = 600;
  EXPECT_THROW(place_hotspot_islands(2'000, spec), Error);  // 4*600 > 2000
  spec.multiplier_lo = 0.5;
  spec.island_length = 100;
  EXPECT_THROW(place_hotspot_islands(10'000, spec), Error);  // mult < 1
}

}  // namespace
}  // namespace gsnp::genome
