// Tests for the extension features beyond the core pipeline: the device
// posterior kernel, the prior cache, the multi-threaded SOAPsnp variant, and
// the frame-skipping range query on compressed output.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/consistency.hpp"
#include "src/core/engine.hpp"
#include "src/core/kernels.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/posterior.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"

namespace gsnp::core {
namespace {

namespace fs = std::filesystem;

// ---- select_genotype / device_posterior parity ---------------------------------

TypeLikely random_tl(Rng& rng) {
  TypeLikely tl;
  for (auto& v : tl) v = -50.0 * rng.uniform_double();
  return tl;
}

TEST(DevicePosterior, MatchesHostSelectGenotype) {
  Rng rng(17);
  const PriorParams params;
  PriorCache cache(params);

  std::vector<TypeLikely> tls(500);
  std::vector<GenotypePriors> priors(500);
  std::vector<PosteriorCall> expected(500);
  for (std::size_t i = 0; i < tls.size(); ++i) {
    tls[i] = random_tl(rng);
    priors[i] = cache.get(static_cast<u8>(rng.uniform(4)), nullptr);
    expected[i] = select_genotype(priors[i], tls[i]);
  }

  device::Device dev;
  const auto calls = device_posterior(dev, tls, priors);
  ASSERT_EQ(calls.size(), expected.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].best, expected[i].best) << i;
    EXPECT_EQ(calls[i].second, expected[i].second) << i;
    EXPECT_EQ(calls[i].quality, expected[i].quality) << i;
  }
}

TEST(DevicePosterior, EmptyInput) {
  device::Device dev;
  EXPECT_TRUE(device_posterior(dev, {}, {}).empty());
}

TEST(SelectGenotype, TieBreaksDeterministically) {
  GenotypePriors prior{};
  TypeLikely tl{};  // all equal -> best must be genotype 0, second 1
  const PosteriorCall call = select_genotype(prior, tl);
  EXPECT_EQ(call.best, 0);
  EXPECT_EQ(call.second, 1);
  EXPECT_EQ(call.quality, 0);
}

// ---- PriorCache -------------------------------------------------------------------

TEST(PriorCacheTest, NovelPriorsMatchDirectComputation) {
  const PriorParams params;
  PriorCache cache(params);
  for (u8 b = 0; b < kNumBases; ++b) {
    const GenotypePriors direct = genotype_log_priors(b, nullptr, params);
    const GenotypePriors& cached = cache.get(b, nullptr);
    for (int g = 0; g < kNumGenotypes; ++g) EXPECT_EQ(cached[g], direct[g]);
  }
  // 'N' reference.
  const GenotypePriors direct_n =
      genotype_log_priors(kInvalidBase, nullptr, params);
  EXPECT_EQ(cache.get(kInvalidBase, nullptr)[0], direct_n[0]);
}

TEST(PriorCacheTest, KnownSitesComputedFresh) {
  const PriorParams params;
  PriorCache cache(params);
  genome::KnownSnpEntry known;
  known.freq = {0.5, 0.0, 0.5, 0.0};
  const GenotypePriors direct = genotype_log_priors(0, &known, params);
  const GenotypePriors& cached = cache.get(0, &known);
  for (int g = 0; g < kNumGenotypes; ++g) EXPECT_EQ(cached[g], direct[g]);
}

// ---- multi-threaded SOAPsnp + range query (shared dataset) -------------------------

class Extensions : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "gsnp_ext_test";
    fs::create_directories(dir_);
    genome::GenomeSpec gspec;
    gspec.name = "chrX";
    gspec.length = 12'000;
    ref_ = genome::generate_reference(gspec);
    genome::SnpPlantSpec pspec;
    pspec.snp_rate = 0.003;
    const auto snps = genome::plant_snps(ref_, pspec);
    const genome::Diploid individual(ref_, snps);
    reads::ReadSimSpec rspec;
    rspec.depth = 8.0;
    reads::write_alignment_file(dir_ / "a.soap",
                                reads::simulate_reads(individual, rspec));

    config_.alignment_file = dir_ / "a.soap";
    config_.reference = &ref_;
    config_.temp_file = dir_ / "a.tmp";
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  genome::Reference ref_;
  EngineConfig config_;
};

TEST_F(Extensions, RangeQueryMatchesFullScanFilter) {
  config_.output_file = dir_ / "out.bin";
  config_.window_size = 1'000;  // many frames, so skipping is exercised
  device::Device dev;
  run_gsnp(config_, dev);

  std::string name_a, name_b;
  const auto all = read_snp_output(dir_ / "out.bin", name_a);
  for (const auto [lo, hi] : {std::pair<u64, u64>{3'500, 4'200},
                              {0, 500},
                              {11'000, 99'999},
                              {5'000, 5'001},
                              {12'000, 13'000}}) {
    const auto ranged = read_snp_range(dir_ / "out.bin", lo, hi, name_b);
    std::vector<SnpRow> expected;
    for (const auto& row : all)
      if (row.pos >= lo && row.pos < hi) expected.push_back(row);
    EXPECT_EQ(ranged, expected) << "range [" << lo << "," << hi << ")";
  }
}

TEST_F(Extensions, RangeQueryEmptyRange) {
  config_.output_file = dir_ / "out2.bin";
  config_.window_size = 4'096;
  device::Device dev;
  run_gsnp(config_, dev);
  std::string name;
  EXPECT_TRUE(read_snp_range(dir_ / "out2.bin", 500, 500, name).empty());
}

TEST_F(Extensions, PairedEndDatasetKeepsEngineConsistency) {
  // Paired-end reads (shared fragment ids, opposite strands) flow through
  // the same per-site machinery; all engines must still agree exactly.
  genome::GenomeSpec gspec;
  gspec.name = "chrP";
  gspec.length = 10'000;
  const genome::Reference pref = genome::generate_reference(gspec);
  genome::SnpPlantSpec pspec;
  pspec.snp_rate = 0.003;
  const auto snps = genome::plant_snps(pref, pspec);
  const genome::Diploid individual(pref, snps);
  reads::ReadSimSpec rspec;
  rspec.depth = 8.0;
  rspec.paired_end = true;
  reads::write_alignment_file(dir_ / "pe.soap",
                              reads::simulate_reads(individual, rspec));

  EngineConfig config;
  config.alignment_file = dir_ / "pe.soap";
  config.reference = &pref;
  config.temp_file = dir_ / "pe.tmp";

  config.output_file = dir_ / "pe_soapsnp.txt";
  run_soapsnp(config);
  config.output_file = dir_ / "pe_gsnp.snp";
  device::Device dev;
  run_gsnp(config, dev);
  const auto report =
      compare_output_files(dir_ / "pe_soapsnp.txt", dir_ / "pe_gsnp.snp");
  EXPECT_TRUE(report.identical) << report.detail;
}

TEST_F(Extensions, GsnpWithoutDbSnpRuns) {
  // config_.dbsnp is already null: every row's dbSNP flag must be false.
  config_.output_file = dir_ / "nodb.bin";
  device::Device dev;
  run_gsnp(config_, dev);
  std::string name;
  for (const auto& row : read_snp_output(dir_ / "nodb.bin", name))
    EXPECT_FALSE(row.in_dbsnp);
}

}  // namespace
}  // namespace gsnp::core
