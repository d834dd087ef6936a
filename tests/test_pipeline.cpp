// Tests for the whole-genome driver (multi-chromosome runs) and p_matrix
// serialization.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/common/crc32.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/consistency.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/core/pmatrix.hpp"
#include "src/core/run_manifest.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::core {
namespace {

namespace fs = std::filesystem;

// ---- p_matrix serialization -------------------------------------------------

TEST(PMatrixIo, BitExactRoundTrip) {
  PMatrixCounter counter;
  Rng rng(3);
  for (int i = 0; i < 30000; ++i)
    counter.add(static_cast<int>(rng.uniform(kQualityLevels)),
                static_cast<int>(rng.uniform(kMaxReadLen)),
                static_cast<int>(rng.uniform(4)),
                static_cast<int>(rng.uniform(4)));
  const PMatrix pm = finalize_p_matrix(counter);

  const fs::path path = test_temp_path("gsnp_pm_test.bin");
  write_p_matrix(path, pm);
  const PMatrix loaded = read_p_matrix(path);
  // Bit-exact: reloading must preserve §IV-G consistency.
  EXPECT_EQ(loaded.flat(), pm.flat());
  fs::remove(path);
}

TEST(PMatrixIo, RejectsCorruptFiles) {
  const fs::path path = test_temp_path("gsnp_pm_bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "GARBAGE!";
  }
  EXPECT_THROW(read_p_matrix(path), Error);
  fs::remove(path);
}

TEST(PMatrixIo, RejectsTruncatedFiles) {
  const PMatrix pm = finalize_p_matrix(PMatrixCounter{});
  const fs::path path = test_temp_path("gsnp_pm_trunc.bin");
  write_p_matrix(path, pm);
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_THROW(read_p_matrix(path), Error);
  fs::remove(path);
}

// ---- genome pipeline -----------------------------------------------------------

class GenomePipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_pipeline_test");
    fs::create_directories(dir_);
    for (int c = 0; c < 3; ++c) {
      genome::GenomeSpec gspec;
      gspec.name = "chr" + std::to_string(c + 1);
      gspec.length = 8'000 - 1'000 * static_cast<u64>(c);
      gspec.seed = 40 + static_cast<u64>(c);
      refs_.push_back(genome::generate_reference(gspec));
    }
    for (int c = 0; c < 3; ++c) {
      genome::SnpPlantSpec pspec;
      pspec.seed = 50 + static_cast<u64>(c);
      const auto snps = genome::plant_snps(refs_[c], pspec);
      const genome::Diploid individual(refs_[c], snps);
      reads::ReadSimSpec rspec;
      rspec.depth = 6.0;
      rspec.seed = 60 + static_cast<u64>(c);
      const fs::path align = dir_ / (refs_[c].name() + ".soap");
      reads::write_alignment_file(align,
                                  reads::simulate_reads(individual, rspec));

      ChromosomeJob job;
      job.name = refs_[c].name();
      job.alignment_file = align;
      job.reference = &refs_[c];
      config_.chromosomes.push_back(job);
    }
    config_.output_dir = dir_ / "out";
    config_.window_size = 2'048;
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::vector<genome::Reference> refs_;
  GenomeRunConfig config_;
};

TEST_F(GenomePipeline, RunsAllChromosomes) {
  device::Device dev;
  const GenomeReport report = run_genome(config_, EngineKind::kGsnp, &dev);
  ASSERT_EQ(report.per_chromosome.size(), 3u);
  EXPECT_EQ(report.total_sites, 8'000u + 7'000 + 6'000);
  for (const auto& path : report.output_files) EXPECT_TRUE(fs::exists(path));
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.total_output_bytes, 0u);
}

TEST_F(GenomePipeline, EnginesAgreeAcrossAllChromosomes) {
  device::Device dev;
  const auto gsnp = run_genome(config_, EngineKind::kGsnp, &dev);
  const auto soapsnp = run_genome(config_, EngineKind::kSoapsnp);
  ASSERT_EQ(gsnp.output_files.size(), soapsnp.output_files.size());
  for (std::size_t c = 0; c < gsnp.output_files.size(); ++c) {
    const auto report =
        compare_output_files(gsnp.output_files[c], soapsnp.output_files[c]);
    EXPECT_TRUE(report.identical)
        << config_.chromosomes[c].name << ": " << report.detail;
  }
}

TEST_F(GenomePipeline, GsnpEngineRequiresDevice) {
  EXPECT_THROW(run_genome(config_, EngineKind::kGsnp, nullptr), Error);
}

TEST_F(GenomePipeline, EngineNames) {
  EXPECT_STREQ(engine_name(EngineKind::kSoapsnp), "soapsnp");
  EXPECT_STREQ(engine_name(EngineKind::kGsnpCpu), "gsnp_cpu");
  EXPECT_STREQ(engine_name(EngineKind::kGsnp), "gsnp");
  EXPECT_EQ(engine_kind_from_name("gsnp"), EngineKind::kGsnp);
  EXPECT_EQ(engine_kind_from_name("gsnp_cpu"), EngineKind::kGsnpCpu);
  EXPECT_EQ(engine_kind_from_name("soapsnp"), EngineKind::kSoapsnp);
  EXPECT_EQ(engine_kind_from_name("cuda"), std::nullopt);
}

TEST_F(GenomePipeline, WritesVerifiableManifest) {
  device::Device dev;
  const GenomeReport report = run_genome(config_, EngineKind::kGsnp, &dev);
  ASSERT_TRUE(fs::exists(report.manifest_file));
  const RunManifest manifest = read_run_manifest(report.manifest_file);
  EXPECT_EQ(manifest.engine, "gsnp");
  ASSERT_EQ(manifest.chromosomes.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    const ManifestEntry& e = manifest.chromosomes[c];
    EXPECT_EQ(e.name, config_.chromosomes[c].name);
    EXPECT_EQ(e.status, "done");
    EXPECT_EQ(e.requested, "gsnp");
    EXPECT_EQ(e.engine, "gsnp");
    EXPECT_FALSE(e.degraded);
    EXPECT_EQ(e.attempts, 1);
    // The recorded CRC matches the bytes on disk (resume trusts this).
    EXPECT_EQ(crc32_file(config_.output_dir / e.output), e.output_crc32);
    EXPECT_GT(e.sites, 0u);
  }
}

// ---- run manifest serialization -------------------------------------------------

TEST(RunManifestIo, RoundTripsAllFields) {
  RunManifest manifest;
  manifest.engine = "gsnp";
  ManifestEntry e;
  e.name = "chr\"weird\\name\"\n";  // exercises JSON escaping
  e.status = "failed";
  e.requested = "gsnp";
  e.engine = "gsnp_cpu";
  e.degraded = true;
  e.attempts = 3;
  e.output = "chr1.gsnp.snp";
  e.output_bytes = 12345;
  e.output_crc32 = 0xDEADBEEF;
  e.sites = 8000;
  e.error = "injected device OOM\tat allocation #7";
  manifest.chromosomes.push_back(e);

  const fs::path path = test_temp_path("gsnp_manifest_test.json");
  write_run_manifest(path, manifest);
  const RunManifest loaded = read_run_manifest(path);
  EXPECT_EQ(loaded.version, 1);
  EXPECT_EQ(loaded.engine, "gsnp");
  ASSERT_EQ(loaded.chromosomes.size(), 1u);
  const ManifestEntry& l = loaded.chromosomes[0];
  EXPECT_EQ(l.name, e.name);
  EXPECT_EQ(l.status, e.status);
  EXPECT_EQ(l.requested, e.requested);
  EXPECT_EQ(l.engine, e.engine);
  EXPECT_EQ(l.degraded, e.degraded);
  EXPECT_EQ(l.attempts, e.attempts);
  EXPECT_EQ(l.output, e.output);
  EXPECT_EQ(l.output_bytes, e.output_bytes);
  EXPECT_EQ(l.output_crc32, e.output_crc32);
  EXPECT_EQ(l.sites, e.sites);
  EXPECT_EQ(l.error, e.error);
  EXPECT_NE(loaded.find(e.name), nullptr);
  EXPECT_EQ(loaded.find("chrMissing"), nullptr);
  fs::remove(path);
}

TEST(RunManifestIo, RejectsMalformedJson) {
  const fs::path path = test_temp_path("gsnp_manifest_bad.json");
  for (const char* text :
       {"", "{", "{\"version\": 1", "[1,2,3]", "{\"version\": 99, "
        "\"engine\": \"gsnp\", \"chromosomes\": []}",
        "{\"engine\": \"gsnp\", \"chromosomes\": []}"}) {
    std::ofstream(path) << text;
    EXPECT_THROW(read_run_manifest(path), Error) << "input: " << text;
  }
  fs::remove(path);
}

}  // namespace
}  // namespace gsnp::core
