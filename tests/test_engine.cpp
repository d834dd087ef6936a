// Integration tests: the three engines over a synthetic dataset.  The
// centerpiece is the paper's §IV-G guarantee — SOAPsnp, GSNP_CPU and GSNP
// produce exactly the same result rows.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/core/backend.hpp"
#include "src/core/consistency.hpp"
#include "src/core/engine.hpp"
#include "src/core/vcf.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "src/reads/stats.hpp"

namespace gsnp::core {
namespace {

namespace fs = std::filesystem;

/// One shared dataset + three engine runs (expensive; computed once).
class Engines : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = fs::temp_directory_path() / "gsnp_engine_test";
    fs::create_directories(dir_);

    genome::GenomeSpec gspec;
    gspec.name = "chrE";
    gspec.length = 30'000;
    gspec.n_gap_rate = 0.001;  // exercise 'N' reference sites end to end
    ref_ = new genome::Reference(genome::generate_reference(gspec));

    genome::SnpPlantSpec pspec;
    pspec.snp_rate = 0.002;
    snps_ = new std::vector<genome::PlantedSnp>(plant_snps(*ref_, pspec));
    const genome::Diploid individual(*ref_, *snps_);
    dbsnp_ = new genome::DbSnpTable(
        genome::make_dbsnp(*ref_, *snps_, 0.002, 11));

    reads::ReadSimSpec rspec;
    rspec.depth = 9.0;
    records_ = new std::vector<reads::AlignmentRecord>(
        reads::simulate_reads(individual, rspec));
    reads::write_alignment_file(dir_ / "a.soap", *records_);

    EngineConfig config;
    config.alignment_file = dir_ / "a.soap";
    config.reference = ref_;
    config.dbsnp = dbsnp_;
    config.temp_file = dir_ / "a.tmp";

    config.output_file = dir_ / "soapsnp.txt";
    config.window_size = 1'000;
    soapsnp_ = new RunReport(run_soapsnp(config));

    config.output_file = dir_ / "gsnpcpu.bin";
    config.window_size = 8'192;
    gsnp_cpu_ = new RunReport(run_gsnp_cpu(config));

    device_ = new device::Device();
    config.output_file = dir_ / "gsnp.bin";
    gsnp_ = new RunReport(run_gsnp(config, *device_));
  }

  static void TearDownTestSuite() {
    delete soapsnp_;
    delete gsnp_cpu_;
    delete gsnp_;
    delete device_;
    delete records_;
    delete dbsnp_;
    delete snps_;
    delete ref_;
    fs::remove_all(dir_);
  }

  static fs::path dir_;
  static genome::Reference* ref_;
  static std::vector<genome::PlantedSnp>* snps_;
  static genome::DbSnpTable* dbsnp_;
  static std::vector<reads::AlignmentRecord>* records_;
  static RunReport* soapsnp_;
  static RunReport* gsnp_cpu_;
  static RunReport* gsnp_;
  static device::Device* device_;
};

fs::path Engines::dir_;
genome::Reference* Engines::ref_ = nullptr;
std::vector<genome::PlantedSnp>* Engines::snps_ = nullptr;
genome::DbSnpTable* Engines::dbsnp_ = nullptr;
std::vector<reads::AlignmentRecord>* Engines::records_ = nullptr;
RunReport* Engines::soapsnp_ = nullptr;
RunReport* Engines::gsnp_cpu_ = nullptr;
RunReport* Engines::gsnp_ = nullptr;
device::Device* Engines::device_ = nullptr;

TEST_F(Engines, AllEnginesEmitOneRowPerSite) {
  EXPECT_EQ(soapsnp_->sites, ref_->size());
  std::string name;
  EXPECT_EQ(read_snp_output(dir_ / "soapsnp.txt", name).size(), ref_->size());
  EXPECT_EQ(read_snp_output(dir_ / "gsnp.bin", name).size(), ref_->size());
}

TEST_F(Engines, GsnpMatchesSoapsnpExactly) {
  // Paper §IV-G: "GSNP produces exactly the same result as that of SOAPsnp".
  const auto report =
      compare_output_files(dir_ / "soapsnp.txt", dir_ / "gsnp.bin");
  EXPECT_TRUE(report.identical) << report.detail;
}

TEST_F(Engines, GsnpCpuMatchesSoapsnpExactly) {
  const auto report =
      compare_output_files(dir_ / "soapsnp.txt", dir_ / "gsnpcpu.bin");
  EXPECT_TRUE(report.identical) << report.detail;
}

TEST_F(Engines, CompressedOutputMuchSmallerThanText) {
  const u64 text = soapsnp_->output_bytes;
  const u64 compressed = gsnp_->output_bytes;
  EXPECT_LT(compressed * 5, text);  // paper reports 14-16x
}

TEST_F(Engines, TempInputSmallerThanTextInput) {
  const u64 text_input = fs::file_size(dir_ / "a.soap");
  EXPECT_LT(gsnp_->temp_bytes * 2, text_input);  // paper reports ~3x
}

TEST_F(Engines, SoapsnpDominatedByLikelihoodThenRecycle) {
  // The Table I shape.
  const double likeli = soapsnp_->component("likeli");
  const double recycle = soapsnp_->component("recycle");
  for (const char* other : {"cal_p", "read", "count", "post", "output"})
    EXPECT_GT(likeli, soapsnp_->component(other));
  EXPECT_GT(likeli, 0.3 * soapsnp_->total());
  EXPECT_GT(recycle, 0.0);
}

TEST_F(Engines, GsnpEliminatesRecycleCost) {
  // Table IV: recycle drops by three orders of magnitude.
  EXPECT_LT(gsnp_->component("recycle"),
            0.05 * soapsnp_->component("recycle") + 1e-3);
}

TEST_F(Engines, GsnpFasterOverall) {
  EXPECT_LT(gsnp_->total(), soapsnp_->total());
  EXPECT_LT(gsnp_cpu_->total(), soapsnp_->total());
}

TEST_F(Engines, DeviceWorkWasModeled) {
  EXPECT_GT(gsnp_->device_modeled.get("likeli_sort"), 0.0);
  EXPECT_GT(gsnp_->device_modeled.get("likeli_comp"), 0.0);
  EXPECT_GT(gsnp_->device_counters.kernel_launches, 0u);
  EXPECT_GT(gsnp_->peak_device_bytes, 0u);
  EXPECT_LE(gsnp_->peak_device_bytes, device_->spec().global_bytes);
}

TEST_F(Engines, ReportsCountRecordsAndWindows) {
  EXPECT_EQ(soapsnp_->records, records_->size());
  EXPECT_EQ(gsnp_->records, records_->size());
  EXPECT_EQ(soapsnp_->windows, (ref_->size() + 999) / 1000);
  EXPECT_EQ(gsnp_->windows, (ref_->size() + 8191) / 8192);
}

TEST_F(Engines, WindowSizeDoesNotChangeResults) {
  // Re-run GSNP with a very different window size; rows must be identical.
  EngineConfig config;
  config.alignment_file = dir_ / "a.soap";
  config.reference = ref_;
  config.dbsnp = dbsnp_;
  config.temp_file = dir_ / "b.tmp";
  config.output_file = dir_ / "gsnp_smallwin.bin";
  config.window_size = 777;
  device::Device dev;
  run_gsnp(config, dev);
  const auto report =
      compare_output_files(dir_ / "gsnp.bin", dir_ / "gsnp_smallwin.bin");
  EXPECT_TRUE(report.identical) << report.detail;
}

TEST_F(Engines, DbSnpColumnMatchesPriorTable) {
  std::string name;
  const auto rows = read_snp_output(dir_ / "gsnp.bin", name);
  for (const auto& row : rows)
    EXPECT_EQ(row.in_dbsnp, dbsnp_->find(row.pos) != nullptr);
}

TEST_F(Engines, RefColumnMatchesReference) {
  std::string name;
  const auto rows = read_snp_output(dir_ / "gsnp.bin", name);
  ASSERT_EQ(rows.size(), ref_->size());
  for (u64 i = 0; i < ref_->size(); ++i) {
    EXPECT_EQ(rows[i].pos, i);
    EXPECT_EQ(rows[i].ref_base, ref_->base(i));
  }
}

TEST_F(Engines, MostPlantedSnpsDetected) {
  std::string name;
  const auto rows = read_snp_output(dir_ / "gsnp.bin", name);
  u64 found = 0, callable = 0;
  for (const auto& snp : *snps_) {
    const auto& row = rows[snp.pos];
    if (row.depth < 4) continue;
    ++callable;
    if (row.genotype_rank >= 0 &&
        genotype_from_rank(row.genotype_rank) == snp.genotype)
      ++found;
  }
  ASSERT_GT(callable, 20u);
  EXPECT_GT(static_cast<double>(found) / callable, 0.8);
}

// ---- non-ACGT read bases ----------------------------------------------------------

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(NonAcgtReadBases, EveryBackendSkipsThemByteIdentically) {
  // The parser accepts any letter in a read ('N', IUPAC codes, lower case);
  // a base outside ACGT carries no observation and no depth on every
  // backend, and the four backends still call identical rows.
  const fs::path dir = fs::temp_directory_path() / "gsnp_non_acgt_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  genome::GenomeSpec gspec;
  gspec.length = 5'000;
  const genome::Reference ref = genome::generate_reference(gspec);
  genome::SnpPlantSpec pspec;
  pspec.seed = gspec.seed + 1;
  const genome::Diploid individual(ref, plant_snps(ref, pspec));
  reads::ReadSimSpec rspec;
  rspec.depth = 6.0;
  std::vector<reads::AlignmentRecord> records =
      reads::simulate_reads(individual, rspec);

  // An 'N' in a forward and in a reverse unique read, an IUPAC 'R' at a
  // read's first cycle and a lower-case 'n' in a multi-hit read.
  const auto pick = [&](u64 after, auto&& want) -> reads::AlignmentRecord& {
    for (auto& rec : records)
      if (rec.pos >= after && want(rec)) return rec;
    throw Error("no such read");
  };
  pick(1'000, [](const auto& r) {
    return r.strand == Strand::kForward && r.hit_count == 1;
  }).seq[7] = 'N';
  pick(2'000, [](const auto& r) {
    return r.strand == Strand::kReverse && r.hit_count == 1;
  }).seq[30] = 'N';
  pick(3'000, [](const auto&) { return true; }).seq[0] = 'R';
  pick(4'000, [](const auto& r) { return r.hit_count > 1; }).seq[50] = 'n';
  reads::write_alignment_file(dir / "a.soap", records);

  // Expected depth: the reads with an A/C/G/T base at each site.
  std::vector<u32> depth(ref.size(), 0);
  for (const auto& rec : records)
    reads::for_each_observation(rec, 0, ref.size(),
                                [&](u64 p, const auto&) { ++depth[p]; });

  EngineConfig config;
  config.alignment_file = dir / "a.soap";
  config.reference = &ref;
  config.temp_file = dir / "a.tmp";
  config.window_size = 1'024;
  std::string gsnp_cpu_bytes, gsnp_cpu_vcf;
  for (const BackendInfo& backend : backend_registry()) {
    SCOPED_TRACE(backend.name);
    config.output_file = dir / backend.id;
    device::Device dev;
    run_backend(backend, config, backend.needs_device ? &dev : nullptr);
    std::string name;
    const std::vector<SnpRow> rows = read_snp_output(config.output_file, name);
    ASSERT_EQ(rows.size(), ref.size());
    for (u64 p = 0; p < ref.size(); ++p)
      ASSERT_EQ(rows[p].depth, depth[p]) << "site " << p;
    const fs::path vcf = dir / (std::string(backend.id) + ".vcf");
    write_vcf_file(vcf, name, rows.size(), rows);
    if (backend.kind == EngineKind::kGsnpCpu) {
      gsnp_cpu_bytes = file_bytes(config.output_file);
      gsnp_cpu_vcf = file_bytes(vcf);
    }
  }
  for (const BackendInfo& backend : backend_registry()) {
    SCOPED_TRACE(backend.name);
    EXPECT_TRUE(file_bytes(dir / (std::string(backend.id) + ".vcf")) ==
                gsnp_cpu_vcf);
    if (!backend.text_output)
      EXPECT_TRUE(file_bytes(dir / backend.id) == gsnp_cpu_bytes);
    else
      EXPECT_TRUE(
          compare_output_files(dir / backend.id, dir / "gsnp_cpu").identical);
  }
  fs::remove_all(dir);
}

// ---- consistency module itself --------------------------------------------------

TEST(Consistency, DetectsMismatches) {
  std::vector<SnpRow> a(3), b(3);
  a[1].pos = b[1].pos = 1;
  a[2].pos = b[2].pos = 2;
  b[2].quality = 42;
  const auto report = compare_rows(a, b);
  EXPECT_FALSE(report.identical);
  EXPECT_EQ(report.first_mismatch_row, 2u);
  EXPECT_NE(report.detail.find("row 2"), std::string::npos);
}

TEST(Consistency, DetectsLengthMismatch) {
  const auto report = compare_rows(std::vector<SnpRow>(2),
                                   std::vector<SnpRow>(3));
  EXPECT_FALSE(report.identical);
}

TEST(Consistency, IdenticalRows) {
  std::vector<SnpRow> a(5);
  for (u64 i = 0; i < 5; ++i) a[i].pos = i;
  const auto report = compare_rows(a, a);
  EXPECT_TRUE(report.identical);
  EXPECT_EQ(report.rows_compared, 5u);
}

}  // namespace
}  // namespace gsnp::core
