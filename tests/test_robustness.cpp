// Robustness and failure-injection tests: corrupted/truncated binary files
// must raise gsnp::Error (never crash or return garbage silently), and the
// pipeline must survive degenerate datasets.  Plus a randomized end-to-end
// consistency fuzz across dataset shapes.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/common/bitio.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/consistency.hpp"
#include "src/core/engine.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/run_manifest.hpp"
#include "src/core/window.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::core {
namespace {

namespace fs = std::filesystem;

std::vector<u8> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open " << path);
  return std::vector<u8>(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const fs::path& path, std::span<const u8> bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A small compressed output file to corrupt.
class CorruptionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_robust_test");
    fs::create_directories(dir_);
    genome::GenomeSpec gspec;
    gspec.name = "chrR";
    gspec.length = 5'000;
    ref_ = genome::generate_reference(gspec);
    const genome::Diploid individual(ref_, {});
    reads::ReadSimSpec rspec;
    rspec.depth = 5.0;
    records_ = reads::simulate_reads(individual, rspec);
    reads::write_alignment_file(dir_ / "a.soap", records_);

    EngineConfig config;
    config.alignment_file = dir_ / "a.soap";
    config.reference = &ref_;
    config.temp_file = dir_ / "a.tmp";
    config.output_file = dir_ / "out.snp";
    config.window_size = 1'024;
    run_gsnp_cpu(config);
    // The engine removes its temp input when the call ends; the temp file
    // tests corrupt one written from the same records.
    compress::TempInputWriter temp(dir_ / "a.tmp", ref_.name());
    for (const reads::AlignmentRecord& rec : records_) temp.add(rec);
    temp.finish();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  genome::Reference ref_;
  std::vector<reads::AlignmentRecord> records_;
};

TEST_F(CorruptionFixture, TruncatedOutputRaises) {
  auto bytes = read_bytes(dir_ / "out.snp");
  for (const double fraction : {0.25, 0.5, 0.9, 0.99}) {
    std::vector<u8> cut(bytes.begin(),
                        bytes.begin() + static_cast<std::ptrdiff_t>(
                                            fraction * bytes.size()));
    write_bytes(dir_ / "cut.snp", cut);
    std::string name;
    EXPECT_THROW(read_snp_compressed_file(dir_ / "cut.snp", name), Error)
        << "fraction " << fraction;
  }
}

/// The offset of every frame size varint longer than one byte in a
/// container image whose header names `name` (one-byte name length).
std::vector<std::size_t> multibyte_size_offsets(const std::vector<u8>& bytes,
                                                const std::string& name) {
  std::vector<std::size_t> offsets;
  std::size_t pos = 8 + 1 + name.size();
  while (pos < bytes.size()) {
    const std::size_t at = pos;
    const u64 size = varint_read(bytes, pos);
    if (pos - at > 1) offsets.push_back(at);
    pos += size + 4;
  }
  return offsets;
}

TEST_F(CorruptionFixture, CutInsideAFrameSizeRaises) {
  // A file that ends after the first byte of a multi-byte frame size is
  // truncated, not a shorter file: both containers raise.
  const auto snp = read_bytes(dir_ / "out.snp");
  const auto snp_cuts = multibyte_size_offsets(snp, ref_.name());
  ASSERT_FALSE(snp_cuts.empty());
  for (const std::size_t at : snp_cuts) {
    write_bytes(dir_ / "cut.snp", std::span(snp).first(at + 1));
    std::string name;
    EXPECT_THROW(read_snp_compressed_file(dir_ / "cut.snp", name), Error)
        << "cut at " << at + 1;
    EXPECT_THROW(read_snp_range(dir_ / "cut.snp", 0, ref_.size(), name), Error)
        << "cut at " << at + 1;
  }

  const auto tmp = read_bytes(dir_ / "a.tmp");
  const auto tmp_cuts = multibyte_size_offsets(tmp, ref_.name());
  ASSERT_FALSE(tmp_cuts.empty());
  for (const std::size_t at : tmp_cuts) {
    write_bytes(dir_ / "cut.tmp", std::span(tmp).first(at + 1));
    EXPECT_THROW(
        {
          compress::TempInputReader reader(dir_ / "cut.tmp");
          while (reader.next()) {
          }
        },
        Error)
        << "cut at " << at + 1;
  }
}

TEST_F(CorruptionFixture, BitflippedOutputAlwaysRaises) {
  // Offsets >= 16 are past the 13-byte header, so every flip lands in frame
  // data (length varint, payload, or trailing CRC).  Since container v2 each
  // frame carries a payload CRC-32, so *any* such corruption must raise
  // gsnp::Error — silently decoding garbage rows is no longer acceptable.
  const auto original = read_bytes(dir_ / "out.snp");
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = original;
    const std::size_t at = 16 + rng.uniform(bytes.size() - 16);
    bytes[at] ^= static_cast<u8>(1 + rng.uniform(255));
    write_bytes(dir_ / "flip.snp", bytes);
    std::string name;
    EXPECT_THROW(read_snp_compressed_file(dir_ / "flip.snp", name), Error)
        << "trial " << trial << " flipped byte " << at;
  }
}

/// Load every window of a temp input through the engines' window source.
void load_every_window(const fs::path& temp, u64 sites) {
  WindowLoader loader(temp, sites, 1'024);
  WindowRecords win;
  while (loader.next(win)) {
  }
}

TEST_F(CorruptionFixture, TruncatedTempInputRaises) {
  const auto bytes = read_bytes(dir_ / "a.tmp");
  std::vector<u8> cut(bytes.begin(), bytes.begin() + bytes.size() / 2);
  write_bytes(dir_ / "cut.tmp", cut);
  compress::TempInputReader reader(dir_ / "cut.tmp");
  EXPECT_THROW(
      {
        while (reader.next()) {
        }
      },
      Error);
  EXPECT_THROW(load_every_window(dir_ / "cut.tmp", ref_.size()), Error);
}

TEST_F(CorruptionFixture, BitflippedTempInputAlwaysRaises) {
  // Same argument as for the output container: flips at >= 16 are always in
  // chunk data, and every chunk is CRC-protected since GSNPTMP2.
  const auto original = read_bytes(dir_ / "a.tmp");
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = original;
    const std::size_t at = 16 + rng.uniform(bytes.size() - 16);
    bytes[at] ^= static_cast<u8>(1 + rng.uniform(255));
    write_bytes(dir_ / "flip.tmp", bytes);
    EXPECT_THROW(
        {
          compress::TempInputReader reader(dir_ / "flip.tmp");
          while (reader.next()) {
          }
        },
        Error)
        << "trial " << trial << " flipped byte " << at;
    EXPECT_THROW(load_every_window(dir_ / "flip.tmp", ref_.size()), Error)
        << "window source, trial " << trial << " flipped byte " << at;
  }
}

TEST_F(CorruptionFixture, RejectsVersion1Containers) {
  // Container v2 added frame CRCs; v1 files (magic ...OUT1 / ...TMP1) have no
  // CRC and must be rejected up front by the magic check, not misparsed.
  auto snp = read_bytes(dir_ / "out.snp");
  ASSERT_EQ(snp[7], '2');
  snp[7] = '1';
  write_bytes(dir_ / "v1.snp", snp);
  std::string name;
  EXPECT_THROW(read_snp_compressed_file(dir_ / "v1.snp", name), Error);
  EXPECT_THROW(read_snp_range(dir_ / "v1.snp", 0, 100, name), Error);

  auto tmp = read_bytes(dir_ / "a.tmp");
  ASSERT_EQ(tmp[7], '2');
  tmp[7] = '1';
  write_bytes(dir_ / "v1.tmp", tmp);
  EXPECT_THROW(compress::TempInputReader reader(dir_ / "v1.tmp"), Error);
}

TEST_F(CorruptionFixture, RangeQuerySkipsFramesButVerifiesReadOnes) {
  // Range queries seek past non-overlapping frames (payload + CRC) and must
  // still land correctly on later frame boundaries; frames they decompress
  // are CRC-verified.
  std::string name;
  const auto all = read_snp_compressed_file(dir_ / "out.snp", name);
  const auto slice = read_snp_range(dir_ / "out.snp", 3'000, 4'000, name);
  std::size_t expected = 0;
  for (const auto& row : all)
    if (row.pos >= 3'000 && row.pos < 4'000) ++expected;
  EXPECT_EQ(slice.size(), expected);
  EXPECT_GT(slice.size(), 0u);

  // Corrupt a byte inside the *last* frame: a range query over early
  // positions (frames are 1024 sites here) skips it unverified...
  auto bytes = read_bytes(dir_ / "out.snp");
  bytes[bytes.size() - 5] ^= 0xFF;
  write_bytes(dir_ / "tail.snp", bytes);
  const auto early = read_snp_range(dir_ / "tail.snp", 0, 1'000, name);
  std::size_t expected_early = 0;
  for (const auto& row : all)
    if (row.pos < 1'000) ++expected_early;
  EXPECT_EQ(early.size(), expected_early);
  EXPECT_GT(early.size(), 0u);
  // ...while a query touching the corrupt frame raises.
  EXPECT_THROW(read_snp_range(dir_ / "tail.snp", 4'500, 5'000, name), Error);
}

// ---- degenerate datasets --------------------------------------------------------

TEST(Degenerate, EmptyAlignmentFileStillEmitsAllSites) {
  const fs::path dir = test_temp_path("gsnp_degenerate");
  fs::create_directories(dir);
  genome::GenomeSpec gspec;
  gspec.name = "chrD";
  gspec.length = 2'000;
  const genome::Reference ref = genome::generate_reference(gspec);
  reads::write_alignment_file(dir / "empty.soap", {});

  EngineConfig config;
  config.alignment_file = dir / "empty.soap";
  config.reference = &ref;
  config.temp_file = dir / "e.tmp";
  config.output_file = dir / "e.snp";
  config.window_size = 512;
  device::Device dev;
  const RunReport report = run_gsnp(config, dev);
  EXPECT_EQ(report.records, 0u);

  std::string name;
  const auto rows = read_snp_output(dir / "e.snp", name);
  ASSERT_EQ(rows.size(), ref.size());
  for (const auto& row : rows) {
    EXPECT_EQ(row.depth, 0u);
    EXPECT_EQ(row.quality, 0);
    // Prior-only call: homozygous reference.
    if (row.ref_base < kNumBases)
      EXPECT_EQ(row.genotype_rank, genotype_rank(row.ref_base, row.ref_base));
  }
  fs::remove_all(dir);
}

TEST(Degenerate, SingleSiteWindows) {
  // window_size=1: maximum windowing overhead, same results.
  const fs::path dir = test_temp_path("gsnp_tinywin");
  fs::create_directories(dir);
  genome::GenomeSpec gspec;
  gspec.name = "chrW";
  gspec.length = 300;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid individual(ref, {});
  reads::ReadSimSpec rspec;
  rspec.depth = 4.0;
  reads::write_alignment_file(dir / "a.soap",
                              reads::simulate_reads(individual, rspec));

  EngineConfig config;
  config.alignment_file = dir / "a.soap";
  config.reference = &ref;
  config.temp_file = dir / "a.tmp";
  config.output_file = dir / "w1.snp";
  config.window_size = 1;
  run_gsnp_cpu(config);
  config.output_file = dir / "w300.snp";
  config.window_size = 300;
  config.temp_file = dir / "b.tmp";
  run_gsnp_cpu(config);
  const auto report = compare_output_files(dir / "w1.snp", dir / "w300.snp");
  EXPECT_TRUE(report.identical) << report.detail;
  fs::remove_all(dir);
}

// ---- fault-tolerant genome pipeline ----------------------------------------------

/// Three small chromosomes driven through core::run_genome with a fault-
/// injecting device.  Fault triggers are derived from a probe run of
/// chromosome 1 alone: device operation counters are deterministic, so
/// "chromosome 2's first allocation" is exactly the probe's final count.
class FaultTolerantGenome : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_fault_genome");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (int c = 0; c < 3; ++c) {
      genome::GenomeSpec gspec;
      gspec.name = "chr" + std::to_string(c + 1);
      gspec.length = 4'000 - 1'000 * static_cast<u64>(c);
      gspec.seed = 80 + static_cast<u64>(c);
      refs_.push_back(genome::generate_reference(gspec));
    }
    for (int c = 0; c < 3; ++c) {
      const genome::Diploid individual(refs_[c], {});
      reads::ReadSimSpec rspec;
      rspec.depth = 5.0;
      rspec.seed = 90 + static_cast<u64>(c);
      const fs::path align = dir_ / (refs_[c].name() + ".soap");
      reads::write_alignment_file(align,
                                  reads::simulate_reads(individual, rspec));
      ChromosomeJob job;
      job.name = refs_[c].name();
      job.alignment_file = align;
      job.reference = &refs_[c];
      config_.chromosomes.push_back(job);
    }
    config_.window_size = 1'024;
  }
  void TearDown() override { fs::remove_all(dir_); }

  struct OpCounts {
    u64 allocs;
    u64 h2d;
  };
  /// Device-operation counts consumed by chromosome 1 alone.
  OpCounts probe_chr1() {
    GenomeRunConfig one = config_;
    one.chromosomes.resize(1);
    one.output_dir = dir_ / "probe";
    device::Device dev;
    run_genome(one, EngineKind::kGsnp, &dev);
    return {dev.alloc_count(), dev.h2d_count()};
  }

  GenomeReport clean_cpu_run(const fs::path& out) {
    GenomeRunConfig clean = config_;
    clean.output_dir = out;
    return run_genome(clean, EngineKind::kGsnpCpu);
  }

  fs::path dir_;
  std::vector<genome::Reference> refs_;
  GenomeRunConfig config_;
};

TEST_F(FaultTolerantGenome, InjectedOomDegradesToCpuBitExact) {
  const OpCounts ops = probe_chr1();
  device::DeviceSpec spec;
  spec.fault.fail_alloc_at = static_cast<i64>(ops.allocs);
  spec.fault.fault_count = 2;  // == max_attempts: every retry of chr2 fails
  device::Device dev(spec);

  GenomeRunConfig cfg = config_;
  cfg.output_dir = dir_ / "faulty";
  cfg.retry.max_attempts = 2;
  const GenomeReport report = run_genome(cfg, EngineKind::kGsnp, &dev);

  ASSERT_EQ(report.statuses.size(), 3u);
  EXPECT_FALSE(report.statuses[0].degraded);
  EXPECT_EQ(report.statuses[0].attempts, 1);
  EXPECT_TRUE(report.statuses[1].degraded);
  EXPECT_EQ(report.statuses[1].used, EngineKind::kGsnpCpu);
  EXPECT_EQ(report.statuses[1].attempts, 3);  // 2 device tries + CPU fallback
  EXPECT_FALSE(report.statuses[1].error.empty());
  EXPECT_FALSE(report.statuses[2].degraded);  // fault cleared: chr3 on GPU
  EXPECT_TRUE(report.any_degraded());

  const RunManifest manifest = read_run_manifest(report.manifest_file);
  const ManifestEntry* entry = manifest.find("chr2");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->status, "done");
  EXPECT_TRUE(entry->degraded);
  EXPECT_EQ(entry->requested, "gsnp");
  EXPECT_EQ(entry->engine, "gsnp_cpu");

  // The degraded chromosome's output is bit-identical to a clean CPU run
  // (§IV-G) — degradation costs speed, never correctness.
  const GenomeReport cpu = clean_cpu_run(dir_ / "clean");
  for (std::size_t c = 0; c < 3; ++c) {
    const auto check =
        compare_output_files(report.output_files[c], cpu.output_files[c]);
    EXPECT_TRUE(check.identical) << cfg.chromosomes[c].name << ": "
                                 << check.detail;
  }
}

TEST_F(FaultTolerantGenome, TransientTransferCorruptionRetriedNotPropagated) {
  const OpCounts ops = probe_chr1();
  device::DeviceSpec spec;
  spec.fault.corrupt_h2d_at = static_cast<i64>(ops.h2d);
  spec.fault.fault_count = 1;  // one glitched DMA, then healthy
  device::Device dev(spec);

  GenomeRunConfig cfg = config_;
  cfg.output_dir = dir_ / "glitch";
  const GenomeReport report = run_genome(cfg, EngineKind::kGsnp, &dev);

  ASSERT_EQ(report.statuses.size(), 3u);
  EXPECT_EQ(report.statuses[1].attempts, 2);  // CRC caught it, retry clean
  EXPECT_FALSE(report.statuses[1].degraded);
  EXPECT_FALSE(report.statuses[1].error.empty());

  // The corrupted transfer never reached an output file: every chromosome
  // is still bit-identical to a clean CPU run.
  const GenomeReport cpu = clean_cpu_run(dir_ / "clean");
  for (std::size_t c = 0; c < 3; ++c) {
    const auto check =
        compare_output_files(report.output_files[c], cpu.output_files[c]);
    EXPECT_TRUE(check.identical) << cfg.chromosomes[c].name << ": "
                                 << check.detail;
  }
}

TEST_F(FaultTolerantGenome, CheckpointResumeSkipsVerifiedChromosomes) {
  const OpCounts ops = probe_chr1();
  GenomeRunConfig cfg = config_;
  cfg.output_dir = dir_ / "run";
  cfg.retry.max_attempts = 2;
  cfg.retry.allow_cpu_fallback = false;

  {
    device::DeviceSpec spec;
    spec.fault.fail_alloc_at = static_cast<i64>(ops.allocs);
    spec.fault.fault_count = -1;  // wedged card: chr2 cannot complete
    device::Device dev(spec);
    EXPECT_THROW(run_genome(cfg, EngineKind::kGsnp, &dev),
                 device::DeviceFaultError);
  }

  // The manifest recorded chr1 done and chr2 failed before the throw, and
  // no torn chr2 output was published.
  const RunManifest aborted =
      read_run_manifest(cfg.output_dir / "manifest.json");
  ASSERT_EQ(aborted.chromosomes.size(), 2u);
  EXPECT_EQ(aborted.chromosomes[0].status, "done");
  EXPECT_EQ(aborted.chromosomes[1].status, "failed");
  EXPECT_EQ(aborted.chromosomes[1].attempts, 2);
  EXPECT_TRUE(fs::exists(cfg.output_dir / "chr1.gsnp.snp"));
  EXPECT_FALSE(fs::exists(cfg.output_dir / "chr2.gsnp.snp"));
  const auto chr1_mtime = fs::last_write_time(cfg.output_dir / "chr1.gsnp.snp");

  // Resume on a healthy card: chr1 is skipped (manifest + CRC verified),
  // chr2 and chr3 run.
  cfg.resume = true;
  device::Device healthy;
  const GenomeReport report = run_genome(cfg, EngineKind::kGsnp, &healthy);
  ASSERT_EQ(report.statuses.size(), 3u);
  EXPECT_TRUE(report.statuses[0].resumed);
  EXPECT_EQ(report.statuses[0].attempts, 0);
  EXPECT_FALSE(report.statuses[1].resumed);
  EXPECT_FALSE(report.statuses[2].resumed);
  EXPECT_EQ(fs::last_write_time(cfg.output_dir / "chr1.gsnp.snp"),
            chr1_mtime);  // not rewritten

  // Byte-for-byte equal to a never-interrupted run.
  GenomeRunConfig clean = config_;
  clean.output_dir = dir_ / "uninterrupted";
  device::Device dev2;
  const GenomeReport full = run_genome(clean, EngineKind::kGsnp, &dev2);
  for (std::size_t c = 0; c < 3; ++c)
    EXPECT_EQ(read_bytes(report.output_files[c]),
              read_bytes(full.output_files[c]))
        << cfg.chromosomes[c].name;

  // Tampering with a recorded output invalidates its checkpoint: that
  // chromosome is re-run instead of trusted.
  {
    auto bytes = read_bytes(cfg.output_dir / "chr1.gsnp.snp");
    bytes.back() ^= 0xFF;
    write_bytes(cfg.output_dir / "chr1.gsnp.snp", bytes);
  }
  device::Device dev3;
  const GenomeReport again = run_genome(cfg, EngineKind::kGsnp, &dev3);
  EXPECT_FALSE(again.statuses[0].resumed);
  EXPECT_TRUE(again.statuses[1].resumed);
  EXPECT_TRUE(again.statuses[2].resumed);
  EXPECT_EQ(read_bytes(cfg.output_dir / "chr1.gsnp.snp"),
            read_bytes(full.output_files[0]));
}

// ---- crash-point recovery ---------------------------------------------------------
//
// GenomeRunConfig::checkpoint_hook fires at the two durability edges of each
// chromosome: "pre_publish" (output staged in `.part`, rename pending) and
// "post_publish" (output renamed, manifest entry pending).  A hook that
// throws models the process dying at exactly that instant; a resume run must
// converge to the same bytes as a never-interrupted run, with each
// chromosome's work applied exactly once.

struct InjectedCrash : std::runtime_error {
  InjectedCrash() : std::runtime_error("injected crash") {}
};

TEST_F(FaultTolerantGenome, CrashBeforePublishLeavesOnlyTornStaging) {
  GenomeRunConfig cfg = config_;
  cfg.output_dir = dir_ / "run";
  cfg.checkpoint_hook = [](std::string_view point,
                           const std::string& chromosome) {
    if (point == "pre_publish" && chromosome == "chr2") throw InjectedCrash();
  };
  device::Device dev;
  EXPECT_THROW(run_genome(cfg, EngineKind::kGsnp, &dev), InjectedCrash);

  // chr1 published and journaled; chr2 died before its rename — the staged
  // `.part` remains (as after a real crash) but no output was published and
  // no manifest entry was written.
  const RunManifest torn = read_run_manifest(cfg.output_dir / "manifest.json");
  ASSERT_EQ(torn.chromosomes.size(), 1u);
  EXPECT_EQ(torn.chromosomes[0].name, "chr1");
  EXPECT_TRUE(fs::exists(cfg.output_dir / "chr1.gsnp.snp"));
  EXPECT_FALSE(fs::exists(cfg.output_dir / "chr2.gsnp.snp"));
  EXPECT_TRUE(fs::exists(cfg.output_dir / "chr2.gsnp.snp.part"));

  // Resume: chr1 verifies and is skipped, chr2 re-runs (overwriting the torn
  // staging), chr3 runs fresh.
  cfg.checkpoint_hook = nullptr;
  cfg.resume = true;
  device::Device dev2;
  const GenomeReport report = run_genome(cfg, EngineKind::kGsnp, &dev2);
  EXPECT_TRUE(report.statuses[0].resumed);
  EXPECT_FALSE(report.statuses[1].resumed);
  EXPECT_EQ(report.statuses[1].attempts, 1);
  EXPECT_FALSE(fs::exists(cfg.output_dir / "chr2.gsnp.snp.part"));

  GenomeRunConfig clean = config_;
  clean.output_dir = dir_ / "clean";
  device::Device dev3;
  const GenomeReport full = run_genome(clean, EngineKind::kGsnp, &dev3);
  for (std::size_t c = 0; c < 3; ++c)
    EXPECT_EQ(read_bytes(report.output_files[c]),
              read_bytes(full.output_files[c]))
        << cfg.chromosomes[c].name;
  EXPECT_EQ(manifest_digest(read_run_manifest(report.manifest_file)),
            manifest_digest(read_run_manifest(full.manifest_file)));
}

TEST_F(FaultTolerantGenome, CrashBetweenPublishAndManifestReplaysExactlyOnce) {
  GenomeRunConfig cfg = config_;
  cfg.output_dir = dir_ / "run";
  cfg.checkpoint_hook = [](std::string_view point,
                           const std::string& chromosome) {
    if (point == "post_publish" && chromosome == "chr2") throw InjectedCrash();
  };
  device::Device dev;
  EXPECT_THROW(run_genome(cfg, EngineKind::kGsnp, &dev), InjectedCrash);

  // The torn window: chr2's output IS published but the manifest never heard
  // of it.  This is the case resume cannot skip — it must re-run chr2 and
  // converge by renaming identical bytes over the orphan.
  const RunManifest torn = read_run_manifest(cfg.output_dir / "manifest.json");
  ASSERT_EQ(torn.chromosomes.size(), 1u);
  EXPECT_TRUE(fs::exists(cfg.output_dir / "chr2.gsnp.snp"));
  const auto orphan_bytes = read_bytes(cfg.output_dir / "chr2.gsnp.snp");
  const auto chr1_mtime = fs::last_write_time(cfg.output_dir / "chr1.gsnp.snp");

  cfg.checkpoint_hook = nullptr;
  cfg.resume = true;
  device::Device dev2;
  const GenomeReport report = run_genome(cfg, EngineKind::kGsnp, &dev2);
  EXPECT_TRUE(report.statuses[0].resumed);
  EXPECT_FALSE(report.statuses[1].resumed);  // replayed, not trusted
  EXPECT_EQ(fs::last_write_time(cfg.output_dir / "chr1.gsnp.snp"),
            chr1_mtime);
  // Exactly-once at the byte level: the replay produced the orphan's bytes.
  EXPECT_EQ(read_bytes(cfg.output_dir / "chr2.gsnp.snp"), orphan_bytes);

  const RunManifest healed = read_run_manifest(report.manifest_file);
  ASSERT_EQ(healed.chromosomes.size(), 3u);
  for (const auto& entry : healed.chromosomes) EXPECT_EQ(entry.status, "done");

  GenomeRunConfig clean = config_;
  clean.output_dir = dir_ / "clean";
  device::Device dev3;
  const GenomeReport full = run_genome(clean, EngineKind::kGsnp, &dev3);
  EXPECT_EQ(manifest_digest(healed),
            manifest_digest(read_run_manifest(full.manifest_file)));
  for (std::size_t c = 0; c < 3; ++c)
    EXPECT_EQ(read_bytes(report.output_files[c]),
              read_bytes(full.output_files[c]))
        << cfg.chromosomes[c].name;
}

// ---- randomized end-to-end fuzz ---------------------------------------------------

class ConsistencyFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ConsistencyFuzz, EnginesAgreeOnRandomDatasets) {
  const u64 seed = GetParam();
  Rng rng(seed);
  const fs::path dir =
      test_temp_path("gsnp_fuzz_" + std::to_string(seed));
  fs::create_directories(dir);

  genome::GenomeSpec gspec;
  gspec.name = "chrF";
  gspec.length = 2'000 + rng.uniform(8'000);
  gspec.n_gap_rate = rng.uniform_double() * 0.05;
  gspec.gc_content = 0.3 + 0.4 * rng.uniform_double();
  gspec.seed = seed * 13;
  const genome::Reference ref = genome::generate_reference(gspec);

  genome::SnpPlantSpec pspec;
  pspec.snp_rate = rng.uniform_double() * 0.01;
  pspec.seed = seed * 17;
  const auto snps = genome::plant_snps(ref, pspec);
  const genome::Diploid individual(ref, snps);
  const genome::DbSnpTable dbsnp = genome::make_dbsnp(ref, snps, 0.005, seed);

  reads::ReadSimSpec rspec;
  rspec.depth = 0.5 + 15.0 * rng.uniform_double();
  rspec.read_len = static_cast<u32>(30 + rng.uniform(120));
  rspec.error_scale = 0.5 + 4.0 * rng.uniform_double();
  rspec.multi_hit_rate = rng.uniform_double() * 0.3;
  rspec.mappable_fraction = 0.5 + 0.5 * rng.uniform_double();
  rspec.seed = seed * 19;
  reads::write_alignment_file(dir / "a.soap",
                              reads::simulate_reads(individual, rspec));

  EngineConfig config;
  config.alignment_file = dir / "a.soap";
  config.reference = &ref;
  config.dbsnp = &dbsnp;
  config.temp_file = dir / "a.tmp";
  config.window_size = static_cast<u32>(64 + rng.uniform(4'000));

  config.output_file = dir / "soapsnp.txt";
  run_soapsnp(config);
  config.output_file = dir / "gsnp.snp";
  device::Device dev;
  run_gsnp(config, dev);

  const auto report =
      compare_output_files(dir / "soapsnp.txt", dir / "gsnp.snp");
  EXPECT_TRUE(report.identical) << "seed " << seed << ": " << report.detail;
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- p_matrix reuse ------------------------------------------------------------------

TEST_F(CorruptionFixture, MatrixReuseIsBitExact) {
  EngineConfig config;
  config.alignment_file = dir_ / "a.soap";
  config.reference = &ref_;
  config.temp_file = dir_ / "m.tmp";
  config.window_size = 1'024;

  // First run saves the matrix.
  config.output_file = dir_ / "m1.snp";
  config.p_matrix_out = dir_ / "pm.bin";
  run_gsnp_cpu(config);

  // Second run reloads it and must produce identical output.
  config.p_matrix_out.clear();
  config.p_matrix_in = dir_ / "pm.bin";
  config.output_file = dir_ / "m2.snp";
  config.temp_file = dir_ / "m2.tmp";
  run_gsnp_cpu(config);

  const auto report = compare_output_files(dir_ / "m1.snp", dir_ / "m2.snp");
  EXPECT_TRUE(report.identical) << report.detail;

  // SOAPsnp path with reuse (skips the counting pass entirely).
  config.output_file = dir_ / "m3.txt";
  run_soapsnp(config);
  const auto report2 = compare_output_files(dir_ / "m1.snp", dir_ / "m3.txt");
  EXPECT_TRUE(report2.identical) << report2.detail;
}

}  // namespace
}  // namespace gsnp::core
