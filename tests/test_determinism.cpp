// The determinism battery (overlapped-pipeline lockdown).
//
// The overlapped engine paths (EngineConfig::streams >= 2) promise output
// *byte-identical* to the serial reference path, for any stream count, any
// pipeline depth and any host thread-pool size.  This file is the contract's
// enforcement: it runs the full pipeline repeatedly — twice serially and
// under several overlapped configurations — across all three engines, and
// asserts byte-identical raw output, byte-identical VCF conversion,
// identical manifest digests and identical device counters.
//
// A second section pins the end-to-end result against committed golden
// SHA-256 hashes (tests/corpus/golden/), so a cross-PR behavioral drift is
// caught even if serial and overlapped paths drift *together*.  Regenerate
// with GSNP_UPDATE_GOLDEN=1 after an intentional output change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/sha256.hpp"
#include "src/core/backend.hpp"
#include "src/core/consistency.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/core/run_manifest.hpp"
#include "src/core/simd.hpp"
#include "src/core/vcf.hpp"
#include "src/core/window.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"

namespace gsnp::core {
namespace {

namespace fs = std::filesystem;

std::string read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One overlapped-pipeline configuration under test.
struct PipelineVariant {
  const char* label;
  u32 streams;
  u32 pipeline_depth;
  u32 host_threads;
  /// Depth-aware batching budget (0 = fixed windows).  Small enough values
  /// split every window, exercising the batched engine paths.
  u64 batch_bytes = 0;
};

/// Everything a run produced that determinism covers: raw output bytes per
/// chromosome, the VCF conversion of each, the canonical manifest digest,
/// and (GSNP engine) the device counters.
struct RunFingerprint {
  std::vector<std::string> output_bytes;
  std::vector<std::string> vcf_bytes;
  std::string manifest_digest;
  device::DeviceCounters counters;
};

class DeterminismBattery : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "gsnp_determinism_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // Two chromosomes, window 2,048 => several windows each, so the
    // double-buffered pipeline genuinely rotates slots and every stage
    // overlaps at least once.
    const struct { const char* name; u64 length; u64 seed; } specs[] = {
        {"chrD1", 9'000, 70}, {"chrD2", 6'500, 80}};
    for (const auto& s : specs) {
      genome::GenomeSpec gspec;
      gspec.name = s.name;
      gspec.length = s.length;
      gspec.seed = s.seed;
      refs_.push_back(genome::generate_reference(gspec));
    }
    for (std::size_t c = 0; c < refs_.size(); ++c) {
      genome::SnpPlantSpec pspec;
      pspec.seed = specs[c].seed + 1;
      const genome::Diploid individual(refs_[c],
                                       plant_snps(refs_[c], pspec));
      reads::ReadSimSpec rspec;
      rspec.depth = 6.0;
      rspec.seed = specs[c].seed + 2;
      const fs::path align = dir_ / (refs_[c].name() + ".soap");
      reads::write_alignment_file(align,
                                  reads::simulate_reads(individual, rspec));
      ChromosomeJob job;
      job.name = refs_[c].name();
      job.alignment_file = align;
      job.reference = &refs_[c];
      jobs_.push_back(job);
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// `run_inline` runs the whole call under an InlineComputeScope, where
  /// every compute-executor fan-out runs inline.
  RunFingerprint run(EngineKind kind, const PipelineVariant& v,
                     bool run_inline = false) {
    GenomeRunConfig config;
    config.chromosomes = jobs_;
    config.output_dir =
        dir_ / (std::string(engine_name(kind)) + "_" + v.label);
    config.window_size = window_size_;
    config.streams = v.streams;
    config.pipeline_depth = v.pipeline_depth;
    config.host_threads = v.host_threads;
    config.batch_bytes = v.batch_bytes;

    device::Device dev;  // fresh per run: counters comparable across runs
    const auto call = [&] {
      return run_genome(config, kind,
                        kind == EngineKind::kGsnp ? &dev : nullptr);
    };
    const GenomeReport report = [&] {
      if (!run_inline) return call();
      const InlineComputeScope one_thread;
      return call();
    }();

    RunFingerprint fp;
    for (const fs::path& out : report.output_files) {
      fp.output_bytes.push_back(read_file_bytes(out));
      std::string seq_name;
      const auto rows = read_snp_output(out, seq_name);
      const fs::path vcf = out.string() + ".vcf";
      write_vcf_file(vcf, seq_name, rows.size(), rows);
      fp.vcf_bytes.push_back(read_file_bytes(vcf));
    }
    const RunManifest manifest = read_run_manifest(report.manifest_file);
    // No run in this battery injects faults, so every chromosome must come
    // back clean on the requested engine.  A silent CPU fallback would fake
    // determinism (the degraded path produces the same bytes by design)
    // while leaving the path under test uncovered.
    for (const auto& e : manifest.chromosomes) {
      EXPECT_EQ(e.status, "done") << v.label << ": " << e.name << " failed";
      EXPECT_FALSE(e.degraded)
          << v.label << ": " << e.name << " silently degraded to "
          << e.engine << " (" << e.error << ")";
    }
    fp.manifest_digest = manifest_digest(manifest);
    fp.counters = dev.counters();
    return fp;
  }

  void expect_identical(const RunFingerprint& a, const RunFingerprint& b,
                        EngineKind kind, const char* label) {
    ASSERT_EQ(a.output_bytes.size(), b.output_bytes.size()) << label;
    for (std::size_t c = 0; c < a.output_bytes.size(); ++c) {
      EXPECT_EQ(a.output_bytes[c] == b.output_bytes[c], true)
          << engine_name(kind) << " " << label << ": chromosome " << c
          << " raw output differs from serial";
      EXPECT_EQ(a.vcf_bytes[c] == b.vcf_bytes[c], true)
          << engine_name(kind) << " " << label << ": chromosome " << c
          << " VCF differs from serial";
    }
    EXPECT_EQ(a.manifest_digest, b.manifest_digest)
        << engine_name(kind) << " " << label << ": manifest digest differs";
    if (kind == EngineKind::kGsnp) {
      // Identical op multiset + commutative u64 adds: the final device
      // counters must match the serial run exactly, whatever the interleave.
      // Field-by-field so a mismatch names the counter that drifted.
      const device::DeviceCounters& ca = a.counters;
      const device::DeviceCounters& cb = b.counters;
#define GSNP_EXPECT_COUNTER(field)                                         \
  EXPECT_EQ(ca.field, cb.field)                                            \
      << label << ": device counter '" #field "' differs from serial"
      GSNP_EXPECT_COUNTER(instructions);
      GSNP_EXPECT_COUNTER(global_loads_coalesced);
      GSNP_EXPECT_COUNTER(global_loads_random);
      GSNP_EXPECT_COUNTER(global_stores_coalesced);
      GSNP_EXPECT_COUNTER(global_stores_random);
      GSNP_EXPECT_COUNTER(global_load_bytes_coalesced);
      GSNP_EXPECT_COUNTER(global_load_bytes_random);
      GSNP_EXPECT_COUNTER(global_store_bytes_coalesced);
      GSNP_EXPECT_COUNTER(global_store_bytes_random);
      GSNP_EXPECT_COUNTER(shared_loads);
      GSNP_EXPECT_COUNTER(shared_stores);
      GSNP_EXPECT_COUNTER(shared_bytes);
      GSNP_EXPECT_COUNTER(h2d_bytes);
      GSNP_EXPECT_COUNTER(d2h_bytes);
      GSNP_EXPECT_COUNTER(kernel_launches);
#undef GSNP_EXPECT_COUNTER
    }
  }

  /// The battery itself: serial twice (reproducibility with itself — seeded
  /// input, deterministic code), then every overlapped variant vs serial.
  void run_battery(EngineKind kind) {
    static constexpr PipelineVariant kVariants[] = {
        {"s2_p1", 2, 2, 1},  // overlapped, single host worker
        {"s2_p2", 2, 2, 2},  // overlapped, default host pool
        {"s4_p8", 4, 3, 8},  // wide: 4 streams, depth 3, oversubscribed pool
    };
    const RunFingerprint serial = run(kind, {"serial", 1, 2, 2});
    expect_identical(run(kind, {"serial2", 1, 2, 2}), serial, kind,
                     "serial rerun");
    for (const PipelineVariant& v : kVariants)
      expect_identical(run(kind, v), serial, kind, v.label);
  }

  /// Batched-vs-fixed identity, minus device counters: batching re-shapes
  /// the device op stream (per-batch uploads, per-batch scratch), so the
  /// counters legitimately differ from the fixed-window run — the contract
  /// is on the *artifacts*: raw output, VCF and manifest digest.
  void expect_same_artifacts(const RunFingerprint& a, const RunFingerprint& b,
                             EngineKind kind, const char* label) {
    ASSERT_EQ(a.output_bytes.size(), b.output_bytes.size()) << label;
    for (std::size_t c = 0; c < a.output_bytes.size(); ++c) {
      EXPECT_EQ(a.output_bytes[c] == b.output_bytes[c], true)
          << engine_name(kind) << " " << label << ": chromosome " << c
          << " raw output differs from fixed-window";
      EXPECT_EQ(a.vcf_bytes[c] == b.vcf_bytes[c], true)
          << engine_name(kind) << " " << label << ": chromosome " << c
          << " VCF differs from fixed-window";
    }
    EXPECT_EQ(a.manifest_digest, b.manifest_digest)
        << engine_name(kind) << " " << label << ": manifest digest differs";
  }

  /// The batched battery: a fixed-window serial reference, then a batched
  /// serial run (artifact-identical to fixed), then overlapped batched
  /// variants (fully identical to batched serial, device counters included —
  /// the overlapped paths execute the same per-batch op multiset).
  void run_batched_battery(EngineKind kind) {
    // ~1/17th of a 2,048-site window's likelihood footprint: every window in
    // the 6x dataset splits into multiple batches.
    constexpr u64 kBudget = 256 * 1024;
    static constexpr PipelineVariant kBatchedVariants[] = {
        {"b_s2_p2", 2, 2, 2, kBudget},
        {"b_s4_p8", 4, 3, 8, kBudget},
    };
    const RunFingerprint fixed = run(kind, {"b_fixed", 1, 2, 2, 0});
    const RunFingerprint batched = run(kind, {"b_serial", 1, 2, 2, kBudget});
    expect_same_artifacts(batched, fixed, kind, "batched serial");
    for (const PipelineVariant& v : kBatchedVariants)
      expect_identical(run(kind, v), batched, kind, v.label);
  }

  fs::path dir_;
  std::vector<genome::Reference> refs_;
  std::vector<ChromosomeJob> jobs_;
  u32 window_size_ = 2'048;
};

TEST_F(DeterminismBattery, SoapsnpOverlappedMatchesSerial) {
  run_battery(EngineKind::kSoapsnp);
}

TEST_F(DeterminismBattery, GsnpCpuOverlappedMatchesSerial) {
  run_battery(EngineKind::kGsnpCpu);
}

TEST_F(DeterminismBattery, GsnpOverlappedMatchesSerial) {
  run_battery(EngineKind::kGsnp);
}

TEST_F(DeterminismBattery, GsnpSimdOverlappedMatchesSerial) {
  run_battery(EngineKind::kGsnpSimd);
}

// ---- depth-aware batching (byte-capacity budget) ---------------------------

TEST_F(DeterminismBattery, SoapsnpBatchedMatchesFixedWindow) {
  run_batched_battery(EngineKind::kSoapsnp);
}

TEST_F(DeterminismBattery, GsnpCpuBatchedMatchesFixedWindow) {
  run_batched_battery(EngineKind::kGsnpCpu);
}

TEST_F(DeterminismBattery, GsnpBatchedMatchesFixedWindow) {
  run_batched_battery(EngineKind::kGsnp);
}

TEST_F(DeterminismBattery, GsnpSimdBatchedMatchesFixedWindow) {
  run_batched_battery(EngineKind::kGsnpSimd);
}

/// The batched battery over a skewed-depth dataset: seeded 50-200x hotspot
/// islands on a 6x baseline, so batch sizes genuinely float (hundreds of
/// shallow sites per batch outside the islands, a handful of deep ones
/// inside) while windows, streams and budgets interact.
class HotspotDeterminism : public DeterminismBattery {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "gsnp_hotspot_determinism_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    genome::GenomeSpec gspec;
    gspec.name = "chrHot";
    gspec.length = 40'000;
    gspec.seed = 120;
    refs_.push_back(genome::generate_reference(gspec));
    const genome::Reference& ref = refs_.back();

    genome::SnpPlantSpec pspec;
    pspec.seed = 121;
    const genome::Diploid individual(ref, plant_snps(ref, pspec));

    genome::HotspotSpec hspec;
    hspec.islands = 3;
    hspec.island_length = 1'500;
    // 25-75x over the 6x baseline: deep enough that every island window
    // splits into many batches, shallow enough that per-site pileups stay
    // under the device's 1,024-thread block limit — deeper islands make the
    // bitonic sort pass unlaunchable and the run would silently degrade to
    // the CPU engine, taking the device path out of the battery.
    hspec.multiplier_lo = 25.0;
    hspec.multiplier_hi = 75.0;
    hspec.seed = 122;
    reads::ReadSimSpec rspec;
    rspec.depth = 6.0;
    rspec.seed = 123;
    rspec.hotspots = genome::place_hotspot_islands(ref.size(), hspec);

    const fs::path align = dir_ / "chrHot.soap";
    reads::write_alignment_file(align,
                                reads::simulate_reads(individual, rspec));
    ChromosomeJob job;
    job.name = ref.name();
    job.alignment_file = align;
    job.reference = &ref;
    jobs_.push_back(job);
  }
};

TEST_F(HotspotDeterminism, GsnpBatchedMatchesFixedWindow) {
  run_batched_battery(EngineKind::kGsnp);
}

TEST_F(HotspotDeterminism, GsnpCpuBatchedMatchesFixedWindow) {
  run_batched_battery(EngineKind::kGsnpCpu);
}

/// Fan-out vs inline: the serial reference path run from the test thread,
/// where every window stage and device launch fans out on the compute
/// executor, and under an InlineComputeScope, where the executor runs each
/// of them inline, must produce the same bytes, digests and device counters.
/// Windows span several count ranges and many site chunks, so every stage
/// really splits.  SOAPsnp keeps a 2,048-site window (each site holds a
/// 128 KiB dense matrix): there its dense likelihood loop splits, and count
/// and posterior stay one chunk.
class FanOutDeterminism : public DeterminismBattery {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "gsnp_fanout_determinism_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // A long chromosome for the sparse engines (two full windows of three
    // count ranges each, then a short one) and a short one for SOAPsnp.
    const struct { const char* name; u64 length; u64 seed; } specs[] = {
        {"chrF", 6 * kCountSitesPerRange + 5'000, 140}, {"chrFs", 8'192, 150}};
    for (const auto& spec : specs) {
      genome::GenomeSpec gspec;
      gspec.name = spec.name;
      gspec.length = spec.length;
      gspec.seed = spec.seed;
      refs_.push_back(genome::generate_reference(gspec));
    }
    for (std::size_t c = 0; c < refs_.size(); ++c) {
      genome::SnpPlantSpec pspec;
      pspec.seed = specs[c].seed + 1;
      const genome::Diploid individual(refs_[c], plant_snps(refs_[c], pspec));
      reads::ReadSimSpec rspec;
      rspec.depth = 6.0;
      rspec.seed = specs[c].seed + 2;
      const fs::path align = dir_ / (refs_[c].name() + ".soap");
      reads::write_alignment_file(align,
                                  reads::simulate_reads(individual, rspec));
      ChromosomeJob job;
      job.name = refs_[c].name();
      job.alignment_file = align;
      job.reference = &refs_[c];
      all_jobs_.push_back(job);
    }
  }

  void expect_fan_out_matches_inline(EngineKind kind) {
    const bool dense = kind == EngineKind::kSoapsnp;
    jobs_ = {all_jobs_[dense ? 1 : 0]};
    window_size_ = dense ? 2'048 : static_cast<u32>(3 * kCountSitesPerRange);
    const RunFingerprint fanned = run(kind, {"fan_out", 1, 2, 2});
    const RunFingerprint inlined =
        run(kind, {"inline", 1, 2, 2}, /*run_inline=*/true);
    expect_identical(inlined, fanned, kind, "inline");
  }

  std::vector<ChromosomeJob> all_jobs_;
};

TEST_F(FanOutDeterminism, SoapsnpFanOutMatchesInline) {
  expect_fan_out_matches_inline(EngineKind::kSoapsnp);
}

TEST_F(FanOutDeterminism, GsnpCpuFanOutMatchesInline) {
  expect_fan_out_matches_inline(EngineKind::kGsnpCpu);
}

TEST_F(FanOutDeterminism, GsnpFanOutMatchesInline) {
  expect_fan_out_matches_inline(EngineKind::kGsnp);
}

TEST_F(FanOutDeterminism, GsnpSimdFanOutMatchesInline) {
  expect_fan_out_matches_inline(EngineKind::kGsnpSimd);
}

/// Restores environment-driven SIMD dispatch even when an ASSERT bails out
/// of a test mid-way.
struct ForcedLevel {
  explicit ForcedLevel(simd::Level level) { simd::force_level(level); }
  ~ForcedLevel() { simd::force_level(std::nullopt); }
};

TEST_F(DeterminismBattery, BackendMatrixIsByteIdentical) {
  // The registry's bit-exactness contract, §IV-G extended to dispatch
  // levels: gsnp-simd pinned to scalar, SSE2 and AVX2 must produce output
  // and VCF bytes identical to gsnp-cpu.  (Manifest digests embed the
  // engine id, so cross-backend identity is asserted on the bytes.)
  const PipelineVariant v = {"matrix", 1, 2, 2};
  const RunFingerprint reference = run(EngineKind::kGsnpCpu, v);

  if (!simd::level_supported(simd::Level::kAvx2))
    std::cerr << "[ WARNING  ] host lacks AVX2 — backend matrix only covers "
              << "the levels this CPU can execute\n";

  for (const simd::Level level : simd::supported_levels()) {
    const ForcedLevel forced(level);
    const RunFingerprint fp = run(EngineKind::kGsnpSimd, v);
    ASSERT_EQ(fp.output_bytes.size(), reference.output_bytes.size());
    for (std::size_t c = 0; c < fp.output_bytes.size(); ++c) {
      EXPECT_EQ(fp.output_bytes[c] == reference.output_bytes[c], true)
          << "gsnp-simd@" << simd::level_name(level) << ": chromosome " << c
          << " raw output differs from gsnp-cpu";
      EXPECT_EQ(fp.vcf_bytes[c] == reference.vcf_bytes[c], true)
          << "gsnp-simd@" << simd::level_name(level) << ": chromosome " << c
          << " VCF differs from gsnp-cpu";
    }
  }
}

TEST_F(DeterminismBattery, EnginesAgreeUnderOverlap) {
  // The §IV-G cross-engine guarantee must survive overlap: an overlapped
  // GSNP run and an overlapped SOAPsnp run still call identical rows.
  const PipelineVariant v = {"cross", 2, 2, 2};
  GenomeRunConfig config;
  config.chromosomes = jobs_;
  config.window_size = 2'048;
  config.streams = v.streams;
  config.pipeline_depth = v.pipeline_depth;
  config.host_threads = v.host_threads;

  device::Device dev;
  config.output_dir = dir_ / "cross_gsnp";
  const auto gsnp = run_genome(config, EngineKind::kGsnp, &dev);
  config.output_dir = dir_ / "cross_soapsnp";
  const auto soapsnp = run_genome(config, EngineKind::kSoapsnp);
  ASSERT_EQ(gsnp.output_files.size(), soapsnp.output_files.size());
  for (std::size_t c = 0; c < gsnp.output_files.size(); ++c) {
    const auto report =
        compare_output_files(gsnp.output_files[c], soapsnp.output_files[c]);
    EXPECT_TRUE(report.identical) << jobs_[c].name << ": " << report.detail;
  }
}

// ---- golden end-to-end corpus -----------------------------------------------

/// Golden file format: one "key<space>sha256-hex" per line, sorted by key.
std::map<std::string, std::string> read_golden(const fs::path& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string key, hash;
  while (in >> key >> hash) golden[key] = hash;
  return golden;
}

TEST_F(DeterminismBattery, GoldenEndToEndHashes) {
  const fs::path golden_path =
      fs::path(GSNP_TEST_CORPUS_DIR) / "golden" / "e2e.sha256";

  // Hash every backend's serial raw outputs and VCFs — the same artifacts
  // the battery above proves the overlapped paths reproduce, so pinning
  // serial pins everything.  The registry's bit-exactness contract shows up
  // directly in the golden file: the .out/.vcf hashes of gsnp, gsnp_cpu and
  // gsnp_simd are the same hex strings (only the manifests differ, because
  // they embed the engine id).
  std::map<std::string, std::string> actual;
  for (const EngineKind kind :
       {EngineKind::kGsnp, EngineKind::kSoapsnp, EngineKind::kGsnpCpu,
        EngineKind::kGsnpSimd}) {
    const RunFingerprint fp = run(kind, {"golden", 1, 2, 2});
    for (std::size_t c = 0; c < fp.output_bytes.size(); ++c) {
      const std::string base =
          std::string(engine_name(kind)) + "/" + jobs_[c].name;
      actual[base + ".out"] = sha256_hex(fp.output_bytes[c]);
      actual[base + ".vcf"] = sha256_hex(fp.vcf_bytes[c]);
    }
    actual[std::string(engine_name(kind)) + "/manifest"] =
        fp.manifest_digest;
  }

  if (std::getenv("GSNP_UPDATE_GOLDEN") != nullptr) {
    fs::create_directories(golden_path.parent_path());
    std::ofstream out(golden_path, std::ios::trunc);
    for (const auto& [key, hash] : actual) out << key << ' ' << hash << '\n';
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  const auto golden = read_golden(golden_path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path
      << " — run once with GSNP_UPDATE_GOLDEN=1 to generate it";
  for (const auto& [key, hash] : golden) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "golden key '" << key << "' not produced";
    EXPECT_EQ(it->second, hash)
        << "end-to-end output drift for '" << key
        << "' (intentional? regenerate with GSNP_UPDATE_GOLDEN=1)";
  }
  EXPECT_EQ(actual.size(), golden.size())
      << "run produced keys the golden file does not pin";
}

}  // namespace
}  // namespace gsnp::core
