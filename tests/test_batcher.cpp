// The batcher proof harness (ISSUE: depth-aware device batcher).
//
// Three layers: (1) a hand-computed golden pack plan pinning the cost model's
// exact arithmetic, (2) randomized-depth property tests over the packing
// invariants — every site exactly once, in position order, never over budget,
// planned occupancy consistent with brute-force classification — and (3) an
// end-to-end serial GSNP run over a skewed-depth hotspot dataset asserting
// the *measured* device watermark of every batch stays under the configured
// budget while the output bytes stay identical to the fixed-window baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/batcher.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/core/kernels.hpp"
#include "src/core/run_manifest.hpp"
#include "src/core/new_pmatrix.hpp"
#include "src/core/pmatrix.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::core {
namespace {

namespace fs = std::filesystem;

// ---- golden pack plan -------------------------------------------------------
//
// Three sites with observation-list sizes {2, 5, 8}: all land in size class 1
// (bound 8, pad next_pow2(8) = 8) of the default bounds {1,8,16,32,64}.
// Hand arithmetic, charged phase by phase:
//   S=3, W=15:  resident = 4*15 + 8*4          =   92
//               sort     = 12*3 + 4*3*8        =  132
//               likeli   = (4*512 + 8*10) * 3  = 6384   <- dominates
//               post     = (16*10 + 4) * 3     =  492
//               peak     = 92 + 6384           = 6476
// Splitting after site 1:
//   {0,2}: S=2, W=7:  resident 52, sort 88, likeli 4256 -> peak 4308
//   {2,3}: S=1, W=8:  resident 48, sort 44, likeli 2128 -> peak 2176

constexpr u64 kGoldenOffsets[] = {0, 2, 7, 15};

TEST(BatcherGolden, SingleBatchAtExactBudget) {
  const BatchPlan plan = plan_batches(kGoldenOffsets, 6476);
  ASSERT_EQ(plan.batches.size(), 1u);
  const SiteBatch& b = plan.batches[0];
  EXPECT_EQ(b.begin, 0u);
  EXPECT_EQ(b.end, 3u);
  EXPECT_EQ(b.words_begin, 0u);
  EXPECT_EQ(b.words_end, 15u);
  EXPECT_EQ(b.planned_peak_bytes, 6476u);
  EXPECT_EQ(b.max_array_size, 8u);
  ASSERT_EQ(b.class_members.size(), sortnet::kDefaultClassBounds.size() + 1);
  EXPECT_EQ(b.class_members[1], 3u);  // sizes 2, 5, 8 all bucket to bound 8
  EXPECT_EQ(plan.planned_peak_bytes, 6476u);
}

TEST(BatcherGolden, OneByteLessSplitsTheWindow) {
  const BatchPlan plan = plan_batches(kGoldenOffsets, 6475);
  ASSERT_EQ(plan.batches.size(), 2u);
  EXPECT_EQ(plan.batches[0].begin, 0u);
  EXPECT_EQ(plan.batches[0].end, 2u);
  EXPECT_EQ(plan.batches[0].words_end, 7u);
  EXPECT_EQ(plan.batches[0].planned_peak_bytes, 4308u);
  EXPECT_EQ(plan.batches[0].max_array_size, 5u);
  EXPECT_EQ(plan.batches[1].begin, 2u);
  EXPECT_EQ(plan.batches[1].end, 3u);
  EXPECT_EQ(plan.batches[1].words_begin, 7u);
  EXPECT_EQ(plan.batches[1].words_end, 15u);
  EXPECT_EQ(plan.batches[1].planned_peak_bytes, 2176u);
  EXPECT_EQ(plan.batches[1].class_members[1], 1u);
  EXPECT_EQ(plan.planned_peak_bytes, 4308u);
}

TEST(BatcherGolden, SingleSiteOverBudgetThrowsTyped) {
  // One site of 2 words needs resident 4*2 + 8*2 = 24 plus the dominant
  // likelihood phase 2128 = 2152 bytes; a 2000-byte budget has no packing.
  const u64 offsets[] = {0, 2};
  try {
    plan_batches(offsets, 2000);
    FAIL() << "expected BatchBudgetError";
  } catch (const BatchBudgetError& e) {
    EXPECT_EQ(e.budget_bytes(), 2000u);
    EXPECT_EQ(e.needed_bytes(), 2152u);
    EXPECT_EQ(e.site_index(), 0u);
    EXPECT_NE(std::string(e.what()).find("batch budget too small"),
              std::string::npos);
  }
}

TEST(BatcherGolden, ZeroBudgetIsACallerBug) {
  const u64 offsets[] = {0, 2};
  EXPECT_THROW(plan_batches(offsets, 0), Error);
}

TEST(BatcherGolden, WorstCaseDeviceBytesFormula) {
  // Admission control's closed form: resident score tables + one batch at
  // the budget + per-window RLE-DICT output scratch.
  const u64 tables = u64{8} * (PMatrix::kSize + NewPMatrix::kSize);
  EXPECT_EQ(worst_case_device_bytes(1 << 20, 2048),
            tables + (1u << 20) + 40u * 2048);
  EXPECT_EQ(worst_case_device_bytes(0, 0), tables);
}

// ---- randomized-depth property suite ---------------------------------------

/// Brute-force re-derivation of a batch's sortnet occupancy from the raw
/// offsets, mirroring sort_device_multipass_resident's bucketing.
void expected_occupancy(std::span<const u64> offsets, u32 begin, u32 end,
                        std::vector<u32>& members, u32& max_size) {
  members.assign(sortnet::kDefaultClassBounds.size() + 1, 0);
  max_size = 0;
  for (u32 s = begin; s < end; ++s) {
    const u64 size = offsets[s + 1] - offsets[s];
    if (size <= 1) continue;  // skipped by the sort, counted nowhere
    const auto& bounds = sortnet::kDefaultClassBounds;
    const auto it = std::lower_bound(bounds.begin(), bounds.end(),
                                     static_cast<u32>(size));
    ++members[static_cast<std::size_t>(it - bounds.begin())];
    max_size = std::max(max_size, static_cast<u32>(size));
  }
}

TEST(BatcherProperty, RandomizedDepthProfiles) {
  Rng rng(0xBA7C4);
  for (int trial = 0; trial < 200; ++trial) {
    // Skewed depth profile: mostly shallow sites, occasional 50-200x-style
    // pileups (sizes up to 300 words), plus empty and singleton sites that
    // the sort skips entirely.
    const u64 n_sites = 1 + rng.uniform(160);
    std::vector<u64> offsets(n_sites + 1, 0);
    for (u64 s = 0; s < n_sites; ++s) {
      u64 size = rng.uniform(9);  // 0..8, includes unsortable 0 and 1
      if (rng.bernoulli(0.08)) size = 50 + rng.uniform(251);  // hotspot site
      offsets[s + 1] = offsets[s] + size;
    }

    // Feasible budget: at least the deepest single site's footprint.
    u64 min_feasible = 0;
    for (u64 s = 0; s < n_sites; ++s) {
      std::vector<u32> members;
      u32 max_size = 0;
      expected_occupancy(offsets, static_cast<u32>(s),
                         static_cast<u32>(s + 1), members, max_size);
      min_feasible = std::max(
          min_feasible,
          planned_batch_peak_bytes(1, offsets[s + 1] - offsets[s], members,
                                   max_size, sortnet::kDefaultClassBounds));
    }
    const u64 budget = min_feasible + rng.uniform(20'000);

    const BatchPlan plan = plan_batches(offsets, budget);
    ASSERT_FALSE(plan.batches.empty());
    EXPECT_EQ(plan.budget_bytes, budget);

    u64 plan_max = 0;
    for (std::size_t i = 0; i < plan.batches.size(); ++i) {
      const SiteBatch& b = plan.batches[i];
      // Exactly-once coverage in position order.
      EXPECT_EQ(b.begin, i == 0 ? 0u : plan.batches[i - 1].end);
      EXPECT_LT(b.begin, b.end);
      // Word ranges are the CSR image of the site range.
      EXPECT_EQ(b.words_begin, offsets[b.begin]);
      EXPECT_EQ(b.words_end, offsets[b.end]);
      // The budget is a hard ceiling and the stored peak re-derives exactly.
      EXPECT_LE(b.planned_peak_bytes, budget);
      std::vector<u32> members;
      u32 max_size = 0;
      expected_occupancy(offsets, b.begin, b.end, members, max_size);
      EXPECT_EQ(b.class_members, members);
      EXPECT_EQ(b.max_array_size, max_size);
      EXPECT_EQ(b.planned_peak_bytes,
                planned_batch_peak_bytes(b.sites(), b.words(), members,
                                         max_size,
                                         sortnet::kDefaultClassBounds));
      plan_max = std::max(plan_max, b.planned_peak_bytes);
    }
    EXPECT_EQ(plan.batches.back().end, n_sites);
    EXPECT_EQ(plan.planned_peak_bytes, plan_max);
  }
}

TEST(BatcherProperty, GenerousBudgetPacksOneBatch) {
  const u64 offsets[] = {0, 3, 3, 10, 11, 40};
  const BatchPlan plan = plan_batches(offsets, u64{1} << 40);
  ASSERT_EQ(plan.batches.size(), 1u);
  EXPECT_EQ(plan.batches[0].sites(), 5u);
  EXPECT_EQ(plan.batches[0].words(), 40u);
}

TEST(BatcherProperty, StatsAbsorbAggregatesAcrossWindows) {
  BatchStats stats;
  stats.absorb(plan_batches(kGoldenOffsets, 6475));  // 2 batches, peak 4308
  stats.absorb(plan_batches(kGoldenOffsets, 6476));  // 1 batch,  peak 6476
  EXPECT_EQ(stats.windows_planned, 2u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.min_batch_sites, 1u);
  EXPECT_EQ(stats.max_batch_sites, 3u);
  EXPECT_EQ(stats.planned_peak_bytes, 6476u);
  stats.record_actual(1000);
  stats.record_actual(900);
  EXPECT_EQ(stats.actual_peak_bytes, 1000u);
}

// ---- end-to-end: hotspot dataset under a byte budget -----------------------

std::string read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BatcherEndToEnd, HotspotRunRespectsBudgetAndMatchesFixedWindow) {
  const fs::path dir = test_temp_path("gsnp_batcher_e2e");
  fs::remove_all(dir);
  fs::create_directories(dir);

  // A genome with seeded 25-75x pileup islands over a 6x baseline — the
  // skewed-depth regime the batcher exists for.  The multipliers are chosen
  // so island pileups stay under the device's 1,024-thread block limit:
  // deeper arrays make the bitonic sort pass unlaunchable, and the engine
  // would silently degrade to the CPU path this test is not about.
  genome::GenomeSpec gspec;
  gspec.name = "chrHot";
  gspec.length = 60'000;
  gspec.seed = 91;
  const genome::Reference ref = genome::generate_reference(gspec);
  genome::SnpPlantSpec pspec;
  pspec.seed = 92;
  const genome::Diploid individual(ref, plant_snps(ref, pspec));

  genome::HotspotSpec hspec;
  hspec.islands = 3;
  hspec.island_length = 2'000;
  hspec.multiplier_lo = 25.0;
  hspec.multiplier_hi = 75.0;
  hspec.seed = 93;
  reads::ReadSimSpec rspec;
  rspec.depth = 6.0;
  rspec.seed = 94;
  rspec.hotspots = genome::place_hotspot_islands(ref.size(), hspec);
  const fs::path align = dir / "chrHot.soap";
  reads::write_alignment_file(align,
                              reads::simulate_reads(individual, rspec));

  GenomeRunConfig config;
  ChromosomeJob job;
  job.name = ref.name();
  job.alignment_file = align;
  job.reference = &ref;
  config.chromosomes = {job};
  config.window_size = 2'048;

  // Fixed-window baseline.
  config.output_dir = dir / "fixed";
  device::Device dev_fixed;
  const GenomeReport fixed = run_genome(config, EngineKind::kGsnp, &dev_fixed);
  ASSERT_EQ(fixed.output_files.size(), 1u);

  // Batched run under a budget small enough to split every window.
  const u64 budget = 256 * 1024;
  config.batch_bytes = budget;
  config.output_dir = dir / "batched";
  device::Device dev_batched;
  const GenomeReport batched =
      run_genome(config, EngineKind::kGsnp, &dev_batched);
  ASSERT_EQ(batched.output_files.size(), 1u);

  // Neither run may have silently degraded to the CPU engine: the fallback
  // produces the same bytes by design, which would make every assertion
  // below vacuously about the wrong backend.
  for (const GenomeReport* r : {&fixed, &batched})
    for (const auto& e : read_run_manifest(r->manifest_file).chromosomes) {
      ASSERT_EQ(e.status, "done") << e.error;
      ASSERT_FALSE(e.degraded) << "degraded to " << e.engine << ": "
                               << e.error;
    }

  // Byte-identity with the fixed-window baseline (§IV-G extended).
  EXPECT_EQ(read_file_bytes(batched.output_files[0]),
            read_file_bytes(fixed.output_files[0]));

  // The plan actually split windows, and no batch's *measured* device
  // watermark exceeded the configured budget.
  ASSERT_EQ(batched.per_chromosome.size(), 1u);
  const BatchStats& stats = batched.per_chromosome[0].batch;
  EXPECT_EQ(stats.budget_bytes, budget);
  EXPECT_GT(stats.windows_planned, 1u);
  EXPECT_GT(stats.batches, stats.windows_planned);  // windows really split
  EXPECT_GT(stats.planned_peak_bytes, 0u);
  EXPECT_LE(stats.planned_peak_bytes, budget);
  EXPECT_GT(stats.actual_peak_bytes, 0u);
  EXPECT_LE(stats.actual_peak_bytes, budget);
  // The hotspot skew shows up as strongly uneven batch sizes.
  EXPECT_LT(stats.min_batch_sites, stats.max_batch_sites);

  // The fixed-window run must not report batching.
  EXPECT_EQ(fixed.per_chromosome[0].batch.batches, 0u);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace gsnp::core
