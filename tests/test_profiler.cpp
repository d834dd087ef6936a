// Tests for src/obs/profiler: per-launch records, the exact sum-to-aggregate
// guarantee (memops attribution, multi-block launches, the
// cancellation-after-throw path), roofline classification, non-empty kernel
// names across the gsnp engine, and bit-identical JSON for identical runs.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/core/engine.hpp"
#include "src/device/device.hpp"
#include "src/device/perf_model.hpp"
#include "src/genome/synthetic.hpp"
#include "src/obs/profiler.hpp"
#include "src/reads/simulator.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::obs {
namespace {

namespace fs = std::filesystem;

using device::Access;
using device::BlockContext;
using device::Device;
using device::DeviceCounters;
using device::ThreadContext;

/// Field-wise exact equality with a named context on failure.
void expect_counters_eq(const DeviceCounters& a, const DeviceCounters& b,
                        const std::string& what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.global_loads_coalesced, b.global_loads_coalesced) << what;
  EXPECT_EQ(a.global_loads_random, b.global_loads_random) << what;
  EXPECT_EQ(a.global_stores_coalesced, b.global_stores_coalesced) << what;
  EXPECT_EQ(a.global_stores_random, b.global_stores_random) << what;
  EXPECT_EQ(a.global_load_bytes_coalesced, b.global_load_bytes_coalesced)
      << what;
  EXPECT_EQ(a.global_load_bytes_random, b.global_load_bytes_random) << what;
  EXPECT_EQ(a.global_store_bytes_coalesced, b.global_store_bytes_coalesced)
      << what;
  EXPECT_EQ(a.global_store_bytes_random, b.global_store_bytes_random) << what;
  EXPECT_EQ(a.shared_loads, b.shared_loads) << what;
  EXPECT_EQ(a.shared_stores, b.shared_stores) << what;
  EXPECT_EQ(a.shared_bytes, b.shared_bytes) << what;
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes) << what;
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes) << what;
  EXPECT_EQ(a.kernel_launches, b.kernel_launches) << what;
}

/// Sum of every per-kernel row of a report.
DeviceCounters kernel_sum(const ProfileReport& rep) {
  DeviceCounters sum;
  for (const KernelStats& st : rep.kernels) sum += st.total;
  return sum;
}

// ---- recording -------------------------------------------------------------

TEST(Profiler, RecordsNamedLaunchWithExactDelta) {
  Device dev;
  Profiler profiler(dev);
  auto buf = dev.alloc<u32>(1024);
  dev.launch("fill_ones", 4, 256, [&](BlockContext& blk) {
    blk.threads([&](ThreadContext& t) {
      t.gstore(buf, t.global_tid(), 1u, Access::kCoalesced);
    });
  });

  const auto records = profiler.records();
  ASSERT_EQ(records.size(), 1u);
  const KernelRecord& rec = records[0];
  EXPECT_EQ(rec.name, "fill_ones");
  EXPECT_EQ(rec.grid_dim, 4u);
  EXPECT_EQ(rec.block_dim, 256u);
  EXPECT_FALSE(rec.failed);
  EXPECT_EQ(rec.delta.kernel_launches, 1u);
  EXPECT_EQ(rec.delta.global_stores_coalesced, 1024u);
  EXPECT_EQ(rec.delta.global_store_bytes_coalesced, 1024u * sizeof(u32));
  EXPECT_EQ(rec.allocated_bytes, 1024u * sizeof(u32));
  EXPECT_EQ(rec.peak_global_bytes, 1024u * sizeof(u32));
  EXPECT_GT(rec.modeled_sec, 0.0);

  // Attached at a zero device, no memops happened: the report's kernel rows
  // sum to the device aggregate with no "(memops)" row needed for loads and
  // stores inside the launch.
  const ProfileReport rep = profiler.report();
  expect_counters_eq(kernel_sum(rep), dev.counters(), "fill_ones sum");
  expect_counters_eq(rep.total, dev.counters(), "fill_ones total");
}

TEST(Profiler, MemopsRowCapturesFillAndTransfers) {
  Device dev;
  Profiler profiler(dev);

  // Counter movement with no launch at all: upload, fill, download.
  std::vector<u32> host(512, 7);
  auto buf = dev.to_device(std::span<const u32>(host));
  dev.fill(buf, 9u);
  (void)dev.to_host(buf);

  const ProfileReport rep = profiler.report();
  ASSERT_EQ(rep.kernels.size(), 1u);
  EXPECT_EQ(rep.kernels[0].name, kMemOpsName);
  EXPECT_EQ(rep.kernels[0].total.h2d_bytes, 512u * sizeof(u32));
  EXPECT_EQ(rep.kernels[0].total.d2h_bytes, 512u * sizeof(u32));
  EXPECT_EQ(rep.kernels[0].total.global_stores_coalesced, 512u);
  expect_counters_eq(kernel_sum(rep), rep.total, "memops-only sum");
  EXPECT_EQ(rep.launches, 0u);
  EXPECT_EQ(rep.peak_global_bytes, 512u * sizeof(u32));
}

TEST(Profiler, UnnamedLaunchAggregatesUnderPlaceholder) {
  Device dev;
  Profiler profiler(dev);
  dev.launch(2, 32, [&](BlockContext& blk) {
    blk.threads([&](ThreadContext& t) { t.inst(); });
  });
  const ProfileReport rep = profiler.report();
  ASSERT_EQ(rep.kernels.size(), 1u);
  EXPECT_EQ(rep.kernels[0].name, kUnnamedName);
  EXPECT_EQ(rep.kernels[0].launches, 1u);
}

TEST(Profiler, CancelledLaunchStillSumsExactly) {
  // The PR 3 cancellation path: one block throws, remaining blocks are
  // skipped, shards of the blocks that ran are still reduced.  The profiler
  // must see the partial launch (failed=true) and keep the sum exact.
  Device dev;
  Profiler profiler(dev);
  constexpr u32 kGrid = 8192;
  auto buf = dev.alloc<u32>(kGrid);
  EXPECT_THROW(
      dev.launch("boom", kGrid, 1, [&](BlockContext& blk) {
        // Store first so the partial launch always has counter movement,
        // then abort early (block 16 sits in the second scheduling chunk, so
        // thousands of later blocks get cancelled).
        blk.threads([&](ThreadContext& t) {
          t.gstore(buf, blk.block_idx(), 1u, Access::kCoalesced);
        });
        if (blk.block_idx() == 16) throw std::runtime_error("injected");
      }),
      std::runtime_error);

  const auto records = profiler.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "boom");
  EXPECT_TRUE(records[0].failed);
  // Some blocks ran (their stores are in the delta), not all of them.
  EXPECT_GT(records[0].delta.global_stores_coalesced, 0u);
  EXPECT_LT(records[0].delta.global_stores_coalesced, kGrid);

  const ProfileReport rep = profiler.report();
  ASSERT_FALSE(rep.kernels.empty());
  EXPECT_EQ(rep.kernels[0].failed +
                (rep.kernels.size() > 1 ? rep.kernels[1].failed : 0),
            1u);
  expect_counters_eq(kernel_sum(rep), dev.counters(),
                     "cancelled launch sum");
}

TEST(Profiler, AttachRespectsPreexistingCounters) {
  // Counters that moved before attach belong to nobody: the report covers
  // only movement since attach.
  Device dev;
  auto buf = dev.alloc<u32>(64);
  dev.fill(buf, 1u);  // pre-attach movement

  Profiler profiler(dev);
  dev.launch("k", 1, 64, [&](BlockContext& blk) {
    blk.threads([&](ThreadContext& t) { t.inst(); });
  });
  const ProfileReport rep = profiler.report();
  const DeviceCounters expected =
      device::counters_delta(DeviceCounters{}, dev.counters());
  EXPECT_LT(rep.total.global_stores_coalesced,
            expected.global_stores_coalesced + 1);  // fill not re-counted
  EXPECT_EQ(rep.total.kernel_launches, 1u);
  expect_counters_eq(kernel_sum(rep), rep.total, "post-attach sum");
}

// ---- roofline classification ----------------------------------------------

TEST(Roofline, ClassifiesByDominantModelTerm) {
  const device::PerfModel m;
  DeviceCounters c;
  EXPECT_EQ(classify_roofline(c, m), RooflineBound::kNone);

  c = DeviceCounters{};
  c.instructions = 1'000'000'000;
  EXPECT_EQ(classify_roofline(c, m), RooflineBound::kCompute);

  c = DeviceCounters{};
  c.global_load_bytes_coalesced = 1'000'000'000;
  EXPECT_EQ(classify_roofline(c, m), RooflineBound::kCoalescedBandwidth);

  c = DeviceCounters{};
  c.global_store_bytes_random = 1'000'000;
  EXPECT_EQ(classify_roofline(c, m), RooflineBound::kRandomAccess);

  // Random bytes are ~25x costlier than coalesced at the default rates:
  // equal byte counts classify as random-access-bound.
  c.global_load_bytes_coalesced = 1'000'000;
  EXPECT_EQ(classify_roofline(c, m), RooflineBound::kRandomAccess);
}

TEST(Roofline, ArithmeticIntensityIsInstPerGlobalByte) {
  DeviceCounters c;
  c.instructions = 600;
  c.global_load_bytes_coalesced = 100;
  c.global_store_bytes_random = 100;
  EXPECT_DOUBLE_EQ(arithmetic_intensity(c), 3.0);
  c = DeviceCounters{};
  c.instructions = 42;  // zero bytes stays finite
  EXPECT_DOUBLE_EQ(arithmetic_intensity(c), 42.0);
}

// ---- the gsnp engine end to end --------------------------------------------

class ProfiledEngine : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_profiler_test");
    fs::create_directories(dir_);
    genome::GenomeSpec gspec;
    gspec.name = "chrT";
    gspec.length = 12'000;
    ref_ = genome::generate_reference(gspec);
    const auto snps = plant_snps(ref_, {});
    const genome::Diploid individual(ref_, snps);
    reads::ReadSimSpec rspec;
    rspec.depth = 8.0;
    reads::write_alignment_file(dir_ / "a.soap",
                                reads::simulate_reads(individual, rspec));
    config_.alignment_file = dir_ / "a.soap";
    config_.reference = &ref_;
    config_.temp_file = dir_ / "a.tmp";
    config_.window_size = 4'096;
  }
  void TearDown() override { fs::remove_all(dir_); }

  ProfileReport run_profiled(const fs::path& out) {
    config_.output_file = out;
    Device dev;
    Profiler profiler(dev);
    (void)core::run_gsnp(config_, dev);
    ProfileReport rep = profiler.report();
    // The report must account for the device's whole lifetime (profiler
    // attached before any engine work).
    expect_counters_eq(rep.total, dev.counters(), "report total");
    EXPECT_EQ(rep.peak_global_bytes, dev.peak_allocated_bytes());
    return rep;
  }

  fs::path dir_;
  genome::Reference ref_;
  core::EngineConfig config_;
};

TEST_F(ProfiledEngine, PerKernelCountersSumToDeviceAggregate) {
  const ProfileReport rep = run_profiled(dir_ / "out.bin");
  expect_counters_eq(kernel_sum(rep), rep.total, "engine kernel sum");
  EXPECT_GT(rep.launches, 0u);
  EXPECT_GT(rep.kernels.size(), 4u);  // likeli, posterior, sort, rle, memops
  EXPECT_GT(rep.modeled_sec, 0.0);
}

TEST_F(ProfiledEngine, EveryEngineKernelHasANonEmptyName) {
  const ProfileReport rep = run_profiled(dir_ / "out.bin");
  for (const KernelStats& st : rep.kernels) {
    EXPECT_FALSE(st.name.empty());
    EXPECT_NE(st.name, kUnnamedName) << "unnamed launch site in the engine";
  }
  // The paper's headline kernels are present by name.
  const auto has = [&](std::string_view name) {
    for (const KernelStats& st : rep.kernels)
      if (st.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has("likelihood_comp"));
  EXPECT_TRUE(has("posterior_select"));
  EXPECT_TRUE(has(kMemOpsName));  // fills + transfers exist in every run
}

TEST_F(ProfiledEngine, IdenticalRunsProduceBitIdenticalProfileJson) {
  const auto read_file = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const ProfileReport rep_a = run_profiled(dir_ / "out_a.bin");
  write_profile_json(dir_ / "profile_a.json", rep_a);
  const ProfileReport rep_b = run_profiled(dir_ / "out_b.bin");
  write_profile_json(dir_ / "profile_b.json", rep_b);

  const std::string a = read_file(dir_ / "profile_a.json");
  const std::string b = read_file(dir_ / "profile_b.json");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "profile JSON must be bit-identical across identical runs";
}

TEST_F(ProfiledEngine, ProfileJsonRoundTrips) {
  const ProfileReport rep = run_profiled(dir_ / "out.bin");
  write_profile_json(dir_ / "profile.json", rep);
  const ProfileReport back = read_profile_json(dir_ / "profile.json");

  EXPECT_EQ(back.launches, rep.launches);
  EXPECT_EQ(back.peak_global_bytes, rep.peak_global_bytes);
  expect_counters_eq(back.total, rep.total, "round-trip total");
  ASSERT_EQ(back.kernels.size(), rep.kernels.size());
  for (std::size_t i = 0; i < rep.kernels.size(); ++i) {
    EXPECT_EQ(back.kernels[i].name, rep.kernels[i].name);
    EXPECT_EQ(back.kernels[i].launches, rep.kernels[i].launches);
    EXPECT_EQ(back.kernels[i].blocks, rep.kernels[i].blocks);
    EXPECT_EQ(back.kernels[i].peak_global_bytes,
              rep.kernels[i].peak_global_bytes);
    EXPECT_EQ(back.kernels[i].bound, rep.kernels[i].bound);
    expect_counters_eq(back.kernels[i].total, rep.kernels[i].total,
                       "round-trip kernel " + rep.kernels[i].name);
  }
}

TEST_F(ProfiledEngine, TableAndDiffRender) {
  const ProfileReport rep = run_profiled(dir_ / "out.bin");
  const std::string table = format_profile_table(rep);
  EXPECT_NE(table.find("likelihood_comp"), std::string::npos);
  EXPECT_NE(table.find("bound"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);

  const std::string diff = format_profile_diff(rep, rep, "a", "b");
  EXPECT_NE(diff.find("ratio"), std::string::npos);
  EXPECT_NE(diff.find("100"), std::string::npos);  // self-diff is 100%
}

}  // namespace
}  // namespace gsnp::obs
