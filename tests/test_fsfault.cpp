// Unit tests for the filesystem fault-injection shim (src/common/fs_fault.hpp)
// and the atomic-publication primitives it guards: plan trigger semantics,
// the JSON plan codec (FORMATS.md §13), deterministic seeded short writes,
// category-scoped op counting with path filters, and the exact residue each
// fault kind leaves behind write_file_atomic (what fsck later cleans up).

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>

#include "src/common/atomic_file.hpp"
#include "src/common/fs_fault.hpp"
#include "src/common/json.hpp"
#include "tests/temp_path.hpp"

namespace gsnp {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Every test runs against a fresh temp dir and leaves the process-global
/// injector disarmed, no matter how it exits.
class FsFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fsfault::disarm();
    dir_ = test_temp_path("gsnp_fsfault_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fsfault::disarm();
    fs::remove_all(dir_);
  }

  FsFaultPlan plan(FsFaultKind kind, i64 at = 0, i64 count = 1,
                   const std::string& filter = "") {
    FsFaultPlan p;
    p.kind = kind;
    p.trigger_at = at;
    p.fault_count = count;
    p.path_filter = filter;
    return p;
  }

  fs::path dir_;
};

TEST_F(FsFaultTest, PlanHitsMirrorsDeviceFaultPlan) {
  FsFaultPlan p = plan(FsFaultKind::kEio, 2, 3);
  EXPECT_FALSE(p.hits(0));
  EXPECT_FALSE(p.hits(1));
  EXPECT_TRUE(p.hits(2));
  EXPECT_TRUE(p.hits(4));
  EXPECT_FALSE(p.hits(5));

  p.fault_count = -1;  // every matching op from the trigger on
  EXPECT_TRUE(p.hits(2));
  EXPECT_TRUE(p.hits(1'000'000));
  EXPECT_FALSE(p.hits(1));

  FsFaultPlan off;  // kNone: never enabled, never hits
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.hits(0));
}

TEST_F(FsFaultTest, KindNamesRoundTrip) {
  for (const FsFaultKind kind :
       {FsFaultKind::kNone, FsFaultKind::kEnospc, FsFaultKind::kEio,
        FsFaultKind::kShortWrite, FsFaultKind::kTornRename,
        FsFaultKind::kFsyncFail}) {
    const auto back = fs_fault_kind_from_name(fs_fault_kind_name(kind));
    ASSERT_TRUE(back.has_value()) << fs_fault_kind_name(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(fs_fault_kind_from_name("meteor_strike").has_value());
}

TEST_F(FsFaultTest, JsonPlanRoundTripsAndRejectsMalformed) {
  FsFaultPlan p = plan(FsFaultKind::kShortWrite, 3, 2, "manifest");
  p.seed = 99;
  std::ostringstream os;
  encode_fs_fault_plan(os, p);
  const FsFaultPlan back = fs_fault_plan_from_json(json::parse(os.str()));
  EXPECT_EQ(back.kind, p.kind);
  EXPECT_EQ(back.trigger_at, p.trigger_at);
  EXPECT_EQ(back.fault_count, p.fault_count);
  EXPECT_EQ(back.seed, p.seed);
  EXPECT_EQ(back.path_filter, p.path_filter);

  // Minimal plan: kind alone, everything else defaulted.
  const FsFaultPlan minimal =
      fs_fault_plan_from_json(json::parse(R"({"kind":"enospc"})"));
  EXPECT_EQ(minimal.kind, FsFaultKind::kEnospc);
  EXPECT_EQ(minimal.trigger_at, 0);
  EXPECT_EQ(minimal.fault_count, 1);

  for (const char* bad : {
           R"({"kind":"warp_failure"})",   // unknown kind
           R"({"kind":"eio","at":-1})",    // negative trigger
           R"({"kind":"eio","count":0})",  // zero faults is meaningless
           R"({"kind":"eio","bogus":1})",  // unknown key (schema is closed)
           R"({"at":1})",                  // kind is required
       })
    EXPECT_THROW(fs_fault_plan_from_json(json::parse(bad)), Error) << bad;
}

TEST_F(FsFaultTest, DisarmedHooksPassThrough) {
  EXPECT_FALSE(fsfault::armed());
  const fs::path target = dir_ / "plain.txt";
  write_file_atomic(target, "hello");
  EXPECT_EQ(slurp(target), "hello");
  EXPECT_FALSE(fs::exists(dir_ / "plain.txt.part"));
  EXPECT_EQ(fsfault::injected(), 0u);
  EXPECT_EQ(fsfault::matched_ops(), 0u);
}

TEST_F(FsFaultTest, EnospcFaultsTheChosenWriteOnly) {
  // Second write (seq 1) to a path containing "victim" fails; everything
  // else, including non-matching paths, is untouched.
  fsfault::arm(plan(FsFaultKind::kEnospc, 1, 1, "victim"));

  write_file_atomic(dir_ / "bystander.txt", "safe");   // no "victim": no count
  write_file_atomic(dir_ / "victim_a.txt", "first");   // seq 0: passes

  try {
    write_file_atomic(dir_ / "victim_b.txt", "second");  // seq 1: faults
    FAIL() << "expected FsFaultError";
  } catch (const FsFaultError& e) {
    EXPECT_EQ(e.kind(), FsFaultKind::kEnospc);
    EXPECT_EQ(e.error_number(), ENOSPC);
    EXPECT_EQ(e.sequence(), 1u);
    EXPECT_NE(e.path().find("victim_b"), std::string::npos);
  }
  EXPECT_EQ(slurp(dir_ / "bystander.txt"), "safe");
  EXPECT_EQ(slurp(dir_ / "victim_a.txt"), "first");
  EXPECT_FALSE(fs::exists(dir_ / "victim_b.txt"));  // never published
  // ENOSPC refuses before writing: the staged .part exists but is empty.
  EXPECT_TRUE(fs::exists(dir_ / "victim_b.txt.part"));
  EXPECT_TRUE(fs::is_empty(dir_ / "victim_b.txt.part"));
  EXPECT_EQ(fsfault::injected(), 1u);

  // Burst exhausted (fault_count=1): the next matching write succeeds.
  write_file_atomic(dir_ / "victim_c.txt", "third");
  EXPECT_EQ(slurp(dir_ / "victim_c.txt"), "third");
}

TEST_F(FsFaultTest, ShortWriteLeavesSeededStrictPrefixOnDisk) {
  const std::string payload(733, 'x');
  const auto run_once = [&](u64 seed) {
    FsFaultPlan p = plan(FsFaultKind::kShortWrite, 0, 1, "torn");
    p.seed = seed;
    fsfault::arm(p);
    EXPECT_THROW(write_file_atomic(dir_ / "torn.bin", payload), FsFaultError);
    fsfault::disarm();
    const std::string kept = slurp(dir_ / "torn.bin.part");
    fs::remove(dir_ / "torn.bin.part");
    return kept;
  };

  const std::string a = run_once(7);
  EXPECT_LT(a.size(), payload.size());  // strictly torn
  EXPECT_EQ(a, payload.substr(0, a.size()));
  EXPECT_FALSE(fs::exists(dir_ / "torn.bin"));  // target never appeared

  EXPECT_EQ(run_once(7).size(), a.size());  // same seed -> same tear point
}

TEST_F(FsFaultTest, TornRenameStagesFullPayloadWithoutPublishing) {
  fsfault::arm(plan(FsFaultKind::kTornRename, 0, 1, ""));
  EXPECT_THROW(write_file_atomic(dir_ / "out.json", "{\"k\":1}"),
               FsFaultError);
  // The write and fsync both succeeded — only the rename was torn, so the
  // complete payload sits in the .part exactly as a crash-at-rename leaves.
  EXPECT_EQ(slurp(dir_ / "out.json.part"), "{\"k\":1}");
  EXPECT_FALSE(fs::exists(dir_ / "out.json"));

  fsfault::disarm();
  write_file_atomic(dir_ / "out.json", "{\"k\":1}");  // clean retry publishes
  EXPECT_EQ(slurp(dir_ / "out.json"), "{\"k\":1}");
}

TEST_F(FsFaultTest, FsyncFailureSurfacesTyped) {
  fsfault::arm(plan(FsFaultKind::kFsyncFail, 0, 1, ".part"));
  try {
    write_file_atomic(dir_ / "durable.txt", "payload");
    FAIL() << "expected FsFaultError";
  } catch (const FsFaultError& e) {
    EXPECT_EQ(e.kind(), FsFaultKind::kFsyncFail);
    EXPECT_EQ(e.error_number(), EIO);
  }
  EXPECT_FALSE(fs::exists(dir_ / "durable.txt"));
  EXPECT_EQ(slurp(dir_ / "durable.txt.part"), "payload");
}

TEST_F(FsFaultTest, CategoriesCountIndependently) {
  // A rename-kind plan must not consume write ops, and vice versa: filter
  // matches everything, trigger at the 3rd rename — the three writes that
  // precede it are not renames and must not advance the counter.
  fsfault::arm(plan(FsFaultKind::kTornRename, 2, 1, ""));
  write_file_atomic(dir_ / "a.txt", "a");  // rename seq 0
  write_file_atomic(dir_ / "b.txt", "b");  // rename seq 1
  EXPECT_THROW(write_file_atomic(dir_ / "c.txt", "c"), FsFaultError);
  EXPECT_EQ(fsfault::matched_ops(), 3u);  // renames only
  EXPECT_EQ(fsfault::injected(), 1u);
  EXPECT_EQ(slurp(dir_ / "a.txt"), "a");
  EXPECT_EQ(slurp(dir_ / "b.txt"), "b");
}

TEST_F(FsFaultTest, RealStreamFailureRaisesTypedEio) {
  // Not injection: an ofstream that was never opened is a failed stream, and
  // fsfault::write must refuse to let it fail silently even when disarmed.
  std::ofstream dead;  // closed stream: badbit on write
  EXPECT_THROW(fsfault::write(dead, dir_ / "ghost.txt", "bytes"),
               FsFaultError);
}

}  // namespace
}  // namespace gsnp
