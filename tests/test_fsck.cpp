// Spool scrubber tests (src/service/fsck.hpp) against the committed
// corrupt-spool corpus (tests/corpus/spool/, see its README): stable
// verdicts per defect class, data-loss-free repairs that converge, fuzzed
// journals (PR 2 LineMutator) that never crash the scrubber, and
// Daemon::recover() surviving the whole mess.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "src/common/error.hpp"
#include "src/reads/fuzz.hpp"
#include "src/service/daemon.hpp"
#include "src/service/fsck.hpp"
#include "src/service/journal.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::service {
namespace {

namespace fs = std::filesystem;

const fs::path kCorpusSpool = fs::path(GSNP_TEST_CORPUS_DIR) / "spool";

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::map<std::string, FsckVerdict> verdict_map(const FsckReport& report) {
  std::map<std::string, FsckVerdict> map;
  for (const FsckJobReport& job : report.jobs) map[job.job_id] = job.verdict;
  return map;
}

/// Repair mutates the spool, so every test works on a private copy.
class FsckCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs::exists(kCorpusSpool)) << kCorpusSpool;
    dir_ = test_temp_path("gsnp_fsck_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    spool_ = dir_ / "spool";
    fs::copy(kCorpusSpool, spool_, fs::copy_options::recursive);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  fs::path spool_;
};

TEST_F(FsckCorpusTest, VerdictsAreStablePerDefectClass) {
  const FsckReport report = fsck_spool(spool_);  // read-only pass
  const auto verdicts = verdict_map(report);
  ASSERT_EQ(verdicts.size(), 8u) << report.summary();
  EXPECT_EQ(verdicts.at("cancelled-clean"), FsckVerdict::kClean);
  EXPECT_EQ(verdicts.at("done-no-manifest"), FsckVerdict::kResumable);
  EXPECT_EQ(verdicts.at("torn-staging"), FsckVerdict::kTornStaging);
  EXPECT_EQ(verdicts.at("orphan"), FsckVerdict::kOrphaned);
  EXPECT_EQ(verdicts.at("truncated-journal"),
            FsckVerdict::kCorruptQuarantined);
  EXPECT_EQ(verdicts.at("garbage-journal"), FsckVerdict::kCorruptQuarantined);
  EXPECT_EQ(verdicts.at("bad-state"), FsckVerdict::kCorruptQuarantined);
  EXPECT_EQ(verdicts.at("wrong-id"), FsckVerdict::kCorruptQuarantined);
  EXPECT_EQ(report.repairs_applied, 0u);  // no repair without opting in

  // A second read-only pass sees the identical picture (verdict stability).
  EXPECT_EQ(verdict_map(fsck_spool(spool_)), verdicts);
  EXPECT_FALSE(report.all_recoverable());
  EXPECT_FALSE(report.all_clean());
}

TEST_F(FsckCorpusTest, RepairConvergesToRecoverable) {
  FsckOptions repair;
  repair.repair = true;
  const FsckReport first = fsck_spool(spool_, repair);
  EXPECT_GT(first.repairs_applied, 0u);

  // Orphans went to lost+found, corrupt journals to quarantine — moved, not
  // deleted: repair never destroys bytes it can't re-derive.
  EXPECT_FALSE(fs::exists(spool_ / "jobs" / "orphan"));
  EXPECT_TRUE(fs::exists(spool_ / "lost+found" / "orphan" / "out" /
                         "chr9.gsnp.snp"));
  for (const char* id :
       {"truncated-journal", "garbage-journal", "bad-state", "wrong-id"}) {
    EXPECT_FALSE(fs::exists(spool_ / "jobs" / id)) << id;
    EXPECT_TRUE(fs::exists(spool_ / "quarantine" / id)) << id;
  }
  // The quarantined journal bytes survived verbatim for the operator.
  EXPECT_EQ(slurp(spool_ / "quarantine" / "garbage-journal" / "job.json"),
            slurp(kCorpusSpool / "jobs" / "garbage-journal" / "job.json"));

  // Staging residue is gone; the job that carried it is otherwise intact.
  EXPECT_FALSE(
      fs::exists(spool_ / "jobs" / "torn-staging" / "out" /
                 "chr1.gsnp.snp.part"));
  EXPECT_TRUE(fs::exists(spool_ / "jobs" / "torn-staging" / "job.json"));

  // The lying "done" job was demoted to interrupted with its digest cleared.
  const JobJournal demoted = parse_job_journal(
      slurp(spool_ / "jobs" / "done-no-manifest" / "job.json"));
  EXPECT_EQ(demoted.state, JobState::kInterrupted);
  EXPECT_TRUE(demoted.digest.empty());

  // Second pass: everything that remains is clean or resumable, and there
  // is nothing left to repair (convergence).
  const FsckReport second = fsck_spool(spool_, repair);
  EXPECT_TRUE(second.all_recoverable()) << second.summary();
  EXPECT_EQ(second.repairs_applied, 0u) << second.summary();
  // cancelled-clean + the two now-interrupted (resumable) survivors.
  EXPECT_EQ(second.jobs.size(), 3u);
}

TEST_F(FsckCorpusTest, FuzzedJournalsNeverCrashTheScrubber) {
  // Hundreds of corrupt journal shapes from one valid line: the PR 2
  // mutation fuzzer chews the cancelled-clean journal; every variant must
  // produce a verdict, never an escape or a crash.
  const std::string valid =
      slurp(kCorpusSpool / "jobs" / "cancelled-clean" / "job.json");
  reads::FuzzOptions options;
  options.rate = 1.0;
  for (u64 seed = 1; seed <= 40; ++seed) {
    options.seed = seed;
    reads::LineMutator mutator(options);
    for (int variant = 0; variant < 5; ++variant) {
      const fs::path job_dir =
          spool_ / "jobs" /
          ("fuzz-" + std::to_string(seed) + "-" + std::to_string(variant));
      fs::create_directories(job_dir);
      std::ofstream(job_dir / "job.json", std::ios::binary)
          << mutator.mutate(valid);
    }
  }
  FsckReport report;
  ASSERT_NO_THROW(report = fsck_spool(spool_));
  EXPECT_EQ(report.jobs.size(), 8u + 40u * 5u);
  for (const FsckJobReport& job : report.jobs) {
    // Any verdict is legal (a mutation can leave the line parseable); what
    // is not legal is a crash or an out-of-range verdict.
    EXPECT_NO_THROW((void)fsck_verdict_name(job.verdict)) << job.job_id;
  }
}

TEST_F(FsckCorpusTest, DaemonRecoverSurvivesTheCorpus) {
  DaemonConfig config;
  config.spool_dir = spool_;
  config.workers = 1;
  Daemon daemon(config);
  std::size_t resumed = 0;
  // recover() runs fsck (repairing) first, then re-admits what's left; the
  // corpus specs point at nonexistent inputs, so nothing actually resumes —
  // but nothing crashes either, and history is queryable.
  ASSERT_NO_THROW(resumed = daemon.recover());
  EXPECT_EQ(resumed, 0u);
  // last_fsck() reports the PRE-repair verdicts (what recover walked into);
  // the spool itself is scrubbed afterwards.
  EXPECT_EQ(daemon.last_fsck().jobs.size(), 8u);
  EXPECT_GT(daemon.last_fsck().repairs_applied, 0u);
  EXPECT_TRUE(fsck_spool(spool_).all_recoverable())
      << fsck_spool(spool_).summary();
  EXPECT_EQ(daemon.status("cancelled-clean").state, JobState::kCancelled);
  EXPECT_GT(daemon.metrics().counter("fsck_repairs"), 0u);
  EXPECT_EQ(daemon.metrics().counter("fsck_corrupt_quarantined"), 4u);
  EXPECT_EQ(daemon.metrics().counter("fsck_orphaned"), 1u);
}

TEST(FsckEmptySpool, NoJobsIsCleanlyEmpty) {
  const fs::path dir = test_temp_path("gsnp_fsck_empty");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const FsckReport report = fsck_spool(dir);
  EXPECT_TRUE(report.jobs.empty());
  EXPECT_TRUE(report.all_clean());
  EXPECT_EQ(report.summary(),
            "jobs=0 clean=0 resumable=0 torn_staging=0 orphaned=0 "
            "corrupt_quarantined=0 repairs=0");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gsnp::service
