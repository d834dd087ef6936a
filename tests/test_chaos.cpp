// The storage & network chaos battery (ISSUE: end-to-end I/O fault
// injection).
//
// Storage: a fault-schedule matrix drives every injection point the spool
// touches (job.json journals, manifest.json flushes, .snp container staging)
// through every typed fault (ENOSPC, EIO, seeded short write, torn rename,
// failed fsync).  Transient faults must be absorbed by the retry envelopes
// with outputs BYTE-IDENTICAL to a no-fault serial run and the spool fsck
// clean afterwards; persistent faults must fail typed, survive a daemon
// restart, and complete once the storage heals — same byte-identity bar.
//
// Network: the LineServer's NetFaultPlan cuts replies mid-frame, stalls
// them, and byte-slices delivery; the resilient LineClient must absorb all
// of it through poll deadlines + jittered reconnect, and the server must
// bound request frames with a typed reject.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/common/bitio.hpp"
#include "src/common/error.hpp"
#include "src/common/fs_fault.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/run_manifest.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "src/service/daemon.hpp"
#include "src/service/fsck.hpp"
#include "src/service/protocol.hpp"
#include "src/service/socket.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::service {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::vector<u8> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open " << path);
  return std::vector<u8>(std::istreambuf_iterator<char>(in), {});
}

// ---- storage chaos fixture --------------------------------------------------------

/// Two small chromosomes on disk, a no-fault serial baseline (digest +
/// output bytes), and an always-disarmed-on-exit guarantee for the global
/// injector.
class StorageChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fsfault::disarm();
    dir_ = test_temp_path("gsnp_chaos_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (int c = 0; c < 2; ++c) {
      genome::GenomeSpec gspec;
      gspec.name = "chr" + std::to_string(c + 1);
      gspec.length = 2'000 - 400 * static_cast<u64>(c);
      gspec.seed = 70 + static_cast<u64>(c);
      const genome::Reference ref = genome::generate_reference(gspec);
      genome::write_fasta_file(fasta(gspec.name), {ref});
      const genome::Diploid individual(ref, {});
      reads::ReadSimSpec rspec;
      rspec.depth = 3.0;
      rspec.seed = 80 + static_cast<u64>(c);
      reads::write_alignment_file(soap(gspec.name),
                                  reads::simulate_reads(individual, rspec));
      names_.push_back(gspec.name);
    }
    // The oracle: serial core::run_genome of the same spec, no faults.
    std::vector<genome::Reference> refs;
    core::GenomeRunConfig cfg;
    cfg.output_dir = dir_ / "baseline";
    cfg.window_size = 1'024;
    for (const std::string& name : names_) {
      refs.push_back(std::move(genome::read_fasta_file(fasta(name)).at(0)));
    }
    for (std::size_t i = 0; i < names_.size(); ++i) {
      core::ChromosomeJob job;
      job.name = names_[i];
      job.alignment_file = soap(names_[i]).string();
      job.reference = &refs[i];
      cfg.chromosomes.push_back(job);
    }
    device::Device dev;
    const core::GenomeReport report =
        core::run_genome(cfg, core::EngineKind::kGsnp, &dev);
    baseline_digest_ = core::manifest_digest(
        core::read_run_manifest(report.manifest_file));
    baseline_outputs_ = report.output_files;
  }
  void TearDown() override {
    fsfault::disarm();
    fs::remove_all(dir_);
  }

  fs::path fasta(const std::string& name) { return dir_ / (name + ".fa"); }
  fs::path soap(const std::string& name) { return dir_ / (name + ".soap"); }

  DaemonConfig daemon_config(const std::string& spool) {
    DaemonConfig config;
    config.spool_dir = dir_ / spool;
    config.workers = 1;  // deterministic write schedule per cell
    config.retry.max_attempts = 3;
    config.retry.backoff_seconds = 0.0;
    config.watchdog_interval_seconds = 0.005;
    return config;
  }

  JobSpec make_spec(const std::string& id) {
    JobSpec spec;
    spec.job_id = id;
    spec.engine = "gsnp";
    spec.window_size = 1'024;
    for (const std::string& name : names_) {
      ChromosomeSpec cs;
      cs.name = name;
      cs.alignment_file = soap(name).string();
      cs.reference_file = fasta(name).string();
      spec.chromosomes.push_back(cs);
    }
    return spec;
  }

  /// Acceptance bar for one spool: the job's digest and bytes equal the
  /// no-fault baseline, and fsck (after one repairing pass for crash
  /// litter) reports every job clean.
  void expect_matches_baseline(const JobStatus& status,
                               const fs::path& spool) {
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_EQ(status.manifest_digest, baseline_digest_);
    for (const fs::path& out : baseline_outputs_)
      EXPECT_EQ(read_bytes(status.output_dir / out.filename()),
                read_bytes(out))
          << out;
    FsckOptions repair;
    repair.repair = true;
    (void)fsck_spool(spool, repair);
    const FsckReport clean = fsck_spool(spool);
    EXPECT_TRUE(clean.all_clean()) << clean.summary();
  }

  fs::path dir_;
  std::vector<std::string> names_;
  std::string baseline_digest_;
  std::vector<fs::path> baseline_outputs_;
};

// ---- the fault-schedule matrix ----------------------------------------------------

struct MatrixCell {
  FsFaultKind kind;
  const char* filter;  ///< injection point (file class)
  i64 trigger_at;      ///< skip ops that would fail admission itself
};

TEST_F(StorageChaosTest, TransientFaultMatrixIsAbsorbedByteIdentical) {
  // Every injection point × every fault kind valid there, one transient
  // fault each (fault_count=1): the retry envelopes must absorb all of it.
  // job.json cells trigger at op 1 — op 0 is the admission journal, whose
  // failure is a typed *rejection* (its own test below), not an absorb.
  const MatrixCell cells[] = {
      {FsFaultKind::kEnospc, ".snp", 0},
      {FsFaultKind::kEio, ".snp", 0},
      {FsFaultKind::kShortWrite, ".snp", 0},
      {FsFaultKind::kEnospc, "manifest.json", 0},
      {FsFaultKind::kEio, "manifest.json", 0},
      {FsFaultKind::kShortWrite, "manifest.json", 0},
      {FsFaultKind::kEnospc, "job.json", 1},
      {FsFaultKind::kEio, "job.json", 1},
      {FsFaultKind::kShortWrite, "job.json", 1},
      {FsFaultKind::kFsyncFail, ".snp", 0},
      {FsFaultKind::kFsyncFail, "manifest.json", 0},
      {FsFaultKind::kFsyncFail, "job.json", 1},
      {FsFaultKind::kTornRename, ".snp", 0},
      {FsFaultKind::kTornRename, "manifest.json", 0},
  };

  int index = 0;
  for (const MatrixCell& cell : cells) {
    SCOPED_TRACE(std::string(fs_fault_kind_name(cell.kind)) + " on " +
                 cell.filter + " at " + std::to_string(cell.trigger_at));
    const std::string spool = "spool_" + std::to_string(index);
    const std::string job_id = "cell-" + std::to_string(index);
    ++index;

    FsFaultPlan plan;
    plan.kind = cell.kind;
    plan.trigger_at = cell.trigger_at;
    plan.fault_count = 1;
    plan.path_filter = cell.filter;
    plan.seed = 0xC0FFEE + static_cast<u64>(index);
    fsfault::arm(plan);

    JobStatus status;
    {
      Daemon daemon(daemon_config(spool));
      const std::string id = daemon.submit(make_spec(job_id));
      ASSERT_TRUE(daemon.wait_job(id, 120.0));
      status = daemon.status(id);
    }
    // The cell must actually have fired — a schedule that never triggers
    // would pass vacuously.
    EXPECT_GE(fsfault::injected(), 1u);
    fsfault::disarm();
    expect_matches_baseline(status, dir_ / spool);
  }
}

// ---- persistent faults: typed failure, then recovery ------------------------------

TEST_F(StorageChaosTest, PersistentAdmissionJournalFailureIsTypedRejection) {
  FsFaultPlan plan;
  plan.kind = FsFaultKind::kEnospc;
  plan.fault_count = -1;
  plan.path_filter = "job.json";
  fsfault::arm(plan);

  Daemon daemon(daemon_config("spool"));
  try {
    daemon.submit(make_spec("doomed"));
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kStorageFailure);
  }
  EXPECT_EQ(daemon.stats().rejected_storage, 1u);
  // The job was never admitted: no ghost state, no spool entry to recover.
  EXPECT_THROW(daemon.status("doomed"), ServiceError);

  // Storage heals: the same id admits and completes normally.
  fsfault::disarm();
  const std::string id = daemon.submit(make_spec("doomed"));
  ASSERT_TRUE(daemon.wait_job(id, 120.0));
  expect_matches_baseline(daemon.status(id), dir_ / "spool");
}

TEST_F(StorageChaosTest, PersistentOutputEioFailsTypedThenHealsAfterRestart) {
  FsFaultPlan plan;
  plan.kind = FsFaultKind::kEio;
  plan.fault_count = -1;
  plan.path_filter = ".snp";
  fsfault::arm(plan);

  {
    Daemon daemon(daemon_config("spool"));
    const std::string id = daemon.submit(make_spec("hard-luck"));
    ASSERT_TRUE(daemon.wait_job(id, 120.0));
    const JobStatus status = daemon.status(id);
    EXPECT_EQ(status.state, JobState::kFailed);
    EXPECT_NE(status.error.find("storage fault"), std::string::npos)
        << status.error;
  }
  EXPECT_GE(fsfault::injected(), 1u);
  fsfault::disarm();

  // Restart onto the same spool: recover scrubs the staging litter the
  // failed attempts left, keeps "hard-luck" as terminal history, and a
  // fresh submit completes to baseline bytes.
  Daemon daemon(daemon_config("spool"));
  EXPECT_EQ(daemon.recover(), 0u);
  EXPECT_EQ(daemon.status("hard-luck").state, JobState::kFailed);
  const std::string id = daemon.submit(make_spec("second-chance"));
  ASSERT_TRUE(daemon.wait_job(id, 120.0));
  expect_matches_baseline(daemon.status(id), dir_ / "spool");
}

TEST_F(StorageChaosTest, UnverifiableDoneJobDemotesAndRerunsOnRecover) {
  // Every manifest flush tears at the rename: the job still finishes (the
  // daemon tolerates manifest-flush failures — entries are journaled in
  // memory and rebuilt), but its on-disk manifest is missing, so its "done"
  // claim cannot be verified.  fsck must demote it and recover() rerun it.
  FsFaultPlan plan;
  plan.kind = FsFaultKind::kTornRename;
  plan.fault_count = -1;
  plan.path_filter = "manifest.json";
  fsfault::arm(plan);

  {
    Daemon daemon(daemon_config("spool"));
    const std::string id = daemon.submit(make_spec("limping"));
    ASSERT_TRUE(daemon.wait_job(id, 120.0));
    EXPECT_EQ(daemon.status(id).state, JobState::kDone);
    EXPECT_GT(daemon.stats().manifest_write_failures, 0u);
  }
  fsfault::disarm();
  EXPECT_FALSE(fs::exists(dir_ / "spool" / "jobs" / "limping" /
                          "manifest.json"));

  Daemon daemon(daemon_config("spool"));
  EXPECT_EQ(daemon.recover(), 1u);  // demoted by fsck, then resumed
  // Worst-of verdict: besides the unverifiable "done" claim the torn renames
  // left `manifest.json.part` staging residue, so the job reports
  // torn_staging (severity above resumable) before repair.
  EXPECT_EQ(daemon.last_fsck().count(FsckVerdict::kTornStaging), 1u)
      << daemon.last_fsck().summary();
  ASSERT_TRUE(daemon.wait_job("limping", 120.0));
  const JobStatus status = daemon.status("limping");
  EXPECT_TRUE(status.resumed);
  expect_matches_baseline(status, dir_ / "spool");
}

TEST_F(StorageChaosTest, FrameBoundaryCutIsCaughtByManifestNotFrames) {
  // A container cut exactly between two frames reads as complete: the
  // frames alone cannot tell (FORMATS.md, "Frame container").  The run
  // manifest's recorded size and CRC-32 catch it instead (DESIGN.md,
  // "Failure model & recovery"): fsck demotes the done job, and recover()
  // reruns the cut chromosome to the baseline bytes.
  fs::path output;
  {
    Daemon daemon(daemon_config("spool"));
    const std::string id = daemon.submit(make_spec("clipped"));
    ASSERT_TRUE(daemon.wait_job(id, 120.0));
    const JobStatus status = daemon.status(id);
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    output = status.output_dir / baseline_outputs_.at(0).filename();
  }

  // chr1 holds 2,000 sites, two frames at the 1,024-site window.  Cut the
  // file where its first frame ends: past the magic, the name, and the
  // frame's size varint, payload and CRC.
  const std::vector<u8> bytes = read_bytes(output);
  std::size_t cut = 8;
  const u64 name_bytes = varint_read(bytes, cut);
  cut += name_bytes;
  const u64 frame_bytes = varint_read(bytes, cut);
  cut += frame_bytes + 4;
  ASSERT_LT(cut, bytes.size());
  fs::resize_file(output, cut);

  std::string seq_name;
  EXPECT_EQ(core::read_snp_compressed_file(output, seq_name).size(), 1'024u);

  const FsckReport report = fsck_spool(dir_ / "spool");
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].verdict, FsckVerdict::kResumable)
      << report.summary();
  EXPECT_TRUE(std::ranges::any_of(
      report.jobs[0].issues, [&](const std::string& issue) {
        return issue.find(output.string()) != std::string::npos &&
               issue.find("manifest says") != std::string::npos;
      }))
      << report.summary();

  Daemon daemon(daemon_config("spool"));
  EXPECT_EQ(daemon.recover(), 1u);
  ASSERT_TRUE(daemon.wait_job("clipped", 120.0));
  const JobStatus status = daemon.status("clipped");
  EXPECT_TRUE(status.resumed);
  expect_matches_baseline(status, dir_ / "spool");
}

TEST_F(StorageChaosTest, CrashDuringChaosRecoversToBaseline) {
  // Transient manifest fault + a hard crash: chr1 completes but its manifest
  // flush hits ENOSPC (tolerated, entry unjournaled), then the "process"
  // dies at chr2's post_publish — both outputs published, nothing recorded.
  // Daemon B's recover (fsck first) must still converge to the exact
  // baseline bytes.
  FsFaultPlan plan;
  plan.kind = FsFaultKind::kEnospc;
  plan.fault_count = 1;
  plan.path_filter = "manifest.json";
  fsfault::arm(plan);
  {
    DaemonConfig config = daemon_config("spool");
    std::atomic<Daemon*> self{nullptr};
    config.checkpoint_hook = [&self](std::string_view point,
                                     const std::string&,
                                     const std::string& chromosome) {
      if (point == "post_publish" && chromosome == "chr2") {
        self.load()->simulate_crash();
        throw Error("injected crash at post_publish");
      }
    };
    Daemon daemon(config);
    self.store(&daemon);
    ASSERT_EQ(daemon.submit(make_spec("phoenix")), "phoenix");
    daemon.wait_idle();
  }
  EXPECT_GE(fsfault::injected(), 1u);  // the manifest fault really fired
  fsfault::disarm();

  Daemon daemon(daemon_config("spool"));
  EXPECT_EQ(daemon.recover(), 1u);
  ASSERT_TRUE(daemon.wait_job("phoenix", 120.0));
  const JobStatus status = daemon.status("phoenix");
  EXPECT_TRUE(status.resumed);
  expect_matches_baseline(status, dir_ / "spool");
}

// ---- network chaos ----------------------------------------------------------------

/// Echo server under a chosen ServerOptions; skips the test when the sandbox
/// cannot bind AF_UNIX sockets (same loud-skip convention as test_service).
class NetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_netchaos_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    server_.reset();
    fs::remove_all(dir_);
  }

  void start_server(ServerOptions options) {
    try {
      server_ = std::make_unique<LineServer>(
          dir_ / "chaos.sock",
          [](const std::string& line) { return "echo:" + line; }, options);
    } catch (const Error& e) {
      GTEST_SKIP() << "SKIPPED — cannot bind AF_UNIX socket: " << e.what();
    }
  }

  /// A plain blocking client: one attempt, no deadline.
  static ClientOptions single_attempt() {
    ClientOptions options;
    options.op_timeout_seconds = 0.0;
    options.retry.max_attempts = 1;
    return options;
  }

  ClientOptions resilient(int attempts, double timeout_seconds) {
    ClientOptions options;
    options.retry.max_attempts = attempts;
    options.retry.backoff_seconds = 0.01;
    options.retry.jitter_fraction = 0.5;
    options.op_timeout_seconds = timeout_seconds;
    return options;
  }

  fs::path socket() const { return dir_ / "chaos.sock"; }

  fs::path dir_;
  std::unique_ptr<LineServer> server_;
};

TEST_F(NetChaosTest, OversizedFrameGetsTypedRejectAndClose) {
  ServerOptions options;
  options.max_frame_bytes = 256;
  start_server(options);
  if (server_ == nullptr) return;  // skipped

  // One attempt, no deadline: the second request must fail, not reconnect.
  LineClient client(socket(), single_attempt());
  const Response reject =
      parse_response(client.request(std::string(4'096, 'x')));
  EXPECT_FALSE(reject.ok);
  EXPECT_EQ(reject.error, ErrorCode::kFrameTooLarge);
  // Framing is unrecoverable: the server hung up after the reject.
  EXPECT_THROW(client.request("hello"), Error);

  // A new, well-behaved connection is unaffected.
  LineClient fresh(socket(), single_attempt());
  EXPECT_EQ(fresh.request("hello"), "echo:hello");
}

TEST_F(NetChaosTest, ClientBoundsReplyBuffering) {
  start_server(ServerOptions{});
  if (server_ == nullptr) return;  // skipped

  ClientOptions options = resilient(1, 5.0);
  options.max_frame_bytes = 64;
  LineClient client(socket(), options);
  try {
    client.request(std::string(500, 'y'));  // echo comes back > 64 bytes
    FAIL() << "expected frame-cap failure";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("frame cap"), std::string::npos)
        << e.what();
  }
}

TEST_F(NetChaosTest, MidFrameDisconnectIsAbsorbedByReconnect) {
  ServerOptions options;
  options.chaos.disconnect_at = 1;  // cut the second reply halfway
  start_server(options);
  if (server_ == nullptr) return;  // skipped

  LineClient client(socket(), resilient(3, 5.0));
  EXPECT_EQ(client.request("alpha"), "echo:alpha");
  EXPECT_EQ(client.connects(), 1u);
  // Reply #1 arrives torn + EOF; the client must discard the fragment,
  // reconnect with backoff, resend, and get the full reply (#2).
  EXPECT_EQ(client.request("bravo"), "echo:bravo");
  EXPECT_EQ(client.connects(), 2u);
}

TEST_F(NetChaosTest, ByteSlicedDeliveryStillParses) {
  ServerOptions options;
  options.chaos.byte_sliced = true;  // worst-case fragmentation, every reply
  start_server(options);
  if (server_ == nullptr) return;  // skipped

  LineClient client(socket(), resilient(2, 5.0));
  for (const char* word : {"one", "two", "three"})
    EXPECT_EQ(client.request(word), std::string("echo:") + word);
  EXPECT_EQ(client.connects(), 1u);  // no reconnects needed, just patience
}

TEST_F(NetChaosTest, StalledReplyHitsDeadlineThenRecovers) {
  ServerOptions options;
  options.chaos.stall_at = 0;
  options.chaos.stall_seconds = 1.0;  // far past the client's 0.1s deadline
  start_server(options);
  if (server_ == nullptr) return;  // skipped

  LineClient client(socket(), resilient(3, 0.1));
  // Attempt 1 times out against the stalled reply; attempt 2 (reply #1,
  // not stalled) succeeds.  Total wall-clock stays bounded by the deadline,
  // not the stall.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(client.request("urgent"), "echo:urgent");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(client.connects(), 2u);
  EXPECT_LT(elapsed, 1.0);  // never waited out the full stall
}

/// A number from a `/proc/self/status` field (`Threads`, or `VmSize` in kB).
long status_number(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field + ":", 0) == 0)
      return std::stol(line.substr(field.size() + 1));
  ADD_FAILURE() << "no " << field << " in /proc/self/status";
  return 0;
}

TEST_F(NetChaosTest, EndedConnectionsAreJoined) {
  start_server(ServerOptions{});
  if (server_ == nullptr) return;  // skipped

  const long threads_before = status_number("Threads");
  const long vm_kib_before = status_number("VmSize");
  for (int i = 0; i < 300; ++i) {
    LineClient client(socket(), single_attempt());
    ASSERT_EQ(client.request("ping"), "echo:ping");
  }
  EXPECT_LE(std::labs(status_number("Threads") - threads_before), 2);
  // An ended thread that nobody joins keeps its stack mapped, 8 MiB by
  // default, so 300 of them would add about 2.4 GiB.
  EXPECT_LT(status_number("VmSize") - vm_kib_before, 256 * 1024);
  server_->stop();
}

TEST_F(NetChaosTest, IdleConnectionsAreDroppedAndReconnectHeals) {
  ServerOptions options;
  options.idle_timeout_seconds = 0.05;
  start_server(options);
  if (server_ == nullptr) return;  // skipped

  LineClient client(socket(), resilient(3, 5.0));
  EXPECT_EQ(client.request("warm"), "echo:warm");
  std::this_thread::sleep_for(300ms);  // server drops the silent peer
  EXPECT_EQ(client.request("back"), "echo:back");
  EXPECT_EQ(client.connects(), 2u);  // healed through one reconnect
}

}  // namespace
}  // namespace gsnp::service
