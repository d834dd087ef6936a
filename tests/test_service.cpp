// gsnpd service tests: retry-backoff determinism, the line protocol, the
// daemon's admission control (typed load shedding), deadlines, cancellation,
// crash-safe recovery, sidecar namespacing for concurrent jobs sharing an
// output directory, and the AF_UNIX socket transport.
//
// The invariant under test throughout: a job run by the daemon — sharded,
// retried, degraded, interrupted, resumed — produces outputs byte-identical
// to a serial core::run_genome of the same spec (manifest digests equal).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/common/atomic_file.hpp"
#include "src/common/error.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/obs/eventlog.hpp"
#include "src/obs/prometheus.hpp"
#include "src/core/run_manifest.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/sam.hpp"
#include "src/reads/simulator.hpp"
#include "src/service/daemon.hpp"
#include "src/service/dispatch.hpp"
#include "src/service/fsck.hpp"
#include "src/service/journal.hpp"
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

// ---- satellite: seeded jitter + cap in RetryPolicy -------------------------------

TEST(Backoff, PlainExponentialWhenJitterDisabled) {
  core::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_seconds = 0.5;
  policy.backoff_multiplier = 3.0;
  policy.jitter_fraction = 0.0;
  const auto sleeps = core::backoff_sequence(policy);
  ASSERT_EQ(sleeps.size(), 3u);  // one pause before each retry
  EXPECT_DOUBLE_EQ(sleeps[0], 0.5);
  EXPECT_DOUBLE_EQ(sleeps[1], 1.5);
  EXPECT_DOUBLE_EQ(sleeps[2], 4.5);
}

TEST(Backoff, CapBoundsEverySleep) {
  core::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.backoff_seconds = 1.0;
  policy.backoff_multiplier = 10.0;
  policy.backoff_cap_seconds = 5.0;
  const auto sleeps = core::backoff_sequence(policy);
  ASSERT_EQ(sleeps.size(), 7u);
  EXPECT_DOUBLE_EQ(sleeps[0], 1.0);
  for (const double s : sleeps) EXPECT_LE(s, 5.0);
  EXPECT_DOUBLE_EQ(sleeps.back(), 5.0);
}

TEST(Backoff, SizeFollowsMaxAttempts) {
  core::RetryPolicy policy;
  policy.backoff_seconds = 1.0;
  policy.max_attempts = 1;
  EXPECT_TRUE(core::backoff_sequence(policy).empty());
  policy.max_attempts = 0;  // degenerate: treated as one attempt
  EXPECT_TRUE(core::backoff_sequence(policy).empty());
  policy.max_attempts = 2;
  EXPECT_EQ(core::backoff_sequence(policy).size(), 1u);
}

TEST(Backoff, JitterIsDeterministicPerSaltAndBounded) {
  core::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.backoff_seconds = 0.25;
  policy.backoff_multiplier = 2.0;
  policy.backoff_cap_seconds = 1.5;
  policy.jitter_fraction = 0.4;
  policy.jitter_seed = 1234;

  const auto a = core::backoff_sequence(policy, 7);
  const auto b = core::backoff_sequence(policy, 7);
  EXPECT_EQ(a, b);  // same (policy, salt) -> identical sleeps, always

  // Different salts (distinct job/chromosome) desynchronize.
  const auto c = core::backoff_sequence(policy, 8);
  EXPECT_NE(a, c);
  // So does a different seed under the same salt.
  policy.jitter_seed = 4321;
  EXPECT_NE(a, core::backoff_sequence(policy, 7));

  // Every jittered sleep stays within [base * (1 - fraction), base].
  double base = policy.backoff_seconds;
  for (const double s : a) {
    const double capped = std::min(base, policy.backoff_cap_seconds);
    EXPECT_GE(s, capped * (1.0 - policy.jitter_fraction) - 1e-12);
    EXPECT_LE(s, capped + 1e-12);
    base *= policy.backoff_multiplier;
  }
}

// ---- line protocol ----------------------------------------------------------------

TEST(Protocol, ErrorCodeNamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kInvalidArgument,
        ErrorCode::kQueueFull, ErrorCode::kPayloadTooLarge,
        ErrorCode::kQuotaExceeded, ErrorCode::kDeadlineExceeded,
        ErrorCode::kNotFound, ErrorCode::kShuttingDown, ErrorCode::kInternal,
        ErrorCode::kStorageFailure, ErrorCode::kFrameTooLarge}) {
    const auto back = error_code_from_name(error_code_name(code));
    ASSERT_TRUE(back.has_value()) << error_code_name(code);
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(error_code_from_name("no_such_code").has_value());
}

TEST(Protocol, RequestRoundTrip) {
  Request request;
  request.op = "submit";
  request.job.job_id = "job-9";
  request.job.tenant = "alice";
  request.job.engine = "gsnp_cpu";
  request.job.output_dir = "/tmp/out dir";
  request.job.window_size = 2048;
  request.job.deadline_seconds = 12.5;
  ChromosomeSpec chrom;
  chrom.name = "chr\"7\"";  // JSON escaping must survive
  chrom.alignment_file = "/data/chr7.soap";
  chrom.reference_file = "/data/chr7.fa";
  chrom.dbsnp_file = "/data/chr7.dbsnp";
  request.job.chromosomes.push_back(chrom);

  const Request back = parse_request(encode_request(request));
  EXPECT_EQ(back.op, "submit");
  EXPECT_EQ(back.job.job_id, "job-9");
  EXPECT_EQ(back.job.tenant, "alice");
  EXPECT_EQ(back.job.engine, "gsnp_cpu");
  EXPECT_EQ(back.job.output_dir, "/tmp/out dir");
  EXPECT_EQ(back.job.window_size, 2048u);
  EXPECT_DOUBLE_EQ(back.job.deadline_seconds, 12.5);
  ASSERT_EQ(back.job.chromosomes.size(), 1u);
  EXPECT_EQ(back.job.chromosomes[0].name, "chr\"7\"");
  EXPECT_EQ(back.job.chromosomes[0].alignment_file, "/data/chr7.soap");
  EXPECT_EQ(back.job.chromosomes[0].reference_file, "/data/chr7.fa");
  EXPECT_EQ(back.job.chromosomes[0].dbsnp_file, "/data/chr7.dbsnp");
}

TEST(Protocol, ResponseRoundTrip) {
  Response ok;
  ok.ok = true;
  ok.fields["job_id"] = "job-3";
  ok.fields["state"] = "done";
  const Response ok_back = parse_response(encode_response(ok));
  EXPECT_TRUE(ok_back.ok);
  EXPECT_EQ(ok_back.fields.at("job_id"), "job-3");
  EXPECT_EQ(ok_back.fields.at("state"), "done");

  Response err;
  err.ok = false;
  err.error = ErrorCode::kQuotaExceeded;
  err.message = "tenant alice at quota";
  const Response err_back = parse_response(encode_response(err));
  EXPECT_FALSE(err_back.ok);
  EXPECT_EQ(err_back.error, ErrorCode::kQuotaExceeded);
  EXPECT_EQ(err_back.message, "tenant alice at quota");
}

TEST(Protocol, MalformedRequestLinesRaiseTypedBadRequest) {
  for (const char* line :
       {"", "not json", "{", "[1,2,3]", "{\"job_id\":\"x\"}",
        "{\"op\":42}"}) {
    try {
      parse_request(line);
      FAIL() << "accepted malformed line: " << line;
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << line;
    } catch (const Error&) {
      // json-layer error is acceptable for non-JSON bytes
    }
  }
}

// ---- daemon fixture ---------------------------------------------------------------

/// Four small chromosomes on disk (FASTA + SOAP alignment, chr1 also with a
/// dbSNP prior file), a spool allocator, and a serial-run oracle.
class ServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_service_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (int c = 0; c < 4; ++c) {
      genome::GenomeSpec gspec;
      gspec.name = "chr" + std::to_string(c + 1);
      gspec.length = 3'000 - 400 * static_cast<u64>(c);
      gspec.seed = 40 + static_cast<u64>(c);
      const genome::Reference ref = genome::generate_reference(gspec);
      genome::write_fasta_file(fasta(gspec.name), {ref});
      const genome::Diploid individual(ref, {});
      reads::ReadSimSpec rspec;
      rspec.depth = 4.0;
      rspec.seed = 50 + static_cast<u64>(c);
      reads::write_alignment_file(soap(gspec.name),
                                  reads::simulate_reads(individual, rspec));
      if (c == 0) {
        const genome::DbSnpTable dbsnp = genome::make_dbsnp(ref, {}, 0.01, 3);
        genome::write_dbsnp_file(dir_ / "chr1.dbsnp", dbsnp);
      }
      names_.push_back(gspec.name);
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path fasta(const std::string& name) { return dir_ / (name + ".fa"); }
  fs::path soap(const std::string& name) { return dir_ / (name + ".soap"); }

  DaemonConfig daemon_config(const std::string& spool) {
    DaemonConfig config;
    config.spool_dir = dir_ / spool;
    config.workers = 2;
    config.watchdog_interval_seconds = 0.002;
    return config;
  }

  JobSpec make_spec(std::initializer_list<int> chroms,
                    const std::string& id = "") {
    JobSpec spec;
    spec.job_id = id;
    spec.engine = "gsnp";
    spec.window_size = 1'024;
    for (const int c : chroms) {
      ChromosomeSpec cs;
      cs.name = names_[static_cast<std::size_t>(c)];
      cs.alignment_file = soap(cs.name).string();
      cs.reference_file = fasta(cs.name).string();
      if (c == 0) cs.dbsnp_file = (dir_ / "chr1.dbsnp").string();
      spec.chromosomes.push_back(cs);
    }
    return spec;
  }

  /// The serial oracle: core::run_genome on the same spec, in its own
  /// directory.  Returns the canonical manifest digest.
  std::string serial_digest(const JobSpec& spec, const fs::path& out,
                            core::GenomeReport* report_out = nullptr) {
    std::vector<genome::Reference> refs;
    std::vector<genome::DbSnpTable> tables;
    refs.reserve(spec.chromosomes.size());
    tables.reserve(spec.chromosomes.size());
    core::GenomeRunConfig cfg;
    cfg.output_dir = out;
    cfg.window_size = spec.window_size;
    for (const ChromosomeSpec& cs : spec.chromosomes) {
      auto loaded = genome::read_fasta_file(cs.reference_file);
      refs.push_back(std::move(loaded.at(0)));
      core::ChromosomeJob job;
      job.name = cs.name;
      job.alignment_file = cs.alignment_file;
      job.reference = &refs.back();
      if (!cs.dbsnp_file.empty()) {
        tables.push_back(genome::read_dbsnp_file(cs.dbsnp_file, {}, nullptr,
                                                 refs.back().size()));
        job.dbsnp = &tables.back();
      }
      cfg.chromosomes.push_back(job);
    }
    device::Device dev;
    const core::GenomeReport report =
        core::run_genome(cfg, core::EngineKind::kGsnp, &dev);
    if (report_out != nullptr) *report_out = report;
    return core::manifest_digest(core::read_run_manifest(report.manifest_file));
  }

  fs::path dir_;
  std::vector<std::string> names_;
};

/// The spool's size as an independent walk counts it: its regular files.
u64 spool_file_bytes(const fs::path& spool) {
  u64 total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(spool))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

/// The exposition the `metrics` op serves.
std::string served_metrics(Daemon& daemon) {
  Request request;
  request.op = "metrics";
  const Response response = handle_request(daemon, request);
  EXPECT_TRUE(response.ok);
  return response.fields.at("text");
}

/// The value of one unlabeled series in an exposition ("" if absent).
std::string series_value(const std::string& text, const std::string& series) {
  const std::string key = "\n" + series + " ";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size();
  return text.substr(begin, text.find('\n', begin) - begin);
}

/// stats() and the `metrics` op both report these three counting gauges.
void expect_counting_gauges(Daemon& daemon, std::size_t active,
                            std::size_t workers_busy,
                            std::size_t queue_depth) {
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.active, active);
  EXPECT_EQ(stats.workers_busy, workers_busy);
  EXPECT_EQ(stats.queue_depth, queue_depth);
  const std::string text = served_metrics(daemon);
  EXPECT_EQ(series_value(text, "gsnpd_jobs_active"), std::to_string(active));
  EXPECT_EQ(series_value(text, "gsnpd_workers_busy"),
            std::to_string(workers_busy));
  EXPECT_EQ(series_value(text, "gsnpd_queue_depth"),
            std::to_string(queue_depth));
}

ErrorCode submit_error(Daemon& daemon, JobSpec spec) {
  try {
    daemon.submit(std::move(spec));
  } catch (const ServiceError& e) {
    return e.code();
  }
  ADD_FAILURE() << "submission unexpectedly admitted";
  return ErrorCode::kInternal;
}

// ---- admission control ------------------------------------------------------------

TEST_F(ServiceFixture, MalformedSpecsRejectedTyped) {
  Daemon daemon(daemon_config("spool"));

  JobSpec empty = make_spec({});
  EXPECT_EQ(submit_error(daemon, empty), ErrorCode::kBadRequest);

  // Unknown backend names are their own typed code (invalid_argument, not
  // bad_request) and the message lists every registered backend so clients
  // can self-correct.
  JobSpec engine = make_spec({0});
  engine.engine = "warp-drive";
  EXPECT_EQ(submit_error(daemon, engine), ErrorCode::kInvalidArgument);
  try {
    daemon.submit(engine);
    FAIL() << "unknown backend must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_NE(std::string(e.what()).find("warp-drive"), std::string::npos);
    for (const auto& info : gsnp::core::backend_registry())
      EXPECT_NE(std::string(e.what()).find(info.name), std::string::npos)
          << "rejection must list backend " << info.name;
  }

  JobSpec missing = make_spec({0});
  missing.chromosomes[0].alignment_file = (dir_ / "nope.soap").string();
  EXPECT_EQ(submit_error(daemon, missing), ErrorCode::kBadRequest);

  JobSpec dup_names = make_spec({1, 1});
  EXPECT_EQ(submit_error(daemon, dup_names), ErrorCode::kBadRequest);

  EXPECT_EQ(daemon.stats().rejected_bad_request, 3u);
  EXPECT_EQ(daemon.stats().rejected_invalid_argument, 2u);
  EXPECT_EQ(daemon.stats().admitted, 0u);

  // Rejections must not poison the daemon: a clean job still runs.
  const std::string id = daemon.submit(make_spec({1}));
  ASSERT_TRUE(daemon.wait_job(id, 60.0));
  EXPECT_EQ(daemon.status(id).state, JobState::kDone);

  // id already taken AND the spec differs — an identical spec would be the
  // idempotent-resubmit path (its own test below), not an error.
  JobSpec duplicate = make_spec({1, 2}, id);
  EXPECT_EQ(submit_error(daemon, duplicate), ErrorCode::kBadRequest);
}

TEST_F(ServiceFixture, OversizedPayloadShed) {
  DaemonConfig config = daemon_config("spool");
  config.max_payload_bytes = 16;  // no alignment file is this small
  Daemon daemon(config);
  EXPECT_EQ(submit_error(daemon, make_spec({0})),
            ErrorCode::kPayloadTooLarge);
  EXPECT_EQ(daemon.stats().shed_payload, 1u);
  EXPECT_EQ(daemon.stats().shed_total(), 1u);
}

TEST_F(ServiceFixture, DeviceBudgetGateRejectsAndAdmitsTyped) {
  // Arm the admission gate with a capacity that fits exactly a 1 MiB batch
  // budget at the fixture's 1,024-site windows.
  constexpr u64 kBudget = u64{1} << 20;
  DaemonConfig config = daemon_config("spool");
  config.max_device_bytes = core::worst_case_device_bytes(kBudget, 1'024);
  Daemon daemon(config);

  // Unbatched job while the gate is armed: its device footprint is whatever
  // the deepest window happens to need — not computable up front — so the
  // daemon refuses to guess.
  EXPECT_EQ(submit_error(daemon, make_spec({0})),
            ErrorCode::kDeviceBudgetExceeded);

  // A budget whose worst case exceeds the capacity is typed the same way.
  JobSpec big = make_spec({0});
  big.batch_bytes = u64{8} << 20;
  EXPECT_EQ(submit_error(daemon, big), ErrorCode::kDeviceBudgetExceeded);
  EXPECT_EQ(daemon.stats().rejected_device_budget, 2u);
  EXPECT_EQ(daemon.metrics().counter("jobs_rejected_device_budget"), 2u);

  // A fitting budget is admitted, runs batched, and still produces the
  // exact artifacts of the unbatched serial oracle (§IV-G under batching).
  JobSpec ok = make_spec({0});
  ok.batch_bytes = kBudget;
  const std::string id = daemon.submit(ok);
  ASSERT_TRUE(daemon.wait_job(id, 60.0));
  const JobStatus status = daemon.status(id);
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_EQ(status.manifest_digest,
            serial_digest(make_spec({0}), dir_ / "serial_unbatched"));
  EXPECT_EQ(daemon.stats().rejected_device_budget, 2u);
}

TEST_F(ServiceFixture, DeviceBudgetDaemonDefaultSatisfiesGate) {
  // A server-side default budget lets unbatched submissions through the
  // gate: the daemon applies its own batch_bytes before computing the worst
  // case, and forwards the same default into the run config.
  constexpr u64 kBudget = u64{1} << 20;
  DaemonConfig config = daemon_config("spool");
  config.batch_bytes = kBudget;
  config.max_device_bytes = core::worst_case_device_bytes(kBudget, 1'024);
  Daemon daemon(config);
  const std::string id = daemon.submit(make_spec({1}));
  ASSERT_TRUE(daemon.wait_job(id, 60.0));
  EXPECT_EQ(daemon.status(id).state, JobState::kDone);
  EXPECT_EQ(daemon.stats().rejected_device_budget, 0u);
}

TEST_F(ServiceFixture, QueueFullAndQuotaShedTyped) {
  DaemonConfig config = daemon_config("spool");
  config.workers = 1;
  config.queue_capacity = 2;
  config.tenant_quota = 1;
  // Hold every admitted chromosome at the attempt gate so admitted jobs stay
  // "unfinished" deterministically while we probe the admission limits.
  std::atomic<bool> release{false};
  std::atomic<bool> held{false};
  config.fault_arm = [&release, &held](device::Device&, const std::string&,
                                       const std::string&) {
    held.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  Daemon daemon(config);

  const std::string a = daemon.submit(make_spec({1}));
  EXPECT_EQ(daemon.status(a).tenant, "default");

  // Same tenant again: quota (1) trips before capacity (2).
  EXPECT_EQ(submit_error(daemon, make_spec({2})), ErrorCode::kQuotaExceeded);

  // Another tenant fits the queue...
  JobSpec other = make_spec({2});
  other.tenant = "bob";
  const std::string b = daemon.submit(std::move(other));

  // ...but a third unfinished job exceeds queue_capacity for any tenant.
  JobSpec third = make_spec({3});
  third.tenant = "carol";
  EXPECT_EQ(submit_error(daemon, std::move(third)), ErrorCode::kQueueFull);

  const DaemonStats mid = daemon.stats();
  EXPECT_EQ(mid.shed_quota, 1u);
  EXPECT_EQ(mid.shed_queue_full, 1u);
  EXPECT_EQ(mid.shed_total(), 2u);
  EXPECT_EQ(mid.admitted, 2u);
  EXPECT_EQ(mid.active, 2u);

  // The one worker holds a's chromosome inside fault_arm; b's waits.
  while (!held.load()) std::this_thread::sleep_for(1ms);
  expect_counting_gauges(daemon, /*active=*/2, /*workers_busy=*/1,
                         /*queue_depth=*/1);

  release.store(true);
  daemon.wait_idle();
  EXPECT_EQ(daemon.status(a).state, JobState::kDone);
  EXPECT_EQ(daemon.status(b).state, JobState::kDone);
  expect_counting_gauges(daemon, 0, 0, 0);
  EXPECT_EQ(daemon.stats().completed, 2u);

  // With capacity freed, the once-shed tenant admits fine now.
  const std::string c = daemon.submit(make_spec({3}));
  ASSERT_TRUE(daemon.wait_job(c, 60.0));
  EXPECT_EQ(daemon.status(c).state, JobState::kDone);
}

TEST_F(ServiceFixture, CancelIsTypedAndIdempotent) {
  DaemonConfig config = daemon_config("spool");
  config.workers = 1;
  std::atomic<bool> release{false};
  config.fault_arm = [&release](device::Device&, const std::string&,
                                const std::string&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  Daemon daemon(config);

  EXPECT_THROW(daemon.status("job-404"), ServiceError);
  EXPECT_THROW(daemon.cancel("job-404"), ServiceError);

  const std::string id = daemon.submit(make_spec({1, 2}));
  daemon.cancel(id);
  release.store(true);
  ASSERT_TRUE(daemon.wait_job(id, 60.0));
  const JobStatus status = daemon.status(id);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_FALSE(status.error.empty());
  daemon.cancel(id);  // terminal: a no-op, not an error
  EXPECT_EQ(daemon.status(id).state, JobState::kCancelled);
  EXPECT_EQ(daemon.stats().cancelled, 1u);
}

TEST_F(ServiceFixture, ResubmitWithClientIdIsIdempotent) {
  // The resilient client's blind resend contract (socket.hpp): a retried
  // submit of the identical spec under a client-supplied id is answered from
  // existing state — never run twice — while a DIFFERENT spec under a taken
  // id stays a typed error.
  Daemon daemon(daemon_config("spool"));
  const JobSpec spec = make_spec({1}, "idem");
  ASSERT_EQ(daemon.submit(spec), "idem");
  ASSERT_TRUE(daemon.wait_job("idem", 60.0));

  EXPECT_EQ(daemon.submit(spec), "idem");  // lost-ack retry, job is done
  EXPECT_EQ(daemon.stats().deduplicated, 1u);
  EXPECT_EQ(daemon.stats().admitted, 1u);  // not admitted a second time
  EXPECT_EQ(daemon.stats().completed, 1u);

  EXPECT_EQ(submit_error(daemon, make_spec({1, 2}, "idem")),
            ErrorCode::kBadRequest);
}

// ---- completion & byte identity ---------------------------------------------------

TEST_F(ServiceFixture, CompletedJobMatchesSerialRunByteForByte) {
  DaemonConfig config = daemon_config("spool");
  config.workers = 3;  // chromosomes genuinely run concurrently
  Daemon daemon(config);

  const JobSpec spec = make_spec({0, 1, 2});
  const std::string id = daemon.submit(spec);
  ASSERT_TRUE(daemon.wait_job(id, 120.0));

  const JobStatus status = daemon.status(id);
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_EQ(status.chromosomes_total, 3u);
  EXPECT_EQ(status.chromosomes_done, 3u);
  EXPECT_FALSE(status.degraded);
  ASSERT_FALSE(status.manifest_digest.empty());

  core::GenomeReport serial;
  EXPECT_EQ(status.manifest_digest,
            serial_digest(spec, dir_ / "serial", &serial));
  for (const fs::path& out : serial.output_files)
    EXPECT_EQ(read_bytes(status.output_dir / out.filename()), read_bytes(out))
        << out;

  // The manifest on disk is the daemon's journal of record: re-read it and
  // re-derive the digest independently.
  const core::RunManifest manifest =
      core::read_run_manifest(status.manifest_file);
  ASSERT_EQ(manifest.chromosomes.size(), 3u);
  EXPECT_EQ(manifest.chromosomes[0].name, "chr1");  // submission order
  EXPECT_EQ(core::manifest_digest(manifest), status.manifest_digest);

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.chromosomes_done, 3u);
  EXPECT_EQ(daemon.metrics().counter("jobs_completed"), 1u);
}

TEST_F(ServiceFixture, SamJobMatchesTheSoapJob) {
  // The engines read SAM themselves, so gsnpd takes it: a job over the
  // same records as SAM has the SOAP job's manifest digest.
  const JobSpec soap_spec = make_spec({0, 1});
  JobSpec sam_spec = soap_spec;
  for (ChromosomeSpec& cs : sam_spec.chromosomes) {
    const fs::path sam = dir_ / (cs.name + ".sam");
    reads::write_sam_file(sam, reads::read_alignment_file(cs.alignment_file),
                          cs.name,
                          genome::read_fasta_file(fasta(cs.name)).at(0).size());
    cs.alignment_file = sam.string();
  }
  Daemon daemon(daemon_config("spool"));
  const std::string soap_id = daemon.submit(soap_spec);
  const std::string sam_id = daemon.submit(sam_spec);
  for (const std::string& id : {soap_id, sam_id}) {
    ASSERT_TRUE(daemon.wait_job(id, 120.0));
    ASSERT_EQ(daemon.status(id).state, JobState::kDone)
        << daemon.status(id).error;
  }
  EXPECT_FALSE(daemon.status(sam_id).manifest_digest.empty());
  EXPECT_EQ(daemon.status(sam_id).manifest_digest,
            daemon.status(soap_id).manifest_digest);
}

TEST_F(ServiceFixture, DoneJobLeavesACleanSpool) {
  // A finished job leaves nothing for the scrubber: no temp input, no
  // staging file, so a non-repairing fsck reports every job clean.
  const DaemonConfig config = daemon_config("spool");
  Daemon daemon(config);
  JobSpec spec = make_spec({0, 1});
  spec.engine = "gsnp-cpu";
  const std::string cpu_id = daemon.submit(spec);
  const std::string gsnp_id = daemon.submit(make_spec({2}));
  for (const std::string& id : {cpu_id, gsnp_id}) {
    ASSERT_TRUE(daemon.wait_job(id, 120.0));
    ASSERT_EQ(daemon.status(id).state, JobState::kDone) << id;
  }
  const FsckReport report = fsck_spool(config.spool_dir);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_TRUE(report.all_clean()) << report.summary();
}

TEST_F(ServiceFixture, InjectedDeviceFaultDegradesNotFails) {
  DaemonConfig config = daemon_config("spool");
  config.workers = 1;
  config.retry.max_attempts = 2;
  config.retry.backoff_seconds = 0.0;
  // Wedge the device for chr2 only: every alloc fails while it runs, so both
  // attempts die and the chromosome falls back to the CPU engine.
  config.fault_arm = [](device::Device& dev, const std::string&,
                        const std::string& chromosome) {
    device::FaultPlan plan;
    if (chromosome == "chr2") {
      plan.fail_alloc_at = static_cast<i64>(dev.alloc_count());
      plan.fault_count = -1;
    }
    dev.set_fault_plan(plan);
  };
  Daemon daemon(config);

  const JobSpec spec = make_spec({0, 1, 2});
  const std::string id = daemon.submit(spec);
  ASSERT_TRUE(daemon.wait_job(id, 120.0));

  const JobStatus status = daemon.status(id);
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_TRUE(status.degraded);

  // Degradation costs speed, never correctness (§IV-G): the digest still
  // matches the serial GPU run because degraded entries record identical
  // output bytes (the digest folds in engine names per chromosome — compare
  // the file bytes, which are the actual §IV-G guarantee).
  core::GenomeReport serial;
  serial_digest(spec, dir_ / "serial", &serial);
  for (const fs::path& out : serial.output_files)
    EXPECT_EQ(read_bytes(status.output_dir / out.filename()), read_bytes(out))
        << out;
  const core::RunManifest manifest =
      core::read_run_manifest(status.manifest_file);
  const core::ManifestEntry* entry = manifest.find("chr2");
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->degraded);
  EXPECT_EQ(entry->engine, "gsnp_cpu");
  EXPECT_EQ(daemon.stats().chromosomes_degraded, 1u);
}

// ---- deadlines --------------------------------------------------------------------

TEST_F(ServiceFixture, DeadlineOverrunFailsTypedDeadlineExceeded) {
  DaemonConfig config = daemon_config("spool");
  config.workers = 1;
  // Hold the first attempt until the watchdog has certainly fired; the
  // worker then observes the kDeadline cancellation at its next gate.
  config.fault_arm = [](device::Device&, const std::string&,
                        const std::string&) {
    std::this_thread::sleep_for(50ms);
  };
  Daemon daemon(config);

  JobSpec spec = make_spec({1});
  spec.deadline_seconds = 0.005;
  const std::string id = daemon.submit(std::move(spec));
  ASSERT_TRUE(daemon.wait_job(id, 60.0));
  const JobStatus status = daemon.status(id);
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.error, "deadline_exceeded");
  EXPECT_EQ(daemon.stats().failed, 1u);

  // No torn partial output was published for the cancelled chromosome.
  EXPECT_FALSE(fs::exists(status.output_dir / "chr2.gsnp.snp"));
}

// ---- crash-safe recovery ----------------------------------------------------------

TEST_F(ServiceFixture, CrashBetweenPublishAndJournalRecoversExactlyOnce) {
  const JobSpec spec = make_spec({0, 1, 2}, "jobX");
  const fs::path spool = dir_ / "spool";

  // Daemon A dies at chr2's post_publish point: chr2's output file is
  // renamed into place but its manifest entry was never written — the
  // classic torn durability window.
  {
    DaemonConfig config = daemon_config("spool");
    config.workers = 1;  // chromosomes complete in submission order
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
    ASSERT_EQ(daemon.submit(spec), "jobX");
    daemon.wait_idle();  // returns once the crash flag is up
  }

  const fs::path job_dir = spool / "jobs" / "jobX";
  const core::RunManifest torn =
      core::read_run_manifest(job_dir / "manifest.json");
  ASSERT_EQ(torn.chromosomes.size(), 1u);  // chr1 journaled, chr2 was not
  EXPECT_EQ(torn.chromosomes[0].name, "chr1");
  EXPECT_TRUE(fs::exists(job_dir / "out" / "chr1.gsnp.snp"));
  EXPECT_TRUE(fs::exists(job_dir / "out" / "chr2.gsnp.snp"));  // published!
  const auto chr1_mtime = fs::last_write_time(job_dir / "out" / "chr1.gsnp.snp");

  // Daemon B scans the spool: jobX is incomplete, so it resumes — chr1
  // verifies by CRC and is skipped, chr2 re-runs to identical bytes and
  // renames over itself, chr3 runs fresh.  Exactly once, end to end.
  {
    Daemon daemon(daemon_config("spool"));
    EXPECT_EQ(daemon.recover(), 1u);
    ASSERT_TRUE(daemon.wait_job("jobX", 120.0));
    const JobStatus status = daemon.status("jobX");
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_TRUE(status.resumed);
    EXPECT_EQ(status.chromosomes_done, 3u);

    core::GenomeReport serial;
    EXPECT_EQ(status.manifest_digest,
              serial_digest(spec, dir_ / "serial", &serial));
    for (const fs::path& out : serial.output_files)
      EXPECT_EQ(read_bytes(status.output_dir / out.filename()),
                read_bytes(out))
          << out;
    // chr1 was not rewritten — its checkpoint verified.
    EXPECT_EQ(fs::last_write_time(job_dir / "out" / "chr1.gsnp.snp"),
              chr1_mtime);
    EXPECT_EQ(daemon.metrics().counter("jobs_resumed"), 1u);

    // A third daemon would have nothing to do: jobX is terminal history.
    EXPECT_EQ(daemon.stats().active, 0u);
  }
  {
    Daemon daemon(daemon_config("spool"));
    EXPECT_EQ(daemon.recover(), 0u);
    EXPECT_EQ(daemon.status("jobX").state, JobState::kDone);
  }

  // The event log spans all three daemon incarnations and replays the
  // transition history: one submitted, one recovered, and — the durability
  // contract — exactly one published, even though chr2's output crossed the
  // crash window twice.  The third daemon (pure history) adds nothing.
  const std::vector<obs::JobEvent> events =
      obs::read_event_log(spool / "events.jsonl");
  ASSERT_FALSE(events.empty());
  std::size_t submitted = 0, recovered = 0, published = 0, chrom_done = 0;
  for (const obs::JobEvent& ev : events) {
    EXPECT_EQ(ev.job_id, "jobX");
    if (ev.event == "submitted") ++submitted;
    if (ev.event == "recovered") ++recovered;
    if (ev.event == "published") ++published;
    if (ev.event == "chromosome_done") ++chrom_done;
  }
  EXPECT_EQ(submitted, 1u);
  EXPECT_EQ(recovered, 1u);
  EXPECT_EQ(published, 1u);
  EXPECT_GE(chrom_done, 3u);  // chr1 before the crash, chr1..chr3 after
  EXPECT_EQ(events.front().event, "submitted");
  EXPECT_EQ(events.back().event, "published");
}

TEST_F(ServiceFixture, ShedAndRejectedJobsLogTypedReasonEvents) {
  DaemonConfig config = daemon_config("spool");
  config.workers = 1;
  config.queue_capacity = 2;
  config.tenant_quota = 1;
  std::atomic<bool> release{false};
  config.fault_arm = [&release](device::Device&, const std::string&,
                                const std::string&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  {
    Daemon daemon(config);
    const std::string held = daemon.submit(make_spec({1}));
    EXPECT_EQ(submit_error(daemon, make_spec({2})),
              ErrorCode::kQuotaExceeded);
    JobSpec other = make_spec({2});
    other.tenant = "bob";
    daemon.submit(std::move(other));
    JobSpec third = make_spec({3});
    third.tenant = "carol";
    EXPECT_EQ(submit_error(daemon, std::move(third)), ErrorCode::kQueueFull);
    EXPECT_EQ(submit_error(daemon, make_spec({})), ErrorCode::kBadRequest);
    release.store(true);
    daemon.wait_idle();
    (void)held;
  }

  std::size_t shed_quota = 0, shed_full = 0, rejected_bad = 0;
  for (const obs::JobEvent& ev :
       obs::read_event_log(dir_ / "spool" / "events.jsonl")) {
    if (ev.event == "shed" && ev.reason == "quota_exceeded") ++shed_quota;
    if (ev.event == "shed" && ev.reason == "queue_full") ++shed_full;
    if (ev.event == "rejected" && ev.reason == "bad_request") ++rejected_bad;
  }
  EXPECT_EQ(shed_quota, 1u);
  EXPECT_EQ(shed_full, 1u);
  EXPECT_EQ(rejected_bad, 1u);
}

// ---- telemetry ops ----------------------------------------------------------------

TEST_F(ServiceFixture, StatsSurfaceQueueAndSpoolGauges) {
  const DaemonConfig config = daemon_config("spool");
  Daemon daemon(config);
  // Every read walks the spool as it is, so once a wait returns, the gauge
  // holds the terminal writes of the jobs waited on.
  const auto expect_spool_gauge = [&] {
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.workers_busy, 0u);
    EXPECT_EQ(stats.spool_bytes, spool_file_bytes(config.spool_dir));
    EXPECT_EQ(stats.eventlog_write_failures, 0u);

    Request request;
    request.op = "stats";
    const Response response = handle_request(daemon, request);
    EXPECT_TRUE(response.ok);
    EXPECT_EQ(response.fields.at("queue_depth"), "0");
    EXPECT_EQ(response.fields.at("workers_busy"), "0");
    EXPECT_EQ(response.fields.at("spool_bytes"),
              std::to_string(stats.spool_bytes));
    const std::string text = served_metrics(daemon);
    EXPECT_EQ(series_value(text, "gsnpd_spool_bytes"),
              std::to_string(stats.spool_bytes));
    // The process's memory: read when the op runs, like the spool gauge.
    EXPECT_GT(stats.minor_faults, 0u);
    EXPECT_GT(stats.rss_bytes, 0u);
    EXPECT_GE(stats.peak_rss_bytes, stats.rss_bytes);
    for (const char* field : {"minor_faults", "rss_bytes", "peak_rss_bytes"}) {
      EXPECT_GT(std::stoull(response.fields.at(field)), 0u) << field;
      EXPECT_NE(series_value(text, std::string("gsnpd_") + field), "")
          << field;
    }
    return stats.spool_bytes;
  };

  const std::string id = daemon.submit(make_spec({1}));
  ASSERT_TRUE(daemon.wait_job(id, 60.0));
  const u64 first = expect_spool_gauge();
  EXPECT_GT(first, 0u);  // journal + manifest + outputs + events

  daemon.submit(make_spec({2}));
  daemon.wait_idle();
  EXPECT_GT(expect_spool_gauge(), first);
}

TEST_F(ServiceFixture, MetricsOpServesPrometheusText) {
  Daemon daemon(daemon_config("spool"));
  const std::string id = daemon.submit(make_spec({1}));
  ASSERT_TRUE(daemon.wait_job(id, 60.0));

  Request request;
  request.op = "metrics";
  const Response response = handle_request(daemon, request);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.fields.at("format"), "prometheus-text-0.0.4");
  const std::string& text = response.fields.at("text");
  EXPECT_NE(text.find("# TYPE gsnpd_jobs_completed_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsnpd_jobs_completed_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsnpd_job_completion_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsnpd_job_completion_seconds_count 1\n"),
            std::string::npos);
  // Pre-registered families render even at zero, so dashboards see every
  // series from the first scrape.
  EXPECT_NE(text.find("gsnpd_jobs_failed_total 0\n"), std::string::npos);

  // The wire trip preserves the multi-line exposition byte-for-byte.
  const Response decoded =
      parse_response(encode_response(response));
  EXPECT_EQ(decoded.fields.at("text"), text);
}

TEST_F(ServiceFixture, StageSecondsRecordsEveryComputedChromosome) {
  Daemon daemon(daemon_config("spool"));
  // The seven series render from the first scrape.
  const auto before = daemon.metrics().histograms();
  for (const char* stage : core::kComponents)
    EXPECT_EQ(before.at(obs::labeled_series("stage_seconds", "stage", stage))
                  .count,
              0u)
        << stage;

  const std::string id = daemon.submit(make_spec({0, 1, 2}));
  ASSERT_TRUE(daemon.wait_job(id, 60.0));
  const u64 done = daemon.metrics().counter("chromosomes_done");
  EXPECT_EQ(done, 3u);
  const auto after = daemon.metrics().histograms();
  for (const char* stage : core::kComponents) {
    const auto& series =
        after.at(obs::labeled_series("stage_seconds", "stage", stage));
    EXPECT_EQ(series.count, done) << stage;
    EXPECT_GE(series.min, 0.0) << stage;
  }
  EXPECT_GT(after.at(obs::labeled_series("stage_seconds", "stage", "cal_p"))
                .sum,
            0.0);
}

/// Twelve two-chromosome gsnp-cpu jobs at once on a four-worker daemon, each
/// chromosome 60K sites at 10x (a gsnpd-closed job), so calls overlap on
/// every worker; exits 0 if jobs 5-12 took under 10 % of the minor page
/// faults per job that jobs 1-4 took, else 1.  Jobs 1-4 map the workers'
/// heaps; later calls reuse the pages earlier calls freed.
[[noreturn]] void exit_with_overlapping_call_faults() {
  const fs::path dir = test_temp_path("gsnp_overlap_fault_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  JobSpec spec;
  spec.engine = "gsnp-cpu";
  for (const u64 seed : {1, 2}) {
    genome::GenomeSpec gspec;
    gspec.name = "chr" + std::to_string(seed);
    gspec.length = 60'000;
    gspec.seed = seed;
    const genome::Reference ref = genome::generate_reference(gspec);
    ChromosomeSpec cs;
    cs.name = gspec.name;
    cs.reference_file = (dir / (cs.name + ".fa")).string();
    cs.alignment_file = (dir / (cs.name + ".soap")).string();
    cs.dbsnp_file = (dir / (cs.name + ".dbsnp")).string();
    genome::write_fasta_file(cs.reference_file, {ref});
    reads::ReadSimSpec rspec;
    rspec.depth = 10.0;
    rspec.seed = seed;
    reads::write_alignment_file(
        cs.alignment_file,
        reads::simulate_reads(genome::Diploid(ref, {}), rspec));
    genome::write_dbsnp_file(cs.dbsnp_file,
                             genome::make_dbsnp(ref, {}, 0.01, seed));
    spec.chromosomes.push_back(cs);
  }

  DaemonConfig config;
  config.spool_dir = dir / "spool";
  config.workers = 4;
  config.queue_capacity = 12;
  config.tenant_quota = 12;
  u64 first = 0, rest = 0;
  {
    Daemon daemon(config);
    const u64 start = daemon.stats().minor_faults;
    std::vector<std::string> ids;
    for (int i = 0; i < 12; ++i) ids.push_back(daemon.submit(spec));
    // wait_job, not wait_idle: the idle trim runs when the last job settles.
    for (int i = 0; i < 4; ++i) GSNP_CHECK(daemon.wait_job(ids[i]));
    const u64 after_four = daemon.stats().minor_faults;
    for (int i = 4; i < 12; ++i) GSNP_CHECK(daemon.wait_job(ids[i]));
    rest = daemon.stats().minor_faults - after_four;
    first = after_four - start;
    for (const std::string& id : ids)
      GSNP_CHECK(daemon.status(id).state == JobState::kDone);
  }
  fs::remove_all(dir);
  std::fprintf(stderr, "minor faults per job: jobs 1-4 %llu, jobs 5-12 %llu\n",
               static_cast<unsigned long long>(first / 4),
               static_cast<unsigned long long>(rest / 8));
  std::exit(rest * 4 * 10 < first * 8 ? 0 : 1);
}

TEST(DaemonAllocatorPolicy, OverlappingCallsReuseFreedPages) {
  // A new process, so jobs 1-4 start from unmapped worker heaps.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer allocators replace glibc's";
#endif
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(exit_with_overlapping_call_faults(),
              ::testing::ExitedWithCode(0), "minor faults per job");
}

TEST_F(ServiceFixture, HealthOpReportsReadiness) {
  Daemon daemon(daemon_config("spool"));
  Request request;
  request.op = "health";
  const Response response = handle_request(daemon, request);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.fields.at("ready"), "true");
  EXPECT_EQ(response.fields.at("spool_writable"), "true");
  EXPECT_EQ(response.fields.at("workers_alive"), "true");
  EXPECT_EQ(response.fields.at("shutting_down"), "false");

  const DaemonHealth health = daemon.health();
  EXPECT_TRUE(health.ready);
  EXPECT_EQ(health.queue_depth, 0u);
  EXPECT_GT(health.queue_capacity, 0u);
}

TEST_F(ServiceFixture, GracefulShutdownParksJobsForResume) {
  const JobSpec spec = make_spec({1, 2}, "parked");
  {
    DaemonConfig config = daemon_config("spool");
    config.workers = 1;
    std::atomic<bool> release{false};
    config.fault_arm = [&release](device::Device&, const std::string&,
                                  const std::string&) {
      while (!release.load()) std::this_thread::sleep_for(1ms);
    };
    Daemon daemon(config);
    daemon.submit(spec);
    release.store(true);
    // Destructor: graceful shutdown cancels the unfinished job with reason
    // kShutdown and journals it as interrupted.
  }
  {
    Daemon daemon(daemon_config("spool"));
    EXPECT_EQ(daemon.recover(), 1u);
    ASSERT_TRUE(daemon.wait_job("parked", 120.0));
    const JobStatus status = daemon.status("parked");
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_TRUE(status.resumed);
    EXPECT_EQ(status.manifest_digest, serial_digest(spec, dir_ / "serial"));
  }
}

TEST_F(ServiceFixture, RecoverRejectsRetiredBackendTypedAndRunsTheRest) {
  // A spool journaled before the gsnp-simd backend was retired.  recover()
  // hands each unfinished job to admission, which rejects the unknown name
  // with the typed invalid_argument and leaves its journal for the
  // operator; the gsnp-cpu job beside it still resumes to done.  A done
  // gsnp-simd job is history: it stays queryable and is never rerun.
  const fs::path jobs = dir_ / "spool" / "jobs";
  std::string done_digest;
  {
    JobSpec spec = make_spec({1}, "simd-done");
    spec.engine = "gsnp-cpu";
    Daemon daemon(daemon_config("spool"));
    daemon.submit(spec);
    ASSERT_TRUE(daemon.wait_job("simd-done", 60.0));
    done_digest = daemon.status("simd-done").manifest_digest;
  }
  const std::vector<u8> text = read_bytes(jobs / "simd-done" / "job.json");
  JobJournal retired = parse_job_journal(std::string(text.begin(), text.end()));
  ASSERT_EQ(retired.state, JobState::kDone);
  retired.spec.engine = "gsnp-simd";
  write_file_atomic(jobs / "simd-done" / "job.json",
                    encode_job_journal(retired));

  for (const char* engine : {"gsnp-simd", "gsnp-cpu"}) {
    JobJournal journal;
    journal.id = std::string("old-") + engine;
    journal.state = JobState::kInterrupted;
    journal.spec = make_spec({2}, journal.id);
    journal.spec.engine = engine;
    fs::create_directories(jobs / journal.id);
    write_file_atomic(jobs / journal.id / "job.json",
                      encode_job_journal(journal));
  }

  Daemon daemon(daemon_config("spool"));
  EXPECT_EQ(daemon.recover(), 1u);
  ASSERT_TRUE(daemon.wait_job("old-gsnp-cpu", 120.0));
  const JobStatus resumed = daemon.status("old-gsnp-cpu");
  EXPECT_EQ(resumed.state, JobState::kDone) << resumed.error;
  EXPECT_TRUE(resumed.resumed);

  EXPECT_EQ(daemon.stats().rejected_invalid_argument, 1u);
  EXPECT_EQ(daemon.metrics().counter("jobs_rejected_invalid_argument"), 1u);
  EXPECT_THROW(daemon.status("old-gsnp-simd"), ServiceError);
  EXPECT_TRUE(fs::exists(jobs / "old-gsnp-simd" / "job.json"));
  std::size_t rejected = 0;
  for (const obs::JobEvent& ev :
       obs::read_event_log(dir_ / "spool" / "events.jsonl")) {
    if (ev.event != "rejected") continue;
    ++rejected;
    EXPECT_EQ(ev.job_id, "old-gsnp-simd");
    EXPECT_EQ(ev.backend, "gsnp-simd");
    EXPECT_EQ(ev.reason, "invalid_argument");
    for (const auto& info : gsnp::core::backend_registry())
      EXPECT_NE(ev.error.find(info.name), std::string::npos) << info.name;
  }
  EXPECT_EQ(rejected, 1u);

  const JobStatus history = daemon.status("simd-done");
  EXPECT_EQ(history.state, JobState::kDone);
  EXPECT_EQ(history.engine, "gsnp-simd");
  EXPECT_EQ(history.manifest_digest, done_digest);
}

// ---- sidecar namespacing for shared output dirs -----------------------------------

TEST_F(ServiceFixture, ConcurrentJobsSharingOutputDirGetNamespacedSidecars) {
  // Two jobs call the SAME chromosome from the same (malformed) alignment
  // into the same output_dir.  Published outputs share a name by design
  // (identical bytes rename onto identical paths); scratch artifacts — the
  // lenient-ingest quarantine sidecar above all — must NOT collide.
  const fs::path bad = dir_ / "chr2.bad.soap";
  fs::copy_file(soap("chr2"), bad);
  {
    std::ofstream append(bad, std::ios::app);
    append << "this line is not a soap record\n";
  }

  DaemonConfig config = daemon_config("spool");
  config.workers = 2;
  config.ingest = IngestPolicy::make_lenient();
  Daemon daemon(config);

  const fs::path shared = dir_ / "shared_out";
  auto job_for = [&](const std::string& id) {
    JobSpec spec;
    spec.job_id = id;
    spec.engine = "gsnp";
    spec.window_size = 1'024;
    spec.output_dir = shared.string();
    ChromosomeSpec cs;
    cs.name = "chr2";
    cs.alignment_file = bad.string();
    cs.reference_file = fasta("chr2").string();
    spec.chromosomes.push_back(cs);
    return spec;
  };
  daemon.submit(job_for("left"));
  daemon.submit(job_for("right"));
  daemon.wait_idle();
  ASSERT_EQ(daemon.status("left").state, JobState::kDone);
  ASSERT_EQ(daemon.status("right").state, JobState::kDone);

  // One namespaced sidecar per job; never a shared un-prefixed one.
  EXPECT_TRUE(fs::exists(shared / "left.chr2.quarantine.txt"));
  EXPECT_TRUE(fs::exists(shared / "right.chr2.quarantine.txt"));
  EXPECT_FALSE(fs::exists(shared / "chr2.quarantine.txt"));
  EXPECT_TRUE(fs::exists(shared / "chr2.gsnp.snp"));

  // Both jobs quarantined exactly the one malformed record.
  for (const char* id : {"left", "right"}) {
    const core::RunManifest manifest =
        core::read_run_manifest(daemon.status(id).manifest_file);
    ASSERT_EQ(manifest.chromosomes.size(), 1u);
    EXPECT_EQ(manifest.chromosomes[0].ingest.records_quarantined, 1u) << id;
  }
}

// ---- socket transport -------------------------------------------------------------

TEST_F(ServiceFixture, SocketRoundTripServesSubmitStatusStats) {
  Daemon daemon(daemon_config("spool"));
  const fs::path socket_path = dir_ / "gsnpd.sock";
  std::unique_ptr<LineServer> server;
  try {
    server = std::make_unique<LineServer>(
        socket_path,
        [&daemon](const std::string& line) {
          return handle_line(daemon, line);
        });
  } catch (const Error& e) {
    GTEST_SKIP() << "SKIPPED — cannot bind AF_UNIX socket at " << socket_path
                 << ": " << e.what();
  }

  ClientOptions single_attempt;  // one attempt, no deadline
  single_attempt.op_timeout_seconds = 0.0;
  single_attempt.retry.max_attempts = 1;
  LineClient client(socket_path, single_attempt);

  Request ping;
  ping.op = "ping";
  Response pong = parse_response(client.request(encode_request(ping)));
  ASSERT_TRUE(pong.ok);
  EXPECT_EQ(pong.fields.at("pong"), "gsnpd");

  Request submit;
  submit.op = "submit";
  submit.job = make_spec({1});
  const Response admitted =
      parse_response(client.request(encode_request(submit)));
  ASSERT_TRUE(admitted.ok) << admitted.message;
  const std::string id = admitted.fields.at("job_id");
  daemon.wait_job(id, 120.0);

  Request status;
  status.op = "status";
  status.job_id = id;
  const Response done = parse_response(client.request(encode_request(status)));
  ASSERT_TRUE(done.ok) << done.message;
  EXPECT_EQ(done.fields.at("state"), "done");
  EXPECT_EQ(done.fields.at("chromosomes_done"), "1");
  EXPECT_FALSE(done.fields.at("manifest_digest").empty());

  // Typed errors survive the wire.
  Request missing;
  missing.op = "status";
  missing.job_id = "job-404";
  const Response not_found =
      parse_response(client.request(encode_request(missing)));
  EXPECT_FALSE(not_found.ok);
  EXPECT_EQ(not_found.error, ErrorCode::kNotFound);

  const Response bad = parse_response(client.request("this is not json"));
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, ErrorCode::kBadRequest);

  Request stats;
  stats.op = "stats";
  const Response counters =
      parse_response(client.request(encode_request(stats)));
  ASSERT_TRUE(counters.ok);
  EXPECT_EQ(counters.fields.at("admitted"), "1");
  EXPECT_EQ(counters.fields.at("completed"), "1");

  server->stop();
}

}  // namespace
}  // namespace gsnp::service
