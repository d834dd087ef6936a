#pragma once
// gsnpd — the long-lived variant-calling service (DESIGN.md "Service").
//
// A Daemon accepts genome jobs (protocol.hpp JobSpec), shards each job by
// chromosome across a fixed worker pool (common/thread_pool.hpp, one
// simulated device per worker), and wraps every job in a defense-in-depth
// envelope:
//
//  * admission control — a bounded count of unfinished jobs; submissions
//    beyond it are SHED with ServiceError(kQueueFull) instead of queued
//    unboundedly.  Per-tenant quotas (kQuotaExceeded) and a per-job payload
//    cap on summed alignment bytes (kPayloadTooLarge) reject abusive load
//    before it costs anything.
//  * deadlines — a watchdog thread cancels jobs past their budget through
//    the job's CancelToken (reason kDeadline); the engines observe it at
//    window granularity, so an overrun job dies in milliseconds, typed
//    kDeadlineExceeded, never by hanging its client.
//  * fault tolerance — per-chromosome retries with seeded-jitter backoff and
//    kGsnp→kGsnpCpu degradation, exactly the core pipeline's semantics
//    (core::run_one_chromosome is the shared unit of work).
//  * crash safety — every job journals `job.json` + the PR 1 run manifest
//    under `<spool>/jobs/<id>/`; outputs publish atomically.  After a crash,
//    recover() rescans the spool, re-verifies output CRC-32s, and resumes
//    every incomplete job exactly once (verified chromosomes skip; a
//    published-but-unjournaled chromosome re-runs to the identical bytes and
//    renames over itself).
//
// Determinism: outputs are byte-identical to serial single-job runs by
// construction — every chromosome runs the same engine code on the same
// input regardless of scheduling, and the final manifest lists chromosomes
// in submission order, so manifest digests are comparable with serial runs
// (bench/bench_service.cpp asserts this under chaos schedules).

#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancel.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/device/device.hpp"
#include "src/obs/eventlog.hpp"
#include "src/obs/trace.hpp"
#include "src/service/fsck.hpp"
#include "src/service/protocol.hpp"

namespace gsnp::service {

/// Job lifecycle.  kInterrupted is the only non-terminal resting state: the
/// daemon went down (shutdown or crash) with the job unfinished, and the
/// next recover() re-admits it.
enum class JobState {
  kQueued,       ///< admitted, no chromosome finished yet
  kRunning,      ///< at least one chromosome task started
  kDone,         ///< every chromosome published and journaled
  kFailed,       ///< a chromosome failed beyond retries, or deadline overrun
  kCancelled,    ///< client cancel
  kInterrupted,  ///< daemon stopped mid-job; resumable
};

const char* job_state_name(JobState state);
/// Is a journaled state terminal across restarts (recover() must not rerun)?
bool terminal_job_state(JobState state);

struct DaemonConfig {
  /// Spool root: `<spool>/jobs/<job-id>/{job.json, manifest.json, out/}`.
  std::filesystem::path spool_dir;
  std::size_t workers = 2;         ///< chromosome worker threads (>= 1)
  std::size_t queue_capacity = 8;  ///< max unfinished jobs before shedding
  std::size_t tenant_quota = 4;    ///< max unfinished jobs per tenant
  u64 max_payload_bytes = 64ull << 20;  ///< per-job summed alignment bytes
  core::RetryPolicy retry;         ///< per-chromosome device-fault policy
  IngestPolicy ingest;             ///< malformed-input policy for all jobs
  /// Default depth-aware batching budget (device bytes per batch) for jobs
  /// that do not set JobSpec::batch_bytes.  0 = batching off.
  u64 batch_bytes = 0;
  /// Device capacity for admission control: when > 0, a job is admitted
  /// only if its worst-case device footprint — core::worst_case_device_bytes
  /// of its effective batch budget and window — fits.  Jobs with no
  /// effective batch budget are rejected typed kDeviceBudgetExceeded: an
  /// unbatched job's footprint is an emergent property of input depth, not
  /// a number admission can check.  0 = gate off.
  u64 max_device_bytes = 0;
  double watchdog_interval_seconds = 0.02;
  bool fsck_deep_verify = false;  ///< per-frame container CRCs during fsck

  /// Chaos hooks (null in production).  `fault_arm` runs on the worker
  /// thread right before a chromosome attempt, with the device that attempt
  /// will use — set a FaultPlan relative to the device's current operation
  /// counters for deterministic injection regardless of scheduling.
  /// `checkpoint_hook` forwards core::GenomeRunConfig::checkpoint_hook with
  /// the job id prepended; throwing from it (after simulate_crash())
  /// models the process dying at that durability point.
  std::function<void(device::Device& dev, const std::string& job_id,
                     const std::string& chromosome)>
      fault_arm;
  std::function<void(std::string_view point, const std::string& job_id,
                     const std::string& chromosome)>
      checkpoint_hook;
};

/// A point-in-time public view of one job.
struct JobStatus {
  std::string job_id;
  std::string tenant;
  std::string engine;
  JobState state = JobState::kQueued;
  std::size_t chromosomes_total = 0;
  std::size_t chromosomes_done = 0;
  bool degraded = false;     ///< any chromosome fell back to the CPU engine
  bool resumed = false;      ///< job was re-admitted by recover()
  std::string error;         ///< terminal failure/cancel detail ("" if clean)
  std::string manifest_digest;  ///< canonical result digest (done jobs)
  std::filesystem::path manifest_file;
  std::filesystem::path output_dir;
  double wait_seconds = 0.0;  ///< admission -> first chromosome start
  double run_seconds = 0.0;   ///< admission -> terminal state
};

/// Aggregate counters (mirrored in the obs metrics registry, metrics()) and
/// the gauges, which stats() derives when it runs.
struct DaemonStats {
  u64 submitted = 0;   ///< admission attempts, shed included
  u64 admitted = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 cancelled = 0;
  u64 interrupted = 0;
  u64 shed_queue_full = 0;
  u64 shed_quota = 0;
  u64 shed_payload = 0;
  u64 rejected_bad_request = 0;
  u64 rejected_invalid_argument = 0;  ///< unknown backend name in the spec
  u64 rejected_storage = 0;    ///< submits refused: journal not durable
  u64 rejected_device_budget = 0;  ///< worst-case device footprint over cap
  u64 deduplicated = 0;        ///< idempotent resubmits answered from state
  u64 journal_write_failures = 0;   ///< job.json writes that hit ENOSPC/EIO
  u64 manifest_write_failures = 0;  ///< manifest flushes that hit ENOSPC/EIO
  u64 chromosomes_done = 0;
  u64 chromosomes_degraded = 0;
  u64 eventlog_write_failures = 0;  ///< event records lost to ENOSPC/EIO
  std::size_t active = 0;      ///< unfinished jobs right now
  std::size_t queue_depth = 0;    ///< chromosome tasks enqueued, not started
  std::size_t workers_busy = 0;   ///< workers inside a chromosome task
  u64 spool_bytes = 0;  ///< spool footprint when stats() ran (one walk)
  u64 minor_faults = 0;    ///< the process's minor page faults so far
  u64 rss_bytes = 0;       ///< resident set now (VmRSS)
  u64 peak_rss_bytes = 0;  ///< resident-set high-water mark (VmHWM)

  u64 shed_total() const { return shed_queue_full + shed_quota + shed_payload; }
};

/// Point-in-time readiness, served by the `health` protocol op.  `ready`
/// is the single bit a load balancer gates on; the rest says why not.
struct DaemonHealth {
  bool ready = false;           ///< accepting and able to run work durably
  bool spool_writable = false;  ///< a probe write to the spool succeeded
  bool workers_alive = false;   ///< pool up, no (simulated) crash
  bool shutting_down = false;
  std::size_t queue_depth = 0;     ///< chromosome tasks waiting for a worker
  std::size_t queue_capacity = 0;  ///< DaemonConfig::queue_capacity (jobs)
  std::size_t active_jobs = 0;     ///< unfinished jobs vs queue_capacity
};

class Daemon {
 public:
  /// Under the engine's allocator policy, freed memory stays in the
  /// workers' heaps while jobs run (a worker's next call reuses it instead
  /// of faulting it in again).  When its last job settles the daemon calls
  /// malloc_trim, which returns the free chunks inside each heap; a worker
  /// heap's free top stays mapped.
  explicit Daemon(DaemonConfig config);
  /// Graceful shutdown: stops admission, cancels unfinished jobs with reason
  /// kShutdown (journaled as "interrupted" — the next recover() resumes
  /// them), drains the pool, joins the watchdog.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Admit a job, journal it, and enqueue its chromosomes.  Returns the job
  /// id.  Throws ServiceError: kBadRequest (malformed spec, duplicate id,
  /// missing input file), kPayloadTooLarge, kQueueFull, kQuotaExceeded,
  /// kShuttingDown.
  std::string submit(JobSpec spec);

  /// Throws ServiceError(kNotFound) for unknown ids.
  JobStatus status(const std::string& job_id) const;
  std::vector<JobStatus> jobs() const;

  /// Cancel an unfinished job (reason kClient, terminal state kCancelled).
  /// A no-op on already-terminal jobs; throws kNotFound on unknown ids.
  void cancel(const std::string& job_id);

  /// Counters, plus the gauges derived now: jobs_active, queue_depth and
  /// workers_busy under the mutex, spool_bytes from one walk of the spool
  /// made without it, minor_faults from getrusage and the two RSS figures
  /// from /proc/self/status.  Jobs are frequent and reads are rare, so no
  /// job pays for a gauge.
  DaemonStats stats() const;

  /// Readiness probe: spool writability (a real probe write through the
  /// fault-checked path), worker liveness, and queue depth vs capacity.
  DaemonHealth health() const;

  /// The full registry — counters, gauges, latency histograms — rendered in
  /// Prometheus text exposition format under the `gsnpd_` prefix (served by
  /// the `metrics` protocol op; see obs/prometheus.hpp).  The gauges are
  /// derived first, as stats() derives them.
  std::string prometheus_text() const;

  /// Scan the spool for jobs journaled by a previous daemon: terminal jobs
  /// become queryable history; incomplete jobs (queued/running/interrupted)
  /// are re-admitted with resume semantics — their manifests are read back,
  /// completed chromosomes re-verify by CRC-32 and are skipped, the rest
  /// run.  Recovery bypasses admission limits (the work was already
  /// admitted once).  The spool is scrubbed first (fsck, repairing; see
  /// fsck.hpp), so resume decisions are made against a verified spool
  /// instead of crash litter; the report is kept in last_fsck().  Returns
  /// the number of jobs resumed.
  std::size_t recover();

  /// The scrub report from the last recover() (empty before the first).
  const FsckReport& last_fsck() const { return last_fsck_; }

  /// Block until a job reaches a terminal state.  finalize settles a job
  /// and makes its terminal writes under one hold of the mutex, so a
  /// stats() after this sees them.  Returns false on timeout (timeout < 0 =
  /// wait forever).  Throws kNotFound for unknown ids.
  bool wait_job(const std::string& job_id, double timeout_seconds = -1.0);
  /// Block until no unfinished jobs remain.
  void wait_idle();

  /// Test-only crash switch: from this instant the daemon stops journaling
  /// and finalizing (as if the process died) — queued work is dropped, the
  /// destructor skips the graceful-shutdown journal writes.  The spool is
  /// left exactly as a real crash would, for a successor daemon's recover().
  void simulate_crash();

  /// Live metrics registry (job counters, latency histograms); the source
  /// the status verbs serve from.  Its gauges are set only when
  /// prometheus_text() derives them, so read the gauges from stats().
  obs::Metrics& metrics() { return metrics_; }
  const DaemonConfig& config() const { return config_; }

 private:
  struct Job;

  std::string admit_locked(JobSpec&& spec, bool resume);
  void run_chromosome(const std::shared_ptr<Job>& job, std::size_t index);
  void run_chromosome_task(const std::shared_ptr<Job>& job, std::size_t index);
  void record_entry(const std::shared_ptr<Job>& job, std::size_t index,
                    core::ManifestEntry entry);
  void chromosome_finished(const std::shared_ptr<Job>& job);
  void finalize(Job& job);
  void flush_manifest_locked(Job& job);
  void write_job_journal(const Job& job);
  core::GenomeRunConfig job_run_config(const Job& job);
  JobStatus status_locked(const Job& job) const;
  device::Device& worker_device();
  void watchdog_loop();
  /// Append to the event log; silent (counted) on storage failure, no-op
  /// after simulate_crash() or when the log is disabled.
  void log_event(obs::JobEvent event);
  /// The spool's size now: one walk summing its regular files, skipping
  /// any that vanish mid-walk.  Its cost grows with the jobs the spool
  /// keeps, so only the stats() and prometheus_text() readers pay it, and
  /// they walk without mu_.
  u64 walk_spool_bytes() const;

  DaemonConfig config_;
  /// Mutable: prometheus_text() refreshes the gauges before it renders.
  mutable obs::Metrics metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::vector<std::string> job_order_;  ///< submission order, for jobs()
  std::size_t active_jobs_ = 0;
  std::size_t pending_tasks_ = 0;  ///< chromosome tasks enqueued, not started
  std::size_t busy_workers_ = 0;   ///< workers inside run_chromosome
  std::map<std::string, std::size_t> tenant_active_;
  u64 next_job_number_ = 1;
  bool shutting_down_ = false;
  std::atomic<bool> crashed_{false};
  FsckReport last_fsck_;  ///< written by recover() before jobs re-admit

  std::unique_ptr<obs::EventLog> events_;  ///< null when unopenable

  std::vector<std::unique_ptr<device::Device>> devices_;
  std::atomic<std::size_t> next_worker_slot_{0};

  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};

  /// Workers last: the pool's destructor drains before members it uses die.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace gsnp::service
