#pragma once
// Whole-genome driver: runs an engine over many chromosomes (the paper's
// production setting — 24 per-chromosome alignment files processed in
// sequence, Fig 12) and aggregates the per-component reports.
//
// Fault tolerance: each chromosome is a failure-isolation unit.  Device
// faults (device::DeviceFaultError, including injected and real OOM) are
// retried per RetryPolicy with seeded-jitter exponential backoff; when they
// persist, the kGsnp engine degrades to kGsnpCpu for that chromosome —
// bit-exact by the paper's §IV-G consistency guarantee, so degraded output
// files are byte-identical to GPU ones.  Outputs are published atomically
// (write `.part`, fsync, rename) and a JSON manifest records per-chromosome
// status + output CRC-32 after every chromosome, enabling `resume` to skip
// verified completed chromosomes after an aborted run.
//
// The per-chromosome body is exposed as run_one_chromosome() so the gsnpd
// service (src/service) can shard one job's chromosomes across a worker
// pool while keeping retry/degradation/publish/journal semantics identical
// to the serial driver.

#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/cancel.hpp"
#include "src/core/backend.hpp"
#include "src/core/engine.hpp"
#include "src/core/run_manifest.hpp"

namespace gsnp::core {
// EngineKind, engine_name and engine_kind_from_name moved to
// core/backend.hpp (the registry); included above so existing users keep
// compiling.

/// One chromosome's inputs; outputs are derived from `name` under the run's
/// output directory.
struct ChromosomeJob {
  std::string name;
  std::filesystem::path alignment_file;
  const genome::Reference* reference = nullptr;
  const genome::DbSnpTable* dbsnp = nullptr;
};

/// Per-chromosome retry/degradation policy for device faults.
///
/// Backoff before retry k (0-based) is
///   base_k = min(backoff_cap_seconds, backoff_seconds * multiplier^k)
/// jittered down into [base_k * (1 - jitter_fraction), base_k] by a
/// deterministic draw from xoshiro(jitter_seed ^ salt) — concurrent workers
/// salted differently (the service salts by job and chromosome) desynchronize
/// instead of retrying in lockstep against a recovering device, while any
/// fixed (policy, salt) pair always sleeps the exact same sequence
/// (reproducible chaos runs).  jitter_fraction = 0 restores plain
/// exponential backoff.
struct RetryPolicy {
  int max_attempts = 2;             ///< engine attempts before giving up
  double backoff_seconds = 0.0;     ///< sleep before the first retry
  double backoff_multiplier = 2.0;  ///< growth factor per subsequent retry
  double backoff_cap_seconds = 30.0;  ///< ceiling for any single sleep
  double jitter_fraction = 0.0;     ///< in [0,1]: spread below the base sleep
  u64 jitter_seed = 0x5EED;         ///< deterministic jitter stream seed
  bool allow_cpu_fallback = true;   ///< degrade kGsnp -> kGsnpCpu on failure
};

/// The exact sleep sequence a retry loop under `policy` executes: element k
/// is the pause before retry k (so size == max(0, max_attempts - 1)).
/// Deterministic in (policy, salt); see RetryPolicy for the formula.
std::vector<double> backoff_sequence(const RetryPolicy& policy, u64 salt = 0);

struct GenomeRunConfig {
  std::vector<ChromosomeJob> chromosomes;
  std::filesystem::path output_dir;
  u32 window_size = 0;  ///< 0 = engine default
  PriorParams prior;
  /// Overlapped-pipeline knobs, passed through to every chromosome's
  /// EngineConfig (see there): streams <= 1 = serial reference path,
  /// streams >= 2 = double-buffered pipeline.  Output is byte-identical
  /// either way.
  u32 streams = 1;
  u32 pipeline_depth = 2;
  u32 host_threads = 2;
  /// Depth-aware batching budget in device bytes, passed through to every
  /// chromosome's EngineConfig (see there).  0 = off (fixed windows).
  u64 batch_bytes = 0;
  RetryPolicy retry;
  /// Malformed-input handling for every chromosome's alignment file.  In
  /// lenient mode with no quarantine_file set, each chromosome defaults to
  /// its own `<output_dir>/[<run_id>.]<name>.quarantine.txt` sidecar.
  IngestPolicy ingest;
  /// Skip chromosomes recorded as done in the manifest whose output files
  /// verify against the recorded CRC-32 (checkpoint/resume).
  bool resume = false;
  /// Manifest location; empty = `<output_dir>/manifest.json`.
  std::filesystem::path manifest_file;

  /// Namespace for per-chromosome scratch/sidecar files when several runs
  /// share one output_dir (concurrent service jobs): non-empty run_id
  /// prefixes the default quarantine sidecar, the temp input, and the
  /// `.part` staging name with "<run_id>." so two jobs can never interleave
  /// writes into the same sidecar.  Published output names (and therefore
  /// manifest digests) are unaffected.
  std::string run_id;

  /// Optional cooperative cancellation (deadlines, SIGINT, shutdown): polled
  /// at chromosome/attempt boundaries, inside backoff sleeps (sliced), and
  /// at every engine window.  On cancellation the pipeline removes the torn
  /// `.part`/temp files of the in-flight chromosome, records it as
  /// "interrupted" in the manifest, and rethrows CancelledError — completed
  /// chromosomes stay published and verified, so `resume` picks up exactly
  /// where the run stopped.
  const CancelToken* cancel = nullptr;

  /// Test/chaos hook invoked at named durability checkpoints of each
  /// chromosome: "pre_publish" (output computed, `.part` complete, rename
  /// not yet done) and "post_publish" (output renamed into place, manifest
  /// entry not yet written).  A hook that throws simulates the process
  /// dying at that instant — the crash-recovery tests drive exactly-once
  /// resume semantics through it.  Null = no checkpoints.
  std::function<void(std::string_view point, const std::string& chromosome)>
      checkpoint_hook;

  /// Optional tracing (src/obs): when non-null, the run emits one
  /// "pipeline"-category span per chromosome (annotated with attempts,
  /// retries, degradation and resume outcomes) around the engine's own stage
  /// spans.  `trace_file` / `metrics_file` select exports written when the
  /// run finishes — or before a fatal fault is rethrown, so aborted runs
  /// leave a trace for post-mortems; both paths are recorded in the manifest.
  obs::Tracer* tracer = nullptr;
  std::filesystem::path trace_file;    ///< Chrome trace_event JSON
  std::filesystem::path metrics_file;  ///< compact metrics JSON
};

/// What happened to one chromosome (mirrors its manifest entry).
struct ChromosomeStatus {
  std::string name;
  EngineKind requested{};
  EngineKind used{};
  int attempts = 0;      ///< engine attempts consumed (0 when resumed)
  bool degraded = false; ///< fell back from kGsnp to kGsnpCpu
  bool resumed = false;  ///< skipped: manifest + CRC verified a previous run
  u32 output_crc = 0;    ///< CRC-32 of the published output file
  std::string error;     ///< last fault message when retries/fallback fired
  /// Ingest outcome for this chromosome's alignment file (restored from the
  /// manifest when resumed).
  IngestStats ingest;
};

/// Outcome of one chromosome processed as an isolated unit of work (what the
/// service's worker pool executes).  `entry` is ready for the manifest;
/// `fault` is non-null exactly when entry.status == "failed" (retries
/// exhausted, fallback unavailable) so the caller journals first and
/// rethrows after.
struct ChromosomeRunResult {
  ChromosomeStatus status;
  ManifestEntry entry;
  RunReport run;  ///< default-constructed when resumed
  std::filesystem::path output_path;
  std::exception_ptr fault;
};

/// Run a single chromosome under `config`'s policies: resume verification
/// against `previous` (may be null), retry with jittered backoff, CPU
/// degradation, atomic output publish, checkpoint hooks.  Throws
/// CancelledError on cancellation (after removing the torn `.part`/temp);
/// non-device errors (corrupt input, broken invariants) propagate directly.
/// Thread-safe across distinct chromosomes of one config provided each
/// worker uses its own Device.
ChromosomeRunResult run_one_chromosome(const GenomeRunConfig& config,
                                       EngineKind kind, device::Device* dev,
                                       const ChromosomeJob& job,
                                       const RunManifest* previous);

struct GenomeReport {
  std::vector<RunReport> per_chromosome;  ///< default-constructed if resumed
  std::vector<ChromosomeStatus> statuses;
  std::vector<std::filesystem::path> output_files;
  std::filesystem::path manifest_file;
  double total_seconds = 0.0;  ///< summed stage stopwatches (RunReport::total)
  /// Summed engine-call wall time (RunReport::wall_seconds) of the
  /// chromosomes this run computed (resumed ones excluded).
  double wall_seconds = 0.0;
  u64 total_sites = 0;
  u64 total_output_bytes = 0;
  /// Aggregate ingest outcome across all chromosomes (resumed ones included,
  /// from their manifest entries).
  IngestStats total_ingest;

  bool any_degraded() const {
    for (const auto& s : statuses)
      if (s.degraded) return true;
    return false;
  }
};

/// Run `kind` over every chromosome.  For kGsnp a device must be supplied;
/// its counters accumulate across chromosomes (one card, many files — as in
/// production).  Output files land in config.output_dir as
/// <name>.<engine>.{txt,snp} — named after the *requested* engine even when
/// a chromosome degrades to the CPU engine (the streams are bit-identical).
/// Throws (after recording progress in the manifest) only when a chromosome
/// fails beyond retries with fallback unavailable or disabled, or when the
/// run is cancelled.
GenomeReport run_genome(const GenomeRunConfig& config, EngineKind kind,
                        device::Device* dev = nullptr);

}  // namespace gsnp::core
