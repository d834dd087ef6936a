#include "src/core/genome_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/atomic_file.hpp"
#include "src/common/crc32.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/obs/trace.hpp"

namespace gsnp::core {

std::vector<double> backoff_sequence(const RetryPolicy& policy, u64 salt) {
  std::vector<double> sleeps;
  const int retries = std::max(1, policy.max_attempts) - 1;
  if (retries <= 0) return sleeps;
  sleeps.reserve(static_cast<size_t>(retries));
  Rng rng(policy.jitter_seed ^ salt);
  const double fraction = std::clamp(policy.jitter_fraction, 0.0, 1.0);
  double base = policy.backoff_seconds;
  for (int k = 0; k < retries; ++k) {
    double capped = std::min(base, policy.backoff_cap_seconds);
    if (capped < 0.0) capped = 0.0;
    double sleep = capped;
    if (fraction > 0.0 && capped > 0.0)
      sleep = capped * (1.0 - fraction * rng.uniform_double());
    sleeps.push_back(sleep);
    base *= policy.backoff_multiplier;
  }
  return sleeps;
}

namespace {

RunReport run_engine(const EngineConfig& config, EngineKind kind,
                     device::Device* dev) {
  // Registry dispatch: the backend's capability flags replace the old
  // hard-coded switch here.
  return run_backend(backend_info(kind), config, dev);
}

/// Can a previously recorded chromosome be skipped on resume?  Requires a
/// "done" manifest entry for the same requested engine whose output file
/// still exists and matches the recorded CRC-32 (a torn or tampered output
/// is re-run, not trusted).
bool verified_done(const ManifestEntry* entry, EngineKind kind,
                   const std::filesystem::path& output) {
  if (entry == nullptr || entry->status != "done") return false;
  if (entry->requested != engine_name(kind)) return false;
  if (!std::filesystem::exists(output)) return false;
  return crc32_file(output) == entry->output_crc32;
}

/// FNV-1a over "<run_id>:<chromosome>": the jitter salt, so each (job,
/// chromosome) pair draws its own deterministic backoff stream.
u64 jitter_salt(const std::string& run_id, const std::string& chromosome) {
  u64 h = 1469598103934665603ULL;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  mix(run_id);
  mix(":");
  mix(chromosome);
  return h;
}

/// Sleep `seconds` in small slices so a cancellation lands within ~50 ms
/// instead of waiting out a long backoff.
void sleep_with_cancel(double seconds, const CancelToken* cancel) {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    check_cancel(cancel, "backoff");
    const auto now = clock::now();
    if (now >= deadline) break;
    std::this_thread::sleep_for(std::min<clock::duration>(
        deadline - now, std::chrono::milliseconds(50)));
  }
}

}  // namespace

ChromosomeRunResult run_one_chromosome(const GenomeRunConfig& config,
                                       EngineKind kind, device::Device* dev,
                                       const ChromosomeJob& job,
                                       const RunManifest* previous) {
  GSNP_CHECK_MSG(job.reference != nullptr,
                 "chromosome " << job.name << " has no reference");
  const BackendInfo& backend = backend_info(kind);
  GSNP_CHECK_MSG(!backend.needs_device || dev != nullptr,
                 "the " << backend.name << " backend needs a device");
  check_cancel(config.cancel, "chromosome");

  const bool text_output = backend.text_output;
  const std::string output_name =
      job.name + "." + engine_name(kind) + (text_output ? ".txt" : ".snp");

  ChromosomeRunResult result;
  result.output_path = config.output_dir / output_name;
  ChromosomeStatus& status = result.status;
  status.name = job.name;
  status.requested = kind;
  status.used = kind;

  obs::Tracer* const tracer = config.tracer;
  // One span per chromosome: the failure-isolation unit.  Engine stage
  // spans nest inside; the notes record what fault handling did.
  obs::Tracer::Scope chrom_span(tracer, "chromosome:" + job.name, "pipeline");
  chrom_span.note("requested", engine_name(kind));
  if (config.overlapped) chrom_span.note("overlapped", "true");

  // -- resume: skip chromosomes whose recorded output still verifies.
  if (config.resume && previous != nullptr &&
      verified_done(previous->find(job.name), kind, result.output_path)) {
    const ManifestEntry& done = *previous->find(job.name);
    status.resumed = true;
    chrom_span.note("resumed", "true");
    status.used = engine_kind_from_name(done.engine).value_or(kind);
    status.degraded = done.degraded;
    status.output_crc = done.output_crc32;
    status.ingest = done.ingest;
    result.entry = done;
    return result;
  }

  // -- run, retrying device faults, into an atomically published .part.
  // Scratch artifacts (quarantine sidecar, temp input, .part staging) are
  // namespaced by run_id so concurrent jobs sharing output_dir never write
  // into each other's files; the published output name is shared on purpose
  // (identical results must rename onto identical paths).
  const std::string prefix =
      config.run_id.empty() ? std::string() : config.run_id + ".";
  EngineConfig engine_config;
  engine_config.alignment_file = job.alignment_file;
  engine_config.reference = job.reference;
  engine_config.dbsnp = job.dbsnp;
  engine_config.window_size = config.window_size;
  engine_config.overlapped = config.overlapped;
  engine_config.batch_bytes = config.batch_bytes;
  engine_config.ingest = config.ingest;
  if (engine_config.ingest.lenient() &&
      engine_config.ingest.quarantine_file.empty())
    engine_config.ingest.quarantine_file =
        config.output_dir / (prefix + job.name + ".quarantine.txt");
  engine_config.temp_file =
      config.output_dir /
      (prefix + job.name + "." + engine_name(kind) + ".tmp");
  engine_config.output_file = config.output_dir / (prefix + output_name + ".part");
  engine_config.tracer = tracer;
  engine_config.cancel = config.cancel;

  RunReport run;
  bool succeeded = false;
  std::exception_ptr last_fault;
  const int max_attempts = std::max(1, config.retry.max_attempts);
  const std::vector<double> sleeps =
      backoff_sequence(config.retry, jitter_salt(config.run_id, job.name));
  try {
    for (int attempt = 1; attempt <= max_attempts && !succeeded; ++attempt) {
      check_cancel(config.cancel, "attempt");
      ++status.attempts;
      {
        obs::Tracer::Scope attempt_span(tracer, "attempt", "pipeline");
        attempt_span.note("attempt", std::to_string(attempt));
        try {
          run = run_engine(engine_config, kind, dev);
          succeeded = true;
          attempt_span.note("outcome", "ok");
        } catch (const device::DeviceFaultError& fault) {
          // Transient or persistent device trouble: retry; anything else
          // (corrupt input, broken invariants) propagates immediately.
          status.error = fault.what();
          last_fault = std::current_exception();
          attempt_span.note("outcome", "device_fault");
          if (tracer) tracer->metrics().add("device_faults");
        } catch (const FsFaultError& fault) {
          // Storage trouble (ENOSPC/EIO/short write) while staging the
          // container or temp file is as retryable as a device fault: the
          // next attempt reopens the `.part` truncated, so a torn prefix
          // never leaks into the retry.
          status.error = fault.what();
          last_fault = std::current_exception();
          attempt_span.note("outcome", "storage_fault");
          if (tracer) tracer->metrics().add("storage_faults");
        }
      }
      // Backoff sleeps outside the attempt span: idle time is not work.
      if (!succeeded && attempt < max_attempts) {
        const double pause = sleeps[static_cast<size_t>(attempt - 1)];
        if (pause > 0.0) sleep_with_cancel(pause, config.cancel);
      }
    }

    // -- graceful degradation: the GSNP algorithm without the GPU produces
    // the same bytes (§IV-G), so a persistently faulty device costs speed,
    // not the run.
    if (!succeeded && kind == EngineKind::kGsnp &&
        config.retry.allow_cpu_fallback) {
      ++status.attempts;
      obs::Tracer::Scope fallback_span(tracer, "attempt", "pipeline");
      fallback_span.note("attempt", std::to_string(status.attempts));
      try {
        run = run_engine(engine_config, EngineKind::kGsnpCpu, nullptr);
        succeeded = true;
        status.degraded = true;
        status.used = EngineKind::kGsnpCpu;
        fallback_span.note("outcome", "degraded_to_cpu");
        if (tracer) tracer->metrics().add("chromosomes_degraded");
      } catch (const FsFaultError& fault) {
        // A disk that keeps failing fails the CPU path too; report it as the
        // chromosome's failure instead of letting it escape unjournaled.
        status.error = fault.what();
        last_fault = std::current_exception();
        fallback_span.note("outcome", "storage_fault");
        if (tracer) tracer->metrics().add("storage_faults");
      }
    }
  } catch (const CancelledError&) {
    // Clean unwind: discard the torn staging output so an interrupt never
    // leaves `.part` litter (the engine removed its temp input); published
    // outputs are untouched and the caller journals the interruption before
    // rethrowing.
    std::error_code ec;
    std::filesystem::remove(engine_config.output_file, ec);
    chrom_span.note("outcome", "cancelled");
    throw;
  }

  if (!succeeded) {
    // Report the failure as data so the caller journals it before the fault
    // surfaces — a later resume run picks up right here.
    ManifestEntry& entry = result.entry;
    entry.name = job.name;
    entry.status = "failed";
    entry.requested = engine_name(kind);
    entry.engine = engine_name(kind);
    entry.attempts = status.attempts;
    entry.output = output_name;
    entry.sites = job.reference->size();
    entry.error = status.error;
    chrom_span.note("outcome", "failed");
    result.fault = last_fault;
    return result;
  }

  // Durability checkpoints: a hook that throws here models the process
  // dying with the `.part` complete ("pre_publish") or with the output
  // renamed but not yet journaled ("post_publish").
  if (config.checkpoint_hook) config.checkpoint_hook("pre_publish", job.name);
  {
    // Publish gets its own short retry: a failed fsync or torn rename
    // leaves the complete `.part` staged, so trying again risks no engine
    // work.  Exhaustion reports the chromosome failed with the `.part`
    // intact for fsck/resume.
    const std::vector<double> publish_sleeps = backoff_sequence(
        config.retry, jitter_salt(config.run_id, job.name + "/publish"));
    for (int attempt = 1;; ++attempt) {
      try {
        atomic_publish(engine_config.output_file, result.output_path);
        break;
      } catch (const FsFaultError& fault) {
        status.error = fault.what();
        if (tracer) tracer->metrics().add("storage_faults");
        if (attempt >= max_attempts) {
          ManifestEntry& entry = result.entry;
          entry.name = job.name;
          entry.status = "failed";
          entry.requested = engine_name(kind);
          entry.engine = engine_name(status.used);
          entry.attempts = status.attempts;
          entry.output = output_name;
          entry.sites = job.reference->size();
          entry.error = status.error;
          chrom_span.note("outcome", "publish_failed");
          result.fault = std::current_exception();
          return result;
        }
        const std::size_t sleep_index = static_cast<std::size_t>(
            std::min<int>(attempt - 1,
                          static_cast<int>(publish_sleeps.size()) - 1));
        if (!publish_sleeps.empty() && publish_sleeps[sleep_index] > 0.0)
          sleep_with_cancel(publish_sleeps[sleep_index], config.cancel);
      }
    }
  }
  if (config.checkpoint_hook) config.checkpoint_hook("post_publish", job.name);

  status.output_crc = crc32_file(result.output_path);
  status.ingest = run.ingest;

  ManifestEntry& entry = result.entry;
  entry.name = job.name;
  entry.status = "done";
  entry.requested = engine_name(kind);
  entry.engine = engine_name(status.used);
  entry.degraded = status.degraded;
  entry.attempts = status.attempts;
  entry.output = output_name;
  entry.output_bytes = run.output_bytes;
  entry.output_crc32 = status.output_crc;
  entry.sites = run.sites;
  entry.error = status.error;
  entry.ingest = run.ingest;

  chrom_span.note("engine", engine_name(status.used));
  chrom_span.note("attempts", std::to_string(status.attempts));
  if (status.degraded) chrom_span.note("degraded", "true");
  if (tracer) tracer->metrics().add("chromosomes");
  result.run = std::move(run);
  return result;
}

GenomeReport run_genome(const GenomeRunConfig& config, EngineKind kind,
                        device::Device* dev) {
  GSNP_CHECK_MSG(!backend_info(kind).needs_device || dev != nullptr,
                 "the " << backend_info(kind).name << " backend needs a device");
  std::filesystem::create_directories(config.output_dir);
  const std::filesystem::path manifest_path =
      config.manifest_file.empty() ? config.output_dir / "manifest.json"
                                   : config.manifest_file;

  RunManifest previous;
  if (config.resume && std::filesystem::exists(manifest_path))
    previous = read_run_manifest(manifest_path);

  RunManifest manifest;
  manifest.engine = engine_name(kind);

  GenomeReport report;
  report.manifest_file = manifest_path;
  obs::Tracer* const tracer = config.tracer;
  u64 computed_sites = 0;  // sites of the chromosomes in report.wall_seconds

  // Exports are published on every exit path — a fatal fault still leaves
  // the spans collected so far on disk for post-mortems.  The manifest
  // records where they went.
  const auto publish_observability = [&](RunManifest& m) {
    if (tracer == nullptr) return;
    if (!config.trace_file.empty()) {
      obs::write_chrome_trace(config.trace_file, *tracer);
      m.trace_file = config.trace_file.string();
    }
    if (!config.metrics_file.empty()) {
      obs::write_metrics_json(config.metrics_file, *tracer);
      m.metrics_file = config.metrics_file.string();
    }
  };

  for (const ChromosomeJob& job : config.chromosomes) {
    ChromosomeRunResult r;
    try {
      r = run_one_chromosome(config, kind, dev, job,
                             config.resume ? &previous : nullptr);
    } catch (const CancelledError& cancelled) {
      // Journal the interruption (status "interrupted" never verifies as
      // done, so a resume run re-executes this chromosome) and flush what
      // completed before unwinding.
      ManifestEntry entry;
      entry.name = job.name;
      entry.status = "interrupted";
      entry.requested = engine_name(kind);
      entry.engine = engine_name(kind);
      entry.output = job.name + "." + engine_name(kind) +
                     (backend_info(kind).text_output ? ".txt" : ".snp");
      entry.error = cancelled.what();
      manifest.chromosomes.push_back(std::move(entry));
      publish_observability(manifest);
      write_run_manifest(manifest_path, manifest);
      throw;
    }

    manifest.chromosomes.push_back(r.entry);
    if (r.fault != nullptr) {
      // Record the failure so a later --resume run picks up right here,
      // then surface the device fault to the caller.
      publish_observability(manifest);
      write_run_manifest(manifest_path, manifest);
      std::rethrow_exception(r.fault);
    }
    write_run_manifest(manifest_path, manifest);

    report.total_ingest.merge(r.status.ingest);
    report.total_sites += r.entry.sites;
    report.total_output_bytes += r.entry.output_bytes;
    if (!r.status.resumed) {
      report.total_seconds += r.run.total();
      report.wall_seconds += r.run.wall_seconds;
      computed_sites += r.run.sites;
    }
    report.output_files.push_back(std::move(r.output_path));
    report.per_chromosome.push_back(std::move(r.run));
    report.statuses.push_back(std::move(r.status));
  }

  if (tracer) {
    tracer->metrics().set_gauge("genome_total_seconds", report.total_seconds);
    if (report.wall_seconds > 0.0)
      tracer->metrics().set_gauge(
          "genome_sites_per_sec",
          static_cast<double>(computed_sites) / report.wall_seconds);
    publish_observability(manifest);
    if (!manifest.trace_file.empty() || !manifest.metrics_file.empty())
      write_run_manifest(manifest_path, manifest);
  }
  return report;
}

}  // namespace gsnp::core
