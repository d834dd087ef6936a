// bench_smoke — the benchmark-baseline harness.
//
// Runs a small deterministic whole-genome pipeline (two synthetic
// chromosomes through the full GSNP engine, traced) and emits
// BENCH_pipeline.json: per-stage seconds (host + modeled device), device
// counters, sites/s throughput, and a REAL host seconds axis ("backends":
// the host sparse engine gsnp_cpu over the same dataset — total /
// likelihood / posterior host seconds, best of three repetitions).  The
// sweep asserts gsnp_cpu's outputs are byte-identical to the device
// engine's before timing them, so a speedup that breaks §IV-G cannot enter
// the baseline.
// The file is the regression baseline a reviewer diffs against when a PR
// claims (or risks) a performance change — scripts/bench_report regenerates
// it, scripts/verify.sh runs this binary and fails when the file is missing
// or malformed.
//
//   bench_smoke [--out FILE] [--workdir DIR]   run + write + self-validate
//   bench_smoke --validate FILE                schema-check an existing file
//   bench_smoke --check BASELINE --candidate FILE [--history F --sha SHA]
//               [--host-band X]                perf-regression sentinel:
//                                              exact compare of deterministic
//                                              counters, strict compare of
//                                              modeled seconds, loose compare
//                                              of host/wall timings within a
//                                              factor-of-X band (default 5);
//                                              on pass, append the candidate
//                                              to the history
//   bench_smoke --append-history FILE --from BENCH.json --sha SHA
//                                              append one history entry
//                                              (used to seed the trajectory)
//
// Exit codes: 0 ok, 1 validation/check failure, 2 usage.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/error.hpp"
#include "src/common/json.hpp"
#include "src/common/timer.hpp"
#include "src/core/backend.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/genome/synthetic.hpp"
#include "src/obs/trace.hpp"
#include "src/reads/alignment.hpp"
#include "src/reads/simulator.hpp"

namespace fs = std::filesystem;
using namespace gsnp;

namespace {

/// Deterministic two-chromosome dataset: big enough that every pipeline
/// stage, sort pass and compression call runs, small enough for CI.
struct Dataset {
  std::vector<genome::Reference> refs;
  std::vector<core::ChromosomeJob> jobs;
};

Dataset make_dataset(const fs::path& dir) {
  Dataset ds;
  const struct { const char* name; u64 length; u64 seed; } specs[] = {
      {"chrA", 50'000, 101}, {"chrB", 30'000, 202}};
  ds.refs.reserve(std::size(specs));
  for (const auto& s : specs) {
    genome::GenomeSpec gspec;
    gspec.name = s.name;
    gspec.length = s.length;
    gspec.seed = s.seed;
    ds.refs.push_back(genome::generate_reference(gspec));
    const genome::Reference& ref = ds.refs.back();

    genome::SnpPlantSpec pspec;
    pspec.seed = s.seed + 1;
    const genome::Diploid individual(ref, plant_snps(ref, pspec));
    reads::ReadSimSpec rspec;
    rspec.depth = 6.0;
    rspec.seed = s.seed + 2;
    const fs::path align = dir / (std::string(s.name) + ".soap");
    reads::write_alignment_file(align, reads::simulate_reads(individual, rspec));

    core::ChromosomeJob job;
    job.name = s.name;
    job.alignment_file = align;
    ds.jobs.push_back(std::move(job));
  }
  for (std::size_t i = 0; i < ds.refs.size(); ++i)
    ds.jobs[i].reference = &ds.refs[i];
  return ds;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The host backend timed under "backends" (its engine id).
constexpr const char* kHostBackend = "gsnp_cpu";

/// One host backend's measured real seconds over the bench dataset: the
/// best-of-N total host seconds plus its likelihood and posterior stages.
struct BackendBench {
  std::string id;
  double host_seconds = 0.0;
  double likeli_seconds = 0.0;
  double post_seconds = 0.0;
};

/// Run `kind` over the dataset `reps` times (fresh output dir each) and keep
/// per-metric minima — the standard noise filter for real timings.  Before
/// timing counts, the first repetition's output bytes must equal
/// `golden_bytes` (the device engine's outputs): the per-backend axis only
/// ever measures runs that uphold the bit-exactness contract.
BackendBench bench_backend(core::EngineKind kind, const Dataset& ds,
                           const fs::path& workdir,
                           const std::vector<std::string>& golden_bytes,
                           int reps) {
  BackendBench result;
  result.id = core::engine_name(kind);
  result.host_seconds = result.likeli_seconds = result.post_seconds = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    core::GenomeRunConfig config;
    config.chromosomes = ds.jobs;
    config.output_dir =
        workdir / ("bk_" + result.id + "_" + std::to_string(rep));
    const core::GenomeReport report = core::run_genome(config, kind);
    double host = 0.0, likeli = 0.0, post = 0.0;
    for (const core::RunReport& r : report.per_chromosome) {
      for (const auto& [name, sec] : r.host.entries()) host += sec;
      likeli += r.host.get("likeli");
      post += r.host.get("post");
    }
    result.host_seconds = std::min(result.host_seconds, host);
    result.likeli_seconds = std::min(result.likeli_seconds, likeli);
    result.post_seconds = std::min(result.post_seconds, post);
    if (rep == 0) {
      GSNP_CHECK_MSG(report.output_files.size() == golden_bytes.size(),
                     result.id << ": chromosome count mismatch");
      for (std::size_t c = 0; c < golden_bytes.size(); ++c)
        GSNP_CHECK_MSG(
            read_file_bytes(report.output_files[c]) == golden_bytes[c],
            result.id << ": output for chromosome " << c
                      << " is not byte-identical to the gsnp engine — "
                         "refusing to record timings for a backend that "
                         "breaks the bit-exactness contract");
    }
  }
  return result;
}

int validate(const fs::path& path) {
  try {
    std::ifstream in(path, std::ios::binary);
    GSNP_CHECK_MSG(in.good(), "cannot open " << path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const json::Value root = json::parse(buf.str());
    GSNP_CHECK_MSG(root.kind == json::Value::Kind::kObject,
                   "top level is not an object");
    GSNP_CHECK_MSG(json::get_string(root, "schema") == "gsnp-bench-pipeline",
                   "wrong schema tag");
    GSNP_CHECK_MSG(json::get_u64(root, "version") == 1, "unsupported version");
    GSNP_CHECK_MSG(json::get_u64(root, "sites") > 0, "sites must be > 0");
    GSNP_CHECK_MSG(json::get_u64(root, "windows") > 0, "windows must be > 0");
    GSNP_CHECK_MSG(json::get_number(root, "throughput_sites_per_sec") > 0.0,
                   "throughput must be > 0");
    GSNP_CHECK_MSG(json::get_number(root, "table_seconds") > 0.0,
                   "table_seconds must be > 0");

    const json::Value* stages = json::find(root, "stages");
    GSNP_CHECK_MSG(stages && stages->kind == json::Value::Kind::kObject,
                   "'stages' object missing");
    for (const char* name : core::kComponents) {
      const json::Value* stage = json::find(*stages, name);
      GSNP_CHECK_MSG(stage != nullptr, "stage '" << name << "' missing");
      GSNP_CHECK_MSG(json::get_number(*stage, "seconds") >= 0.0,
                     "stage '" << name << "' has negative seconds");
      (void)json::get_number(*stage, "host_seconds");
      (void)json::get_number(*stage, "modeled_seconds");
    }

    const json::Value* backends = json::find(root, "backends");
    GSNP_CHECK_MSG(backends && backends->kind == json::Value::Kind::kObject,
                   "'backends' object missing");
    const json::Value* b = json::find(*backends, kHostBackend);
    GSNP_CHECK_MSG(b != nullptr, "backend '" << kHostBackend << "' missing");
    GSNP_CHECK_MSG(json::get_number(*b, "host_seconds") > 0.0,
                   "backend '" << kHostBackend << "' has no host seconds");
    GSNP_CHECK_MSG(json::get_number(*b, "likeli_seconds") >= 0.0,
                   "backend '" << kHostBackend << "' likeli_seconds negative");
    GSNP_CHECK_MSG(json::get_number(*b, "post_seconds") >= 0.0,
                   "backend '" << kHostBackend << "' post_seconds negative");

    const json::Value* dev = json::find(root, "device");
    GSNP_CHECK_MSG(dev && dev->kind == json::Value::Kind::kObject,
                   "'device' object missing");
    GSNP_CHECK_MSG(json::get_u64(*dev, "instructions") > 0,
                   "device ran no instructions");
    GSNP_CHECK_MSG(json::get_u64(*dev, "kernel_launches") > 0,
                   "device launched no kernels");
    (void)json::get_u64(*dev, "h2d_bytes");
    (void)json::get_u64(*dev, "d2h_bytes");
    (void)json::get_u64(*dev, "peak_global_bytes");

    const json::Value* batcher = json::find(root, "batcher");
    GSNP_CHECK_MSG(batcher && batcher->kind == json::Value::Kind::kObject,
                   "'batcher' object missing");
    const u64 budget = json::get_u64(*batcher, "batch_bytes");
    GSNP_CHECK_MSG(budget > 0, "batcher.batch_bytes must be > 0");
    GSNP_CHECK_MSG(json::get_u64(*batcher, "batches") >
                       json::get_u64(*batcher, "windows_planned"),
                   "batcher pass did not split windows");
    const u64 planned = json::get_u64(*batcher, "planned_peak_bytes");
    GSNP_CHECK_MSG(planned > 0 && planned <= budget,
                   "batcher.planned_peak_bytes " << planned
                                                 << " outside (0, budget]");
    const u64 actual = json::get_u64(*batcher, "actual_peak_bytes");
    GSNP_CHECK_MSG(actual > 0 && actual <= budget,
                   "batcher.actual_peak_bytes " << actual
                                                << " outside (0, budget]");
    (void)json::get_u64(*batcher, "min_batch_sites");
    (void)json::get_u64(*batcher, "max_batch_sites");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_smoke: %s is invalid: %s\n",
                 path.string().c_str(), e.what());
    return 1;
  }
  std::printf("bench_smoke: %s is schema-valid\n", path.string().c_str());
  return 0;
}

json::Value load_json(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value root = json::parse(buf.str());
  GSNP_CHECK_MSG(root.kind == json::Value::Kind::kObject,
                 "top level is not an object in " << path);
  GSNP_CHECK_MSG(json::get_string(root, "schema") == "gsnp-bench-pipeline",
                 "wrong schema tag in " << path);
  GSNP_CHECK_MSG(json::get_u64(root, "version") == 1,
                 "unsupported version in " << path);
  return root;
}

/// Append one line to the bench trajectory (never rewrites existing lines).
/// `sha` is passed in by scripts/bench_report — the binary itself never
/// shells out to git.
int append_history(const fs::path& hist, const fs::path& from,
                   const std::string& sha, double host_band) {
  const json::Value root = load_json(from);
  const json::Value* dev = json::find(root, "device");
  GSNP_CHECK_MSG(dev != nullptr, "'device' object missing in " << from);
  const json::Value* backends = json::find(root, "backends");
  GSNP_CHECK_MSG(backends != nullptr, "'backends' object missing in " << from);
  std::ofstream os(hist, std::ios::binary | std::ios::app);
  GSNP_CHECK_MSG(os.good(), "cannot append to " << hist);
  os << "{\"schema\": \"gsnp-bench-history\", \"version\": 1, \"git_sha\": ";
  json::write_escaped(os, sha);
  os << ", \"sites\": " << json::get_u64(root, "sites")
     << ", \"windows\": " << json::get_u64(root, "windows")
     << ", \"records\": " << json::get_u64(root, "records")
     << ", \"output_bytes\": " << json::get_u64(root, "output_bytes")
     << ", \"wall_seconds\": " << fmt(json::get_number(root, "wall_seconds"))
     << ", \"table_seconds\": " << fmt(json::get_number(root, "table_seconds"))
     << ", \"throughput_sites_per_sec\": "
     << fmt(json::get_number(root, "throughput_sites_per_sec"))
     << ", \"instructions\": " << json::get_u64(*dev, "instructions")
     << ", \"global_loads\": " << json::get_u64(*dev, "global_loads")
     << ", \"global_stores\": " << json::get_u64(*dev, "global_stores")
     << ", \"shared_loads\": " << json::get_u64(*dev, "shared_loads")
     << ", \"shared_stores\": " << json::get_u64(*dev, "shared_stores")
     << ", \"h2d_bytes\": " << json::get_u64(*dev, "h2d_bytes")
     << ", \"d2h_bytes\": " << json::get_u64(*dev, "d2h_bytes")
     << ", \"kernel_launches\": " << json::get_u64(*dev, "kernel_launches")
     << ", \"peak_global_bytes\": " << json::get_u64(*dev, "peak_global_bytes");
  const json::Value* bat = json::find(root, "batcher");
  GSNP_CHECK_MSG(bat != nullptr, "'batcher' object missing in " << from);
  os << ", \"batcher\": {\"batch_bytes\": "
     << json::get_u64(*bat, "batch_bytes")
     << ", \"batches\": " << json::get_u64(*bat, "batches")
     << ", \"planned_peak_bytes\": "
     << json::get_u64(*bat, "planned_peak_bytes")
     << ", \"actual_peak_bytes\": "
     << json::get_u64(*bat, "actual_peak_bytes") << "}";
  const json::Value* b = json::find(*backends, kHostBackend);
  GSNP_CHECK_MSG(b != nullptr,
                 "backend '" << kHostBackend << "' missing in " << from);
  os << ", \"backends\": {";
  json::write_escaped(os, kHostBackend);
  os << ": {\"host_seconds\": " << fmt(json::get_number(*b, "host_seconds"))
     << ", \"likeli_seconds\": " << fmt(json::get_number(*b, "likeli_seconds"))
     << ", \"post_seconds\": " << fmt(json::get_number(*b, "post_seconds"))
     << "}}, \"host_band\": " << fmt(host_band) << "}\n";
  os.flush();
  GSNP_CHECK_MSG(os.good(), "history append failed " << hist);
  std::printf("bench_smoke: appended %s (sha %s) to %s\n",
              from.string().c_str(), sha.c_str(), hist.string().c_str());
  return 0;
}

/// The regression sentinel.  Counters and dataset shape are deterministic
/// (seeded input, deterministic simulator), so they must match *exactly*;
/// modeled seconds derive linearly from counters, so they get only a float
/// round-off tolerance — never the loose band, which would let a real
/// modeled regression hide inside timing noise.  Host/wall seconds depend on
/// the machine and get the factor-of-`host_band` band (default 5x; widen on
/// loaded CI boxes with --host-band, the band used is recorded in each
/// history entry).  Every offending metric is named; all metrics are checked
/// before failing so one regression doesn't mask another.
int check(const fs::path& baseline_path, const fs::path& candidate_path,
          double host_band) {
  const json::Value base = load_json(baseline_path);
  const json::Value cand = load_json(candidate_path);

  int failures = 0;
  const auto fail = [&](const std::string& metric, const std::string& detail) {
    std::fprintf(stderr, "bench check FAILED: metric '%s': %s\n",
                 metric.c_str(), detail.c_str());
    failures++;
  };

  const auto exact_u64 = [&](const json::Value& a, const json::Value& b,
                             const std::string& metric, const char* key) {
    const u64 av = json::get_u64(a, key);
    const u64 bv = json::get_u64(b, key);
    if (av != bv) {
      std::ostringstream os;
      os << "baseline=" << av << " candidate=" << bv
         << " (deterministic counter, must match exactly)";
      fail(metric, os.str());
    }
  };
  // Modeled seconds: counters are exact, so only accumulation-order round-off
  // is tolerable.
  const auto tight = [&](double av, double bv, const std::string& metric) {
    const double tol = 1e-6 * std::max(std::abs(av), std::abs(bv)) + 1e-12;
    if (std::abs(av - bv) > tol) {
      std::ostringstream os;
      os << "baseline=" << fmt(av) << " candidate=" << fmt(bv)
         << " (modeled from deterministic counters; tolerance " << fmt(tol)
         << ")";
      fail(metric, os.str());
    }
  };
  // Host/wall timings: machine-dependent.  Accept anything within a factor
  // band or an absolute slack (tiny stages are all noise).
  const auto loose = [&](double av, double bv, const std::string& metric,
                         double factor, double slack) {
    if (std::abs(av - bv) <= slack) return;
    if (av > 0.0 && bv > 0.0 && bv <= av * factor && av <= bv * factor) return;
    std::ostringstream os;
    os << "baseline=" << fmt(av) << " candidate=" << fmt(bv)
       << " (outside x" << factor << " band and " << fmt(slack)
       << " absolute slack)";
    fail(metric, os.str());
  };

  for (const char* key :
       {"chromosomes", "sites", "windows", "records", "output_bytes"}) {
    exact_u64(base, cand, key, key);
  }

  const json::Value* bdev = json::find(base, "device");
  const json::Value* cdev = json::find(cand, "device");
  GSNP_CHECK_MSG(bdev && cdev, "'device' object missing");
  for (const char* key :
       {"instructions", "global_loads", "global_stores", "shared_loads",
        "shared_stores", "h2d_bytes", "d2h_bytes", "kernel_launches",
        "peak_global_bytes"}) {
    exact_u64(*bdev, *cdev, std::string("device.") + key, key);
  }

  // The batcher axis is fully deterministic: plan shape and the measured
  // serial-path watermark both derive from seeded input.
  const json::Value* bbat = json::find(base, "batcher");
  const json::Value* cbat = json::find(cand, "batcher");
  GSNP_CHECK_MSG(bbat && cbat, "'batcher' object missing");
  for (const char* key :
       {"batch_bytes", "batches", "windows_planned", "min_batch_sites",
        "max_batch_sites", "planned_peak_bytes", "actual_peak_bytes"}) {
    exact_u64(*bbat, *cbat, std::string("batcher.") + key, key);
  }

  const json::Value* bstages = json::find(base, "stages");
  const json::Value* cstages = json::find(cand, "stages");
  GSNP_CHECK_MSG(bstages && cstages, "'stages' object missing");
  for (const char* name : core::kComponents) {
    const json::Value* bs = json::find(*bstages, name);
    const json::Value* cs = json::find(*cstages, name);
    if (bs == nullptr || cs == nullptr) {
      fail(std::string("stages.") + name, "missing stage entry");
      continue;
    }
    tight(json::get_number(*bs, "modeled_seconds"),
          json::get_number(*cs, "modeled_seconds"),
          std::string("stages.") + name + ".modeled_seconds");
    loose(json::get_number(*bs, "host_seconds"),
          json::get_number(*cs, "host_seconds"),
          std::string("stages.") + name + ".host_seconds", host_band, 0.05);
  }

  // The host backend's real seconds: machine-dependent, loose band only.
  // The byte-identity behind the entry was already enforced when the
  // candidate file was produced (bench_backend refuses divergent outputs).
  const json::Value* bback = json::find(base, "backends");
  const json::Value* cback = json::find(cand, "backends");
  GSNP_CHECK_MSG(bback && cback, "'backends' object missing");
  const json::Value* bb = json::find(*bback, kHostBackend);
  const json::Value* cb = json::find(*cback, kHostBackend);
  if (bb == nullptr || cb == nullptr) {
    fail(std::string("backends.") + kHostBackend, "missing backend entry");
  } else {
    for (const char* key : {"host_seconds", "likeli_seconds", "post_seconds"})
      loose(json::get_number(*bb, key), json::get_number(*cb, key),
            std::string("backends.") + kHostBackend + "." + key, host_band,
            0.05);
  }

  loose(json::get_number(base, "wall_seconds"),
        json::get_number(cand, "wall_seconds"), "wall_seconds", host_band,
        0.25);
  loose(json::get_number(base, "table_seconds"),
        json::get_number(cand, "table_seconds"), "table_seconds", host_band,
        0.25);
  loose(json::get_number(base, "throughput_sites_per_sec"),
        json::get_number(cand, "throughput_sites_per_sec"),
        "throughput_sites_per_sec", host_band, 0.0);

  if (failures > 0) {
    std::fprintf(stderr, "bench check: %d metric(s) out of tolerance (%s vs %s)\n",
                 failures, baseline_path.string().c_str(),
                 candidate_path.string().c_str());
    return 1;
  }
  std::printf("bench check OK: %s matches %s "
              "(counters exact, timings within tolerance)\n",
              candidate_path.string().c_str(), baseline_path.string().c_str());
  return 0;
}

int run(const fs::path& out, const fs::path& workdir) {
  fs::create_directories(workdir);
  const Dataset ds = make_dataset(workdir);

  obs::Tracer tracer;
  core::GenomeRunConfig config;
  config.chromosomes = ds.jobs;
  config.output_dir = workdir / "out";
  config.tracer = &tracer;
  config.trace_file = workdir / "trace.json";
  config.metrics_file = workdir / "metrics.json";

  device::Device dev;
  const Timer wall;
  const core::GenomeReport report =
      core::run_genome(config, core::EngineKind::kGsnp, &dev);
  const double wall_seconds = wall.seconds();

  // Per-stage totals aggregated across chromosomes, host and modeled split.
  StopwatchSet host, modeled;
  u64 windows = 0, records = 0;
  for (const core::RunReport& r : report.per_chromosome) {
    for (const auto& [name, sec] : r.host.entries()) host.add(name, sec);
    for (const auto& [name, sec] : r.device_modeled.entries())
      modeled.add(name, sec);
    windows += r.windows;
    records += r.records;
  }
  const double table_seconds = report.total_seconds;
  const double throughput =
      table_seconds > 0.0
          ? static_cast<double>(report.total_sites) / table_seconds
          : 0.0;
  const device::DeviceCounters& c = dev.counters();

  // Real host seconds: the host sparse engine over the same dataset,
  // byte-checked against the device engine's outputs.
  std::vector<std::string> golden_bytes;
  for (const fs::path& f : report.output_files)
    golden_bytes.push_back(read_file_bytes(f));
  const BackendBench host_backend = bench_backend(
      core::EngineKind::kGsnpCpu, ds, workdir, golden_bytes, 3);

  // Depth-aware batching axis: the device engine again under a byte budget
  // small enough to split every window, on its OWN device so the main run's
  // peak_global_bytes stays comparable across history.  Outputs must stay
  // byte-identical to the fixed-window run, and the measured per-batch
  // watermark must honor the budget — both are hard failures, not metrics.
  constexpr u64 kBatchBudget = u64{1} << 20;
  core::BatchStats batcher;
  {
    core::GenomeRunConfig bconfig;
    bconfig.chromosomes = ds.jobs;
    bconfig.output_dir = workdir / "out_batched";
    bconfig.batch_bytes = kBatchBudget;
    device::Device bdev;
    const core::GenomeReport breport =
        core::run_genome(bconfig, core::EngineKind::kGsnp, &bdev);
    GSNP_CHECK_MSG(breport.output_files.size() == golden_bytes.size(),
                   "batched gsnp: chromosome count mismatch");
    for (std::size_t i = 0; i < golden_bytes.size(); ++i)
      GSNP_CHECK_MSG(
          read_file_bytes(breport.output_files[i]) == golden_bytes[i],
          "batched gsnp: output for chromosome "
              << i << " is not byte-identical to the fixed-window run");
    for (const core::RunReport& r : breport.per_chromosome) {
      batcher.budget_bytes = r.batch.budget_bytes;
      batcher.batches += r.batch.batches;
      batcher.windows_planned += r.batch.windows_planned;
      if (r.batch.min_batch_sites != 0 &&
          (batcher.min_batch_sites == 0 ||
           r.batch.min_batch_sites < batcher.min_batch_sites))
        batcher.min_batch_sites = r.batch.min_batch_sites;
      batcher.max_batch_sites =
          std::max(batcher.max_batch_sites, r.batch.max_batch_sites);
      batcher.planned_peak_bytes =
          std::max(batcher.planned_peak_bytes, r.batch.planned_peak_bytes);
      batcher.actual_peak_bytes =
          std::max(batcher.actual_peak_bytes, r.batch.actual_peak_bytes);
    }
    GSNP_CHECK_MSG(batcher.actual_peak_bytes <= kBatchBudget,
                   "batched gsnp exceeded its byte budget: measured "
                       << batcher.actual_peak_bytes << " > " << kBatchBudget);
  }

  const fs::path tmp = out.string() + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    GSNP_CHECK_MSG(os.good(), "cannot write " << tmp);
    os << "{\n"
       << "  \"schema\": \"gsnp-bench-pipeline\",\n"
       << "  \"version\": 1,\n"
       << "  \"engine\": \"gsnp\",\n"
       << "  \"chromosomes\": " << report.statuses.size() << ",\n"
       << "  \"sites\": " << report.total_sites << ",\n"
       << "  \"windows\": " << windows << ",\n"
       << "  \"records\": " << records << ",\n"
       << "  \"output_bytes\": " << report.total_output_bytes << ",\n"
       << "  \"wall_seconds\": " << fmt(wall_seconds) << ",\n"
       << "  \"table_seconds\": " << fmt(table_seconds) << ",\n"
       << "  \"throughput_sites_per_sec\": " << fmt(throughput) << ",\n"
       << "  \"stages\": {";
    bool first = true;
    for (const char* name : core::kComponents) {
      const double h = host.get(name);
      const double m = modeled.get(name);
      os << (first ? "\n    " : ",\n    ");
      first = false;
      json::write_escaped(os, name);
      os << ": {\"seconds\": " << fmt(h + m) << ", \"host_seconds\": " << fmt(h)
         << ", \"modeled_seconds\": " << fmt(m) << "}";
    }
    os << "\n  },\n"
       << "  \"backends\": {\n    ";
    json::write_escaped(os, host_backend.id);
    os << ": {\"host_seconds\": " << fmt(host_backend.host_seconds)
       << ", \"likeli_seconds\": " << fmt(host_backend.likeli_seconds)
       << ", \"post_seconds\": " << fmt(host_backend.post_seconds) << "}"
       << "\n  },\n"
       << "  \"device\": {"
       << "\"instructions\": " << c.instructions
       << ", \"global_loads\": " << c.global_loads()
       << ", \"global_stores\": " << c.global_stores()
       << ", \"shared_loads\": " << c.shared_loads
       << ", \"shared_stores\": " << c.shared_stores
       << ", \"h2d_bytes\": " << c.h2d_bytes
       << ", \"d2h_bytes\": " << c.d2h_bytes
       << ", \"kernel_launches\": " << c.kernel_launches
       << ", \"peak_global_bytes\": " << dev.peak_allocated_bytes() << "},\n"
       << "  \"batcher\": {"
       << "\"batch_bytes\": " << batcher.budget_bytes
       << ", \"batches\": " << batcher.batches
       << ", \"windows_planned\": " << batcher.windows_planned
       << ", \"min_batch_sites\": " << batcher.min_batch_sites
       << ", \"max_batch_sites\": " << batcher.max_batch_sites
       << ", \"planned_peak_bytes\": " << batcher.planned_peak_bytes
       << ", \"actual_peak_bytes\": " << batcher.actual_peak_bytes << "}\n"
       << "}\n";
    os.flush();
    GSNP_CHECK_MSG(os.good(), "write failed " << tmp);
  }
  fs::rename(tmp, out);

  std::printf("%-8s %10s %10s %10s\n", "stage", "sec", "host", "modeled");
  for (const char* name : core::kComponents)
    std::printf("%-8s %10.4f %10.4f %10.4f\n", name,
                host.get(name) + modeled.get(name), host.get(name),
                modeled.get(name));
  std::printf("%-8s %10.4f   (%llu sites, %.0f sites/s, %zu spans)\n", "total",
              table_seconds, static_cast<unsigned long long>(report.total_sites),
              throughput, tracer.spans().size());
  std::printf("%-10s %10s %10s %10s\n", "backend", "host", "likeli", "post");
  std::printf("%-10s %10.4f %10.4f %10.4f\n", host_backend.id.c_str(),
              host_backend.host_seconds, host_backend.likeli_seconds,
              host_backend.post_seconds);
  std::printf("batcher  %llu batches over %llu windows (budget %llu B, "
              "planned peak %llu, actual peak %llu)\n",
              static_cast<unsigned long long>(batcher.batches),
              static_cast<unsigned long long>(batcher.windows_planned),
              static_cast<unsigned long long>(batcher.budget_bytes),
              static_cast<unsigned long long>(batcher.planned_peak_bytes),
              static_cast<unsigned long long>(batcher.actual_peak_bytes));
  std::printf("wrote %s\n", out.string().c_str());

  // A baseline nobody can load is worse than none: self-validate.
  return validate(out);
}

}  // namespace

int main(int argc, char** argv) {
  fs::path out = "BENCH_pipeline.json";
  fs::path workdir = fs::temp_directory_path() / "gsnp_bench_smoke";
  fs::path validate_path, check_baseline, check_candidate;
  fs::path history_path, history_from;
  std::string sha = "unknown";
  double host_band = 5.0;  // host/wall timing band; see check()
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_smoke: %s needs a value\n", flag);
        std::exit(2);
      }
      return fs::path(argv[++i]);
    };
    if (std::strcmp(argv[i], "--out") == 0) out = need_value("--out");
    else if (std::strcmp(argv[i], "--workdir") == 0)
      workdir = need_value("--workdir");
    else if (std::strcmp(argv[i], "--validate") == 0)
      validate_path = need_value("--validate");
    else if (std::strcmp(argv[i], "--check") == 0)
      check_baseline = need_value("--check");
    else if (std::strcmp(argv[i], "--candidate") == 0)
      check_candidate = need_value("--candidate");
    else if (std::strcmp(argv[i], "--history") == 0)
      history_path = need_value("--history");
    else if (std::strcmp(argv[i], "--append-history") == 0)
      history_path = need_value("--append-history");
    else if (std::strcmp(argv[i], "--from") == 0)
      history_from = need_value("--from");
    else if (std::strcmp(argv[i], "--sha") == 0)
      sha = need_value("--sha").string();
    else if (std::strcmp(argv[i], "--host-band") == 0) {
      host_band = std::stod(need_value("--host-band").string());
      if (host_band < 1.0) {
        std::fprintf(stderr, "bench_smoke: --host-band must be >= 1\n");
        return 2;
      }
    }
    else {
      std::fprintf(stderr,
                   "usage: bench_smoke [--out FILE] [--workdir DIR] "
                   "[--validate FILE]\n"
                   "       bench_smoke --check BASELINE --candidate FILE "
                   "[--history FILE --sha SHA]\n"
                   "                   [--host-band X]   "
                   "(host/wall timing band, default 5)\n"
                   "       bench_smoke --append-history FILE --from FILE "
                   "--sha SHA\n");
      return 2;
    }
  }
  try {
    if (!validate_path.empty()) return validate(validate_path);
    if (!check_baseline.empty()) {
      if (check_candidate.empty()) {
        std::fprintf(stderr, "bench_smoke: --check needs --candidate FILE\n");
        return 2;
      }
      const int rc = check(check_baseline, check_candidate, host_band);
      // Only accepted runs enter the trajectory.
      if (rc == 0 && !history_path.empty())
        return append_history(history_path, check_candidate, sha, host_band);
      return rc;
    }
    if (!history_path.empty()) {
      if (history_from.empty()) {
        std::fprintf(stderr,
                     "bench_smoke: --append-history needs --from FILE\n");
        return 2;
      }
      return append_history(history_path, history_from, sha, host_band);
    }
    return run(out, workdir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_smoke: %s\n", e.what());
    return 1;
  }
}
