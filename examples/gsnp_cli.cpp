// gsnp: the command-line front end — simulate datasets, call SNPs with any
// registered backend from SOAP or SAM input, compare outputs, score calls
// against truth.
//
//   gsnp_cli simulate --out <dir> [--sites N] [--depth X] [--seed S]
//                     [--snp-rate R] [--name chrS] [--sam]
//   gsnp_cli call     --ref <fa> --align <soap|sam> --out <file>
//                     [--engine gsnp|gsnp-cpu|soapsnp]
//                     [--dbsnp <file>]
//                     [--window N] [--overlap] [--batch-bytes B]
//                     [--save-matrix <file>] [--load-matrix <file>]
//                     [--lenient] [--quarantine <file>] [--max-bad N]
//                     [--max-bad-frac P] [--trace-out <json>]
//                     [--metrics-out <json>] [--profile-out <json>]
//   gsnp_cli profile  --ref <fa> --align <soap|sam> [--dbsnp <file>]
//                     [--window N] [--overlap] [--out <file>]
//                     [--profile-out <json>]
//   gsnp_cli profile  --diff <base.json> <other.json>
//   gsnp_cli profile  --validate <profile.json>
//   gsnp_cli compare  <a> <b>
//   gsnp_cli eval     --calls <file> --truth <truth.tsv> [--min-q Q]
//   gsnp_cli stats    --align <soap|sam> --sites N
//   gsnp_cli manifest <manifest.json>   (per-chromosome run + ingest table)
//   gsnp_cli serve    --socket <path> --spool <dir> [--workers N]
//                     [--queue N --quota N --max-payload-mb M]
//                     [--retries N --backoff S --jitter F]
//   gsnp_cli submit   --socket <path> --ref <fa> --align <soap|sam>
//                     [--name chr --dbsnp F --engine E --tenant T]
//                     [--out DIR --window N --deadline S --job ID --wait]
//   gsnp_cli status   --socket <path> [--job ID]
//   gsnp_cli cancel   --socket <path> --job ID
//   gsnp_cli metrics  --socket <path>   (or --demo [--workdir DIR])
//   gsnp_cli health   --socket <path>
//   gsnp_cli shutdown --socket <path>
//
// Each verb rejects a flag it does not take with exit code 2 (the table in
// verbs() lists every verb's flags).
// Truth files are what `simulate` writes: "pos ref genotype" per line.
// Long runs handle SIGINT/SIGTERM cooperatively: `call` discards its staged
// `.part` output (the published file is only ever renamed into place whole)
// and `serve` parks unfinished jobs as "interrupted" so the next daemon's
// recovery resumes them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include "src/common/atomic_file.hpp"
#include "src/common/cancel.hpp"
#include "src/common/error.hpp"
#include "src/common/fs_fault.hpp"
#include "src/common/json.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/backend.hpp"
#include "src/core/consistency.hpp"
#include "src/core/engine.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/run_manifest.hpp"
#include "src/core/vcf.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/synthetic.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/trace.hpp"
#include "src/reads/sam.hpp"
#include "src/reads/simulator.hpp"
#include "src/reads/stats.hpp"
#include "src/service/daemon.hpp"
#include "src/service/dispatch.hpp"
#include "src/service/protocol.hpp"
#include "src/service/socket.hpp"

namespace fs = std::filesystem;
using namespace gsnp;

namespace {

/// Process-wide interrupt token: the SIGINT/SIGTERM handler only flips this
/// (an async-signal-safe relaxed atomic store); the long-running verbs poll
/// it at their cancellation points and unwind cleanly.
CancelToken g_interrupt;

extern "C" void handle_interrupt(int) {
  g_interrupt.cancel(CancelReason::kSignal);
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
}

/// Minimal --flag value parser.  A flag in `switches` is boolean and never
/// takes a value; any other flag takes the next token unless that is a flag.
class Args {
 public:
  Args(int argc, char** argv, int first,
       const std::vector<std::string_view>& switches) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const bool boolean =
            std::find(switches.begin(), switches.end(), arg) != switches.end();
        if (!boolean && i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
          values_[arg] = argv[++i];
        } else {
          values_[arg] = "1";
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  const std::vector<std::string>& positional() const { return positional_; }
  /// The first flag (in name order) not in `known`; "" when all are known.
  std::string unknown_flag(const std::vector<std::string_view>& known) const {
    for (const auto& entry : values_)
      if (std::find(known.begin(), known.end(), entry.first) == known.end())
        return entry.first;
    return "";
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// A file that lives as long as the scope: removed on every exit (a path
/// that was renamed away or never created is left alone).
class ScratchFile {
 public:
  explicit ScratchFile(fs::path file) : path(std::move(file)) {}
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  ~ScratchFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }

  const fs::path path;
};

int cmd_simulate(const Args& args) {
  const fs::path dir = args.get("--out", "gsnp_sim");
  fs::create_directories(dir);
  genome::GenomeSpec gspec;
  gspec.name = args.get("--name", "chrS");
  gspec.length = std::stoull(args.get("--sites", "200000"));
  gspec.seed = std::stoull(args.get("--seed", "1"));
  const genome::Reference ref = genome::generate_reference(gspec);
  genome::write_fasta_file(dir / "ref.fa", {ref});

  genome::SnpPlantSpec pspec;
  pspec.snp_rate = std::stod(args.get("--snp-rate", "0.001"));
  pspec.seed = gspec.seed + 1;
  const auto snps = genome::plant_snps(ref, pspec);
  const genome::Diploid individual(ref, snps);
  genome::write_dbsnp_file(dir / "dbsnp.txt",
                           genome::make_dbsnp(ref, snps, 0.002, gspec.seed + 2));

  reads::ReadSimSpec rspec;
  rspec.depth = std::stod(args.get("--depth", "10"));
  rspec.seed = gspec.seed + 3;
  const auto records = reads::simulate_reads(individual, rspec);
  reads::write_alignment_file(dir / "align.soap", records);
  if (args.has("--sam"))
    reads::write_sam_file(dir / "align.sam", records, ref.name(), ref.size());

  std::ofstream truth(dir / "truth.tsv");
  for (const auto& snp : snps)
    truth << snp.pos << '\t' << char_from_base(snp.ref_base) << '\t'
          << snp.genotype.to_string() << '\n';

  std::printf("wrote %s: %llu sites, %zu reads, %zu SNPs%s\n",
              dir.string().c_str(),
              static_cast<unsigned long long>(ref.size()), records.size(),
              snps.size(), args.has("--sam") ? " (+SAM)" : "");
  return 0;
}

int cmd_call(const Args& args) {
  const fs::path ref_path = args.get("--ref", "");
  const fs::path align_path = args.get("--align", "");
  const fs::path out_path = args.get("--out", "out.snp");
  if (ref_path.empty() || align_path.empty()) {
    std::fprintf(stderr, "call: --ref and --align are required\n");
    return 2;
  }

  const auto refs = genome::read_fasta_file(ref_path);
  if (refs.size() != 1) {
    std::fprintf(stderr, "call: expected exactly one sequence in %s\n",
                 ref_path.string().c_str());
    return 2;
  }

  // Malformed-input handling: strict by default (first bad record aborts
  // with file:line:reason); --lenient skips bad records into the quarantine
  // sidecar, bounded by the --max-bad / --max-bad-frac error budget.
  IngestPolicy ingest;
  if (args.has("--lenient")) {
    ingest.mode = IngestMode::kLenient;
    ingest.quarantine_file =
        args.get("--quarantine", out_path.string() + ".quarantine.txt");
  }
  if (args.has("--max-bad"))
    ingest.max_bad_records = std::stoull(args.get("--max-bad", ""));
  if (args.has("--max-bad-frac"))
    ingest.max_bad_fraction = std::stod(args.get("--max-bad-frac", ""));

  std::optional<genome::DbSnpTable> dbsnp;
  if (args.has("--dbsnp"))
    dbsnp = genome::read_dbsnp_file(args.get("--dbsnp", ""), {}, nullptr,
                                    refs[0].size());

  // Stage the output and publish it atomically at the end: a failed or
  // interrupted (SIGINT/SIGTERM) run discards the staging file instead of
  // leaving a torn `.part` where the caller expects a complete output.
  install_signal_handlers();
  const ScratchFile staged(out_path.string() + ".part");
  const fs::path& staged_out = staged.path;

  core::EngineConfig config;
  config.alignment_file = align_path;
  config.reference = &refs[0];
  config.dbsnp = dbsnp ? &*dbsnp : nullptr;
  config.output_file = staged_out;
  config.temp_file = out_path.string() + ".tmp";
  config.cancel = &g_interrupt;
  config.window_size = static_cast<u32>(std::stoul(args.get("--window", "0")));
  // Serial by default; --overlap = the overlapped (double-buffered) run,
  // byte-identical output.
  config.overlapped = args.has("--overlap");
  // Depth-aware batching: split each window into device batches whose
  // planned footprint never exceeds this many bytes (0 = fixed windows).
  config.batch_bytes = std::stoull(args.get("--batch-bytes", "0"));
  config.ingest = ingest;
  if (args.has("--save-matrix")) config.p_matrix_out = args.get("--save-matrix", "");
  if (args.has("--load-matrix")) config.p_matrix_in = args.get("--load-matrix", "");

  // --trace-out / --metrics-out attach a tracer for the run and export the
  // span stream (Chrome trace_event JSON, for chrome://tracing / Perfetto)
  // and/or the compact metrics JSON when the call finishes.
  const fs::path trace_out = args.get("--trace-out", "");
  const fs::path metrics_out = args.get("--metrics-out", "");
  std::optional<obs::Tracer> tracer;
  if (!trace_out.empty() || !metrics_out.empty()) {
    tracer.emplace();
    config.tracer = &*tracer;
  }

  // Backend selection goes through the registry: unknown names are a typed
  // UnknownBackendError whose message lists every valid name.
  const std::string engine = args.get("--engine", "gsnp");
  const core::BackendInfo* backend = core::find_backend(engine);
  if (backend == nullptr) {
    std::fprintf(stderr, "call: unknown backend '%s' (valid: %s)\n",
                 engine.c_str(), core::backend_name_list().c_str());
    return 2;
  }
  const fs::path profile_out = args.get("--profile-out", "");
  core::RunReport report;
  std::optional<device::Device> dev;
  std::optional<obs::Profiler> profiler;
  try {
    if (backend->needs_device) {
      dev.emplace();
      if (!profile_out.empty()) profiler.emplace(*dev);
    }
    report = core::run_backend(*backend, config, dev ? &*dev : nullptr);
  } catch (const CancelledError& e) {
    std::fprintf(stderr,
                 "call: %s — staged output discarded, nothing published\n",
                 e.what());
    return 130;
  }
  atomic_publish(staged_out, out_path);

  std::printf("%-8s %8s\n", "component", "sec");
  for (const char* c : core::kComponents)
    std::printf("%-8s %8.3f\n", c, report.component(c));
  std::printf("%-8s %8.3f   (%llu sites, %llu bytes out)\n", "total",
              report.total(), static_cast<unsigned long long>(report.sites),
              static_cast<unsigned long long>(report.output_bytes));
  // total sums the stage stopwatches, which overlap in --overlap runs;
  // wall is the engine call's elapsed time.
  std::printf("%-8s %8.3f   (%.0f sites/s)\n", "wall", report.wall_seconds,
              report.wall_seconds > 0.0
                  ? static_cast<double>(report.sites) / report.wall_seconds
                  : 0.0);
  if (backend->needs_device && config.overlapped)
    std::printf("overlap  modeled wall %.3fs vs serial %.3fs (%.2fx)\n",
                report.modeled_wall_seconds, report.modeled_serial_seconds,
                report.modeled_wall_seconds > 0.0
                    ? report.modeled_serial_seconds / report.modeled_wall_seconds
                    : 0.0);
  if (ingest.lenient() || !report.ingest.clean()) {
    std::printf("ingest   %s\n", report.ingest.summary().c_str());
    if (report.ingest.records_quarantined > 0 &&
        !ingest.quarantine_file.empty())
      std::printf("quarantine: %s\n", ingest.quarantine_file.string().c_str());
  }

  if (tracer) {
    if (!trace_out.empty()) {
      obs::write_chrome_trace(trace_out, *tracer);
      std::printf("trace:   %s (%zu spans)\n", trace_out.string().c_str(),
                  tracer->spans().size());
    }
    if (!metrics_out.empty()) {
      obs::write_metrics_json(metrics_out, *tracer);
      std::printf("metrics: %s\n", metrics_out.string().c_str());
    }
  }
  if (profiler) {
    const obs::ProfileReport prof = profiler->report();
    obs::write_profile_json(profile_out, prof);
    std::printf("profile: %s (%zu kernels, %llu launches)\n",
                profile_out.string().c_str(), prof.kernels.size(),
                static_cast<unsigned long long>(prof.launches));
  } else if (!profile_out.empty()) {
    std::fprintf(stderr,
                 "call: --profile-out needs a device backend (--engine gsnp; "
                 "the profiler instruments the device simulator); no profile "
                 "written\n");
  }

  return 0;
}

int cmd_profile(const Args& args) {
  // Diff mode: gsnp_cli profile --diff BASE.json OTHER.json
  if (args.has("--diff")) {
    if (args.positional().empty()) {
      std::fprintf(stderr, "profile: --diff needs two profile.json paths\n");
      return 2;
    }
    const fs::path base_path = args.get("--diff", "");
    const fs::path other_path = args.positional()[0];
    const obs::ProfileReport base = obs::read_profile_json(base_path);
    const obs::ProfileReport other = obs::read_profile_json(other_path);
    std::fputs(obs::format_profile_diff(base, other,
                                        base_path.stem().string(),
                                        other_path.stem().string())
                   .c_str(),
               stdout);
    return 0;
  }

  // Validate mode: schema check for CI (nonzero exit on mismatch).
  if (args.has("--validate")) {
    const fs::path path = args.get("--validate", "");
    const obs::ProfileReport rep = obs::read_profile_json(path);
    std::printf("%s: OK (gsnp-profile v1, %zu kernels, %llu launches, "
                "%.3f modeled ms)\n",
                path.string().c_str(), rep.kernels.size(),
                static_cast<unsigned long long>(rep.launches),
                rep.modeled_sec * 1e3);
    return 0;
  }

  // Run mode: profile the gsnp engine over a dataset and print the table.
  const fs::path ref_path = args.get("--ref", "");
  const fs::path align_path = args.get("--align", "");
  if (ref_path.empty() || align_path.empty()) {
    std::fprintf(stderr, "profile: --ref and --align are required\n");
    return 2;
  }
  const auto refs = genome::read_fasta_file(ref_path);
  if (refs.size() != 1) {
    std::fprintf(stderr, "profile: expected exactly one sequence in %s\n",
                 ref_path.string().c_str());
    return 2;
  }
  std::optional<genome::DbSnpTable> dbsnp;
  if (args.has("--dbsnp"))
    dbsnp = genome::read_dbsnp_file(args.get("--dbsnp", ""), {}, nullptr,
                                    refs[0].size());

  const fs::path out_path = args.get("--out", "profile_out.snp");
  core::EngineConfig config;
  config.alignment_file = align_path;
  config.reference = &refs[0];
  config.dbsnp = dbsnp ? &*dbsnp : nullptr;
  config.output_file = out_path;
  config.temp_file = out_path.string() + ".tmp";
  config.window_size = static_cast<u32>(std::stoul(args.get("--window", "0")));
  config.overlapped = args.has("--overlap");
  config.batch_bytes = std::stoull(args.get("--batch-bytes", "0"));

  device::Device dev;
  obs::Profiler profiler(dev);
  const core::RunReport report = core::run_gsnp(config, dev);
  const obs::ProfileReport prof = profiler.report();

  std::fputs(obs::format_profile_table(prof).c_str(), stdout);
  std::printf("\n%llu sites, %llu bytes out, %.3f s wall\n",
              static_cast<unsigned long long>(report.sites),
              static_cast<unsigned long long>(report.output_bytes),
              report.wall_seconds);

  const fs::path profile_out = args.get("--profile-out", "");
  if (!profile_out.empty()) {
    obs::write_profile_json(profile_out, prof);
    std::printf("profile: %s\n", profile_out.string().c_str());
  }
  return 0;
}

int cmd_manifest(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "manifest: need a manifest.json path\n");
    return 2;
  }
  const core::RunManifest manifest =
      core::read_run_manifest(args.positional()[0]);
  std::printf("engine=%s chromosomes=%zu\n", manifest.engine.c_str(),
              manifest.chromosomes.size());
  std::printf("%-12s %-6s %-8s %-4s %10s %6s %6s %6s\n", "name", "status",
              "engine", "try", "sites", "ok", "unsup", "quar");
  IngestStats total;
  for (const auto& e : manifest.chromosomes) {
    std::printf("%-12s %-6s %-8s %-4d %10llu %6llu %6llu %6llu%s\n",
                e.name.c_str(), e.status.c_str(), e.engine.c_str(), e.attempts,
                static_cast<unsigned long long>(e.sites),
                static_cast<unsigned long long>(e.ingest.records_ok),
                static_cast<unsigned long long>(e.ingest.records_unsupported),
                static_cast<unsigned long long>(e.ingest.records_quarantined),
                e.degraded ? "  (degraded)" : "");
    if (e.ingest.records_quarantined > 0) {
      std::printf("%14s", "");
      for (std::size_t r = 0; r < kNumIngestReasons; ++r)
        if (e.ingest.by_reason[r] > 0)
          std::printf(" %s=%llu",
                      ingest_reason_name(static_cast<IngestReason>(r)),
                      static_cast<unsigned long long>(e.ingest.by_reason[r]));
      std::printf("\n");
    }
    total.merge(e.ingest);
  }
  std::printf("total: %s\n", total.summary().c_str());
  return 0;
}

int cmd_compare(const Args& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "compare: need two output files\n");
    return 2;
  }
  const auto report = core::compare_output_files(args.positional()[0],
                                                 args.positional()[1]);
  if (report.identical) {
    std::printf("IDENTICAL (%llu rows)\n",
                static_cast<unsigned long long>(report.rows_compared));
    return 0;
  }
  std::printf("MISMATCH\n%s\n", report.detail.c_str());
  return 1;
}

int cmd_eval(const Args& args) {
  const fs::path calls_path = args.get("--calls", "");
  const fs::path truth_path = args.get("--truth", "");
  const int min_q = std::stoi(args.get("--min-q", "13"));
  if (calls_path.empty() || truth_path.empty()) {
    std::fprintf(stderr, "eval: --calls and --truth are required\n");
    return 2;
  }

  std::map<u64, Genotype> truth;
  {
    std::ifstream in(truth_path);
    if (!in.good()) {
      std::fprintf(stderr, "eval: cannot open truth file %s\n",
                   truth_path.string().c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      u64 pos;
      char ref, a1, a2;
      if (std::sscanf(line.c_str(), "%llu\t%c\t%c%c",
                      reinterpret_cast<unsigned long long*>(&pos), &ref, &a1,
                      &a2) == 4)
        truth[pos] = Genotype{base_from_char(a1), base_from_char(a2)};
    }
  }

  std::string seq_name;
  const auto rows = core::read_snp_output(calls_path, seq_name);
  u64 tp = 0, fp = 0, fn = 0;
  for (const auto& row : rows) {
    const auto it = truth.find(row.pos);
    const bool called =
        row.genotype_rank >= 0 && row.ref_base < kNumBases &&
        row.genotype_rank != genotype_rank(row.ref_base, row.ref_base) &&
        row.quality >= static_cast<u16>(min_q);
    if (called && it != truth.end() &&
        genotype_from_rank(row.genotype_rank) == it->second) {
      ++tp;
    } else if (called) {
      ++fp;
    } else if (it != truth.end() && row.depth >= 4) {
      ++fn;
    }
  }
  std::printf("TP=%llu FP=%llu FN=%llu precision=%.4f recall=%.4f (min_q=%d)\n",
              static_cast<unsigned long long>(tp),
              static_cast<unsigned long long>(fp),
              static_cast<unsigned long long>(fn),
              tp + fp ? static_cast<double>(tp) / (tp + fp) : 1.0,
              tp + fn ? static_cast<double>(tp) / (tp + fn) : 1.0, min_q);
  return 0;
}

int cmd_vcf(const Args& args) {
  const fs::path calls = args.get("--calls", "");
  const fs::path out = args.get("--out", "out.vcf");
  if (calls.empty()) {
    std::fprintf(stderr, "vcf: --calls is required\n");
    return 2;
  }
  std::string seq_name;
  const auto rows = core::read_snp_output(calls, seq_name);
  core::VcfOptions options;
  options.min_quality = std::stoi(args.get("--min-q", "13"));
  options.include_ref_sites = args.has("--all-sites");
  const u64 n =
      core::write_vcf_file(out, seq_name, rows.size(), rows, options);
  std::printf("wrote %llu VCF records to %s\n",
              static_cast<unsigned long long>(n), out.string().c_str());
  return 0;
}

int cmd_verify(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "verify: need at least one .snp or .tmp file\n");
    return 2;
  }
  int rc = 0;
  for (const std::string& path : args.positional()) {
    try {
      if (compress::has_magic(path, core::kOutputMagic)) {
        // Reading every window checks each frame's CRC.
        std::string seq_name;
        const auto rows = core::read_snp_compressed_file(path, seq_name);
        std::printf("%-40s OK (snp output, %zu rows)\n", path.c_str(),
                    rows.size());
      } else if (compress::has_magic(path, compress::kTempMagic)) {
        compress::TempInputReader reader(path);
        u64 records = 0;
        while (reader.next()) ++records;
        std::printf("%-40s OK (temp input, %llu records)\n", path.c_str(),
                    static_cast<unsigned long long>(records));
      } else {
        std::printf("%-40s FAIL (unrecognized magic)\n", path.c_str());
        rc = 1;
      }
    } catch (const Error& e) {
      std::printf("%-40s FAIL (%s)\n", path.c_str(), e.what());
      rc = 1;
    }
  }
  return rc;
}

int cmd_stats(const Args& args) {
  const fs::path align = args.get("--align", "");
  const u64 sites = std::stoull(args.get("--sites", "0"));
  if (align.empty() || sites == 0) {
    std::fprintf(stderr, "stats: --align and --sites are required\n");
    return 2;
  }
  const auto records = reads::read_alignment_file(align);
  const auto stats = reads::compute_stats(records, sites);
  std::printf("reads=%llu depth=%.2fX coverage=%.1f%%\n",
              static_cast<unsigned long long>(stats.num_reads), stats.depth,
              100.0 * stats.coverage);
  return 0;
}

// ---------------------------------------------------------------------------
// gsnpd verbs: serve runs the daemon on an AF_UNIX socket; submit/status/
// cancel/shutdown are thin line-protocol clients (FORMATS.md §12).

int cmd_serve(const Args& args) {
  const fs::path socket_path = args.get("--socket", "gsnpd.sock");
  service::DaemonConfig config;
  config.spool_dir = args.get("--spool", "gsnpd_spool");
  config.workers = std::stoul(args.get("--workers", "2"));
  config.queue_capacity = std::stoul(args.get("--queue", "8"));
  config.tenant_quota = std::stoul(args.get("--quota", "4"));
  config.max_payload_bytes = std::stoull(args.get("--max-payload-mb", "64"))
                             << 20;
  config.batch_bytes = std::stoull(args.get("--batch-bytes", "0"));
  config.max_device_bytes = std::stoull(args.get("--max-device-mb", "0")) << 20;
  config.retry.max_attempts = std::stoi(args.get("--retries", "2"));
  config.retry.backoff_seconds = std::stod(args.get("--backoff", "0.05"));
  config.retry.jitter_fraction = std::stod(args.get("--jitter", "0.5"));
  config.fsck_deep_verify = args.has("--deep-fsck");
  if (args.has("--fs-fault-plan")) {
    // Chaos drills: arm the storage fault injector from a §13 plan JSON,
    // e.g. '{"kind":"enospc","at":2,"path":"manifest"}'.
    const FsFaultPlan plan =
        fs_fault_plan_from_json(json::parse(args.get("--fs-fault-plan", "")));
    fsfault::arm(plan);
    std::printf("gsnpd: armed fs fault plan kind=%s at=%lld count=%lld\n",
                fs_fault_kind_name(plan.kind),
                static_cast<long long>(plan.trigger_at),
                static_cast<long long>(plan.fault_count));
  }
  install_signal_handlers();

  service::Daemon daemon(config);
  const std::size_t resumed = daemon.recover();
  if (!daemon.last_fsck().jobs.empty())
    std::printf("gsnpd: fsck %s\n", daemon.last_fsck().summary().c_str());
  if (resumed > 0)
    std::printf("gsnpd: resumed %zu incomplete job(s) from %s\n", resumed,
                config.spool_dir.string().c_str());

  service::ServerOptions server_options;
  server_options.max_frame_bytes =
      std::stoull(args.get("--max-frame-mb", "4")) << 20;
  server_options.idle_timeout_seconds =
      std::stod(args.get("--idle-timeout", "0"));

  std::atomic<bool> stop_requested{false};
  service::LineServer server(
      socket_path, [&daemon, &stop_requested](const std::string& line) {
        try {
          const service::Request request = service::parse_request(line);
          const service::Response response =
              service::handle_request(daemon, request);
          if (request.op == "shutdown" && response.ok)
            stop_requested.store(true);
          return service::encode_response(response);
        } catch (const std::exception& e) {
          service::Response response;
          response.error = service::ErrorCode::kBadRequest;
          response.message = e.what();
          return service::encode_response(response);
        }
      },
      server_options);
  std::printf("gsnpd: listening on %s (spool %s, %zu workers, queue %zu)\n",
              socket_path.string().c_str(), config.spool_dir.string().c_str(),
              config.workers, config.queue_capacity);

  while (!stop_requested.load() && !g_interrupt.cancelled())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::printf("gsnpd: draining (%s)\n",
              stop_requested.load() ? "shutdown requested" : "signal");
  server.stop();
  // The daemon destructor parks unfinished jobs as "interrupted" in their
  // journals; the next serve's recover() resumes them exactly once.
  return 0;
}

/// The gsnpd verbs all talk through the resilient client: per-op poll
/// deadlines and jittered reconnect (safe to resend — submit is idempotent
/// when --job names the id).  --timeout 0 waits forever; --attempts 1
/// restores the old fail-fast behavior.
service::LineClient make_client(const Args& args) {
  service::ClientOptions options;
  options.op_timeout_seconds = std::stod(args.get("--timeout", "10"));
  options.retry.max_attempts = std::stoi(args.get("--attempts", "3"));
  options.retry.backoff_seconds = 0.05;
  options.retry.jitter_fraction = 0.5;
  options.backoff_salt = "gsnp_cli";
  return service::LineClient(args.get("--socket", "gsnpd.sock"), options);
}

int cmd_submit(const Args& args) {
  const fs::path ref_path = args.get("--ref", "");
  const fs::path align_path = args.get("--align", "");
  if (ref_path.empty() || align_path.empty()) {
    std::fprintf(stderr, "submit: --ref and --align are required\n");
    return 2;
  }
  service::Request request;
  request.op = "submit";
  request.job.job_id = args.get("--job", "");
  request.job.tenant = args.get("--tenant", "default");
  request.job.engine = args.get("--engine", "gsnp");
  // Validate client-side too: a typo fails fast with the valid-name list
  // instead of a round-trip to the daemon (which enforces the same rule
  // with a typed invalid_argument rejection).
  if (core::find_backend(request.job.engine) == nullptr) {
    std::fprintf(stderr, "submit: unknown backend '%s' (valid: %s)\n",
                 request.job.engine.c_str(),
                 core::backend_name_list().c_str());
    return 2;
  }
  request.job.output_dir = args.get("--out", "");
  request.job.window_size =
      static_cast<u32>(std::stoul(args.get("--window", "0")));
  request.job.batch_bytes = std::stoull(args.get("--batch-bytes", "0"));
  request.job.deadline_seconds = std::stod(args.get("--deadline", "0"));
  service::ChromosomeSpec chrom;
  chrom.name = args.get("--name", "chrS");
  chrom.alignment_file = align_path.string();
  chrom.reference_file = ref_path.string();
  chrom.dbsnp_file = args.get("--dbsnp", "");
  request.job.chromosomes.push_back(std::move(chrom));

  service::LineClient client = make_client(args);
  service::Response response =
      service::parse_response(client.request(service::encode_request(request)));
  if (!response.ok) {
    std::fprintf(stderr, "submit: rejected [%s] %s\n",
                 service::error_code_name(response.error),
                 response.message.c_str());
    return 3;
  }
  const std::string job_id = response.fields["job_id"];
  std::printf("job %s admitted\n", job_id.c_str());

  if (args.has("--wait")) {
    service::Request poll;
    poll.op = "status";
    poll.job_id = job_id;
    const std::string poll_line = service::encode_request(poll);
    for (;;) {
      response = service::parse_response(client.request(poll_line));
      if (!response.ok) {
        std::fprintf(stderr, "submit: status failed: %s\n",
                     response.message.c_str());
        return 3;
      }
      const std::string& state = response.fields["state"];
      if (state != "queued" && state != "running") {
        std::printf("job %s %s (%s/%s chromosomes, %ss)%s%s\n",
                    job_id.c_str(), state.c_str(),
                    response.fields["chromosomes_done"].c_str(),
                    response.fields["chromosomes_total"].c_str(),
                    response.fields["run_seconds"].c_str(),
                    response.fields.count("degraded") ? " [degraded]" : "",
                    response.fields.count("error")
                        ? (" error=" + response.fields["error"]).c_str()
                        : "");
        return state == "done" ? 0 : 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  return 0;
}

int cmd_status(const Args& args) {
  service::LineClient client = make_client(args);
  service::Request request;
  request.op = args.has("--stats") ? "stats" : "status";
  request.job_id = args.get("--job", "");
  const service::Response response =
      service::parse_response(client.request(service::encode_request(request)));
  if (!response.ok) {
    std::fprintf(stderr, "status: [%s] %s\n",
                 service::error_code_name(response.error),
                 response.message.c_str());
    return 3;
  }
  for (const auto& [key, value] : response.fields)
    std::printf("%s=%s\n", key.c_str(), value.c_str());
  return 0;
}

int cmd_cancel(const Args& args) {
  const std::string job_id = args.get("--job", "");
  if (job_id.empty()) {
    std::fprintf(stderr, "cancel: --job is required\n");
    return 2;
  }
  service::LineClient client = make_client(args);
  service::Request request;
  request.op = "cancel";
  request.job_id = job_id;
  const service::Response response =
      service::parse_response(client.request(service::encode_request(request)));
  if (!response.ok) {
    std::fprintf(stderr, "cancel: [%s] %s\n",
                 service::error_code_name(response.error),
                 response.message.c_str());
    return 3;
  }
  std::printf("job %s cancel requested\n", job_id.c_str());
  return 0;
}

int cmd_shutdown(const Args& args) {
  service::LineClient client = make_client(args);
  service::Request request;
  request.op = "shutdown";
  const service::Response response =
      service::parse_response(client.request(service::encode_request(request)));
  if (!response.ok) {
    std::fprintf(stderr, "shutdown: %s\n", response.message.c_str());
    return 3;
  }
  std::printf("gsnpd stopping\n");
  return 0;
}

/// `metrics --demo`: run a tiny in-process daemon over a simulated dataset
/// and print its Prometheus exposition — a hermetic, socket-free sample of
/// the real telemetry plane, which scripts/check_metrics.py lints in
/// verify.sh against the committed metric-name inventory.
int run_metrics_demo(const Args& args) {
  const fs::path workdir = args.get("--workdir", "gsnp_metrics_demo");
  std::error_code ec;
  fs::remove_all(workdir, ec);
  fs::create_directories(workdir);

  service::JobSpec spec;
  spec.job_id = "demo-job";
  spec.tenant = "demo";
  spec.engine = args.get("--engine", "gsnp");
  for (int i = 0; i < 2; ++i) {
    genome::GenomeSpec gspec;
    gspec.name = "chr" + std::to_string(i + 1);
    gspec.length = 4000;
    gspec.seed = 100 + static_cast<u64>(i);
    const genome::Reference ref = genome::generate_reference(gspec);
    const fs::path ref_path = workdir / (gspec.name + ".fa");
    genome::write_fasta_file(ref_path, {ref});

    genome::SnpPlantSpec pspec;
    pspec.seed = gspec.seed + 1;
    const auto snps = genome::plant_snps(ref, pspec);
    const genome::Diploid individual(ref, snps);
    reads::ReadSimSpec rspec;
    rspec.depth = 4.0;
    rspec.seed = gspec.seed + 2;
    const fs::path align_path = workdir / (gspec.name + ".soap");
    reads::write_alignment_file(align_path,
                                reads::simulate_reads(individual, rspec));

    service::ChromosomeSpec chrom;
    chrom.name = gspec.name;
    chrom.alignment_file = align_path.string();
    chrom.reference_file = ref_path.string();
    spec.chromosomes.push_back(std::move(chrom));
  }

  service::DaemonConfig config;
  config.spool_dir = workdir / "spool";
  config.workers = 2;
  service::Daemon daemon(config);
  daemon.recover();  // registers the fsck_* counters (clean, all zero)
  daemon.submit(std::move(spec));
  daemon.wait_idle();
  std::fputs(daemon.prometheus_text().c_str(), stdout);
  return 0;
}

int cmd_metrics(const Args& args) {
  if (args.has("--demo")) return run_metrics_demo(args);
  service::LineClient client = make_client(args);
  service::Request request;
  request.op = "metrics";
  service::Response response =
      service::parse_response(client.request(service::encode_request(request)));
  if (!response.ok) {
    std::fprintf(stderr, "metrics: [%s] %s\n",
                 service::error_code_name(response.error),
                 response.message.c_str());
    return 3;
  }
  std::fputs(response.fields["text"].c_str(), stdout);
  return 0;
}

int cmd_health(const Args& args) {
  service::LineClient client = make_client(args);
  service::Request request;
  request.op = "health";
  service::Response response =
      service::parse_response(client.request(service::encode_request(request)));
  if (!response.ok) {
    std::fprintf(stderr, "health: [%s] %s\n",
                 service::error_code_name(response.error),
                 response.message.c_str());
    return 3;
  }
  for (const auto& [key, value] : response.fields)
    std::printf("%s=%s\n", key.c_str(), value.c_str());
  // A load balancer can gate on the exit code alone.
  return response.fields["ready"] == "true" ? 0 : 1;
}

int cmd_fsck(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "fsck: usage: gsnp_cli fsck <spool-dir> [--repair] [--deep]\n");
    return 2;
  }
  const fs::path spool = args.positional()[0];
  if (!fs::exists(spool)) {
    std::fprintf(stderr, "fsck: no such spool %s\n", spool.string().c_str());
    return 2;
  }
  service::FsckOptions options;
  options.repair = args.has("--repair");
  options.deep_verify = args.has("--deep");
  const service::FsckReport report = service::fsck_spool(spool, options);
  for (const service::FsckJobReport& job : report.jobs) {
    std::printf("%-28s %s\n", job.job_id.c_str(),
                service::fsck_verdict_name(job.verdict));
    for (const std::string& issue : job.issues)
      std::printf("  issue:  %s\n", issue.c_str());
    for (const std::string& repair : job.repairs)
      std::printf("  repair: %s\n", repair.c_str());
  }
  std::printf("fsck: %s\n", report.summary().c_str());
  // Exit 0 when nothing needs an operator (clean or plain resumable); 1 when
  // torn/orphaned/corrupt jobs remain (run again with --repair to fix).
  return report.all_recoverable() ? 0 : 1;
}

/// A verb, its handler, and every flag it takes: any other flag exits 2.
struct Verb {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;          ///< flags that take a value
  std::vector<std::string_view> switches = {};  ///< boolean flags
};

/// The gsnpd client verbs' flags (make_client) plus the verb's own.
std::vector<std::string_view> client_flags(
    std::initializer_list<std::string_view> own) {
  std::vector<std::string_view> flags = {"--socket", "--timeout",
                                         "--attempts"};
  flags.insert(flags.end(), own.begin(), own.end());
  return flags;
}

const std::vector<Verb>& verbs() {
  static const std::vector<Verb> table = {
      {"simulate", cmd_simulate,
       {"--out", "--sites", "--depth", "--seed", "--snp-rate", "--name"},
       {"--sam"}},
      {"call", cmd_call,
       {"--ref", "--align", "--out", "--engine", "--dbsnp", "--window",
        "--batch-bytes", "--save-matrix", "--load-matrix", "--quarantine",
        "--max-bad", "--max-bad-frac", "--trace-out", "--metrics-out",
        "--profile-out"},
       {"--overlap", "--lenient"}},
      {"profile", cmd_profile,
       {"--ref", "--align", "--dbsnp", "--window", "--batch-bytes", "--out",
        "--profile-out", "--diff", "--validate"},
       {"--overlap"}},
      {"compare", cmd_compare, {}},
      {"eval", cmd_eval, {"--calls", "--truth", "--min-q"}},
      {"stats", cmd_stats, {"--align", "--sites"}},
      {"vcf", cmd_vcf, {"--calls", "--out", "--min-q"}, {"--all-sites"}},
      {"verify", cmd_verify, {}},
      {"manifest", cmd_manifest, {}},
      {"serve", cmd_serve,
       {"--socket", "--spool", "--workers", "--queue", "--quota",
        "--max-payload-mb", "--batch-bytes", "--max-device-mb", "--retries",
        "--backoff", "--jitter", "--fs-fault-plan", "--max-frame-mb",
        "--idle-timeout"},
       {"--deep-fsck"}},
      {"submit", cmd_submit,
       client_flags({"--ref", "--align", "--name", "--dbsnp", "--engine",
                     "--tenant", "--out", "--window", "--batch-bytes",
                     "--deadline", "--job"}),
       {"--wait"}},
      {"status", cmd_status, client_flags({"--job"}), {"--stats"}},
      {"cancel", cmd_cancel, client_flags({"--job"})},
      {"metrics", cmd_metrics, client_flags({"--workdir", "--engine"}),
       {"--demo"}},
      {"health", cmd_health, client_flags({})},
      {"shutdown", cmd_shutdown, client_flags({})},
      {"fsck", cmd_fsck, {}, {"--repair", "--deep"}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  for (const Verb& verb : verbs()) {
    if (argc < 2 || std::strcmp(argv[1], verb.name) != 0) continue;
    const Args args(argc, argv, 2, verb.switches);
    std::vector<std::string_view> known = verb.flags;
    known.insert(known.end(), verb.switches.begin(), verb.switches.end());
    const std::string unknown = args.unknown_flag(known);
    if (!unknown.empty()) {
      std::fprintf(stderr, "%s: unknown flag %s\n", verb.name,
                   unknown.c_str());
      return 2;
    }
    try {
      return verb.run(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gsnp_cli: %s\n", e.what());
      return 1;
    }
  }
  std::printf("usage: gsnp_cli "
              "<simulate|call|profile|compare|eval|vcf|stats|verify|manifest|"
              "serve|submit|status|cancel|metrics|health|shutdown|fsck> "
              "[options]\n"
              "  simulate --out DIR [--sites N --depth X --seed S --sam]\n"
              "           [--snp-rate R --name CHR]\n"
              "  call     --ref FA --align SOAP|SAM --out FILE\n"
              "           [--engine E]   (E: %s; default gsnp)\n"
              "           [--dbsnp F --window N]\n"
              "           [--overlap]   (overlapped double buffer)\n"
              "           [--batch-bytes B]   (depth-aware device batching)\n"
              "           [--save-matrix F --load-matrix F]   (p_matrix reuse)\n"
              "           [--lenient --quarantine F --max-bad N --max-bad-frac P]\n"
              "           [--trace-out TRACE.json --metrics-out METRICS.json]\n"
              "           [--profile-out PROFILE.json]\n"
              "  profile  --ref FA --align SOAP|SAM [--dbsnp F --window N]\n"
              "           [--out FILE --overlap --batch-bytes B]\n"
              "           [--profile-out PROFILE.json]\n"
              "           (per-kernel table)\n"
              "  profile  --diff BASE.json OTHER.json   (Table III-style diff)\n"
              "  profile  --validate PROFILE.json       (schema check)\n"
              "  compare  A B\n"
              "  eval     --calls FILE --truth TSV [--min-q Q]\n"
              "  vcf      --calls FILE --out OUT.vcf [--min-q Q --all-sites]\n"
              "  stats    --align SOAP|SAM --sites N\n"
              "  verify   FILE...   (check container frame CRCs)\n"
              "  manifest MANIFEST.json   (per-chromosome run + ingest table)\n"
              "  serve    --socket SOCK --spool DIR [--workers N --queue N]\n"
              "           [--quota N --max-payload-mb M]\n"
              "           [--retries N --backoff S --jitter F]\n"
              "           [--batch-bytes B --max-device-mb M]   (admission budget)\n"
              "           [--deep-fsck --fs-fault-plan JSON]\n"
              "           [--max-frame-mb M --idle-timeout S]\n"
              "           (client verbs below also take --timeout S"
              " --attempts N)\n"
              "  submit   --socket SOCK --ref FA --align SOAP|SAM\n"
              "           [--name CHR --dbsnp F --out DIR --job ID]\n"
              "           [--engine E --tenant T --deadline S --wait]\n"
              "           [--window N --batch-bytes B]\n"
              "  status   --socket SOCK [--job ID | --stats]\n"
              "  cancel   --socket SOCK --job ID\n"
              "  metrics  --socket SOCK   (Prometheus text exposition)\n"
              "  metrics  --demo [--workdir DIR --engine E]   (hermetic sample"
              " daemon)\n"
              "  health   --socket SOCK   (readiness; exit 0 iff ready)\n"
              "  shutdown --socket SOCK\n"
              "  fsck     SPOOL_DIR [--repair --deep]   (spool scrubber)\n"
              "A flag the verb does not take exits 2.\n",
              core::backend_name_list().c_str());
  return argc == 1 ? 0 : 2;
}
