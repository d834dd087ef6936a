// perfbench — the measuring binary of the repository benchmark
// (perfbench/run.py runs it).
//
// Every subcommand prints one JSON object as its last line of stdout; run.py
// turns those into the benchmark's metrics and output checks.
//
//   info                         build provenance (build type, sanitizer,
//                                SIMD dispatch level)
//   gen    --out DIR --seed S --sites N --depth X
//                                the hotspot chromosome (the uniform inputs
//                                come from `gsnp_cli simulate`)
//   call   --dir DIR --backend B --seconds T [--batch-bytes N]
//                                untraced run_backend calls, repeated for T
//                                seconds, with the output checks
//   replay --dir DIR --backend gsnp-cpu|gsnp --seconds T [--batch-bytes N]
//          [--check-backend B2] [--spans-out FILE]
//                                untraced calls, then the traced layer replay
//   digest --pool DIR --jobs K --out DIR
//                                serial run_genome digest of each pool job
//   load   --socket PATH --pool DIR --jobs K --clients C --seconds T
//          --seed S              closed-loop gsnpd clients
//
// The layer replay drives the serial pipeline from outside the engine: it
// calls each layer's public function in the engine's order (parse, calibrate,
// temp encode/decode, window load, count, sort, likelihood, posterior, output
// codec) and wraps every call in a span (name, start, end, parent) kept in
// memory.  Its output file must be byte-identical to the engine's.  The
// phases the engine fuses into one streaming pass (cal_p: parse + calibrate
// + temp encode; read: temp decode + window load) run one after the other
// here, so each layer is timed on its own.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/crc32.hpp"
#include "src/common/error.hpp"
#include "src/common/json.hpp"
#include "src/common/sha256.hpp"
#include "src/common/timer.hpp"
#include "src/compress/device_rledict.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/backend.hpp"
#include "src/core/batcher.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/core/kernels.hpp"
#include "src/core/likelihood.hpp"
#include "src/core/new_pmatrix.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/posterior.hpp"
#include "src/core/run_manifest.hpp"
#include "src/core/simd.hpp"
#include "src/core/window.hpp"
#include "src/device/perf_model.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "src/service/protocol.hpp"
#include "src/service/socket.hpp"
#include "src/sortnet/multipass.hpp"

namespace fs = std::filesystem;
using namespace gsnp;

namespace {

using Clock = std::chrono::steady_clock;

/// `--flag value` pairs.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) values_[argv[i]] = argv[i + 1];
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = values_.find(key);
    GSNP_CHECK_MSG(it != values_.end(), "missing " << key);
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---- JSON emission ---------------------------------------------------------

std::string jnum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string jstr(const std::string& s) {
  std::ostringstream os;
  json::write_escaped(os, s);
  return os.str();
}

using JsonFields = std::vector<std::pair<std::string, std::string>>;

std::string jobj(const JsonFields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ", ";
    out += jstr(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

std::string jarr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += items[i];
  }
  return out + "]";
}

std::string jbool(bool b) { return b ? "true" : "false"; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// User + system CPU seconds of the whole process (all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set of this process (VmHWM), in KiB.
u64 peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  return 0;
}

// ---- inputs ----------------------------------------------------------------

/// Write ref.fa / dbsnp.txt / align.soap of a chromosome with depth islands
/// under `dir`.  `gsnp_cli simulate` has no islands, so this follows its
/// model (100-bp reads, 0.1% SNPs, dbSNP priors with 0.2% decoys) and adds
/// genome::place_hotspot_islands.  The island layout is part of the
/// workload, not of the seed: HotspotSpec's default placement seed and one
/// fixed multiplier, 40x.  The device simulator runs blocks in parallel, so
/// where the deep sites fall sets its load balance; with a fixed layout
/// every seed does the same device work at the same balance.  The deepest
/// pileup (~320x) stays in one sort size class (257-512), well under the
/// device's 1,024-thread block.
void write_hotspot_dataset(const fs::path& dir, u64 sites, double depth,
                           u64 seed) {
  fs::create_directories(dir);
  genome::GenomeSpec gspec;
  gspec.name = "chrS";
  gspec.length = sites;
  gspec.seed = seed;
  const genome::Reference ref = genome::generate_reference(gspec);
  genome::write_fasta_file(dir / "ref.fa", {ref});

  genome::SnpPlantSpec pspec;
  pspec.seed = seed + 1;
  const std::vector<genome::PlantedSnp> snps = genome::plant_snps(ref, pspec);
  const genome::Diploid individual(ref, snps);
  genome::write_dbsnp_file(dir / "dbsnp.txt",
                           genome::make_dbsnp(ref, snps, 0.002, seed + 2));

  reads::ReadSimSpec rspec;
  rspec.depth = depth;
  rspec.seed = seed + 3;
  genome::HotspotSpec hspec;
  hspec.island_length = std::min<u64>(hspec.island_length, sites / 20);
  hspec.multiplier_lo = 40.0;
  hspec.multiplier_hi = 40.0;
  rspec.hotspots = genome::place_hotspot_islands(sites, hspec);
  reads::write_alignment_file(dir / "align.soap",
                              reads::simulate_reads(individual, rspec));
}

struct Inputs {
  genome::Reference ref;
  genome::DbSnpTable dbsnp;
  fs::path align;
};

Inputs load_inputs(const fs::path& dir) {
  Inputs in;
  std::vector<genome::Reference> refs = genome::read_fasta_file(dir / "ref.fa");
  GSNP_CHECK_MSG(refs.size() == 1, "expected one sequence in " << dir);
  in.ref = std::move(refs[0]);
  in.dbsnp = genome::read_dbsnp_file(dir / "dbsnp.txt", {}, nullptr,
                                     in.ref.size());
  in.align = dir / "align.soap";
  return in;
}

// ---- untraced calls and output checks --------------------------------------

struct CallSample {
  double wall = 0.0;
  double cpu = 0.0;
  double stage_sum = 0.0;  ///< RunReport::total(), the summed stopwatches
  u64 out_bytes = 0;
  std::string sha;
};

CallSample run_call(const Inputs& in, const core::BackendInfo& backend,
                    u64 batch_bytes, const fs::path& out) {
  core::EngineConfig config;
  config.alignment_file = in.align;
  config.reference = &in.ref;
  config.dbsnp = &in.dbsnp;
  config.output_file = out;
  config.temp_file = out.string() + ".tmp";
  config.batch_bytes = batch_bytes;
  std::optional<device::Device> dev;
  if (backend.needs_device) dev.emplace();

  const double cpu0 = cpu_seconds();
  const Timer timer;
  const core::RunReport report =
      core::run_backend(backend, config, dev ? &*dev : nullptr);
  CallSample s;
  s.wall = timer.seconds();
  s.cpu = cpu_seconds() - cpu0;
  s.stage_sum = report.total();
  s.out_bytes = report.output_bytes;
  s.sha = sha256_file_hex(out);
  return s;
}

struct DecodeCheck {
  bool ok = false;
  u64 rows = 0;
  std::string error;
};

/// Decode a GSNPOUT2 file (every frame CRC-checked by the reader) and check
/// it holds exactly one row per reference site, in position order.
DecodeCheck decode_check(const fs::path& path, u64 sites) {
  DecodeCheck c;
  try {
    core::SnpOutputReader reader(path);
    std::vector<core::SnpRow> rows;
    bool ordered = true;
    while (reader.next_window(rows))
      for (const core::SnpRow& row : rows) ordered &= row.pos == c.rows++;
    c.ok = ordered && c.rows == sites;
    if (!c.ok) c.error = "expected one row per site in position order";
  } catch (const std::exception& e) {
    c.error = e.what();
  }
  return c;
}

/// Untraced calls for `seconds` (at least `min_calls`), after one warm-up
/// call whose output is the reference every timed call must reproduce.
struct CallSeries {
  CallSample warmup;
  std::vector<CallSample> samples;
  double loop_wall = 0.0;
  u64 mismatched = 0;
};

CallSeries call_series(const Inputs& in, const core::BackendInfo& backend,
                       u64 batch_bytes, const fs::path& out, double seconds,
                       std::size_t min_calls) {
  CallSeries series;
  series.warmup = run_call(in, backend, batch_bytes, out);
  const Timer loop;
  while (series.samples.size() < min_calls || loop.seconds() < seconds) {
    series.samples.push_back(run_call(in, backend, batch_bytes, out));
    if (series.samples.back().sha != series.warmup.sha) ++series.mismatched;
  }
  series.loop_wall = loop.seconds();
  return series;
}

int cmd_call(const Args& args) {
  const fs::path dir = args.need("--dir");
  const core::BackendInfo& backend =
      core::require_backend(args.need("--backend"));
  const u64 batch_bytes = std::stoull(args.get("--batch-bytes", "0"));
  const double seconds = std::stod(args.need("--seconds"));

  // Reference + dbSNP load is set-up: timed three times, fastest reported.
  std::vector<double> load_times;
  Inputs in;
  for (int i = 0; i < 3; ++i) {
    const Timer timer;
    in = load_inputs(dir);
    load_times.push_back(timer.seconds());
  }
  const fs::path out = dir / "out.snp";
  const CallSeries series =
      call_series(in, backend, batch_bytes, out, seconds, 3);
  const u64 rss = peak_rss_kib();
  u64 attempted = series.samples.size() + 1;
  u64 failed = series.mismatched;

  const DecodeCheck decoded = decode_check(out, in.ref.size());
  failed += decoded.ok ? 0 : 1;
  std::vector<std::string> samples;
  for (const CallSample& s : series.samples)
    samples.push_back(jobj({{"wall_s", jnum(s.wall)},
                            {"cpu_s", jnum(s.cpu)},
                            {"stage_sum_s", jnum(s.stage_sum)},
                            {"out_bytes", std::to_string(s.out_bytes)}}));
  std::printf("%s\n",
              jobj({{"sites", std::to_string(in.ref.size())},
                    {"ref_load_s",
                     jnum(*std::min_element(load_times.begin(),
                                            load_times.end()))},
                    {"calls", jarr(samples)},
                    {"loop_wall_s", jnum(series.loop_wall)},
                    {"peak_rss_kib", std::to_string(rss)},
                    {"mismatched_calls", std::to_string(series.mismatched)},
                    {"decode_ok", jbool(decoded.ok)},
                    {"decode_error", jstr(decoded.error)},
                    {"attempted", std::to_string(attempted)},
                    {"failed", std::to_string(failed)}})
                  .c_str());
  return 0;
}

// ---- the traced layer replay -----------------------------------------------

/// In-memory span recorder: every span has a name, start, end and parent
/// (the span open when it started).  A span's self time is its duration
/// minus the durations of its direct children.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    i64 start_ns = 0;
    i64 end_ns = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name)
        : rec_(rec), index_(rec.open(std::move(name))) {}
    ~Scope() { rec_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int index_;
  };

  /// Self seconds summed per span name.
  std::map<std::string, double> self_seconds() const {
    std::vector<i64> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] +=
          1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                     child_ns[i]);
    return out;
  }

  /// Total seconds of every span with this name.
  double seconds(const std::string& name) const {
    i64 ns = 0;
    for (const Span& s : spans_)
      if (s.name == name) ns += s.end_ns - s.start_ns;
    return 1e-9 * static_cast<double>(ns);
  }

  void write_json(const fs::path& path) const {
    std::ofstream out(path);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n")
          << jobj({{"id", std::to_string(i)},
                   {"name", jstr(s.name)},
                   {"start_ns", std::to_string(s.start_ns)},
                   {"end_ns", std::to_string(s.end_ns)},
                   {"parent", std::to_string(s.parent)}});
    }
    out << "\n]\n";
    GSNP_CHECK_MSG(out.good(), "cannot write " << path);
  }

 private:
  int open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.start_ns = now_ns();
    s.parent = current_;
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int index) {
    spans_[index].end_ns = now_ns();
    current_ = spans_[index].parent;
  }
  i64 now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// The engine's window_posterior, from the public posterior functions: the
/// genotype call comes from `device_calls` (device path) or the host
/// selection with dbSNP or cached novel priors.
void assemble_rows(const Inputs& in, const core::PriorParams& params,
                   core::PriorCache& priors, const core::WindowRecords& win,
                   const core::WindowObs& obs,
                   const std::vector<core::SiteStats>& stats,
                   const std::vector<core::TypeLikely>& type_likely,
                   const std::vector<core::PosteriorCall>* device_calls,
                   std::vector<core::SnpRow>& rows) {
  rows.resize(win.size);
  for (u32 s = 0; s < win.size; ++s) {
    const u64 pos = win.start + s;
    const u8 ref_base = in.ref.base(pos);
    const genome::KnownSnpEntry* known = in.dbsnp.find(pos);
    core::PosteriorCall call;
    if (device_calls) {
      call = (*device_calls)[s];
    } else if (known) {
      call = core::select_genotype(
          core::genotype_log_priors(ref_base, known, params), type_likely[s]);
    } else {
      call = core::select_genotype(priors.get(ref_base, nullptr),
                                   type_likely[s]);
    }
    rows[s] = core::assemble_row(pos, ref_base, known != nullptr, call,
                                 stats[s], obs.site(s), obs.site_hits(s));
  }
}

/// GSNPOUT2 container framing (core/output_codec.hpp): magic, varint name
/// length, name, then per window [varint size][frame][CRC-32 LE].  The
/// byte-identity check against the engine's output pins this to the writer.
void write_bytes(std::ofstream& out, const void* data, std::size_t n) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

void write_output_header(std::ofstream& out, const std::string& name) {
  std::vector<u8> len;
  varint_append(len, name.size());
  write_bytes(out, core::kOutputMagic, sizeof(core::kOutputMagic));
  write_bytes(out, len.data(), len.size());
  write_bytes(out, name.data(), name.size());
}

void write_output_frame(std::ofstream& out, const std::vector<u8>& frame) {
  std::vector<u8> prefix;
  varint_append(prefix, frame.size());
  const u32 crc = crc32(frame.data(), frame.size());
  const u8 crc_le[4] = {static_cast<u8>(crc), static_cast<u8>(crc >> 8),
                        static_cast<u8>(crc >> 16), static_cast<u8>(crc >> 24)};
  write_bytes(out, prefix.data(), prefix.size());
  write_bytes(out, frame.data(), frame.size());
  write_bytes(out, crc_le, sizeof(crc_le));
}

struct ReplayConfig {
  bool device = false;  ///< gsnp (batched device path) instead of gsnp-cpu
  u64 batch_bytes = 0;
  fs::path out;
  fs::path temp;
};

/// One traced pass of the serial pipeline (gsnp-cpu, or gsnp with batching)
/// from the layers' public functions.  Returns the per-layer metrics.
std::map<std::string, double> replay(const Inputs& in, const ReplayConfig& rc,
                                     SpanRecorder& sp) {
  using namespace core;
  const genome::Reference& ref = in.ref;
  const u32 window_size = EngineConfig::kDefaultGsnpWindow;
  const PriorParams prior_params;
  u64 records = 0, observations = 0, temp_bytes = 0, base_words = 0;
  u64 batches = 0, actual_peak = 0;
  double occupancy = 0.0;
  sortnet::SortStats sorted;
  device::Device dev;
  const device::PerfModel model;
  std::map<std::string, device::DeviceCounters> device_families;

  // A device call: its wall time is simulator time; its counter delta is
  // modeled into M2050 seconds per kernel family.
  const auto on_device = [&](const char* family, auto&& body) {
    const device::DeviceCounters before = dev.counters();
    {
      const SpanRecorder::Scope span(sp, family);
      body();
    }
    device_families[family] +=
        device::counters_delta(before, dev.counters());
  };

  {
    const SpanRecorder::Scope top(sp, "replay");
    PMatrix pm;
    std::optional<NewPMatrix> npm;
    std::optional<DeviceScoreTables> tables;
    {
      const SpanRecorder::Scope cal_p(sp, "cal_p");
      std::vector<reads::AlignmentRecord> recs;
      {
        const SpanRecorder::Scope span(sp, "reads.parse");
        reads::AlignmentReader reader(in.align, {}, ref.size());
        while (auto rec = reader.next()) recs.push_back(std::move(*rec));
      }
      records = recs.size();
      {
        const SpanRecorder::Scope span(sp, "pmatrix.calibrate");
        PMatrixCounter counter;
        for (const reads::AlignmentRecord& rec : recs) {
          if (rec.hit_count != 1) continue;
          const u64 hi = std::min<u64>(rec.pos + rec.length, ref.size());
          for (u64 p = rec.pos; p < hi; ++p) {
            const u8 r = ref.base(p);
            if (r >= kNumBases) continue;
            reads::SiteObservation so;
            if (!reads::observe_site(rec, p, so)) continue;
            counter.add(so.quality, so.coord, r, so.base);
            ++observations;
          }
        }
        pm = finalize_p_matrix(counter);
        npm.emplace(pm);
      }
      {
        const SpanRecorder::Scope span(sp, "temp.encode");
        compress::TempInputWriter writer(rc.temp, ref.name());
        for (const reads::AlignmentRecord& rec : recs) writer.add(rec);
        temp_bytes = writer.finish();
      }
      if (rc.device)
        on_device("device.tables", [&] { tables.emplace(dev, pm, *npm); });
    }

    std::vector<reads::AlignmentRecord> decoded;
    {
      const SpanRecorder::Scope span(sp, "temp.decode");
      compress::TempInputReader reader(rc.temp);
      while (auto rec = reader.next()) decoded.push_back(std::move(*rec));
    }
    std::size_t cursor = 0;
    WindowLoader loader(
        [&]() -> std::optional<reads::AlignmentRecord> {
          if (cursor == decoded.size()) return std::nullopt;
          return std::move(decoded[cursor++]);
        },
        ref.size(), window_size);

    std::ofstream out(rc.out, std::ios::binary);
    GSNP_CHECK_MSG(out.good(), "cannot open " << rc.out);
    write_output_header(out, ref.name());
    const RleDictFn host_rle = host_rle_dict();
    const RleDictFn rle =
        rc.device
            ? RleDictFn([&](std::span<const u32> column, std::vector<u8>& o) {
                on_device("device.rle_dict", [&] {
                  compress::device_encode_rle_dict(dev, column, o);
                });
              })
            : RleDictFn([&](std::span<const u32> column, std::vector<u8>& o) {
                const SpanRecorder::Scope span(sp, "output.rle_dict");
                host_rle(column, o);
              });

    PriorCache priors(prior_params);
    BaseWordWindow sparse(window_size);
    WindowRecords win;
    WindowObs obs;
    std::vector<SiteStats> stats;
    std::vector<TypeLikely> type_likely;
    std::vector<SnpRow> rows;
    for (;;) {
      {
        const SpanRecorder::Scope span(sp, "window.load");
        if (!loader.next(win)) break;
      }
      {
        // The engine recycles (resets) the sparse window after its output;
        // resetting before the next count is the same state change.
        const SpanRecorder::Scope span(sp, "window.count");
        sparse.reset(window_size);
        count_window(win, obs, stats, nullptr, &sparse);
      }
      base_words += sparse.words.size();
      type_likely.resize(win.size);
      if (!rc.device) {
        {
          const SpanRecorder::Scope span(sp, "likelihood.sort");
          likelihood_sort_cpu(sparse);
        }
        {
          const SpanRecorder::Scope span(sp, "likelihood.comp");
          for (u32 s = 0; s < win.size; ++s)
            type_likely[s] = likelihood_sparse_site(sparse.site(s), *npm);
        }
        {
          const SpanRecorder::Scope span(sp, "posterior");
          assemble_rows(in, prior_params, priors, win, obs, stats, type_likely,
                        nullptr, rows);
        }
      } else {
        BatchPlan plan;
        {
          const SpanRecorder::Scope span(sp, "batcher.plan");
          plan = plan_batches(sparse.offsets, rc.batch_bytes);
        }
        batches += plan.batches.size();
        occupancy = std::max(occupancy,
                             static_cast<double>(plan.planned_peak_bytes) /
                                 static_cast<double>(rc.batch_bytes));
        std::vector<GenotypePriors> window_priors(win.size);
        {
          const SpanRecorder::Scope span(sp, "posterior");
          for (u32 s = 0; s < win.size; ++s)
            window_priors[s] = priors.get(ref.base(win.start + s),
                                          in.dbsnp.find(win.start + s));
        }
        std::vector<PosteriorCall> calls(win.size);
        for (const SiteBatch& b : plan.batches) {
          const SpanRecorder::Scope batch(sp, "batch");
          const u64 batch_base = dev.allocated_bytes();
          dev.reset_peak_watermark();
          std::vector<u64> boffsets(b.sites() + 1);
          for (u32 s = 0; s <= b.sites(); ++s)
            boffsets[s] = sparse.offsets[b.begin + s] - b.words_begin;
          {
            std::optional<device::DeviceBuffer<u32>> words_dev;
            std::optional<device::DeviceBuffer<u64>> offsets_dev;
            on_device("sortnet", [&] {
              words_dev.emplace(dev.to_device(
                  std::span<const u32>(sparse.words)
                      .subspan(b.words_begin, b.words())));
              const sortnet::SortStats st =
                  sortnet::sort_device_multipass_resident(dev, *words_dev,
                                                          boffsets);
              sorted.elements_real += st.elements_real;
              sorted.elements_padded += st.elements_padded;
              sorted.passes += st.passes;
            });
            on_device("device.likelihood", [&] {
              offsets_dev.emplace(
                  dev.to_device(std::span<const u64>(boffsets)));
              const std::vector<TypeLikely> btl =
                  device_likelihood_sparse_resident(
                      dev, *words_dev, *offsets_dev, b.sites(), *tables);
              std::copy(btl.begin(), btl.end(), type_likely.begin() + b.begin);
            });
          }
          on_device("device.posterior", [&] {
            const std::vector<PosteriorCall> bcalls = device_posterior(
                dev,
                std::span<const TypeLikely>(type_likely)
                    .subspan(b.begin, b.sites()),
                std::span<const GenotypePriors>(window_priors)
                    .subspan(b.begin, b.sites()));
            std::copy(bcalls.begin(), bcalls.end(), calls.begin() + b.begin);
          });
          actual_peak =
              std::max(actual_peak, dev.peak_since_watermark() - batch_base);
        }
        {
          const SpanRecorder::Scope span(sp, "posterior");
          assemble_rows(in, prior_params, priors, win, obs, stats, type_likely,
                        &calls, rows);
        }
      }
      std::vector<u8> frame;
      {
        const SpanRecorder::Scope span(sp, "output.encode");
        frame = compress_snp_window(rows, rle);
      }
      {
        const SpanRecorder::Scope span(sp, "output.write");
        write_output_frame(out, frame);
      }
    }
    {
      const SpanRecorder::Scope span(sp, "output.write");
      out.close();
      GSNP_CHECK_MSG(out.good(), "cannot write " << rc.out);
    }
  }
  DecodeCheck decoded;
  {
    const SpanRecorder::Scope span(sp, "output.decode");
    decoded = decode_check(rc.out, ref.size());
  }
  GSNP_CHECK_MSG(decoded.ok, "replay output does not decode: " << decoded.error);

  std::map<std::string, double> self = sp.self_seconds();
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double sites = static_cast<double>(ref.size());
  const double nrecords = static_cast<double>(records);
  const double words = static_cast<double>(base_words);
  std::map<std::string, double> m;
  m["reads.parse_s"] = self["reads.parse"];
  m["reads.ns_per_record"] = per(1e9 * self["reads.parse"], nrecords);
  m["pmatrix.calibrate_s"] = self["pmatrix.calibrate"];
  m["pmatrix.observations"] = static_cast<double>(observations);
  m["temp.encode_s"] = self["temp.encode"];
  m["temp.decode_s"] = self["temp.decode"];
  m["temp.bytes_per_record"] = per(static_cast<double>(temp_bytes), nrecords);
  m["window.load_s"] = self["window.load"];
  m["window.count_s"] = self["window.count"];
  m["window.base_words"] = words;
  m["likelihood.sort_s"] = self["likelihood.sort"];
  m["likelihood.comp_s"] = self["likelihood.comp"];
  m["likelihood.ns_per_word"] =
      per(1e9 * (self["likelihood.sort"] + self["likelihood.comp"]),
          rc.device ? 0.0 : words);
  m["posterior.self_s"] = self["posterior"];
  m["posterior.ns_per_site"] = per(1e9 * self["posterior"], sites);
  m["output.encode_s"] = self["output.encode"] + self["output.rle_dict"];
  m["output.write_s"] = self["output.write"];
  m["output.decode_s"] = self["output.decode"];
  m["batcher.plan_s"] = self["batcher.plan"];
  m["batcher.batches"] = static_cast<double>(batches);
  m["batcher.occupancy"] = occupancy;
  m["batcher.actual_peak_bytes"] = static_cast<double>(actual_peak);
  m["sortnet.sim_s"] = self["sortnet"];
  m["sortnet.modeled_s"] = model.seconds(device_families["sortnet"]);
  m["sortnet.useful_frac"] =
      per(static_cast<double>(sorted.elements_real),
          static_cast<double>(sorted.elements_padded));
  m["sortnet.passes"] = sorted.passes;

  device::DeviceCounters all;
  double sim = 0.0;
  for (const auto& [family, counters] : device_families) {
    all += counters;
    sim += self[family];
  }
  m["device.sim_s"] = sim;
  m["device.likelihood.sim_s"] = self["device.likelihood"];
  m["device.posterior.sim_s"] = self["device.posterior"];
  m["device.rle_dict.sim_s"] = self["device.rle_dict"];
  m["device.modeled_s"] = model.seconds(all);
  m["device.launches"] = static_cast<double>(all.kernel_launches);
  m["device.instructions"] = static_cast<double>(all.instructions);
  m["device.global_bytes"] = static_cast<double>(
      all.global_load_bytes_coalesced + all.global_load_bytes_random +
      all.global_store_bytes_coalesced + all.global_store_bytes_random);
  m["device.pcie_bytes"] = static_cast<double>(all.h2d_bytes + all.d2h_bytes);
  m["device.sim_overhead"] = per(sim, m["device.modeled_s"]);

  // Replay time no layer span covers: the grouping spans' self time (loop
  // control, buffer set-up and frees).
  const double wall = sp.seconds("replay");
  const double unattributed = self["replay"] + self["cal_p"] + self["batch"];
  m["engine.replay_wall_s"] = wall;
  m["engine.self_sum_s"] = wall - unattributed;
  m["engine.unaccounted_frac"] = per(unattributed, wall);
  return m;
}

int cmd_replay(const Args& args) {
  const fs::path dir = args.need("--dir");
  const core::BackendInfo& backend =
      core::require_backend(args.need("--backend"));
  GSNP_CHECK_MSG(backend.kind == core::EngineKind::kGsnpCpu ||
                     backend.kind == core::EngineKind::kGsnp,
                 "the replay covers gsnp-cpu and gsnp");
  const u64 batch_bytes = std::stoull(args.get("--batch-bytes", "0"));
  GSNP_CHECK_MSG(!backend.needs_device || batch_bytes > 0,
                 "the device replay follows the batched path: --batch-bytes");
  const double seconds = std::stod(args.need("--seconds"));
  const Inputs in = load_inputs(dir);

  // Untraced half: the reference output, wall time and summed stopwatches.
  const CallSeries series =
      call_series(in, backend, batch_bytes, dir / "out.snp", seconds / 2, 2);
  std::vector<double> walls, cpus, stage_sums;
  for (const CallSample& s : series.samples) {
    walls.push_back(s.wall);
    cpus.push_back(s.cpu);
    stage_sums.push_back(s.stage_sum);
  }
  u64 attempted = series.samples.size() + 1;
  u64 failed = series.mismatched;
  // Cross-backend identity (paper §IV-G): on the same input the device
  // backend's output must equal gsnp-cpu's, byte for byte.
  const std::string check = args.get("--check-backend", "");
  if (!check.empty()) {
    ++attempted;
    if (run_call(in, core::require_backend(check), 0, dir / "check.snp").sha !=
        series.warmup.sha)
      ++failed;
  }

  // Traced half: replay passes, each checked byte for byte.
  ReplayConfig rc;
  rc.device = backend.needs_device;
  rc.batch_bytes = batch_bytes;
  rc.out = dir / "replay.snp";
  rc.temp = dir / "replay.tmp";
  std::map<std::string, std::vector<double>> layers;
  std::optional<SpanRecorder> last;
  const Timer loop;
  u64 passes = 0;
  while (passes < 2 || loop.seconds() < seconds / 2) {
    SpanRecorder sp;
    for (const auto& [name, value] : replay(in, rc, sp))
      layers[name].push_back(value);
    ++passes;
    ++attempted;
    if (sha256_file_hex(rc.out) != series.warmup.sha) ++failed;
    last = std::move(sp);
  }
  const std::string spans_out = args.get("--spans-out", "");
  if (!spans_out.empty()) last->write_json(spans_out);

  JsonFields metrics;
  for (const auto& [name, values] : layers)
    metrics.emplace_back(name, jnum(median(values)));
  metrics.emplace_back("engine.wall_s", jnum(median(walls)));
  metrics.emplace_back("engine.stage_sum_s", jnum(median(stage_sums)));
  std::printf("%s\n", jobj({{"sites", std::to_string(in.ref.size())},
                            {"untraced_cpu_s", jnum(median(cpus))},
                            {"replay_passes", std::to_string(passes)},
                            {"layers", jobj(metrics)},
                            {"attempted", std::to_string(attempted)},
                            {"failed", std::to_string(failed)}})
                          .c_str());
  return 0;
}

// ---- job pool and gsnpd ----------------------------------------------------

constexpr int kChromosomesPerJob = 2;

/// Pool job k, chromosome c (1-based) lives in <pool>/<k>/chr<c>/ (run.py
/// writes the pool with `gsnp_cli simulate`).
fs::path pool_chromosome(const fs::path& pool, u64 k, int c) {
  return pool / std::to_string(k) / ("chr" + std::to_string(c));
}

int cmd_gen(const Args& args) {
  const fs::path out = args.need("--out");
  write_hotspot_dataset(out, std::stoull(args.need("--sites")),
                        std::stod(args.need("--depth")),
                        std::stoull(args.need("--seed")));
  std::printf("%s\n", jobj({{"out", jstr(out.string())}}).c_str());
  return 0;
}

/// Serial run_genome of every pool job: the manifest digest each service job
/// must reproduce, with its output size and decode check.
int cmd_digest(const Args& args) {
  const fs::path pool = args.need("--pool");
  const fs::path out = args.need("--out");
  const u64 jobs = std::stoull(args.need("--jobs"));
  std::vector<std::string> results;
  for (u64 k = 0; k < jobs; ++k) {
    std::vector<Inputs> inputs;
    for (int c = 1; c <= kChromosomesPerJob; ++c)
      inputs.push_back(load_inputs(pool_chromosome(pool, k, c)));
    core::GenomeRunConfig config;
    config.output_dir = out / std::to_string(k);
    for (const Inputs& in : inputs)
      config.chromosomes.push_back(
          core::ChromosomeJob{in.ref.name(), in.align, &in.ref, &in.dbsnp});
    const core::GenomeReport report =
        core::run_genome(config, core::EngineKind::kGsnpCpu);
    bool decode_ok = report.output_files.size() == inputs.size();
    for (std::size_t i = 0; decode_ok && i < inputs.size(); ++i)
      decode_ok = decode_check(report.output_files[i], inputs[i].ref.size()).ok;
    results.push_back(
        jobj({{"digest", jstr(core::manifest_digest(
                             core::read_run_manifest(report.manifest_file)))},
              {"out_bytes", std::to_string(report.total_output_bytes)},
              {"sites", std::to_string(report.total_sites)},
              {"decode_ok", jbool(decode_ok)}}));
  }
  std::printf("%s\n", jobj({{"jobs", jarr(results)}}).c_str());
  return 0;
}

struct JobRecord {
  u64 pool = 0;
  double submitted = 0.0;  ///< seconds since the load started
  double admitted = 0.0;   ///< submit reply received
  double terminal = 0.0;   ///< first status poll that saw a terminal state
  std::string state;       ///< terminal state, or "rejected" / "error"
  std::string digest;
  std::string error;
};

/// One closed-loop client: submit a pool job, poll its status every 10 ms
/// until it is terminal, repeat until the deadline.  Each client is its own
/// tenant on its own connection.
std::vector<JobRecord> run_client(const fs::path& socket, const fs::path& pool,
                                  u64 jobs, int index, u64 seed,
                                  Clock::time_point start, double seconds) {
  service::ClientOptions options;
  options.op_timeout_seconds = 60.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_seconds = 0.05;
  options.backoff_salt = "perfbench-" + std::to_string(index);
  service::LineClient client(socket, options);
  std::mt19937_64 rng(seed * 7919 + static_cast<u64>(index));
  const auto since = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<JobRecord> records;
  for (u64 n = 0; since() < seconds; ++n) {
    JobRecord rec;
    rec.pool = rng() % jobs;
    service::Request submit;
    submit.op = "submit";
    submit.job.job_id = "c" + std::to_string(index) + "-" + std::to_string(n);
    submit.job.tenant = "c" + std::to_string(index);
    submit.job.engine = "gsnp-cpu";
    for (int c = 1; c <= kChromosomesPerJob; ++c) {
      const fs::path dir = pool_chromosome(pool, rec.pool, c);
      submit.job.chromosomes.push_back(service::ChromosomeSpec{
          "chr" + std::to_string(c), (dir / "align.soap").string(),
          (dir / "ref.fa").string(), (dir / "dbsnp.txt").string()});
    }
    rec.submitted = since();
    try {
      service::Response response = service::parse_response(
          client.request(service::encode_request(submit)));
      rec.admitted = since();
      if (!response.ok) {
        rec.state = "rejected";
        rec.error = service::error_code_name(response.error);
        records.push_back(rec);
        continue;
      }
      service::Request poll;
      poll.op = "status";
      poll.job_id = submit.job.job_id;
      const std::string poll_line = service::encode_request(poll);
      for (;;) {
        response = service::parse_response(client.request(poll_line));
        GSNP_CHECK_MSG(response.ok, "status failed: " << response.message);
        const std::string& state = response.fields["state"];
        if (state != "queued" && state != "running") {
          rec.terminal = since();
          rec.state = state;
          rec.digest = response.fields["manifest_digest"];
          rec.error = response.fields["error"];
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    } catch (const std::exception& e) {
      rec.state = "error";
      rec.error = e.what();
    }
    records.push_back(rec);
  }
  return records;
}

int cmd_load(const Args& args) {
  const fs::path socket = args.need("--socket");
  const fs::path pool = args.need("--pool");
  const u64 jobs = std::stoull(args.need("--jobs"));
  const int clients = std::stoi(args.need("--clients"));
  const double seconds = std::stod(args.need("--seconds"));
  const u64 seed = std::stoull(args.need("--seed"));
  GSNP_CHECK(jobs > 0 && clients > 0);

  const Clock::time_point start = Clock::now();
  std::vector<std::vector<JobRecord>> per_client(clients);
  std::vector<std::string> errors(clients);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i)
      threads.emplace_back([&, i] {
        try {
          per_client[i] =
              run_client(socket, pool, jobs, i, seed, start, seconds);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    for (std::thread& t : threads) t.join();
  }
  std::vector<std::string> out;
  for (int i = 0; i < clients; ++i) {
    GSNP_CHECK_MSG(errors[i].empty(), "client " << i << ": " << errors[i]);
    for (const JobRecord& r : per_client[i])
      out.push_back(jobj({{"pool", std::to_string(r.pool)},
                          {"submitted", jnum(r.submitted)},
                          {"admitted", jnum(r.admitted)},
                          {"terminal", jnum(r.terminal)},
                          {"state", jstr(r.state)},
                          {"digest", jstr(r.digest)},
                          {"error", jstr(r.error)}}));
  }
  std::printf("%s\n", jobj({{"jobs", jarr(out)}}).c_str());
  return 0;
}

int cmd_info() {
  bool instrumented = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  instrumented = true;
#endif
  std::printf(
      "%s\n",
      jobj({{"build_type", jstr(PERFBENCH_BUILD_TYPE)},
            {"sanitize", jstr(PERFBENCH_SANITIZE)},
            {"sanitizer_instrumented", jbool(instrumented)},
            {"simd_level",
             jstr(core::simd::level_name(core::simd::active_level()))},
            {"compiler", jstr(__VERSION__)}})
          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench info|gen|call|replay|digest|load ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  try {
    if (cmd == "info") return cmd_info();
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "call") return cmd_call(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "digest") return cmd_digest(args);
    if (cmd == "load") return cmd_load(args);
    std::fprintf(stderr, "perfbench: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
