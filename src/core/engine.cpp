#include "src/core/engine.hpp"

#include <algorithm>
#include <future>
#include <memory>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/common/thread_pool.hpp"
#include "src/compress/device_rledict.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/kernels.hpp"
#include "src/core/likelihood.hpp"
#include "src/core/new_pmatrix.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/posterior.hpp"
#include "src/core/simd.hpp"
#include "src/core/window.hpp"
#include "src/device/stream.hpp"
#include "src/obs/stream_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/reads/alignment.hpp"
#include "src/sortnet/multipass.hpp"

namespace gsnp::core {

double RunReport::total() const {
  double t = 0.0;
  for (const char* name : kComponents) t += component(name);
  return t;
}

namespace {

/// The cal_p_matrix pass: stream the alignment text file once, accumulate
/// the recalibration counts (unique hits vs the reference base), and — for
/// the GSNP engines — write the compressed temporary input alongside
/// (paper §V-A).
struct CalPResult {
  PMatrix pm;
  u64 records = 0;
  u64 temp_bytes = 0;
  IngestStats ingest;
};

CalPResult cal_p_pass(const EngineConfig& config, bool write_temp) {
  const genome::Reference& ref = *config.reference;
  const bool reuse_matrix = !config.p_matrix_in.empty();

  CalPResult result;
  // With a reloaded matrix and no temp file to produce (SOAPsnp engine), the
  // whole input pass is skipped — the point of the matrix-reuse feature.
  if (reuse_matrix && !write_temp) {
    result.pm = read_p_matrix(config.p_matrix_in);
    reads::AlignmentReader reader(config.alignment_file, config.ingest,
                                  ref.size());
    while (reader.next()) {  // count only (no calibration)
      if ((++result.records & 0xFFF) == 0) check_cancel(config.cancel, "cal_p");
    }
    result.ingest = reader.stats();
    if (!config.p_matrix_out.empty())
      write_p_matrix(config.p_matrix_out, result.pm);
    return result;
  }

  reads::AlignmentReader reader(config.alignment_file, config.ingest,
                                ref.size());
  std::optional<compress::TempInputWriter> temp;
  if (write_temp) {
    GSNP_CHECK_MSG(!config.temp_file.empty(),
                   "GSNP engines need config.temp_file");
    temp.emplace(config.temp_file, ref.name());
  }

  PMatrixCounter counter;
  while (auto rec = reader.next()) {
    if ((++result.records & 0xFFF) == 0) check_cancel(config.cancel, "cal_p");
    if (temp) temp->add(*rec);
    if (reuse_matrix || rec->hit_count != 1) continue;
    reads::for_each_observation(
        *rec, 0, ref.size(), [&](u64 p, const reads::SiteObservation& so) {
          const u8 r = ref.base(p);
          if (r < kNumBases) counter.add(so.quality, so.coord, r, so.base);
        });
  }
  result.ingest = reader.stats();
  if (temp) result.temp_bytes = temp->finish();
  result.pm = reuse_matrix ? read_p_matrix(config.p_matrix_in)
                           : finalize_p_matrix(counter);
  if (!config.p_matrix_out.empty())
    write_p_matrix(config.p_matrix_out, result.pm);
  return result;
}

/// Posterior for a whole window -> rows (shared by all engines; identical
/// results by construction), in chunks of sites on the compute executor.
/// When `device_calls` is non-null the genotype selection came from the
/// device posterior kernel; only the statistics columns are assembled on
/// the host.
void window_posterior(const EngineConfig& config, const PriorCache& priors,
                      const WindowRecords& win, const WindowObs& obs,
                      const std::vector<SiteStats>& stats,
                      const std::vector<TypeLikely>& type_likely,
                      std::vector<SnpRow>& rows,
                      const std::vector<PosteriorCall>* device_calls = nullptr,
                      simd::SelectFn select = &select_genotype) {
  const genome::Reference& ref = *config.reference;
  rows.resize(win.size);
  parallel_for(win.size, kSitesPerChunk, [&](std::size_t begin,
                                             std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      const u32 s = static_cast<u32>(i);
      const u64 pos = win.start + s;
      const genome::KnownSnpEntry* known =
          config.dbsnp ? config.dbsnp->find(pos) : nullptr;
      PosteriorCall call;
      if (device_calls) {
        call = (*device_calls)[s];
      } else if (known) {
        // dbSNP priors are site-specific; computed per site.
        call = select(genotype_log_priors(ref.base(pos), known, config.prior),
                      type_likely[s]);
      } else {
        // Novel sites share one of five cached priors.
        call = select(priors.novel(ref.base(pos)), type_likely[s]);
      }
      rows[s] = assemble_row(pos, ref.base(pos), known != nullptr, call,
                             stats[s], obs.site(s), obs.site_hits(s));
    }
  });
}

/// Run `sites(begin, end)` over each batch of the window's plan when
/// batching is on, else once over the whole window.
template <typename Sites>
void over_batches(const std::optional<BatchPlan>& plan, u32 window_sites,
                  Sites&& sites) {
  if (!plan) return sites(0u, window_sites);
  for (const SiteBatch& b : plan->batches) sites(b.begin, b.end);
}

/// Sites per chunk of SOAPsnp's dense likelihood, which scans a 128 KiB
/// matrix per site.
constexpr std::size_t kDenseSitesPerChunk = 64;

/// SOAPsnp's dense likelihood (Algorithm 1) for sites [begin, end), in
/// chunks of kDenseSitesPerChunk on the compute executor.
void likelihood_dense_sites(const BaseOccWindow& dense, const PMatrix& pm,
                            u32 begin, u32 end,
                            std::vector<TypeLikely>& type_likely) {
  parallel_for(end - begin, kDenseSitesPerChunk,
               [&](std::size_t b, std::size_t e, std::size_t) {
                 for (std::size_t i = begin + b; i < begin + e; ++i)
                   type_likely[i] = likelihood_dense_site(
                       dense.site(static_cast<u32>(i)), pm);
               });
}

/// The sparse likelihood (Algorithm 4's computation step) for sites
/// [begin, end) of a sorted window, in chunks of kSitesPerChunk.
void likelihood_sparse_sites(simd::SparseSiteFn sparse_site,
                             const BaseWordWindow& sparse,
                             const NewPMatrix& npm, u32 begin, u32 end,
                             std::vector<TypeLikely>& type_likely) {
  parallel_for(end - begin, kSitesPerChunk,
               [&](std::size_t b, std::size_t e, std::size_t) {
                 for (std::size_t i = begin + b; i < begin + e; ++i)
                   type_likely[i] =
                       sparse_site(sparse.site(static_cast<u32>(i)), npm);
               });
}

/// Window-pass record source over the raw text (SOAPsnp engine).  The cal_p
/// pass already quarantined and counted this file; the second pass must skip
/// the same records without double-writing the quarantine, so the policy's
/// quarantine_file is cleared here (skips are deterministic, so both passes
/// see the identical surviving record stream).
WindowLoader::RecordSource text_source(const std::filesystem::path& path,
                                       IngestPolicy policy, u64 ref_len) {
  policy.quarantine_file.clear();
  auto reader = std::make_shared<reads::AlignmentReader>(
      path, std::move(policy), ref_len);
  return [reader] { return reader->next(); };
}

WindowLoader::RecordSource temp_source(const std::filesystem::path& path) {
  auto reader = std::make_shared<compress::TempInputReader>(path);
  return [reader] { return reader->next(); };
}

/// One pipeline stage, measured once and recorded in both views: the
/// RunReport stopwatch (the Tables I/IV breakdowns) and — when a tracer is
/// attached — a span.  The stopwatch receives exactly the seconds the span
/// reports as host_sec, so the two views cannot drift.
class StageScope {
 public:
  StageScope(StopwatchSet& set, obs::Tracer* tracer, const char* name)
      : set_(set), name_(name), span_(tracer, name, "stage") {}

  /// Subtract simulator wall time misattributed to this stage: the GSNP
  /// engine runs device kernels through the host simulator, and that wall
  /// time belongs to the modeled device, not the host component.
  void deduct(double seconds) { deduct_ += seconds; }

  /// Annotate the stage's span (backend tag, SIMD dispatch level).
  void note(std::string_view key, std::string_view value) {
    span_.note(key, value);
  }

  ~StageScope() {
    const double sec = std::max(0.0, timer_.seconds() - deduct_);
    set_.add(name_, sec);
    span_.set_host_seconds(sec);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StopwatchSet& set_;
  const char* name_;
  obs::Tracer::Scope span_;  // declared before timer_: dtor order measures
  Timer timer_;              // the stage, then finishes the span
  double deduct_ = 0.0;
};

/// Run totals into the tracer's metrics registry (exported with the run).
void record_run_metrics(obs::Tracer* tracer, const char* engine,
                        const RunReport& report) {
  if (!tracer) return;
  obs::Metrics& m = tracer->metrics();
  m.add(std::string("runs_") + engine);
  m.add("sites", report.sites);
  m.add("windows", report.windows);
  m.add("records", report.records);
  m.add("output_bytes", report.output_bytes);
  m.add("temp_bytes", report.temp_bytes);
  m.add("records_quarantined", report.ingest.records_quarantined);
  m.set_gauge("peak_host_bytes", static_cast<double>(report.peak_host_bytes));
  m.set_gauge("peak_device_bytes",
              static_cast<double>(report.peak_device_bytes));
  if (report.batch.batches > 0) {
    m.add("batches", report.batch.batches);
    m.set_gauge("batch_budget_bytes",
                static_cast<double>(report.batch.budget_bytes));
    m.set_gauge("batch_planned_peak_bytes",
                static_cast<double>(report.batch.planned_peak_bytes));
    m.set_gauge("batch_actual_peak_bytes",
                static_cast<double>(report.batch.actual_peak_bytes));
  }
  if (report.wall_seconds > 0.0)
    m.set_gauge("sites_per_sec",
                static_cast<double>(report.sites) / report.wall_seconds);
}

/// Plan the window's batches when batching is on (EngineConfig::batch_bytes
/// > 0) and fold the plan into the run aggregate.  The device engine packs
/// from the sparse base-word CSR (the payload that actually lands on the
/// card); SOAPsnp, which has no sparse CSR, packs from the observation CSR —
/// per-site observation counts, the same depth signal.  Host backends use
/// the plan only to chunk their per-site loops (identical arithmetic, so
/// identical output), keeping RunReport::batch meaningful on every backend.
std::optional<BatchPlan> maybe_plan_batches(const EngineConfig& config,
                                            std::span<const u64> offsets,
                                            RunReport& report) {
  if (config.batch_bytes == 0) return std::nullopt;
  BatchPlan plan = plan_batches(offsets, config.batch_bytes);
  report.batch.absorb(plan);
  return plan;
}

// ---- overlapped (double-buffered) pipeline variants ------------------------
//
// Selected by config.streams >= 2.  The serial paths below are the
// bit-exactness reference and stay untouched; the overlapped variants run
// the same arithmetic on the same data in the same order — only *when* each
// stage executes relative to the others changes — so their output is
// byte-identical (enforced by tests/test_determinism).  The reduction-order
// rule that makes this true: every per-window artifact (counts, likelihoods,
// rows, output frames) is produced by exactly one stage, stages of one
// window are chained in serial order, and cross-window interleavings never
// share mutable state (disjoint window slots; the output writer consumes
// windows in index order via an ordered task chain / a dedicated stream).

/// SOAPsnp, overlapped: a host thread-pool prefetches (reads + recycles +
/// counts) window i+1 into its own dense slot while the main thread computes
/// likelihood/posterior for window i, and window i-1's text output drains
/// through an ordered pool task.
RunReport run_soapsnp_overlapped(const EngineConfig& config) {
  GSNP_CHECK(config.reference != nullptr);
  const genome::Reference& ref = *config.reference;
  const u32 window_size = config.window_size
                              ? config.window_size
                              : EngineConfig::kDefaultSoapsnpWindow;
  RunReport report;
  report.sites = ref.size();
  report.streams_used = config.streams;
  obs::Tracer* const tracer = config.tracer;

  PMatrix pm;
  {
    const StageScope scope(report.host, tracer, "cal_p");
    CalPResult cal = cal_p_pass(config, /*write_temp=*/false);
    pm = std::move(cal.pm);
    report.records = cal.records;
    report.ingest = cal.ingest;
  }

  struct Slot {
    WindowRecords win;
    WindowObs obs;
    std::vector<SiteStats> stats;
    std::unique_ptr<BaseOccWindow> dense;
    std::vector<TypeLikely> type_likely;
    std::vector<SnpRow> rows;
    std::shared_future<void> write_done;  // this slot's rows are in flight
    bool loaded = false;
  };
  const u32 depth = std::max<u32>(2, config.pipeline_depth);
  std::vector<Slot> slots(depth);
  for (Slot& s : slots)
    s.dense = std::make_unique<BaseOccWindow>(window_size);

  WindowLoader loader(
      text_source(config.alignment_file, config.ingest, ref.size()),
      ref.size(), window_size);
  SnpTextWriter writer(config.output_file, ref.name());
  const PriorCache priors(config.prior);

  // Runs on the pool; at most one prefetch task is in flight at a time, so
  // loader access is serialized.  Recycle moves from "after output" to
  // "before count" of the slot's next occupant — numerically identical (a
  // zeroed matrix is a zeroed matrix), and it rides the prefetch thread.
  const auto load_into = [&](Slot& slot) {
    // Cancellation point for the overlapped paths: the CancelledError unwinds
    // through the prefetch future into the main loop's get().
    check_cancel(config.cancel, "window");
    {
      const StageScope scope(report.host, tracer, "read");
      slot.loaded = loader.next(slot.win);
    }
    if (!slot.loaded) return;
    {
      const StageScope scope(report.host, tracer, "recycle");
      slot.dense->recycle();
    }
    {
      const StageScope scope(report.host, tracer, "count");
      count_window(slot.win, slot.obs, slot.stats, slot.dense.get(), nullptr);
    }
  };

  std::shared_future<void> last_write;  // ordered output chain
  ThreadPool host_pool(std::max<u32>(1, config.host_threads));
  std::future<void> prefetch =
      host_pool.submit([&, s = &slots[0]] { load_into(*s); });
  for (u64 i = 0;; ++i) {
    prefetch.get();  // window i ingested (or end of input); rethrows errors
    Slot& slot = slots[i % depth];
    if (!slot.loaded) break;
    ++report.windows;
    prefetch = host_pool.submit(
        [&, s = &slots[(i + 1) % depth]] { load_into(*s); });
    {
      const StageScope scope(report.host, tracer, "likeli");
      slot.type_likely.resize(slot.win.size);
      over_batches(maybe_plan_batches(config, slot.obs.offsets, report),
                   slot.win.size, [&](u32 begin, u32 end) {
                     likelihood_dense_sites(*slot.dense, pm, begin, end,
                                            slot.type_likely);
                   });
    }
    // The slot's previous occupant may still be draining through the writer;
    // its rows must not be overwritten until that write retires.
    if (slot.write_done.valid()) slot.write_done.wait();
    {
      const StageScope scope(report.host, tracer, "post");
      window_posterior(config, priors, slot.win, slot.obs, slot.stats,
                       slot.type_likely, slot.rows);
    }
    // Deferred output: window i writes while iteration i+1 computes.  Each
    // task waits its predecessor, so windows hit the file in index order.
    const std::shared_future<void> prev = last_write;
    last_write = host_pool
                     .submit([&, s = &slot, prev] {
                       if (prev.valid()) prev.wait();
                       const StageScope scope(report.host, tracer, "output");
                       writer.write_window(s->rows);
                     })
                     .share();
    slot.write_done = last_write;
  }
  // Join every outstanding write; get() rethrows the first failure.
  for (Slot& slot : slots)
    if (slot.write_done.valid()) slot.write_done.get();
  report.output_bytes = writer.finish();
  report.peak_host_bytes =
      depth * slots[0].dense->bytes() + pm.flat().size() * sizeof(double);
  return report;
}

/// Parameterization of the host sparse engine: gsnp_cpu and gsnp_simd run
/// the identical pipeline over the identical data; only the per-site
/// kernels (and the labels describing them) differ.  gsnp_cpu binds the
/// scalar reference kernels, gsnp_simd the dispatch level simd::kernels()
/// selected — so "forced scalar" gsnp_simd and gsnp_cpu execute the very
/// same functions.
struct HostSparseOps {
  const char* engine;      ///< metrics tag: "gsnp_cpu" / "gsnp_simd"
  const char* simd_level;  ///< non-null: span/metrics annotation
  simd::SparseSiteFn sparse_site;
  simd::SelectFn select;
};

/// Host sparse engine, overlapped: same shape as SOAPsnp's variant with the
/// sparse representation — prefetch packs base_words for window i+1 while
/// the main thread sorts + computes window i and the pool
/// RLE-DICT-compresses and writes window i-1 (the compression lives inside
/// the deferred output task, which is the point: it rides a spare host
/// thread).
RunReport run_host_sparse_overlapped(const EngineConfig& config,
                                     const HostSparseOps& ops) {
  GSNP_CHECK(config.reference != nullptr);
  const genome::Reference& ref = *config.reference;
  const u32 window_size =
      config.window_size ? config.window_size : EngineConfig::kDefaultGsnpWindow;
  RunReport report;
  report.sites = ref.size();
  report.streams_used = config.streams;
  obs::Tracer* const tracer = config.tracer;

  PMatrix pm;
  std::optional<NewPMatrix> npm;
  {
    const StageScope scope(report.host, tracer, "cal_p");
    CalPResult cal = cal_p_pass(config, /*write_temp=*/true);
    pm = std::move(cal.pm);
    report.records = cal.records;
    report.temp_bytes = cal.temp_bytes;
    report.ingest = cal.ingest;
    npm.emplace(pm);
  }

  struct Slot {
    WindowRecords win;
    WindowObs obs;
    std::vector<SiteStats> stats;
    BaseWordWindow sparse;
    std::vector<TypeLikely> type_likely;
    std::vector<SnpRow> rows;
    std::shared_future<void> write_done;
    bool loaded = false;
  };
  const u32 depth = std::max<u32>(2, config.pipeline_depth);
  std::vector<Slot> slots(depth);

  WindowLoader loader(temp_source(config.temp_file), ref.size(), window_size);
  SnpOutputWriter writer(config.output_file, ref.name());
  const RleDictFn rle = host_rle_dict();
  PriorCache priors(config.prior);
  u64 max_words = 0;

  const auto load_into = [&](Slot& slot) {
    // Cancellation point for the overlapped paths: the CancelledError unwinds
    // through the prefetch future into the main loop's get().
    check_cancel(config.cancel, "window");
    {
      const StageScope scope(report.host, tracer, "read");
      slot.loaded = loader.next(slot.win);
    }
    if (!slot.loaded) return;
    {
      const StageScope scope(report.host, tracer, "recycle");
      slot.sparse.reset(window_size);
    }
    {
      const StageScope scope(report.host, tracer, "count");
      count_window(slot.win, slot.obs, slot.stats, nullptr, &slot.sparse);
      max_words = std::max<u64>(max_words, slot.sparse.words.size());
    }
  };

  std::shared_future<void> last_write;
  ThreadPool host_pool(std::max<u32>(1, config.host_threads));
  std::future<void> prefetch =
      host_pool.submit([&, s = &slots[0]] { load_into(*s); });
  for (u64 i = 0;; ++i) {
    prefetch.get();
    Slot& slot = slots[i % depth];
    if (!slot.loaded) break;
    ++report.windows;
    prefetch = host_pool.submit(
        [&, s = &slots[(i + 1) % depth]] { load_into(*s); });
    {
      const StageScope likeli_scope(report.host, tracer, "likeli");
      {
        const StageScope sort_scope(report.host, tracer, "likeli_sort");
        likelihood_sort_cpu(slot.sparse);
      }
      {
        StageScope comp_scope(report.host, tracer, "likeli_comp");
        if (ops.simd_level != nullptr) {
          comp_scope.note("backend", ops.engine);
          comp_scope.note("simd", ops.simd_level);
        }
        slot.type_likely.resize(slot.win.size);
        over_batches(maybe_plan_batches(config, slot.sparse.offsets, report),
                     slot.win.size, [&](u32 begin, u32 end) {
                       likelihood_sparse_sites(ops.sparse_site, slot.sparse,
                                               *npm, begin, end,
                                               slot.type_likely);
                     });
      }
    }
    if (slot.write_done.valid()) slot.write_done.wait();
    {
      StageScope scope(report.host, tracer, "post");
      if (ops.simd_level != nullptr) {
        scope.note("backend", ops.engine);
        scope.note("simd", ops.simd_level);
      }
      window_posterior(config, priors, slot.win, slot.obs, slot.stats,
                       slot.type_likely, slot.rows, nullptr, ops.select);
    }
    const std::shared_future<void> prev = last_write;
    last_write = host_pool
                     .submit([&, s = &slot, prev] {
                       if (prev.valid()) prev.wait();
                       const StageScope scope(report.host, tracer, "output");
                       writer.write_window(s->rows, rle);
                     })
                     .share();
    slot.write_done = last_write;
  }
  for (Slot& slot : slots)
    if (slot.write_done.valid()) slot.write_done.get();
  report.output_bytes = writer.finish();
  report.peak_host_bytes = depth * max_words * sizeof(u32) +
                           npm->flat().size() * sizeof(double) +
                           pm.flat().size() * sizeof(double);
  return report;
}

/// GSNP, overlapped: the full three-way overlap of the paper's pipeline.
/// Device work for window i is *enqueued* onto async streams (h2d copies on
/// the copy stream, sort + likelihood on the compute stream, chained by
/// events) together with window i-1's device-RLE output on the output
/// stream, then drained in one deterministic sync — the overlap-aware wall
/// clock charges max(compute, transfer, output) across the lanes.  The host
/// thread-pool prefetches window i+1 meanwhile.  Per-component modeled
/// seconds come from the per-op counter deltas in the pool's execution log,
/// mapped to the same components the serial path charges.
RunReport run_gsnp_overlapped(const EngineConfig& config, device::Device& dev,
                              const device::PerfModel& model) {
  GSNP_CHECK(config.reference != nullptr);
  const genome::Reference& ref = *config.reference;
  const u32 window_size =
      config.window_size ? config.window_size : EngineConfig::kDefaultGsnpWindow;
  RunReport report;
  report.sites = ref.size();
  obs::Tracer* const tracer = config.tracer;
  const device::DeviceCounters run_start = dev.counters();

  // Synchronous device stage (table upload happens before the pipeline).
  const auto device_scope = [&](const char* name, auto&& body) {
    obs::Tracer::Scope span(tracer, name, "stage", &dev, &model);
    span.set_host_seconds(0.0);
    const device::DeviceCounters before = dev.counters();
    body();
    const device::DeviceCounters delta =
        device::counters_delta(before, dev.counters());
    report.device_modeled.add(name, model.seconds(delta));
  };

  PMatrix pm;
  std::optional<NewPMatrix> npm;
  std::optional<DeviceScoreTables> tables;
  {
    const StageScope scope(report.host, tracer, "cal_p");
    CalPResult cal = cal_p_pass(config, /*write_temp=*/true);
    pm = std::move(cal.pm);
    report.records = cal.records;
    report.temp_bytes = cal.temp_bytes;
    report.ingest = cal.ingest;
    npm.emplace(pm);
    device_scope("cal_p", [&] { tables.emplace(dev, pm, *npm); });
  }

  struct Slot {
    WindowRecords win;
    WindowObs obs;
    std::vector<SiteStats> stats;
    BaseWordWindow sparse;
    std::vector<TypeLikely> type_likely;
    std::vector<GenotypePriors> window_priors;
    std::vector<PosteriorCall> calls;
    std::vector<SnpRow> rows;
    std::optional<device::DeviceBuffer<u32>> words_dev;
    std::optional<device::DeviceBuffer<u64>> offsets_dev;
    /// Batched mode: the window's pack plan and one rebased CSR slice per
    /// batch, built on the prefetch thread; the slices must outlive the
    /// stream drain (memcpy_h2d reads them at execution time).
    std::optional<BatchPlan> plan;
    std::vector<std::vector<u64>> boffsets;
    bool loaded = false;
  };
  const u32 depth = std::max<u32>(2, config.pipeline_depth);
  std::vector<Slot> slots(depth);

  WindowLoader loader(temp_source(config.temp_file), ref.size(), window_size);
  SnpOutputWriter writer(config.output_file, ref.name());
  PriorCache priors(config.prior);

  // Host "output" cost: wall time of write_window minus the simulator wall
  // burned inside the device RLE-DICT kernels (modeled, not measured).
  double rle_sim_wall = 0.0;
  double output_host_wall = 0.0;
  const RleDictFn rle = [&rle_sim_wall, &dev, &model, tracer](
                            std::span<const u32> column, std::vector<u8>& out) {
    obs::Tracer::Scope span(tracer, "rle_dict", "compress", &dev, &model);
    span.set_host_seconds(0.0);
    const Timer t;
    compress::device_encode_rle_dict(dev, column, out);
    rle_sim_wall += t.seconds();
  };

  const u32 n_streams = std::min<u32>(std::max<u32>(config.streams, 2), 8);
  device::StreamPool pool(dev, n_streams);
  obs::StreamSpanListener stream_spans(tracer, &dev, &model);
  pool.set_listener(&stream_spans);
  device::Stream& s_compute = pool.stream(0);
  device::Stream& s_copy = pool.stream(1);
  device::Stream& s_out = pool.stream(n_streams >= 3 ? 2 : 1);

  // Same component attribution as the serial path's device_scope calls: the
  // window upload belongs to likelihood_sort, the offsets upload to
  // likelihood_comp (each precedes the kernel it feeds).
  const auto component_of = [](const std::string& name) -> const char* {
    if (name == "h2d:base_word" || name == "likeli_sort") return "likeli_sort";
    if (name == "h2d:offsets" || name == "likeli_comp") return "likeli_comp";
    if (name == "post") return "post";
    if (name == "output") return "output";
    return nullptr;
  };
  std::size_t log_cursor = 0;
  const auto drain = [&] {
    pool.sync();
    const auto& log = pool.log();
    for (; log_cursor < log.size(); ++log_cursor) {
      const device::StreamOpRecord& rec = log[log_cursor];
      if (const char* comp = component_of(rec.name))
        report.device_modeled.add(comp, model.seconds(rec.delta));
    }
  };

  u64 max_words = 0;
  const auto load_into = [&](Slot& slot) {
    // Cancellation point for the overlapped paths: the CancelledError unwinds
    // through the prefetch future into the main loop's get().
    check_cancel(config.cancel, "window");
    {
      const StageScope scope(report.host, tracer, "read");
      slot.loaded = loader.next(slot.win);
    }
    if (!slot.loaded) return;
    {
      const StageScope scope(report.host, tracer, "recycle");
      slot.sparse.reset(window_size);
    }
    {
      const StageScope scope(report.host, tracer, "count");
      count_window(slot.win, slot.obs, slot.stats, nullptr, &slot.sparse);
      max_words = std::max<u64>(max_words, slot.sparse.words.size());
      // Pack plan + rebased CSR slices ride the prefetch thread; a
      // BatchBudgetError unwinds through the prefetch future's get().
      slot.plan = maybe_plan_batches(config, slot.sparse.offsets, report);
      slot.boffsets.clear();
      if (slot.plan) {
        slot.boffsets.resize(slot.plan->batches.size());
        for (std::size_t bi = 0; bi < slot.plan->batches.size(); ++bi) {
          const SiteBatch& b = slot.plan->batches[bi];
          slot.boffsets[bi].resize(b.sites() + 1);
          for (u32 s = 0; s <= b.sites(); ++s)
            slot.boffsets[bi][s] =
                slot.sparse.offsets[b.begin + s] - b.words_begin;
        }
      }
    }
  };

  const auto enqueue_output = [&](Slot* ps) {
    s_out.enqueue(device::StreamOpKind::kLaunch, "output",
                  [&, ps](device::Device&) {
                    const Timer t;
                    rle_sim_wall = 0.0;
                    writer.write_window(ps->rows, rle);
                    output_host_wall +=
                        std::max(0.0, t.seconds() - rle_sim_wall);
                  });
  };

  ThreadPool host_pool(std::max<u32>(1, config.host_threads));
  Slot* prev_slot = nullptr;
  std::future<void> prefetch =
      host_pool.submit([&, s = &slots[0]] { load_into(*s); });
  for (u64 i = 0;; ++i) {
    prefetch.get();
    Slot& slot = slots[i % depth];
    if (!slot.loaded) {
      if (prev_slot != nullptr) {  // flush the last window's output
        enqueue_output(prev_slot);
        drain();
      }
      break;
    }
    ++report.windows;
    prefetch = host_pool.submit(
        [&, s = &slots[(i + 1) % depth]] { load_into(*s); });

    Slot* const cur = &slot;
    if (cur->plan) {
      // Stage A, batched: each batch's upload + sort + likelihood is
      // enqueued and drained before the next batch uploads, so at most one
      // batch is device-resident at a time (the budget's whole point).
      // Window i-1's device-RLE output is enqueued alongside the first
      // batch, keeping the output-lane overlap.  The plan is identical to
      // the serial path's (same offsets, same budget), and so is the
      // arithmetic — the actual watermark is only measured serially, where
      // no concurrent output scratch pollutes it.
      cur->type_likely.resize(cur->win.size);
      bool output_enqueued = false;
      for (std::size_t bi = 0; bi < cur->plan->batches.size(); ++bi) {
        const SiteBatch& b = cur->plan->batches[bi];
        const device::Event e_words = pool.create_event();
        const device::Event e_offsets = pool.create_event();
        s_copy.memcpy_h2d(cur->words_dev,
                          std::span<const u32>(cur->sparse.words)
                              .subspan(b.words_begin, b.words()),
                          "h2d:base_word");
        s_copy.record(e_words);
        s_copy.memcpy_h2d(cur->offsets_dev,
                          std::span<const u64>(cur->boffsets[bi]),
                          "h2d:offsets");
        s_copy.record(e_offsets);
        s_compute.wait(e_words);
        s_compute.enqueue(
            device::StreamOpKind::kLaunch, "likeli_sort",
            [&, cur, bi](device::Device& d) {
              sortnet::sort_device_multipass_resident(
                  d, *cur->words_dev, cur->boffsets[bi],
                  sortnet::kDefaultClassBounds, tracer);
            });
        s_compute.wait(e_offsets);
        s_compute.enqueue(
            device::StreamOpKind::kLaunch, "likeli_comp",
            [&, cur, bi](device::Device& d) {
              const SiteBatch& bb = cur->plan->batches[bi];
              const std::vector<TypeLikely> btl =
                  device_likelihood_sparse_resident(d, *cur->words_dev,
                                                    *cur->offsets_dev,
                                                    bb.sites(), *tables);
              std::copy(btl.begin(), btl.end(),
                        cur->type_likely.begin() + bb.begin);
            });
        if (!output_enqueued && prev_slot != nullptr) {
          enqueue_output(prev_slot);
          output_enqueued = true;
        }
        drain();
        cur->words_dev.reset();
        cur->offsets_dev.reset();
      }

      // Stage B, batched: priors on the host, then one posterior launch per
      // batch over its likelihood/prior slices.  Ops run sequentially on the
      // compute stream, so each batch's posterior scratch is freed before
      // the next allocates.
      {
        const StageScope scope(report.host, tracer, "post");
        cur->window_priors.resize(cur->win.size);
        for (u32 s = 0; s < cur->win.size; ++s) {
          const u64 pos = cur->win.start + s;
          const genome::KnownSnpEntry* known =
              config.dbsnp ? config.dbsnp->find(pos) : nullptr;
          cur->window_priors[s] = priors.get(ref.base(pos), known);
        }
      }
      cur->calls.resize(cur->win.size);
      for (std::size_t bi = 0; bi < cur->plan->batches.size(); ++bi) {
        s_compute.enqueue(
            device::StreamOpKind::kLaunch, "post",
            [&, cur, bi](device::Device& d) {
              const SiteBatch& bb = cur->plan->batches[bi];
              const std::vector<PosteriorCall> bcalls = device_posterior(
                  d,
                  std::span<const TypeLikely>(cur->type_likely)
                      .subspan(bb.begin, bb.sites()),
                  std::span<const GenotypePriors>(cur->window_priors)
                      .subspan(bb.begin, bb.sites()));
              std::copy(bcalls.begin(), bcalls.end(),
                        cur->calls.begin() + bb.begin);
            });
      }
      drain();
      {
        const StageScope scope(report.host, tracer, "post");
        window_posterior(config, priors, cur->win, cur->obs, cur->stats,
                         cur->type_likely, cur->rows, &cur->calls);
      }
      prev_slot = cur;
      continue;
    }

    // Stage A: window i's upload (copy stream) + sort + likelihood (compute
    // stream, event-chained behind the uploads) concurrent with window
    // i-1's device-RLE output (output stream).
    const device::Event e_words = pool.create_event();
    const device::Event e_offsets = pool.create_event();
    s_copy.memcpy_h2d(cur->words_dev,
                      std::span<const u32>(cur->sparse.words),
                      "h2d:base_word");
    s_copy.record(e_words);
    s_copy.memcpy_h2d(cur->offsets_dev,
                      std::span<const u64>(cur->sparse.offsets),
                      "h2d:offsets");
    s_copy.record(e_offsets);
    s_compute.wait(e_words);
    s_compute.enqueue(
        device::StreamOpKind::kLaunch, "likeli_sort",
        [&, cur](device::Device& d) {
          sortnet::sort_device_multipass_resident(
              d, *cur->words_dev, cur->sparse.offsets,
              sortnet::kDefaultClassBounds, tracer);
        });
    s_compute.wait(e_offsets);
    s_compute.enqueue(
        device::StreamOpKind::kLaunch, "likeli_comp",
        [&, cur](device::Device& d) {
          cur->type_likely = device_likelihood_sparse_resident(
              d, *cur->words_dev, *cur->offsets_dev, cur->win.size, *tables);
        });
    if (prev_slot != nullptr) enqueue_output(prev_slot);
    drain();

    // Stage B: posterior for window i.  A second, short drain: the kernel
    // consumes the likelihoods stage A materialized.
    {
      const StageScope scope(report.host, tracer, "post");
      cur->window_priors.resize(cur->win.size);
      for (u32 s = 0; s < cur->win.size; ++s) {
        const u64 pos = cur->win.start + s;
        const genome::KnownSnpEntry* known =
            config.dbsnp ? config.dbsnp->find(pos) : nullptr;
        cur->window_priors[s] = priors.get(ref.base(pos), known);
      }
    }
    s_compute.enqueue(device::StreamOpKind::kLaunch, "post",
                      [&, cur](device::Device& d) {
                        cur->calls = device_posterior(d, cur->type_likely,
                                                      cur->window_priors);
                      });
    drain();
    {
      const StageScope scope(report.host, tracer, "post");
      window_posterior(config, priors, cur->win, cur->obs, cur->stats,
                       cur->type_likely, cur->rows, &cur->calls);
    }
    // Window i's device residency ends here; i-1's buffers were already
    // dropped, so at most one window's data is resident at a time.
    cur->words_dev.reset();
    cur->offsets_dev.reset();
    prev_slot = cur;
  }
  report.host.add("output", output_host_wall);
  report.device_modeled.add("likeli",
                            report.device_modeled.get("likeli_sort") +
                                report.device_modeled.get("likeli_comp"));
  report.output_bytes = writer.finish();
  report.peak_host_bytes = depth * max_words * sizeof(u32) +
                           npm->flat().size() * sizeof(double) +
                           pm.flat().size() * sizeof(double);
  report.peak_device_bytes = dev.peak_allocated_bytes();
  report.device_counters = dev.counters();
  report.streams_used = n_streams;
  for (u32 i = 0; i < n_streams; ++i)
    report.stream_counters.push_back(pool.stream_counters(i));
  const device::DeviceCounters run_delta =
      device::counters_delta(run_start, dev.counters());
  report.modeled_serial_seconds = model.seconds(run_delta);
  // Wall = overlap-aware replay of the stream timelines, plus the device
  // work that ran outside any stream (the cal_p table upload) charged
  // serially.
  report.modeled_wall_seconds =
      pool.modeled_wall_seconds(model) +
      model.seconds(device::counters_delta(pool.total_stream_counters(),
                                           run_delta));
  return report;
}

/// SOAPsnp, serial: the bit-exactness reference path.
RunReport run_soapsnp_serial(const EngineConfig& config) {
  GSNP_CHECK(config.reference != nullptr);
  const genome::Reference& ref = *config.reference;
  const u32 window_size = config.window_size
                              ? config.window_size
                              : EngineConfig::kDefaultSoapsnpWindow;
  RunReport report;
  report.sites = ref.size();
  obs::Tracer* const tracer = config.tracer;

  PMatrix pm;
  {
    const StageScope scope(report.host, tracer, "cal_p");
    CalPResult cal = cal_p_pass(config, /*write_temp=*/false);
    pm = std::move(cal.pm);
    report.records = cal.records;
    report.ingest = cal.ingest;
  }

  BaseOccWindow dense(window_size);
  WindowLoader loader(
      text_source(config.alignment_file, config.ingest, ref.size()),
      ref.size(), window_size);
  SnpTextWriter writer(config.output_file, ref.name());
  const PriorCache priors(config.prior);

  WindowRecords win;
  WindowObs obs;
  std::vector<SiteStats> stats;
  std::vector<TypeLikely> type_likely;
  std::vector<SnpRow> rows;

  for (;;) {
    check_cancel(config.cancel, "window");
    {
      const StageScope scope(report.host, tracer, "read");
      if (!loader.next(win)) break;
    }
    ++report.windows;
    {
      const StageScope scope(report.host, tracer, "count");
      count_window(win, obs, stats, &dense, nullptr);
    }
    {
      const StageScope scope(report.host, tracer, "likeli");
      type_likely.resize(win.size);
      over_batches(maybe_plan_batches(config, obs.offsets, report), win.size,
                   [&](u32 begin, u32 end) {
                     likelihood_dense_sites(dense, pm, begin, end, type_likely);
                   });
    }
    {
      const StageScope scope(report.host, tracer, "post");
      window_posterior(config, priors, win, obs, stats, type_likely, rows);
    }
    {
      const StageScope scope(report.host, tracer, "output");
      writer.write_window(rows);
    }
    {
      const StageScope scope(report.host, tracer, "recycle");
      dense.recycle();
    }
  }
  report.output_bytes = writer.finish();
  report.peak_host_bytes = dense.bytes() + pm.flat().size() * sizeof(double);
  return report;
}

/// Host sparse engine, serial: the bit-exactness reference path.
RunReport run_host_sparse_serial(const EngineConfig& config,
                                 const HostSparseOps& ops) {
  GSNP_CHECK(config.reference != nullptr);
  const genome::Reference& ref = *config.reference;
  const u32 window_size =
      config.window_size ? config.window_size : EngineConfig::kDefaultGsnpWindow;
  RunReport report;
  report.sites = ref.size();
  obs::Tracer* const tracer = config.tracer;

  PMatrix pm;
  std::optional<NewPMatrix> npm;
  {
    // cal_p includes temp-file generation plus the new score tables
    // (paper Table IV note).
    const StageScope scope(report.host, tracer, "cal_p");
    CalPResult cal = cal_p_pass(config, /*write_temp=*/true);
    pm = std::move(cal.pm);
    report.records = cal.records;
    report.temp_bytes = cal.temp_bytes;
    report.ingest = cal.ingest;
    npm.emplace(pm);
  }

  BaseWordWindow sparse(window_size);
  WindowLoader loader(temp_source(config.temp_file), ref.size(), window_size);
  SnpOutputWriter writer(config.output_file, ref.name());
  const RleDictFn rle = host_rle_dict();
  PriorCache priors(config.prior);

  WindowRecords win;
  WindowObs obs;
  std::vector<SiteStats> stats;
  std::vector<TypeLikely> type_likely;
  std::vector<SnpRow> rows;
  u64 max_words = 0;

  for (;;) {
    check_cancel(config.cancel, "window");
    {
      const StageScope scope(report.host, tracer, "read");
      if (!loader.next(win)) break;
    }
    ++report.windows;
    {
      const StageScope scope(report.host, tracer, "count");
      count_window(win, obs, stats, nullptr, &sparse);
      max_words = std::max<u64>(max_words, sparse.words.size());
    }
    {
      // The aggregate "likeli" component is measured directly as the scope
      // enclosing both phases (it used to be reconstructed afterwards as
      // sort + comp, which silently drifted from what a wall clock around
      // the stage would have read).
      const StageScope likeli_scope(report.host, tracer, "likeli");
      {
        const StageScope sort_scope(report.host, tracer, "likeli_sort");
        likelihood_sort_cpu(sparse);
      }
      {
        StageScope comp_scope(report.host, tracer, "likeli_comp");
        if (ops.simd_level != nullptr) {
          comp_scope.note("backend", ops.engine);
          comp_scope.note("simd", ops.simd_level);
        }
        type_likely.resize(win.size);
        over_batches(maybe_plan_batches(config, sparse.offsets, report),
                     win.size, [&](u32 begin, u32 end) {
                       likelihood_sparse_sites(ops.sparse_site, sparse, *npm,
                                               begin, end, type_likely);
                     });
      }
    }
    {
      StageScope scope(report.host, tracer, "post");
      if (ops.simd_level != nullptr) {
        scope.note("backend", ops.engine);
        scope.note("simd", ops.simd_level);
      }
      window_posterior(config, priors, win, obs, stats, type_likely, rows,
                       nullptr, ops.select);
    }
    {
      const StageScope scope(report.host, tracer, "output");
      writer.write_window(rows, rle);
    }
    {
      const StageScope scope(report.host, tracer, "recycle");
      sparse.reset(window_size);
    }
  }
  report.output_bytes = writer.finish();
  report.peak_host_bytes = max_words * sizeof(u32) +
                           npm->flat().size() * sizeof(double) +
                           pm.flat().size() * sizeof(double);
  return report;
}

/// GSNP, serial: the bit-exactness reference path.
RunReport run_gsnp_serial(const EngineConfig& config, device::Device& dev,
                          const device::PerfModel& model) {
  GSNP_CHECK(config.reference != nullptr);
  const genome::Reference& ref = *config.reference;
  const u32 window_size =
      config.window_size ? config.window_size : EngineConfig::kDefaultGsnpWindow;
  RunReport report;
  report.sites = ref.size();
  obs::Tracer* const tracer = config.tracer;
  const device::DeviceCounters run_start = dev.counters();

  // A device stage: the counter delta over `body` is modeled into GPU
  // seconds (Table IV's device columns).  The span mirrors the same delta
  // and model, with host_sec pinned to zero — the wall time `body` burns is
  // simulator time, not time on the modeled hardware.
  const auto device_scope = [&](const char* name, auto&& body) {
    obs::Tracer::Scope span(tracer, name, "stage", &dev, &model);
    span.set_host_seconds(0.0);
    const device::DeviceCounters before = dev.counters();
    body();
    const device::DeviceCounters delta =
        device::counters_delta(before, dev.counters());
    report.device_modeled.add(name, model.seconds(delta));
  };

  PMatrix pm;
  std::optional<NewPMatrix> npm;
  std::optional<DeviceScoreTables> tables;
  {
    const StageScope scope(report.host, tracer, "cal_p");
    CalPResult cal = cal_p_pass(config, /*write_temp=*/true);
    pm = std::move(cal.pm);
    report.records = cal.records;
    report.temp_bytes = cal.temp_bytes;
    report.ingest = cal.ingest;
    npm.emplace(pm);
    // load_table (Fig 2): tables uploaded once, before any likelihood work.
    device_scope("cal_p", [&] { tables.emplace(dev, pm, *npm); });
  }

  BaseWordWindow sparse(window_size);
  WindowLoader loader(temp_source(config.temp_file), ref.size(), window_size);
  SnpOutputWriter writer(config.output_file, ref.name());
  // The six quality columns go through the device RLE-DICT kernels; their
  // modeled time is charged to "output" via the counters delta, and the
  // *simulation* wall time they burn is subtracted from the measured host
  // "output" time (the simulator is not the hardware being modeled).
  PriorCache priors(config.prior);
  double rle_sim_wall = 0.0;
  const RleDictFn rle = [&dev, &model, &rle_sim_wall, tracer](
                            std::span<const u32> column, std::vector<u8>& out) {
    obs::Tracer::Scope span(tracer, "rle_dict", "compress", &dev, &model);
    span.set_host_seconds(0.0);
    const Timer t;
    compress::device_encode_rle_dict(dev, column, out);
    rle_sim_wall += t.seconds();
  };

  WindowRecords win;
  WindowObs obs;
  std::vector<SiteStats> stats;
  std::vector<TypeLikely> type_likely;
  std::vector<SnpRow> rows;
  u64 max_words = 0;

  for (;;) {
    check_cancel(config.cancel, "window");
    {
      const StageScope scope(report.host, tracer, "read");
      if (!loader.next(win)) break;
    }
    ++report.windows;
    {
      const StageScope scope(report.host, tracer, "count");
      count_window(win, obs, stats, nullptr, &sparse);
      max_words = std::max<u64>(max_words, sparse.words.size());
    }

    // Depth-aware batching: the window is split into the batcher's
    // position-ordered, byte-budgeted batches and each batch runs the full
    // device chain (upload, multipass sort, likelihood, posterior) on a
    // rebased CSR slice before the next begins.  Per-site arithmetic is
    // batch-invariant and rows are still assembled and written once per
    // window, so output is byte-identical to the fixed-window else-branch;
    // only the launch geometry (and hence the device counters) changes.
    // Each batch's actual allocation watermark is measured against its
    // planned peak — the property the admission budget relies on.
    if (const auto plan = maybe_plan_batches(config, sparse.offsets, report)) {
      std::vector<GenotypePriors> window_priors(win.size);
      {
        const StageScope scope(report.host, tracer, "post");
        for (u32 s = 0; s < win.size; ++s) {
          const u64 pos = win.start + s;
          const genome::KnownSnpEntry* known =
              config.dbsnp ? config.dbsnp->find(pos) : nullptr;
          window_priors[s] = priors.get(ref.base(pos), known);
        }
      }
      type_likely.resize(win.size);
      std::vector<PosteriorCall> calls(win.size);
      for (const SiteBatch& b : plan->batches) {
        obs::Tracer::Scope batch_span(tracer, "batch", "batcher", &dev,
                                      &model);
        batch_span.set_host_seconds(0.0);
        batch_span.note("sites", std::to_string(b.sites()));
        batch_span.note("words", std::to_string(b.words()));
        batch_span.note("planned_peak_bytes",
                        std::to_string(b.planned_peak_bytes));
        // Watermark the batch's incremental footprint over the resident
        // score tables (the budget bounds the batch, not the run baseline;
        // worst_case_device_bytes accounts for the tables).
        const u64 batch_base = dev.allocated_bytes();
        dev.reset_peak_watermark();
        // Rebased CSR slice: batch-local site i owns words
        // [boffsets[i], boffsets[i+1]) of the batch's word upload.
        std::vector<u64> boffsets(b.sites() + 1);
        for (u32 s = 0; s <= b.sites(); ++s)
          boffsets[s] = sparse.offsets[b.begin + s] - b.words_begin;
        {
          std::optional<device::DeviceBuffer<u32>> words_dev;
          std::optional<device::DeviceBuffer<u64>> offsets_dev;
          device_scope("likeli_sort", [&] {
            {
              obs::Tracer::Scope h2d(tracer, "h2d:base_word", "transfer",
                                     &dev, &model);
              h2d.set_host_seconds(0.0);
              words_dev.emplace(dev.to_device(
                  std::span<const u32>(sparse.words)
                      .subspan(b.words_begin, b.words())));
            }
            sortnet::sort_device_multipass_resident(
                dev, *words_dev, boffsets, sortnet::kDefaultClassBounds,
                tracer);
          });
          device_scope("likeli_comp", [&] {
            {
              obs::Tracer::Scope h2d(tracer, "h2d:offsets", "transfer", &dev,
                                     &model);
              h2d.set_host_seconds(0.0);
              offsets_dev.emplace(
                  dev.to_device(std::span<const u64>(boffsets)));
            }
            const std::vector<TypeLikely> btl =
                device_likelihood_sparse_resident(dev, *words_dev,
                                                  *offsets_dev, b.sites(),
                                                  *tables);
            std::copy(btl.begin(), btl.end(),
                      type_likely.begin() + b.begin);
          });
        }
        device_scope("post", [&] {
          const std::vector<PosteriorCall> bcalls = device_posterior(
              dev,
              std::span<const TypeLikely>(type_likely)
                  .subspan(b.begin, b.sites()),
              std::span<const GenotypePriors>(window_priors)
                  .subspan(b.begin, b.sites()));
          std::copy(bcalls.begin(), bcalls.end(), calls.begin() + b.begin);
        });
        const u64 actual = dev.peak_since_watermark() - batch_base;
        report.batch.record_actual(actual);
        batch_span.note("actual_peak_bytes", std::to_string(actual));
      }
      {
        const StageScope scope(report.host, tracer, "post");
        window_posterior(config, priors, win, obs, stats, type_likely, rows,
                         &calls);
      }
    } else {
    // The window's base_word data goes to the device once and stays
    // resident through sorting and likelihood (the production data flow);
    // only the ten log-likelihoods per site come back.  The enclosing
    // "likeli" span captures the combined counter delta, so its modeled
    // seconds equal likeli_sort + likeli_comp (the model is linear in the
    // counters) — the trace stays consistent with the aggregate component.
    {
      obs::Tracer::Scope likeli_span(tracer, "likeli", "stage", &dev, &model);
      likeli_span.set_host_seconds(0.0);
      std::optional<device::DeviceBuffer<u32>> words_dev;
      std::optional<device::DeviceBuffer<u64>> offsets_dev;

      // likelihood_sort: multipass batch bitonic, device-resident.
      device_scope("likeli_sort", [&] {
        {
          obs::Tracer::Scope h2d(tracer, "h2d:base_word", "transfer", &dev,
                                 &model);
          h2d.set_host_seconds(0.0);
          words_dev.emplace(
              dev.to_device(std::span<const u32>(sparse.words)));
        }
        sortnet::sort_device_multipass_resident(
            dev, *words_dev, sparse.offsets, sortnet::kDefaultClassBounds,
            tracer);
      });

      // likelihood_comp: the optimized kernel (shared memory + new table).
      device_scope("likeli_comp", [&] {
        {
          obs::Tracer::Scope h2d(tracer, "h2d:offsets", "transfer", &dev,
                                 &model);
          h2d.set_host_seconds(0.0);
          offsets_dev.emplace(
              dev.to_device(std::span<const u64>(sparse.offsets)));
        }
        type_likely = device_likelihood_sparse_resident(
            dev, *words_dev, *offsets_dev, win.size, *tables);
      });
    }

    {
      // Posterior: prior construction + genotype selection on the device
      // (modeled), statistics assembly on the host (measured).
      std::vector<GenotypePriors> window_priors(win.size);
      std::vector<PosteriorCall> calls;
      {
        const StageScope scope(report.host, tracer, "post");
        for (u32 s = 0; s < win.size; ++s) {
          const u64 pos = win.start + s;
          const genome::KnownSnpEntry* known =
              config.dbsnp ? config.dbsnp->find(pos) : nullptr;
          window_priors[s] = priors.get(ref.base(pos), known);
        }
      }
      device_scope("post",
                   [&] { calls = device_posterior(dev, type_likely,
                                                  window_priors); });
      {
        const StageScope scope(report.host, tracer, "post");
        window_posterior(config, priors, win, obs, stats, type_likely, rows,
                         &calls);
      }
    }
    }
    {
      // Host output seconds = wall time minus the simulator wall burned
      // inside the RLE-DICT kernels (their time is modeled, not measured).
      StageScope scope(report.host, tracer, "output");
      rle_sim_wall = 0.0;
      device_scope("output", [&] { writer.write_window(rows, rle); });
      scope.deduct(rle_sim_wall);
    }
    {
      // Sparse recycle: offsets reset on the host, device buffers are
      // per-window; the dense 131,072-byte-per-site memset is gone entirely.
      const StageScope scope(report.host, tracer, "recycle");
      sparse.reset(window_size);
    }
  }
  report.device_modeled.add("likeli", report.device_modeled.get("likeli_sort") +
                                          report.device_modeled.get("likeli_comp"));
  report.output_bytes = writer.finish();
  report.peak_host_bytes = max_words * sizeof(u32) +
                           npm->flat().size() * sizeof(double) +
                           pm.flat().size() * sizeof(double);
  report.peak_device_bytes = dev.peak_allocated_bytes();
  report.device_counters = dev.counters();
  // The serial path has no overlap: modeled wall == the no-overlap baseline.
  report.modeled_serial_seconds =
      model.seconds(device::counters_delta(run_start, dev.counters()));
  report.modeled_wall_seconds = report.modeled_serial_seconds;
  return report;
}

/// One engine call: its wall time, measured once around the whole call,
/// goes into RunReport::wall_seconds and the run totals into the tracer's
/// metrics.
template <typename Run>
RunReport timed_run(const EngineConfig& config, const char* engine, Run&& run) {
  const Timer timer;
  RunReport report = run();
  report.wall_seconds = timer.seconds();
  record_run_metrics(config.tracer, engine, report);
  return report;
}

}  // namespace

RunReport run_soapsnp(const EngineConfig& config) {
  return timed_run(config, "soapsnp", [&] {
    return config.streams >= 2 ? run_soapsnp_overlapped(config)
                               : run_soapsnp_serial(config);
  });
}

RunReport run_gsnp_cpu(const EngineConfig& config) {
  static constexpr HostSparseOps kScalarOps{
      "gsnp_cpu", nullptr, &likelihood_sparse_site, &select_genotype};
  return timed_run(config, kScalarOps.engine, [&] {
    return config.streams >= 2 ? run_host_sparse_overlapped(config, kScalarOps)
                               : run_host_sparse_serial(config, kScalarOps);
  });
}

RunReport run_gsnp_simd(const EngineConfig& config) {
  // Resolve the dispatch level once per run (env override or CPU detection;
  // see simd.hpp) so every window of one run uses one kernel set.
  const simd::Kernels& kernels = simd::active_kernels();
  const HostSparseOps ops{"gsnp_simd", simd::level_name(kernels.level),
                          kernels.sparse_site, kernels.select_genotype};
  RunReport report = timed_run(config, ops.engine, [&] {
    return config.streams >= 2 ? run_host_sparse_overlapped(config, ops)
                               : run_host_sparse_serial(config, ops);
  });
  if (config.tracer != nullptr)
    config.tracer->metrics().add(std::string("simd_level_") +
                                 simd::level_name(kernels.level));
  return report;
}

RunReport run_gsnp(const EngineConfig& config, device::Device& dev,
                   const device::PerfModel& model) {
  return timed_run(config, "gsnp", [&] {
    return config.streams >= 2 ? run_gsnp_overlapped(config, dev, model)
                               : run_gsnp_serial(config, dev, model);
  });
}

}  // namespace gsnp::core
