#include "src/core/engine.hpp"

#include <malloc.h>

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/overwrite_vector.hpp"
#include "src/common/parallel.hpp"
#include "src/common/thread_pool.hpp"
#include "src/compress/container.hpp"
#include "src/compress/device_rledict.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/kernels.hpp"
#include "src/core/likelihood.hpp"
#include "src/core/new_pmatrix.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/posterior.hpp"
#include "src/core/window.hpp"
#include "src/device/stream.hpp"
#include "src/obs/stream_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/reads/alignment.hpp"
#include "src/reads/simulator.hpp"
#include "src/sortnet/multipass.hpp"

namespace gsnp::core {

double RunReport::total() const {
  double t = 0.0;
  for (const char* name : kComponents) t += component(name);
  return t;
}

namespace {

/// Seconds this thread spent, inside its open stage, on work that stage does
/// not own: the device simulator (modeled from counters, not measured) and
/// host work charged to another component.  Stages subtract it.
thread_local double t_off_stage_seconds = 0.0;

template <typename F>
double off_stage(F&& fn) {
  const Timer timer;
  fn();
  const double seconds = timer.seconds();
  t_off_stage_seconds += seconds;
  return seconds;
}

/// Where a run's measurements go: the RunReport stopwatches (Tables I/IV),
/// with a tracer a "stage" span of the same seconds, so trace exports and
/// the report cannot drift, and at the end the tracer's run metrics.
struct Ledger {
  RunReport& report;
  obs::Tracer* tracer;
  const char* engine;
  /// A cost measured outside a Stage: a device op's modeled seconds.
  void charge(const char* name, double host_sec, double modeled_sec) const {
    if (host_sec > 0.0) report.host.add(name, host_sec);
    if (modeled_sec > 0.0) report.device_modeled.add(name, modeled_sec);
    obs::Tracer::Scope span(tracer, name, "stage");
    span.set_host_seconds(host_sec);
    span.set_modeled_seconds(modeled_sec);
  }

  /// Run totals into the tracer's metrics registry (exported with the run).
  void record_metrics() const {
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
};

/// One pipeline stage: its wall time less its off-stage time, recorded once.
class Stage {
 public:
  Stage(const Ledger& ledger, const char* name)
      : ledger_(ledger),
        name_(name),
        span_(ledger.tracer, name, "stage"),
        off_stage_at_start_(t_off_stage_seconds) {}
  ~Stage() {
    const double sec = std::max(
        0.0, timer_.seconds() - (t_off_stage_seconds - off_stage_at_start_));
    ledger_.report.host.add(name_, sec);
    span_.set_host_seconds(sec);
  }

 private:
  const Ledger& ledger_;
  const char* name_;
  obs::Tracer::Scope span_;  // declared before timer_: dtor order measures
  const double off_stage_at_start_;
  Timer timer_;  // the stage, then finishes the span
};

/// The cal_p_matrix pass (paper §V-A): read the alignment file once,
/// count the recalibration observations (unique hits vs the reference base)
/// and, for the GSNP engines, write the compressed temporary input.  The
/// file comes in block-parallel batches (reads::AlignmentBatchReader, stage
/// cal_p_parse).  Each batch then makes one executor pass (cal_p_encode):
/// one task per kTempChunkRecords chunk encodes and frames its temp chunk,
/// chunk boundaries being the file's own, and one task per kCountRecords
/// records counts their unique hits into its slot's `u32` shard, so a batch
/// of a few chunks still fills every slot; the caller writes the frames in
/// order.  Then the shards fold into the counter and the p_matrix is
/// finalized (cal_p_tables).  A reloaded matrix skips the counting, not the
/// pass.
PMatrix cal_p_pass(const EngineConfig& config, bool write_temp,
                   const Ledger& ledger) {
  using compress::kTempChunkRecords;
  constexpr std::size_t kCountRecords = 1024;
  const genome::Reference& ref = *config.reference;
  const bool count = config.p_matrix_in.empty();
  reads::AlignmentBatchReader reader(config.alignment_file, config.ingest,
                                     ref.size(), kTempChunkRecords,
                                     config.cancel);
  std::optional<compress::FrameWriter> temp;
  if (write_temp) {
    GSNP_CHECK_MSG(!config.temp_file.empty(),
                   "GSNP engines need config.temp_file");
    temp.emplace(config.temp_file, compress::kTempMagic, ref.name());
  }

  // A record adds at most one count to a cell, each of its bases having
  // its own cycle, so a u32 shard cannot overflow before 2^32 records.
  PMatrixCounter counter;
  std::vector<std::vector<u32>> shards(compute_slots());
  u64 unfolded = 0;  // records counted into the shards since their fold
  std::vector<std::vector<u8>> frames;
  for (;;) {
    std::span<const reads::AlignmentView> batch;
    {
      const Stage stage(ledger, "cal_p_parse");
      batch = reader.next();
    }
    if (batch.empty()) break;
    const Stage stage(ledger, "cal_p_encode");
    if (unfolded + batch.size() > std::numeric_limits<u32>::max()) {
      counter.absorb(shards);
      unfolded = 0;
    }
    unfolded += batch.size();
    const auto records = [&](std::size_t i, std::size_t n) {
      return batch.subspan(i * n, std::min(n, batch.size() - i * n));
    };
    frames.resize(temp ? (batch.size() + kTempChunkRecords - 1) /
                             kTempChunkRecords
                       : 0);
    const std::size_t ranges =
        count ? (batch.size() + kCountRecords - 1) / kCountRecords : 0;
    parallel_for(frames.size() + ranges, 1, [&](std::size_t begin,
                                                std::size_t end,
                                                std::size_t slot) {
      for (std::size_t t = begin; t < end; ++t) {
        if (t < frames.size()) {
          compress::ChunkColumns columns;
          for (const reads::AlignmentView& rec : records(t, kTempChunkRecords))
            columns.add(rec);
          frames[t] = compress::make_frame(columns.encode());
          continue;
        }
        std::vector<u32>& shard = shards[slot];
        if (shard.empty()) shard.assign(PMatrix::kSize, 0);
        for (const reads::AlignmentView& rec :
             records(t - frames.size(), kCountRecords)) {
          if (rec.hit_count != 1) continue;
          reads::for_each_observation(
              rec, 0, ref.size(),
              [&](u64 p, const reads::SiteObservation& so) {
                const u8 r = ref.base(p);
                if (r < kNumBases)
                  ++shard[PMatrix::index(so.quality, so.coord, r, so.base)];
              });
        }
      }
    });
    for (std::vector<u8>& frame : frames) {
      temp->write_frame(frame);
      std::vector<u8>().swap(frame);
    }
  }
  ledger.report.records = reader.records();
  ledger.report.ingest = reader.stats();
  if (temp) ledger.report.temp_bytes = temp->finish();

  const Stage stage(ledger, "cal_p_tables");
  if (count) counter.absorb(shards);
  PMatrix pm = count ? finalize_p_matrix(counter)
                     : read_p_matrix(config.p_matrix_in);
  if (!config.p_matrix_out.empty()) write_p_matrix(config.p_matrix_out, pm);
  return pm;
}

/// One window in flight: what run_windows loads, plans, computes and writes.
/// Each stage bundle extends it with its own representation of the window.
/// The likelihood and posterior passes write every site's `type_likely`
/// and `rows` element, so sizing them initializes nothing.
struct WindowSlot {
  WindowRecords win;
  WindowObs obs;
  std::vector<SiteStats> stats;
  BatchPlan plan;
  OverwriteVector<TypeLikely> type_likely;
  OverwriteVector<SnpRow> rows;
  std::shared_future<void> written;  ///< valid while rows are being written
};

/// The window's batch plan.  Batching on: the batcher's byte-budgeted
/// batches, folded into the run's BatchStats.  Off: one batch spanning the
/// window, which runs exactly the fixed-window arithmetic and launches.
BatchPlan plan_window(const EngineConfig& config, std::span<const u64> offsets,
                      RunReport& report) {
  BatchPlan plan;
  if (config.batch_bytes > 0) {
    plan = plan_batches(offsets, config.batch_bytes);
    report.batch.absorb(plan);
    return plan;
  }
  SiteBatch& whole = plan.batches.emplace_back();
  whole.end = static_cast<u32>(offsets.size() - 1);
  whole.words_end = offsets.back();
  return plan;
}

/// `fn(site)` over the batch, `grain` sites per compute-executor chunk.
template <typename F>
void each_site(const SiteBatch& batch, std::size_t grain, F&& fn) {
  parallel_for(batch.sites(), grain,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t i = begin; i < end; ++i)
                   fn(static_cast<u32>(batch.begin + i));
               });
}

/// Posterior for a whole window -> rows, shared by every engine, on the
/// compute executor.  With `device_calls` the genotype selection came from
/// the device posterior kernel; only the statistics columns are built here.
void window_posterior(const EngineConfig& config, const PriorCache& priors,
                      WindowSlot& slot,
                      const std::vector<PosteriorCall>* device_calls =
                          nullptr) {
  const genome::Reference& ref = *config.reference;
  slot.rows.resize(slot.win.size);
  parallel_for(slot.win.size, kSitesPerChunk, [&](std::size_t begin,
                                                  std::size_t end,
                                                  std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      const u32 s = static_cast<u32>(i);
      const u64 pos = slot.win.start + s;
      const genome::KnownSnpEntry* known =
          config.dbsnp ? config.dbsnp->find(pos) : nullptr;
      PosteriorCall call;
      if (device_calls) {
        call = (*device_calls)[s];
      } else if (known) {
        // dbSNP priors are site-specific; computed per site.
        call = select_genotype(
            genotype_log_priors(ref.base(pos), known, PriorParams{}),
            slot.type_likely[s]);
      } else {
        // Novel sites share one of five cached priors.
        call = select_genotype(priors.novel(ref.base(pos)),
                               slot.type_likely[s]);
      }
      slot.rows[s] = assemble_row(pos, ref.base(pos), known != nullptr, call,
                                  slot.stats[s], slot.obs.site(s),
                                  slot.obs.site_hits(s));
    }
  });
}

// ---- stage bundles ----------------------------------------------------------
// A bundle supplies one engine's stages to run_windows: a Slot type
// (WindowSlot plus the engine's window state), loader(sites) for the window
// pass, cal_p(), recycle(slot), count(slot) returning the CSR
// offsets the batch plan packs, likeli(slot, batch, batch_span), post(slot),
// output(slot), and finish(slots) for the report's output fields.

/// What every bundle holds.
class StagesBase {
 public:
  u32 window_size() const { return window_size_; }

 protected:
  StagesBase(const EngineConfig& config, Ledger& ledger, u32 default_window)
      : config_(config),
        ledger_(ledger),
        window_size_(config.window_size ? config.window_size
                                        : default_window),
        priors_(PriorParams{}) {}

  const EngineConfig& config_;
  Ledger& ledger_;
  const u32 window_size_;
  PriorCache priors_;
  PMatrix pm_;
};

/// SOAPsnp: dense base_occ windows, Algorithm 1 likelihood, text output.
class DenseStages : public StagesBase {
 public:
  struct Slot : WindowSlot {
    std::unique_ptr<BaseOccWindow> dense;
  };

  DenseStages(const EngineConfig& config, Ledger& ledger)
      : StagesBase(config, ledger, EngineConfig::kDefaultSoapsnpWindow) {}

  /// The window pass re-reads the raw text, skipping the records cal_p
  /// already quarantined without writing the quarantine again.
  WindowLoader loader(u64 sites) const {
    IngestPolicy policy = config_.ingest;
    policy.quarantine_file.clear();
    auto reader = std::make_shared<reads::AlignmentReader>(
        config_.alignment_file, std::move(policy), config_.reference->size());
    return WindowLoader([reader] { return reader->next(); }, sites,
                        window_size());
  }

  void cal_p() {
    pm_ = cal_p_pass(config_, /*write_temp=*/false, ledger_);
    writer_.emplace(config_.output_file, config_.reference->name());
  }

  /// A slot's first window is allocated zeroed; later ones pay the memset.
  void recycle(Slot& slot) {
    if (slot.dense) return slot.dense->recycle();
    slot.dense = std::make_unique<BaseOccWindow>(window_size());
  }

  /// The plan packs per-site observation counts, the same depth signal.
  std::span<const u64> count(Slot& slot) {
    count_window(slot.win, slot.obs, slot.stats, slot.dense.get(), nullptr);
    return slot.obs.offsets;
  }

  /// Chunks of 64 sites: each site scans a 128 KiB matrix.
  void likeli(Slot& slot, const SiteBatch& batch, obs::Tracer::Scope&) {
    each_site(batch, 64, [&](u32 s) {
      slot.type_likely[s] = likelihood_dense_site(slot.dense->site(s), pm_);
    });
  }

  void post(Slot& slot) { window_posterior(config_, priors_, slot); }

  /// The window's text lines (output_encode), then their write
  /// (output_write).
  void output(Slot& slot) {
    std::string lines;
    {
      const Stage stage(ledger_, "output_encode");
      lines = writer_->format(slot.rows);
    }
    const Stage stage(ledger_, "output_write");
    writer_->write(lines);
  }

  void finish(std::size_t slots) {
    ledger_.report.output_bytes = writer_->finish();
    ledger_.report.peak_host_bytes = slots * window_size() * kBaseOccPerSite +
                                     pm_.flat().size() * sizeof(double);
  }

 private:
  std::optional<SnpTextWriter> writer_;
};

/// GSNP's algorithm on the host: sparse windows from the compressed temp
/// input, per-array sort, the sparse likelihood on new_p_matrix, host
/// RLE-DICT output.
class HostSparseStages : public StagesBase {
 public:
  struct Slot : WindowSlot {
    BaseWordWindow sparse;
  };

  HostSparseStages(const EngineConfig& config, Ledger& ledger)
      : StagesBase(config, ledger, EngineConfig::kDefaultGsnpWindow) {}
  /// The temp input lives as long as the call: run_windows destroys the
  /// bundle last, after the reader, when the call returns or unwinds.
  ~HostSparseStages() {
    std::error_code ec;
    std::filesystem::remove(config_.temp_file, ec);
  }
  HostSparseStages(const HostSparseStages&) = delete;
  HostSparseStages& operator=(const HostSparseStages&) = delete;

  WindowLoader loader(u64 sites) const {
    return WindowLoader(config_.temp_file, sites, window_size());
  }

  /// cal_p includes the temp file and the new score tables (Table IV note).
  void cal_p() {
    pm_ = cal_p_pass(config_, /*write_temp=*/true, ledger_);
    {
      const Stage stage(ledger_, "cal_p_tables");
      npm_.emplace(pm_);
    }
    writer_.emplace(config_.output_file, config_.reference->name());
  }

  /// Sparse recycle: no 131,072-byte-per-site memset, an offsets reset.
  void recycle(Slot& slot) { slot.sparse.reset(window_size()); }

  std::span<const u64> count(Slot& slot) {
    count_window(slot.win, slot.obs, slot.stats, nullptr, &slot.sparse);
    max_words_ = std::max<u64>(max_words_, slot.sparse.words.size());
    return slot.sparse.offsets;
  }

  void likeli(Slot& slot, const SiteBatch& batch, obs::Tracer::Scope&) {
    // The whole window's arrays are sorted once, ahead of its first batch.
    if (batch.begin == 0) {
      const Stage stage(ledger_, "likeli_sort");
      likelihood_sort_cpu(slot.sparse);
    }
    const Stage stage(ledger_, "likeli_comp");
    each_site(batch, kSitesPerChunk, [&](u32 s) {
      slot.type_likely[s] = likelihood_sparse_site(slot.sparse.site(s), *npm_);
    });
  }

  void post(Slot& slot) { window_posterior(config_, priors_, slot); }

  /// The window's host-codec frame (output_encode), then its write
  /// (output_write).
  void output(Slot& slot) {
    std::vector<u8> frame;
    {
      const Stage stage(ledger_, "output_encode");
      frame = compress_snp_window(slot.rows);
    }
    const Stage stage(ledger_, "output_write");
    writer_->write_frame(frame);
  }

  void finish(std::size_t slots) {
    ledger_.report.output_bytes = writer_->finish();
    ledger_.report.peak_host_bytes = slots * max_words_ * sizeof(u32) +
                                     npm_->flat().size() * sizeof(double) +
                                     pm_.flat().size() * sizeof(double);
  }

 protected:
  std::optional<NewPMatrix> npm_;
  std::optional<SnpOutputWriter> writer_;
  u64 max_words_ = 0;
};

/// GSNP: the host sparse engine with its sort, likelihood, posterior and six
/// output columns on the device, timed by the analytical M2050 model from
/// measured counters (host work is wall clock).  A serial run runs each
/// device op at once on the default queue; an overlapped run enqueues them
/// on copy, compute and output streams that overlap in the modeled timeline,
/// window i-1's output beside window i's first batch (the paper's three-way
/// overlap).  A batch's ops finish before the next batch uploads, and each
/// op's counters are charged to the component it is named after.
class DeviceStages : public HostSparseStages {
 public:
  DeviceStages(const EngineConfig& config, Ledger& ledger, device::Device& dev,
               const device::PerfModel& model)
      : HostSparseStages(config, ledger),
        dev_(dev),
        model_(model),
        run_start_(dev.counters()),
        stream_spans_(ledger.tracer, &dev, &model) {
    if (!config.overlapped) return;
    pool_.emplace(dev, kLanes);
    pool_->set_listener(&stream_spans_);  // one span per drained op
  }

  /// load_table (Fig 2): the score tables go up once, before any likelihood
  /// work, outside the streams (charged serially).
  void cal_p() {
    HostSparseStages::cal_p();
    const device::DeviceCounters moved = run_now("load_table", "transfer", [&] {
      tables_.emplace(dev_, pm_, *npm_);
    });
    ledger_.charge("cal_p", 0.0, model_.seconds(moved));
  }

  /// The batch's whole device chain: upload, sort, likelihood (only the ten
  /// log-likelihoods per site come back), then the posterior kernel, whose
  /// priors are host posterior work done first.
  void likeli(Slot& slot, const SiteBatch& batch,
              obs::Tracer::Scope& batch_span) {
    priors_buf_.resize(slot.win.size);
    calls_.resize(slot.win.size);
    ledger_.charge("post", off_stage([&] {
                     for (u32 s = batch.begin; s < batch.end; ++s) {
                       const u64 pos = slot.win.start + s;
                       priors_buf_[s] = priors_.get(
                           config_.reference->base(pos),
                           config_.dbsnp ? config_.dbsnp->find(pos) : nullptr);
                     }
                   }),
                   0.0);
    boffsets_.resize(batch.sites() + 1);
    for (u32 s = 0; s <= batch.sites(); ++s)
      boffsets_[s] = slot.sparse.offsets[batch.begin + s] - batch.words_begin;

    // Watermark the batch's footprint over the resident score tables (the
    // budget bounds the batch; worst_case_device_bytes adds the tables).
    const u64 batch_base = dev_.allocated_bytes();
    dev_.reset_peak_watermark();
    upload("likeli_sort", "h2d:base_word", words_dev_,
           std::span<const u32>(slot.sparse.words)
               .subspan(batch.words_begin, batch.words()));
    dispatch(kCompute, "likeli_sort", [this](device::Device& d) {
      sortnet::sort_device_multipass_resident(
          d, *words_dev_, boffsets_, sortnet::kDefaultClassBounds,
          ledger_.tracer);
    });
    upload("likeli_comp", "h2d:offsets", offsets_dev_,
           std::span<const u64>(boffsets_));
    dispatch(kCompute, "likeli_comp", [this, &slot, &batch](device::Device& d) {
      const std::vector<TypeLikely> likely = device_likelihood_sparse_resident(
          d, *words_dev_, *offsets_dev_, batch.sites(), *tables_);
      std::copy(likely.begin(), likely.end(),
                slot.type_likely.begin() + batch.begin);
      words_dev_.reset();  // the batch's residency ends here
      offsets_dev_.reset();
    });
    dispatch(kCompute, "post", [this, &slot, &batch](device::Device& d) {
      const std::vector<PosteriorCall> calls = device_posterior(
          d,
          std::span<const TypeLikely>(slot.type_likely)
              .subspan(batch.begin, batch.sites()),
          std::span<const GenotypePriors>(priors_buf_)
              .subspan(batch.begin, batch.sites()));
      std::copy(calls.begin(), calls.end(), calls_.begin() + batch.begin);
    });
    // A drain that also ran another window's output is not the batch's alone.
    Slot* const carried = std::exchange(pending_output_, nullptr);
    if (carried) dispatch_output(*carried);
    sync();
    if (config_.batch_bytes == 0 || carried) return;
    const u64 actual = dev_.peak_since_watermark() - batch_base;
    ledger_.report.batch.record_actual(actual);
    batch_span.note("actual_peak_bytes", std::to_string(actual));
  }

  void post(Slot& slot) {
    window_posterior(config_, priors_, slot, &calls_);
    if (pool_) pending_output_ = &slot;
  }

  /// Overlapped, the window's output rides the next window's first batch.
  void output(Slot& slot) {
    if (!pool_) dispatch_output(slot);
  }

  void finish(std::size_t slots) {
    if (pending_output_) {  // the last window's output
      dispatch_output(*std::exchange(pending_output_, nullptr));
      sync();
    }
    HostSparseStages::finish(slots);
    ledger_.report.peak_device_bytes = dev_.peak_allocated_bytes();
    ledger_.report.device_counters = dev_.counters();
    const device::DeviceCounters run_delta =
        device::counters_delta(run_start_, dev_.counters());
    ledger_.report.modeled_serial_seconds = model_.seconds(run_delta);
    // Overlapped wall: the stream timelines' replay plus the device work
    // outside any stream (the table upload); a serial run overlaps nothing.
    ledger_.report.modeled_wall_seconds =
        pool_ ? pool_->modeled_wall_seconds(model_) +
                    model_.seconds(device::counters_delta(
                        pool_->total_stream_counters(), run_delta))
              : ledger_.report.modeled_serial_seconds;
  }

 private:
  /// An overlapped run's stream per lane: one pool stream each.
  enum Lane : u32 { kCompute, kCopy, kOut, kLanes };

  device::Stream& stream(Lane lane) { return pool_->stream(lane); }

  /// One device op: overlapped, enqueued on its lane's stream (the compute
  /// lane's next kernel waits for an upload); serial, run and charged at once.
  void dispatch(Lane lane, const char* name,
                std::function<void(device::Device&)> fn) {
    if (!pool_) return charge(name, run_now(name, "stream", [&] { fn(dev_); }));
    stream(lane).enqueue(lane == kCopy ? device::StreamOpKind::kH2d
                                       : device::StreamOpKind::kLaunch,
                         name, std::move(fn));
    if (lane != kCopy) return;
    const device::Event uploaded = pool_->create_event();
    stream(kCopy).record(uploaded);
    stream(kCompute).wait(uploaded);
  }

  /// Run `fn` now, off-stage, under a device span; returns its counters.
  template <typename F>
  device::DeviceCounters run_now(const char* name, const char* category,
                                 F&& fn) {
    obs::Tracer::Scope span(ledger_.tracer, name, category, &dev_, &model_);
    span.set_host_seconds(0.0);
    const device::DeviceCounters before = dev_.counters();
    off_stage(fn);
    return device::counters_delta(before, dev_.counters());
  }

  /// The upload feeding kernel `op`, under a transfer span.
  template <typename T>
  void upload(const char* op, const char* transfer,
              std::optional<device::DeviceBuffer<T>>& dst,
              std::span<const T> src) {
    dispatch(kCopy, op, [this, transfer, &dst, src](device::Device& d) {
      obs::Tracer::Scope span(ledger_.tracer, transfer, "transfer", &d,
                              &model_);
      span.set_host_seconds(0.0);
      dst.emplace(d.to_device(src));
    });
  }

  /// The output op's host share is its wall time less the simulator time
  /// the device RLE-DICT kernels burn inside it.
  void dispatch_output(Slot& slot) {
    dispatch(kOut, "output", [this, &slot](device::Device&) {
      const Timer timer;
      const double rle_before = rle_seconds_;
      writer_->write_window(slot.rows, device_rle_);
      output_host_seconds_ +=
          std::max(0.0, timer.seconds() - (rle_seconds_ - rle_before));
    });
  }

  /// Overlapped, finish the enqueued ops (a drain is off-stage simulator
  /// time) and charge each one.
  void sync() {
    if (!pool_) return;
    const std::size_t first = pool_->log().size();
    off_stage([&] { pool_->sync(); });
    const auto& ops = pool_->log();
    for (std::size_t i = first; i < ops.size(); ++i)
      if (ops[i].kind != device::StreamOpKind::kRecord &&
          ops[i].kind != device::StreamOpKind::kWait)
        charge(ops[i].name, ops[i].delta);
  }

  /// A finished op's counters go to the component it is named after,
  /// likeli_* to "likeli" as well.
  void charge(const std::string& name, const device::DeviceCounters& delta) {
    const double modeled = model_.seconds(delta);
    ledger_.charge(
        name.c_str(),
        name == "output" ? std::exchange(output_host_seconds_, 0.0) : 0.0,
        modeled);
    if (name.starts_with("likeli_")) ledger_.charge("likeli", 0.0, modeled);
  }

  /// The window's priors and device calls; the current batch's rebased CSR
  /// slice (site i owns words [boffsets_[i], boffsets_[i+1])) and buffers.
  std::vector<GenotypePriors> priors_buf_;
  std::vector<PosteriorCall> calls_;
  std::vector<u64> boffsets_;
  std::optional<device::DeviceBuffer<u32>> words_dev_;
  std::optional<device::DeviceBuffer<u64>> offsets_dev_;
  device::Device& dev_;
  const device::PerfModel& model_;
  const device::DeviceCounters run_start_;
  std::optional<DeviceScoreTables> tables_;
  obs::StreamSpanListener stream_spans_;
  std::optional<device::StreamPool> pool_;  ///< overlapped runs only
  Slot* pending_output_ = nullptr;
  double rle_seconds_ = 0.0;
  double output_host_seconds_ = 0.0;
  const RleDictFn device_rle_ = [this](std::span<const u32> column,
                                       std::vector<u8>& out) {
    obs::Tracer::Scope span(ledger_.tracer, "rle_dict", "compress", &dev_,
                            &model_);
    span.set_host_seconds(0.0);
    const Timer timer;
    compress::device_encode_rle_dict(dev_, column, out);
    rle_seconds_ += timer.seconds();
  };
};

// ---- the allocator policy ---------------------------------------------------

/// glibc's ceiling for M_MMAP_THRESHOLD on 64-bit targets (half its 64 MiB
/// per-thread heap).  Below it every window, cal_p and output buffer comes
/// from the calling thread's arena instead of a fresh mapping.
constexpr int kMmapThreshold = 32 << 20;
/// The free memory at a heap's top that makes a free() give it back: far
/// above a whole call's peak (a 1M-site call at 10x peaks near 130 MB of
/// RSS), so no free() during or between calls returns pages.
constexpr int kTrimThreshold = 1 << 30;
/// The pad glibc keeps when it shrinks a heap.  glibc unmaps a thread
/// arena's emptied 64 MiB heap whatever the trim threshold says, unless the
/// free and unreserved room of the heap below it is less than this pad; at
/// a whole heap's size, no heap is unmapped.
constexpr int kTopPad = 64 << 20;

/// A call frees its buffers into its thread's glibc arena.  With glibc's
/// defaults large frees shrink or unmap that arena's heaps, or unmap the
/// chunk itself (the dynamic mmap threshold), and the next call faults the
/// same pages in again.  This fixed policy keeps them mapped for the next
/// call; setting any of the three turns the dynamic thresholds off.  Once
/// per process: the policy outlives the call.
void apply_allocator_policy() {
  static std::once_flag once;
  std::call_once(once, [] {
    (void)mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
    (void)mallopt(M_TRIM_THRESHOLD, kTrimThreshold);
    (void)mallopt(M_TOP_PAD, kTopPad);
  });
}

// ---- the window loop --------------------------------------------------------

/// The one window loop: per window, load (cancel check, read, recycle,
/// count, plan), likelihood over the plan's batches, posterior, output.
/// Serial is its one-slot run on the calling thread.
/// Overlapped is its two-slot run: window i+1 loads on the prefetch lane and
/// window i-1 writes on the ordered output lane while window i computes.
/// Each artifact comes from one stage and concurrent stages touch disjoint
/// slots, so both runs produce the same bytes.
template <typename Stages, typename... Args>
RunReport run_windows(const EngineConfig& config, const char* engine,
                      Args&&... args) {
  GSNP_CHECK(config.reference != nullptr);
  apply_allocator_policy();
  const Timer wall;
  RunReport report;
  report.sites = config.reference->size();
  Ledger ledger{report, config.tracer, engine};
  Stages stages(config, ledger, std::forward<Args>(args)...);
  {
    const Stage stage(ledger, "cal_p");
    stages.cal_p();
  }

  using Slot = typename Stages::Slot;
  std::vector<Slot> slots(config.overlapped ? 2 : 1);
  WindowLoader loader = stages.loader(report.sites);
  // One load in flight at a time; false at the end of input.
  const auto load = [&](Slot& slot) {
    check_cancel(config.cancel, "window");
    {
      const Stage stage(ledger, "read");
      if (!loader.next(slot.win)) return false;
    }
    {
      const Stage stage(ledger, "recycle");
      stages.recycle(slot);
    }
    const Stage stage(ledger, "count");
    slot.plan = plan_window(config, stages.count(slot), report);
    return true;
  };

  // Overlapped: the prefetch and ordered output lanes share a two-thread
  // pool, declared after everything its tasks touch.  Serial: no pool; a
  // load runs when awaited, a write on the spot.
  std::optional<ThreadPool> lanes;
  if (slots.size() > 1) lanes.emplace(2);
  const auto prefetch_into = [&](Slot& slot) {
    const auto task = [&load, &slot] { return load(slot); };
    return lanes ? lanes->submit(task) : std::async(std::launch::deferred, task);
  };
  std::shared_future<void> last_write;
  std::future<bool> prefetch = prefetch_into(slots[0]);
  // get() waits for window i's load and rethrows its errors.
  for (std::size_t i = 0; prefetch.get(); ++i) {
    Slot& slot = slots[i % slots.size()];
    ++report.windows;
    prefetch = prefetch_into(slots[(i + 1) % slots.size()]);
    {
      const Stage stage(ledger, "likeli");
      slot.type_likely.resize(slot.win.size);
      for (const SiteBatch& batch : slot.plan.batches) {
        obs::Tracer::Scope span(
            config.batch_bytes > 0 ? config.tracer : nullptr, "batch",
            "batcher");
        span.note("sites", std::to_string(batch.sites()));
        span.note("words", std::to_string(batch.words()));
        span.note("planned_peak_bytes",
                  std::to_string(batch.planned_peak_bytes));
        stages.likeli(slot, batch, span);
      }
    }
    // The slot's previous occupant may still be on the output lane; its rows
    // must not be overwritten until that write retires.
    if (slot.written.valid()) slot.written.wait();
    {
      const Stage stage(ledger, "post");
      stages.post(slot);
    }
    const auto write = [&, s = &slot, prev = last_write] {
      if (prev.valid()) prev.wait();  // windows reach the file in order
      const Stage stage(ledger, "output");
      stages.output(*s);
    };
    if (lanes)
      slot.written = last_write = lanes->submit(write).share();
    else
      write();
  }
  // Join every outstanding write; get() rethrows the first failure.
  for (Slot& slot : slots)
    if (slot.written.valid()) std::exchange(slot.written, {}).get();
  stages.finish(slots.size());
  report.wall_seconds = wall.seconds();
  ledger.record_metrics();
  return report;
}

}  // namespace

RunReport run_soapsnp(const EngineConfig& config) {
  return run_windows<DenseStages>(config, "soapsnp");
}

RunReport run_gsnp_cpu(const EngineConfig& config) {
  return run_windows<HostSparseStages>(config, "gsnp_cpu");
}

RunReport run_gsnp(const EngineConfig& config, device::Device& dev,
                   const device::PerfModel& model) {
  return run_windows<DeviceStages>(config, "gsnp", dev, model);
}

}  // namespace gsnp::core
