#pragma once
// The SNP-calling engines (paper Figs 1 and 2):
//
//  * run_soapsnp   — the CPU baseline: dense base_occ, Algorithm 1 likelihood
//                    (runtime log10, two p_matrix reads per update), plain
//                    text output, full dense-matrix recycle per window.
//                    Default window 4,000 sites.
//  * run_gsnp_cpu  — GSNP's algorithm without the GPU: sparse base_word with
//                    per-array quicksort, new_p_matrix, compressed temporary
//                    input and compressed output (host codecs).  Default
//                    window 256,000 sites.
//  * run_gsnp_simd — run_gsnp_cpu with the hot per-site kernels (sparse
//                    likelihood accumulate, posterior sums) dispatched to
//                    the best vectorized implementation the CPU supports
//                    (core/simd.hpp: AVX2 -> SSE2 -> scalar).  Bit-identical
//                    output to run_gsnp_cpu at every dispatch level.
//  * run_gsnp      — the full system: sparse representation, multipass batch
//                    bitonic sort + the optimized likelihood kernel on the
//                    device, device RLE-DICT output compression.  Device work
//                    is timed through the analytical M2050 model from measured
//                    operation counts (see device/perf_model.hpp and
//                    DESIGN.md); host work is wall-clock.
//
// All engines emit identical SnpRow streams (paper §IV-G); only the
// container format differs (text vs compressed).  Component times use the
// paper's seven names: cal_p, read, count, likeli, post, output, recycle.
// Callers normally go through the registry in core/backend.hpp instead of
// naming these entry points directly.

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "src/common/cancel.hpp"
#include "src/common/ingest.hpp"
#include "src/common/timer.hpp"
#include "src/core/batcher.hpp"
#include "src/core/prior.hpp"
#include "src/device/device.hpp"
#include "src/device/perf_model.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/reference.hpp"

namespace gsnp::obs {
class Tracer;
}

namespace gsnp::core {

/// Paper component names, in pipeline order.
inline constexpr const char* kComponents[] = {
    "cal_p", "read", "count", "likeli", "post", "output", "recycle"};

struct EngineConfig {
  std::filesystem::path alignment_file;
  const genome::Reference* reference = nullptr;
  const genome::DbSnpTable* dbsnp = nullptr;  ///< optional prior file
  std::filesystem::path output_file;
  std::filesystem::path temp_file;  ///< GSNP/GSNP_CPU compressed temp input
  u32 window_size = 0;              ///< 0 = engine default
  PriorParams prior;

  /// How the alignment-file loaders treat malformed input: strict (default,
  /// first bad record aborts with a ParseError) or lenient (skip into the
  /// policy's quarantine file, bounded by its error budget).  The resulting
  /// per-reason breakdown lands in RunReport::ingest.
  IngestPolicy ingest;

  /// Reuse a calibration matrix from a previous run (core::write_p_matrix):
  /// cal_p_matrix skips the counting pass (SOAPsnp's matrix-reload feature).
  /// The GSNP engines still stream the input once to build the compressed
  /// temporary file.  Bit-exact with the matrix it was saved from.
  std::filesystem::path p_matrix_in;
  /// Save the calibration matrix computed by this run.
  std::filesystem::path p_matrix_out;

  /// Optional span tracing + metrics (src/obs): when non-null, every
  /// pipeline stage, sort pass, device compression call and host↔device
  /// transfer emits a span, and run totals land in the tracer's metrics
  /// registry.  The stopwatches in RunReport receive exactly the same
  /// measurements, so trace exports and the Tables I/IV breakdowns cannot
  /// drift.  Null = tracing off (zero overhead).
  obs::Tracer* tracer = nullptr;

  /// Overlapped-pipeline knobs.  `streams <= 1` selects the serial reference
  /// path (unchanged, the bit-exactness baseline).  `streams >= 2` runs the
  /// double-buffered pipeline: the GSNP engine issues device work onto a
  /// StreamPool of `streams` async streams (compute / h2d / output lanes)
  /// while a host thread pool prefetches (ingests + packs) the next window
  /// and the previous window's output+compression drains on its own stream;
  /// the CPU engines prefetch the next window and defer output (SOAPsnp
  /// text, GSNP_CPU host RLE-DICT) to ordered thread-pool tasks.  All
  /// arithmetic runs in the same order on the same data as the serial path,
  /// so output is byte-identical by construction (tests/test_determinism).
  u32 streams = 1;
  /// Window slots in flight for the overlapped path (clamped to >= 2).
  /// SOAPsnp note: each slot owns a dense base_occ window, so memory scales
  /// with depth there; the sparse engines pay ~0.1% of that per slot.
  u32 pipeline_depth = 2;
  /// Host worker threads for ingest prefetch + deferred output tasks.  Any
  /// size (including 1) produces identical output; it only changes how much
  /// host work overlaps.
  u32 host_threads = 2;

  /// Optional cooperative cancellation.  The engines poll the token at
  /// window boundaries and periodically inside the cal_p streaming pass, and
  /// unwind with CancelledError — the output/temp writers are abandoned
  /// mid-file, so the caller owns cleanup of the partial `.part` artifacts
  /// (the genome pipeline removes them; the CLI unlinks on interrupt).
  /// Null = never cancelled (zero overhead beyond one branch per window).
  const CancelToken* cancel = nullptr;

  /// Depth-aware batching (src/core/batcher.hpp).  0 = off: every window is
  /// one device batch, the historical fixed-window behavior.  > 0: each
  /// loader window is split into position-ordered batches whose planned
  /// device footprint never exceeds this many bytes, so batch size floats
  /// with observed depth.  Output stays byte-identical to the fixed-window
  /// path on every backend (batches never span a window, and per-site
  /// arithmetic is batch-invariant); device counters differ (more, smaller
  /// launches).  Host backends use the same plan to chunk their per-site
  /// loops, so RunReport::batch is populated for all four backends.  Throws
  /// BatchBudgetError if a single site cannot fit.
  u64 batch_bytes = 0;

  /// Default windows: SOAPsnp 4,000; GSNP / GSNP_CPU 256,000 (paper §VI-A).
  static constexpr u32 kDefaultSoapsnpWindow = 4'000;
  static constexpr u32 kDefaultGsnpWindow = 256'000;
};

struct RunReport {
  /// Wall-clock seconds of the whole engine call, measured once around it.
  /// Stage stopwatches overlap on the overlapped paths (and run on several
  /// threads inside a stage), so their sum, total(), is not elapsed time.
  double wall_seconds = 0.0;
  StopwatchSet host;            ///< measured seconds per component
  StopwatchSet device_modeled;  ///< modeled device seconds per component
                                ///< (plus "likeli_sort"/"likeli_comp" detail)
  u64 sites = 0;
  u64 windows = 0;
  u64 records = 0;
  u64 output_bytes = 0;
  u64 temp_bytes = 0;
  u64 peak_host_bytes = 0;    ///< dominant buffer footprint estimate
  u64 peak_device_bytes = 0;  ///< device allocation high-water mark
  device::DeviceCounters device_counters;
  /// Ingest outcome of the alignment file (ok / unsupported / quarantined
  /// per reason), from the cal_p streaming pass.
  IngestStats ingest;

  /// Number of device streams the run actually used (1 = serial path).
  u32 streams_used = 1;
  /// Overlap-aware modeled device wall seconds for the whole run: stream
  /// timelines replayed with event dependencies (max across concurrent
  /// streams), plus non-stream device work charged serially.  For the
  /// serial path this equals modeled_serial_seconds.  GSNP engine only.
  double modeled_wall_seconds = 0.0;
  /// No-overlap baseline: PerfModel seconds over the run's whole device
  /// counter delta.  Identical for serial and overlapped runs of the same
  /// input (the counters are identical).  GSNP engine only.
  double modeled_serial_seconds = 0.0;
  /// Exact per-stream counter movement (overlapped GSNP runs; index =
  /// stream id - 1).  Sums to the stream-issued part of device_counters.
  std::vector<device::DeviceCounters> stream_counters;

  /// Depth-aware batching aggregate (EngineConfig::batch_bytes > 0 only):
  /// batch counts, planned peak from the cost model, and — on the device
  /// engine — the actual per-batch allocation watermark.
  BatchStats batch;

  /// Combined (host + modeled device) seconds for one component.
  double component(const std::string& name) const {
    return host.get(name) + device_modeled.get(name);
  }
  /// Combined total over the seven pipeline components.
  double total() const;
};

RunReport run_soapsnp(const EngineConfig& config);
RunReport run_gsnp_cpu(const EngineConfig& config);
RunReport run_gsnp_simd(const EngineConfig& config);
RunReport run_gsnp(const EngineConfig& config, device::Device& dev,
                   const device::PerfModel& model = {});

}  // namespace gsnp::core
