#pragma once
// gsnp::obs — span-based tracing and metrics for the SNP-calling pipeline.
//
// One measurement, every view: the engines time each pipeline stage exactly
// once and record it simultaneously in the RunReport stopwatches (the paper's
// Tables I/IV breakdowns) and — when a Tracer is attached — as a span in the
// trace stream.  A span carries wall time, thread, parent (derived from a
// per-thread scope stack), and, when opened against a device, the delta of
// the device's hardware counters over the span plus the analytical-model
// seconds for that delta (paper Table III / the "GPU seconds" of Table IV).
//
// Two exporters serialize a finished run:
//   * write_chrome_trace — Chrome trace_event JSON ("traceEvents" with "X"
//     complete events), loadable in chrome://tracing or Perfetto.
//   * write_metrics_json — compact machine-readable metrics: per-stage
//     breakdown (host + modeled-device seconds), device counters, and the
//     registry's counters/gauges.  read_metrics_json parses it back.
//
// Cost model: a Tracer* of nullptr is the null sink.  Scope's constructor and
// destructor reduce to a single branch then — no clock read, no allocation —
// so instrumented hot paths (the likelihood loop runs millions of sites per
// span) pay nothing when tracing is off.  With tracing on, span finish takes
// one mutex acquisition; spans are per-stage/per-window/per-sort-pass, never
// per-site.

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/types.hpp"
#include "src/device/device.hpp"
#include "src/device/perf_model.hpp"
#include "src/obs/histogram.hpp"

namespace gsnp::obs {

/// One finished span.
struct SpanRecord {
  u64 id = 0;       ///< 1-based, unique within the tracer
  u64 parent = 0;   ///< enclosing span on the same thread (0 = root)
  std::string name;
  std::string category;  ///< "stage", "pipeline", "sort", "compress", ...
  u64 start_ns = 0;      ///< relative to the tracer's epoch
  u64 duration_ns = 0;   ///< wall time the scope was open
  u32 thread = 0;        ///< tracer-local thread index
  u32 stream = 0;        ///< device stream lane (1-based; 0 = host/default)
  /// Extra annotations ("engine" = "gsnp", "attempt" = "2", ...).
  std::vector<std::pair<std::string, std::string>> args;

  /// Seconds this span contributes to the component breakdown tables.
  /// Defaults to the wall duration; stages that run device kernels through
  /// the simulator override it (the simulation wall time is not time on the
  /// modeled hardware — see engine.cpp).
  double host_sec = 0.0;
  /// Modeled device seconds for the counter delta (0 for host-only spans).
  double modeled_sec = 0.0;

  bool has_device = false;
  device::DeviceCounters device;  ///< hardware-counter delta over the span
  u64 device_peak_bytes = 0;      ///< device allocation high-water mark at end

  double table_seconds() const { return host_sec + modeled_sec; }
};

/// Process-wide (or per-run) metrics registry: monotonically increasing
/// counters, last-value gauges, and named latency histograms (fixed-layout
/// log-linear, histogram.hpp).  All operations are thread-safe.
class Metrics {
 public:
  void add(std::string_view name, u64 delta = 1);
  void set_gauge(std::string_view name, double value);
  u64 counter(std::string_view name) const;   ///< 0 if never added
  double gauge(std::string_view name) const;  ///< 0.0 if never set

  /// The histogram registered under `name`, created empty on first use.
  /// The reference stays valid for the registry's lifetime (clear()
  /// excepted), so hot paths may cache it and record() without re-lookup.
  /// Names may carry a Prometheus-style label block — see prometheus.hpp's
  /// labeled_series() — which the exposition renderer splits back out.
  Histogram& histogram(std::string_view name);
  void record(std::string_view name, double value);  ///< lookup + record

  std::map<std::string, u64> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, Histogram::Snapshot> histograms() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, u64> counters_;
  std::map<std::string, double> gauges_;
  /// unique_ptr: Histogram holds a mutex (immovable); map nodes keep the
  /// pointed-to histograms stable across inserts.
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Thread-safe span collector.  Create one per run, pass `&tracer` (or
/// nullptr for off) down the pipeline, then export.
class Tracer {
 public:
  Tracer();

  /// RAII span.  `tracer` may be null: the scope is then a no-op branch.
  /// When `dev` is non-null the span captures the device-counter delta over
  /// its lifetime and models its seconds with `model` (default PerfModel
  /// when null).  The caller must not run device work concurrently from
  /// other threads while such a span is open (the engines never do).
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, std::string_view category,
          device::Device* dev = nullptr,
          const device::PerfModel* model = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attach a key/value annotation (exported as trace-event args).
    void note(std::string_view key, std::string_view value);
    /// Override the seconds this span contributes to the breakdown tables
    /// (default: its wall duration).  See SpanRecord::host_sec.
    void set_host_seconds(double sec);
    /// Modeled device seconds for a span opened without a device: device
    /// work measured elsewhere (a drained stream op) and charged to it.
    void set_modeled_seconds(double sec);
    /// Assign the span to a device stream lane (Chrome exporter renders
    /// each stream as its own row).  See SpanRecord::stream.
    void set_stream(u32 stream_id);

   private:
    Tracer* tracer_;  // null = disabled scope: every member stays untouched
    device::Device* dev_ = nullptr;
    const device::PerfModel* model_ = nullptr;
    device::DeviceCounters before_{};
    u64 start_ns_ = 0;
    double host_sec_override_ = -1.0;  // < 0 = use the wall duration
    std::unique_ptr<SpanRecord> pending_;  // allocated only when enabled
  };

  /// Record a span that was timed externally (rarely needed; Scope covers
  /// the pipeline).  Returns the span id.
  u64 add_complete(SpanRecord record);

  /// Snapshot of all finished spans, in completion order.
  std::vector<SpanRecord> spans() const;

  /// Per-name totals of table_seconds() (host + modeled device), the
  /// source of the Tables I/IV breakdowns.  Restricted to `category` when
  /// non-empty.
  std::map<std::string, double> stage_breakdown(
      std::string_view category = "stage") const;

  /// Sum of device-counter deltas over spans that captured a device, plus
  /// the largest device_peak_bytes seen (drives the Table III report).
  device::DeviceCounters device_totals() const;
  u64 device_peak_bytes() const;

  /// Nanoseconds since the tracer's epoch (monotonic).
  u64 now_ns() const;

  /// Per-run metrics registry exported alongside the spans.
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

 private:
  friend class Scope;
  u64 begin_span();    // allocates the next span id
  void commit(SpanRecord&& record);
  u32 thread_index();  // tracer-local dense id for the calling thread

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  u64 next_id_ = 1;
  std::map<std::thread::id, u32> thread_ids_;
  Metrics metrics_;
};

/// Export all spans as Chrome trace_event JSON (chrome://tracing, Perfetto).
void write_chrome_trace(const std::filesystem::path& path,
                        const Tracer& tracer);

/// Export the compact machine-readable metrics JSON: stage breakdown,
/// device counter totals, and the registry (tracer.metrics()).
void write_metrics_json(const std::filesystem::path& path,
                        const Tracer& tracer);

/// Parsed-back form of write_metrics_json, for round-trip checks and the
/// benchmark harness.
struct MetricsSnapshot {
  std::map<std::string, double> stages;  ///< table seconds per stage name
  std::map<std::string, u64> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
};
MetricsSnapshot read_metrics_json(const std::filesystem::path& path);

}  // namespace gsnp::obs
