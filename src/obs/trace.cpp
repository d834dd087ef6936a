#include "src/obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>

#include "src/common/atomic_file.hpp"
#include "src/common/error.hpp"
#include "src/common/json.hpp"

namespace gsnp::obs {

namespace {

/// Per-thread stack of open spans, tagged with their tracer so independent
/// tracers nest correctly even when interleaved on one thread.
thread_local std::vector<std::pair<const Tracer*, u64>> t_open_spans;

double ns_to_sec(u64 ns) { return static_cast<double>(ns) * 1e-9; }

/// JSON number formatting for seconds/ratios: shortest round-trippable-ish
/// representation, always finite.
std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

}  // namespace

// ---- Metrics --------------------------------------------------------------

void Metrics::add(std::string_view name, u64 delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_[std::string(name)] += delta;
}

void Metrics::set_gauge(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  gauges_[std::string(name)] = value;
}

u64 Metrics::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0 : it->second;
}

double Metrics::gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(std::string(name));
  return it == gauges_.end() ? 0.0 : it->second;
}

Histogram& Metrics::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Metrics::record(std::string_view name, double value) {
  histogram(name).record(value);
}

std::map<std::string, u64> Metrics::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::map<std::string, double> Metrics::gauges() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return gauges_;
}

std::map<std::string, Histogram::Snapshot> Metrics::histograms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Histogram::Snapshot> out;
  for (const auto& [name, hist] : histograms_) out[name] = hist->snapshot();
  return out;
}

void Metrics::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

// ---- Tracer ---------------------------------------------------------------

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

u64 Tracer::now_ns() const {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - epoch_)
                              .count());
}

u64 Tracer::begin_span() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::commit(SpanRecord&& record) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

u32 Tracer::thread_index() {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = thread_ids_.try_emplace(
      std::this_thread::get_id(), static_cast<u32>(thread_ids_.size()));
  (void)inserted;
  return it->second;
}

u64 Tracer::add_complete(SpanRecord record) {
  if (record.id == 0) record.id = begin_span();
  const u64 id = record.id;
  commit(std::move(record));
  return id;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::stage_breakdown(
    std::string_view category) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> totals;
  for (const SpanRecord& s : spans_) {
    if (!category.empty() && s.category != category) continue;
    totals[s.name] += s.table_seconds();
  }
  return totals;
}

device::DeviceCounters Tracer::device_totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Only spans with no device-capturing ancestor contribute, so a parent
  // span enclosing instrumented children does not double-count their delta.
  std::set<u64> device_ids;
  for (const SpanRecord& s : spans_)
    if (s.has_device) device_ids.insert(s.id);
  std::map<u64, u64> parent_of;
  for (const SpanRecord& s : spans_) parent_of[s.id] = s.parent;

  device::DeviceCounters total;
  for (const SpanRecord& s : spans_) {
    if (!s.has_device) continue;
    bool covered = false;
    for (u64 p = s.parent; p != 0;) {
      if (device_ids.count(p)) {
        covered = true;
        break;
      }
      const auto it = parent_of.find(p);
      p = it == parent_of.end() ? 0 : it->second;
    }
    if (!covered) total += s.device;
  }
  return total;
}

u64 Tracer::device_peak_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  u64 peak = 0;
  for (const SpanRecord& s : spans_)
    peak = std::max(peak, s.device_peak_bytes);
  return peak;
}

// ---- Tracer::Scope --------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, std::string_view name,
                     std::string_view category, device::Device* dev,
                     const device::PerfModel* model)
    : tracer_(tracer) {
  if (!tracer_) return;  // null sink: nothing else runs, here or in ~Scope
  dev_ = dev;
  model_ = model;
  if (dev_) before_ = dev_->counters();
  pending_ = std::make_unique<SpanRecord>();
  pending_->id = tracer_->begin_span();
  pending_->name = std::string(name);
  pending_->category = std::string(category);
  pending_->thread = tracer_->thread_index();
  for (auto it = t_open_spans.rbegin(); it != t_open_spans.rend(); ++it) {
    if (it->first == tracer_) {
      pending_->parent = it->second;
      break;
    }
  }
  t_open_spans.emplace_back(tracer_, pending_->id);
  start_ns_ = tracer_->now_ns();  // last: exclude setup from the span
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  const u64 end_ns = tracer_->now_ns();
  // Pop this span; scopes are strictly nested per thread by construction.
  if (!t_open_spans.empty() && t_open_spans.back().first == tracer_ &&
      t_open_spans.back().second == pending_->id)
    t_open_spans.pop_back();
  pending_->start_ns = start_ns_;
  pending_->duration_ns = end_ns - start_ns_;
  pending_->host_sec = host_sec_override_ >= 0.0
                           ? host_sec_override_
                           : ns_to_sec(pending_->duration_ns);
  if (dev_) {
    pending_->has_device = true;
    pending_->device = device::counters_delta(before_, dev_->counters());
    pending_->device_peak_bytes = dev_->peak_allocated_bytes();
    static const device::PerfModel default_model;
    pending_->modeled_sec =
        (model_ ? *model_ : default_model).seconds(pending_->device);
  }
  tracer_->commit(std::move(*pending_));
}

void Tracer::Scope::note(std::string_view key, std::string_view value) {
  if (!tracer_) return;
  pending_->args.emplace_back(std::string(key), std::string(value));
}

void Tracer::Scope::set_host_seconds(double sec) {
  if (!tracer_) return;
  host_sec_override_ = std::max(0.0, sec);
}

void Tracer::Scope::set_modeled_seconds(double sec) {
  if (!tracer_) return;
  pending_->modeled_sec = std::max(0.0, sec);
}

void Tracer::Scope::set_stream(u32 stream_id) {
  if (!tracer_) return;
  pending_->stream = stream_id;
}

// ---- exporters ------------------------------------------------------------

void write_chrome_trace(const std::filesystem::path& path,
                        const Tracer& tracer) {
  const std::filesystem::path tmp = path.string() + ".part";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    GSNP_CHECK_MSG(out.good(), "cannot open trace for write " << tmp);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    const auto spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      // Stream-tagged spans get their own lane per stream (tid 1000+N) so
      // overlap across streams is visible as parallel rows in the viewer.
      const u32 tid = s.stream != 0 ? 1000 + s.stream : s.thread;
      out << (i ? ",\n " : "\n ") << "{\"ph\": \"X\", \"pid\": 1, \"tid\": "
          << tid << ", \"name\": ";
      json::write_escaped(out, s.name);
      out << ", \"cat\": ";
      json::write_escaped(out, s.category.empty() ? "span" : s.category);
      // trace_event timestamps are microseconds.
      out << ", \"ts\": " << fmt(static_cast<double>(s.start_ns) * 1e-3)
          << ", \"dur\": " << fmt(static_cast<double>(s.duration_ns) * 1e-3)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"table_sec\": " << fmt(s.table_seconds())
          << ", \"host_sec\": " << fmt(s.host_sec)
          << ", \"modeled_sec\": " << fmt(s.modeled_sec);
      if (s.stream != 0) out << ", \"stream\": " << s.stream;
      if (s.has_device) {
        const device::DeviceCounters& d = s.device;
        out << ", \"dev_instructions\": " << d.instructions
            << ", \"dev_global_loads\": " << d.global_loads()
            << ", \"dev_global_stores\": " << d.global_stores()
            << ", \"dev_shared_loads\": " << d.shared_loads
            << ", \"dev_shared_stores\": " << d.shared_stores
            << ", \"dev_h2d_bytes\": " << d.h2d_bytes
            << ", \"dev_d2h_bytes\": " << d.d2h_bytes
            << ", \"dev_kernel_launches\": " << d.kernel_launches
            << ", \"dev_peak_global_bytes\": " << s.device_peak_bytes;
      }
      for (const auto& [key, value] : s.args) {
        out << ", ";
        json::write_escaped(out, key);
        out << ": ";
        json::write_escaped(out, value);
      }
      out << "}}";
    }
    out << "\n]}\n";
    out.flush();
    GSNP_CHECK_MSG(out.good(), "trace write failed " << tmp);
  }
  atomic_publish(tmp, path);
}

void write_metrics_json(const std::filesystem::path& path,
                        const Tracer& tracer) {
  // Host and modeled seconds broken out per stage name.
  std::map<std::string, std::pair<double, double>> stages;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.category != "stage") continue;
    auto& [host, modeled] = stages[s.name];
    host += s.host_sec;
    modeled += s.modeled_sec;
  }
  const device::DeviceCounters dev = tracer.device_totals();

  const std::filesystem::path tmp = path.string() + ".part";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    GSNP_CHECK_MSG(out.good(), "cannot open metrics for write " << tmp);
    out << "{\n  \"version\": 1,\n  \"stages\": {";
    bool first = true;
    for (const auto& [name, sec] : stages) {
      out << (first ? "\n    " : ",\n    ");
      first = false;
      json::write_escaped(out, name);
      out << ": {\"seconds\": " << fmt(sec.first + sec.second)
          << ", \"host_seconds\": " << fmt(sec.first)
          << ", \"modeled_seconds\": " << fmt(sec.second) << "}";
    }
    out << "\n  },\n  \"device\": {"
        << "\"instructions\": " << dev.instructions
        << ", \"global_loads\": " << dev.global_loads()
        << ", \"global_stores\": " << dev.global_stores()
        << ", \"shared_loads\": " << dev.shared_loads
        << ", \"shared_stores\": " << dev.shared_stores
        << ", \"global_load_bytes\": "
        << dev.global_load_bytes_coalesced + dev.global_load_bytes_random
        << ", \"global_store_bytes\": "
        << dev.global_store_bytes_coalesced + dev.global_store_bytes_random
        << ", \"h2d_bytes\": " << dev.h2d_bytes
        << ", \"d2h_bytes\": " << dev.d2h_bytes
        << ", \"kernel_launches\": " << dev.kernel_launches
        << ", \"peak_global_bytes\": " << tracer.device_peak_bytes() << "},\n";
    out << "  \"counters\": {";
    first = true;
    for (const auto& [name, value] : tracer.metrics().counters()) {
      out << (first ? "" : ", ");
      first = false;
      json::write_escaped(out, name);
      out << ": " << value;
    }
    out << "},\n  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : tracer.metrics().gauges()) {
      out << (first ? "" : ", ");
      first = false;
      json::write_escaped(out, name);
      out << ": " << fmt(value);
    }
    out << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, snap] : tracer.metrics().histograms()) {
      out << (first ? "\n    " : ",\n    ");
      first = false;
      json::write_escaped(out, name);
      out << ": ";
      snap.write_json(out);
    }
    out << "\n  }\n}\n";
    out.flush();
    GSNP_CHECK_MSG(out.good(), "metrics write failed " << tmp);
  }
  atomic_publish(tmp, path);
}

MetricsSnapshot read_metrics_json(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open metrics " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value root = json::parse(buf.str());
  GSNP_CHECK_MSG(root.kind == json::Value::Kind::kObject,
                 "metrics " << path << " is not a JSON object");
  GSNP_CHECK_MSG(json::get_u64(root, "version") == 1,
                 "unsupported metrics version in " << path);

  MetricsSnapshot snap;
  if (const json::Value* stages = json::find(root, "stages")) {
    GSNP_CHECK_MSG(stages->kind == json::Value::Kind::kObject,
                   "metrics: 'stages' is not an object");
    for (const auto& [name, v] : stages->object)
      snap.stages[name] = json::get_number(v, "seconds");
  }
  if (const json::Value* counters = json::find(root, "counters")) {
    for (const auto& [name, v] : counters->object) {
      GSNP_CHECK_MSG(v.kind == json::Value::Kind::kNumber,
                     "metrics: counter '" << name << "' is not a number");
      snap.counters[name] = static_cast<u64>(v.number);
    }
  }
  if (const json::Value* gauges = json::find(root, "gauges")) {
    for (const auto& [name, v] : gauges->object) {
      GSNP_CHECK_MSG(v.kind == json::Value::Kind::kNumber,
                     "metrics: gauge '" << name << "' is not a number");
      snap.gauges[name] = v.number;
    }
  }
  if (const json::Value* hists = json::find(root, "histograms")) {
    GSNP_CHECK_MSG(hists->kind == json::Value::Kind::kObject,
                   "metrics: 'histograms' is not an object");
    for (const auto& [name, v] : hists->object)
      snap.histograms[name] = Histogram::Snapshot::from_json(v);
  }
  return snap;
}

}  // namespace gsnp::obs
