// Tests for src/obs: span nesting, the null-sink cost model, the two
// exporters (Chrome trace_event JSON + compact metrics JSON), device-counter
// capture per span, and the end-to-end guarantee the layer exists for —
// the trace's per-stage totals equal the RunReport breakdown (Tables I/IV).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/json.hpp"
#include "src/common/timer.hpp"
#include "src/core/engine.hpp"
#include "src/device/device.hpp"
#include "src/device/perf_model.hpp"
#include "src/genome/synthetic.hpp"
#include "src/obs/trace.hpp"
#include "src/reads/simulator.hpp"
#include "src/sortnet/multipass.hpp"
#include "src/sortnet/var_arrays.hpp"

namespace gsnp::obs {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const char* name) {
  return fs::temp_directory_path() / name;
}

// ---- spans & nesting -------------------------------------------------------

TEST(Span, NullTracerIsANoop) {
  Tracer::Scope scope(nullptr, "anything", "stage");
  scope.note("key", "value");          // must be safe on the null sink
  scope.set_host_seconds(42.0);
}

TEST(Span, NestedScopesDeriveParents) {
  Tracer tracer;
  {
    Tracer::Scope outer(&tracer, "outer", "stage");
    {
      Tracer::Scope inner(&tracer, "inner", "stage");
      Tracer::Scope sibling_free(nullptr, "ignored", "stage");
    }
    Tracer::Scope second(&tracer, "second", "stage");
  }
  const auto spans = tracer.spans();  // completion order: inner, second, outer
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord& inner = spans[0];
  const SpanRecord& second = spans[1];
  const SpanRecord& outer = spans[2];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(second.parent, outer.id);
  EXPECT_GE(inner.start_ns, outer.start_ns);
}

TEST(Span, ThreadsGetDistinctRootsAndIndices) {
  Tracer tracer;
  {
    Tracer::Scope main_span(&tracer, "main", "stage");
    std::thread worker([&tracer] {
      // The per-thread scope stack means another thread's open span is NOT
      // this span's parent.
      Tracer::Scope span(&tracer, "worker", "stage");
    });
    worker.join();
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "worker");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_NE(spans[0].thread, spans[1].thread);
}

TEST(Span, HostSecondsOverrideFeedsTableSeconds) {
  Tracer tracer;
  {
    Tracer::Scope span(&tracer, "output", "stage");
    span.set_host_seconds(1.25);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].host_sec, 1.25);
  EXPECT_DOUBLE_EQ(spans[0].table_seconds(), 1.25);
  EXPECT_GT(spans[0].duration_ns, 0u);  // wall duration still recorded
}

// ---- device-counter capture ------------------------------------------------

TEST(Span, DeviceDeltaMatchesGlobalCounterDelta) {
  // One known kernel — a single multipass size class of the batch bitonic
  // sort — captured by a span must show exactly the device's own global
  // counter movement over the same region.
  device::Device dev;
  sortnet::VarArrays va = sortnet::equal_var_arrays(64, 16, 1u << 16, 7);

  Tracer tracer;
  const device::DeviceCounters before = dev.counters();
  {
    Tracer::Scope span(&tracer, "bitonic", "sort", &dev);
    sortnet::sort_device_multipass(dev, va);
  }
  const device::DeviceCounters delta =
      device::counters_delta(before, dev.counters());

  const auto spans = tracer.spans();
  // The engine-level span plus the per-pass spans emitted by the sorter
  // (sort_device_multipass got no tracer here, so exactly one span).
  ASSERT_EQ(spans.size(), 1u);
  const SpanRecord& s = spans[0];
  ASSERT_TRUE(s.has_device);
  EXPECT_GT(delta.instructions, 0u);
  EXPECT_EQ(s.device.instructions, delta.instructions);
  EXPECT_EQ(s.device.global_loads(), delta.global_loads());
  EXPECT_EQ(s.device.global_stores(), delta.global_stores());
  EXPECT_EQ(s.device.shared_loads, delta.shared_loads);
  EXPECT_EQ(s.device.shared_stores, delta.shared_stores);
  EXPECT_EQ(s.device.h2d_bytes, delta.h2d_bytes);
  EXPECT_EQ(s.device.d2h_bytes, delta.d2h_bytes);
  EXPECT_EQ(s.device.kernel_launches, delta.kernel_launches);
  EXPECT_DOUBLE_EQ(s.modeled_sec, device::PerfModel{}.seconds(delta));
}

TEST(Span, DeviceTotalsSkipCoveredChildren) {
  // A device span nested in another device span must not double-count: the
  // parent's delta already contains the child's.
  device::Device dev;
  Tracer tracer;
  {
    Tracer::Scope outer(&tracer, "outer", "stage", &dev);
    auto buf = dev.to_device(std::span<const u32>(std::vector<u32>(256, 1)));
    {
      Tracer::Scope inner(&tracer, "inner", "transfer", &dev);
      (void)dev.to_host(buf);
    }
  }
  const device::DeviceCounters totals = tracer.device_totals();
  EXPECT_EQ(totals.h2d_bytes, 1024u);
  EXPECT_EQ(totals.d2h_bytes, 1024u);  // once, not twice
}

TEST(Span, SortPassSpansComeFromTheSorter) {
  device::Device dev;
  sortnet::VarArrays va =
      sortnet::random_var_arrays(300, 10.0, 100, 1u << 16, 5);
  Tracer tracer;
  const auto stats = sortnet::sort_device_multipass(
      dev, va, sortnet::kDefaultClassBounds, &tracer);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), stats.passes);
  u64 padded = 0;
  for (const auto& s : spans) {
    EXPECT_EQ(s.name, "sort_pass");
    EXPECT_EQ(s.category, "sort");
    EXPECT_TRUE(s.has_device);
    // batch_size * arrays notes reconstruct the padded work per pass.
    u64 batch = 0, arrays = 0;
    for (const auto& [k, v] : s.args) {
      if (k == "batch_size") batch = std::stoull(v);
      if (k == "arrays") arrays = std::stoull(v);
    }
    padded += batch * arrays;
  }
  EXPECT_EQ(padded, stats.elements_padded);
}

// ---- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, CountersAndGauges) {
  Metrics m;
  m.add("runs");
  m.add("sites", 100);
  m.add("sites", 23);
  m.set_gauge("throughput", 4.5);
  m.set_gauge("throughput", 9.0);  // last write wins
  EXPECT_EQ(m.counter("runs"), 1u);
  EXPECT_EQ(m.counter("sites"), 123u);
  EXPECT_EQ(m.counter("never"), 0u);
  EXPECT_DOUBLE_EQ(m.gauge("throughput"), 9.0);
  m.clear();
  EXPECT_EQ(m.counter("sites"), 0u);
}

// ---- exporters -------------------------------------------------------------

TEST(ChromeTrace, ParsesAndSpansNest) {
  Tracer tracer;
  device::Device dev;
  {
    Tracer::Scope outer(&tracer, "window", "stage");
    outer.note("engine", "gsnp");
    {
      Tracer::Scope inner(&tracer, "h2d \"quoted\"", "transfer", &dev);
      (void)dev.to_device(std::span<const u32>(std::vector<u32>(16, 2)));
    }
  }
  const fs::path path = temp_file("gsnp_obs_trace.json");
  write_chrome_trace(path, tracer);

  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value root = json::parse(buf.str());  // must be valid JSON
  ASSERT_EQ(root.kind, json::Value::Kind::kObject);
  const json::Value* events = json::find(root, "traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, json::Value::Kind::kArray);
  ASSERT_EQ(events->array.size(), 2u);

  const json::Value* inner_ev = nullptr;
  const json::Value* outer_ev = nullptr;
  for (const json::Value& ev : events->array) {
    EXPECT_EQ(json::get_string(ev, "ph"), "X");
    if (json::get_string(ev, "name") == "window") outer_ev = &ev;
    else inner_ev = &ev;
  }
  ASSERT_NE(inner_ev, nullptr);
  ASSERT_NE(outer_ev, nullptr);
  EXPECT_EQ(json::get_string(*inner_ev, "name"), "h2d \"quoted\"");

  const json::Value* outer_args = json::find(*outer_ev, "args");
  const json::Value* inner_args = json::find(*inner_ev, "args");
  ASSERT_NE(outer_args, nullptr);
  ASSERT_NE(inner_args, nullptr);
  // Spans nest: the child's parent arg is the parent's id, the child's
  // [ts, ts+dur] interval sits inside the parent's.
  EXPECT_EQ(json::get_u64(*outer_args, "parent"), 0u);
  EXPECT_EQ(json::get_u64(*inner_args, "parent"),
            json::get_u64(*outer_args, "id"));
  EXPECT_EQ(json::get_string(*outer_args, "engine"), "gsnp");
  const double o_ts = json::get_number(*outer_ev, "ts");
  const double o_end = o_ts + json::get_number(*outer_ev, "dur");
  const double i_ts = json::get_number(*inner_ev, "ts");
  const double i_end = i_ts + json::get_number(*inner_ev, "dur");
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_end, o_end + 1e-6);
  // The device span carries its counter delta.
  EXPECT_EQ(json::get_u64(*inner_args, "dev_h2d_bytes"), 64u);
  fs::remove(path);
}

TEST(MetricsJson, RoundTrips) {
  Tracer tracer;
  SpanRecord a;
  a.name = "likeli";
  a.category = "stage";
  a.host_sec = 0.0;
  a.modeled_sec = 1.5;
  tracer.add_complete(std::move(a));
  SpanRecord b;
  b.name = "likeli";
  b.category = "stage";
  b.host_sec = 0.25;
  tracer.add_complete(std::move(b));
  SpanRecord c;
  c.name = "not_a_stage";
  c.category = "pipeline";
  c.host_sec = 99.0;
  tracer.add_complete(std::move(c));
  tracer.metrics().add("windows", 7);
  tracer.metrics().set_gauge("sites_per_sec", 1234.5);

  const fs::path path = temp_file("gsnp_obs_metrics.json");
  write_metrics_json(path, tracer);
  const MetricsSnapshot snap = read_metrics_json(path);

  ASSERT_EQ(snap.stages.size(), 1u);  // "pipeline" spans are not stages
  EXPECT_NEAR(snap.stages.at("likeli"), 1.75, 1e-9);
  EXPECT_EQ(snap.counters.at("windows"), 7u);
  EXPECT_NEAR(snap.gauges.at("sites_per_sec"), 1234.5, 1e-9);
  fs::remove(path);
}

// ---- the end-to-end guarantee ---------------------------------------------

class TracedEngines : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "gsnp_obs_engine_test";
    fs::create_directories(dir_);
    genome::GenomeSpec gspec;
    gspec.name = "chrT";
    gspec.length = 12'000;
    ref_ = genome::generate_reference(gspec);
    const auto snps = plant_snps(ref_, {});
    const genome::Diploid individual(ref_, snps);
    reads::ReadSimSpec rspec;
    rspec.depth = 8.0;
    reads::write_alignment_file(dir_ / "a.soap",
                                reads::simulate_reads(individual, rspec));
    config_.alignment_file = dir_ / "a.soap";
    config_.reference = &ref_;
    config_.temp_file = dir_ / "a.tmp";
    config_.window_size = 4'096;
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Every component of the report must agree with the trace's per-stage
  /// totals (the acceptance bar is 1%; construction makes it ~exact, the
  /// slack only absorbs floating-point accumulation-order noise).
  static void expect_breakdown_matches(const core::RunReport& report,
                                       const Tracer& tracer) {
    const auto breakdown = tracer.stage_breakdown();
    for (const char* name : core::kComponents) {
      const double table = report.component(name);
      const auto it = breakdown.find(name);
      const double traced = it == breakdown.end() ? 0.0 : it->second;
      EXPECT_NEAR(traced, table, 0.01 * std::max(table, 1e-9))
          << "component " << name;
    }
  }

  fs::path dir_;
  genome::Reference ref_;
  core::EngineConfig config_;
};

TEST_F(TracedEngines, SoapsnpBreakdownMatchesReport) {
  Tracer tracer;
  config_.tracer = &tracer;
  config_.output_file = dir_ / "out.txt";
  const core::RunReport report = core::run_soapsnp(config_);
  expect_breakdown_matches(report, tracer);
  EXPECT_EQ(tracer.metrics().counter("runs_soapsnp"), 1u);
  EXPECT_EQ(tracer.metrics().counter("sites"), report.sites);
}

TEST_F(TracedEngines, GsnpCpuBreakdownMatchesReport) {
  Tracer tracer;
  config_.tracer = &tracer;
  config_.output_file = dir_ / "out.bin";
  const core::RunReport report = core::run_gsnp_cpu(config_);
  expect_breakdown_matches(report, tracer);
  // The sub-phase detail rows agree too.
  const auto breakdown = tracer.stage_breakdown();
  EXPECT_NEAR(breakdown.at("likeli_sort"), report.host.get("likeli_sort"),
              1e-9);
  EXPECT_NEAR(breakdown.at("likeli_comp"), report.host.get("likeli_comp"),
              1e-9);
}

TEST_F(TracedEngines, SitesPerSecGaugeUsesTheCallsWallTime) {
  // On the overlapped path the stage stopwatches overlap, so their sum
  // overstates elapsed time; the gauge divides by the call's own wall time.
  Tracer tracer;
  config_.tracer = &tracer;
  config_.output_file = dir_ / "out.bin";
  config_.streams = 2;
  const Timer stopwatch;
  const core::RunReport report = core::run_gsnp_cpu(config_);
  const double outer = stopwatch.seconds();
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_LE(report.wall_seconds, outer);
  EXPECT_DOUBLE_EQ(tracer.metrics().gauge("sites_per_sec"),
                   static_cast<double>(report.sites) / report.wall_seconds);
}

TEST_F(TracedEngines, GsnpBreakdownAndDeviceTotalsMatchReport) {
  Tracer tracer;
  config_.tracer = &tracer;
  config_.output_file = dir_ / "out.bin";
  device::Device dev;
  const core::RunReport report = core::run_gsnp(config_, dev);
  expect_breakdown_matches(report, tracer);

  // Every device operation of the run happens under some device-capturing
  // span, and ancestor dedup prevents double counting — so the tracer's
  // device totals are exactly the device's own lifetime counters.
  const device::DeviceCounters totals = tracer.device_totals();
  EXPECT_EQ(totals.instructions, dev.counters().instructions);
  EXPECT_EQ(totals.h2d_bytes, dev.counters().h2d_bytes);
  EXPECT_EQ(totals.d2h_bytes, dev.counters().d2h_bytes);
  EXPECT_EQ(totals.kernel_launches, dev.counters().kernel_launches);
  EXPECT_EQ(tracer.device_peak_bytes(), report.peak_device_bytes);

  // The per-window sort passes and RLE compression calls left their spans.
  const auto spans = tracer.spans();
  int sort_passes = 0, rle_calls = 0, transfers = 0;
  for (const auto& s : spans) {
    if (s.category == "sort") ++sort_passes;
    if (s.category == "compress") ++rle_calls;
    if (s.category == "transfer") ++transfers;
  }
  EXPECT_GT(sort_passes, 0);
  EXPECT_GT(rle_calls, 0);
  EXPECT_GT(transfers, 0);

  // And the exports round-trip with the same stage totals.
  const fs::path mpath = dir_ / "metrics.json";
  write_metrics_json(mpath, tracer);
  const MetricsSnapshot snap = read_metrics_json(mpath);
  for (const char* name : core::kComponents)
    EXPECT_NEAR(snap.stages.at(name), report.component(name),
                0.01 * std::max(report.component(name), 1e-9))
        << name;
}

}  // namespace
}  // namespace gsnp::obs
