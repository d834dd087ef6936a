// Tests for src/obs/histogram + src/obs/prometheus: the fixed log-linear
// bucket layout (index/bound round-trips, underflow/overflow edges), exact
// count/sum/min/max accounting, the quantile contract (monotone, <= 12.5%
// overestimate, quantile(1) == max), merge associativity, bit-identical JSON
// snapshots with exact round-trips, a concurrent-recorder stress run (TSan
// coverage for the record() lock), and the Prometheus text rendering built
// on top of the snapshots.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/histogram.hpp"
#include "src/obs/prometheus.hpp"
#include "src/obs/trace.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::obs {
namespace {

// ---- bucket layout ---------------------------------------------------------

TEST(HistogramBuckets, NonPositiveAndTinyValuesUnderflow) {
  EXPECT_EQ(Histogram::bucket_index(0.0), Histogram::kUnderflowBucket);
  EXPECT_EQ(Histogram::bucket_index(-1.0), Histogram::kUnderflowBucket);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMinExponent - 1)),
            Histogram::kUnderflowBucket);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), Histogram::kUnderflowBucket);
}

TEST(HistogramBuckets, HugeValuesOverflow) {
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMaxExponent + 1)),
            Histogram::kOverflowBucket);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kOverflowBucket);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            Histogram::kOverflowBucket);
}

TEST(HistogramBuckets, EveryValueLandsInsideItsBucketBounds) {
  // Sweep octaves with several offsets per octave; each value must land in a
  // bucket whose [lower, upper) range contains it.
  for (int e = Histogram::kMinExponent; e <= Histogram::kMaxExponent; ++e) {
    for (const double frac : {0.5, 0.5625, 0.75, 0.9375, 0.999}) {
      const double v = std::ldexp(frac, e + 1);  // in [2^e, 2^(e+1))
      const int idx = Histogram::bucket_index(v);
      ASSERT_GT(idx, Histogram::kUnderflowBucket) << "value " << v;
      ASSERT_LT(idx, Histogram::kOverflowBucket) << "value " << v;
      EXPECT_LE(Histogram::bucket_lower(idx), v) << "value " << v;
      EXPECT_LT(v, Histogram::bucket_upper(idx)) << "value " << v;
    }
  }
}

TEST(HistogramBuckets, BoundsTileTheRangeWithoutGaps) {
  for (int idx = 1; idx < Histogram::kOverflowBucket - 1; ++idx) {
    EXPECT_EQ(Histogram::bucket_upper(idx), Histogram::bucket_lower(idx + 1))
        << "gap after bucket " << idx;
    EXPECT_LT(Histogram::bucket_lower(idx), Histogram::bucket_upper(idx));
  }
  EXPECT_EQ(Histogram::bucket_lower(Histogram::kUnderflowBucket), 0.0);
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kOverflowBucket)));
}

// ---- exact accounting ------------------------------------------------------

TEST(Histogram, CountSumMinMaxAreExact) {
  Histogram h;
  // Exactly representable values: the sum has one valid answer.
  const std::vector<double> values = {0.25, 0.5, 1.5, 2.0, 8.0, 0.125};
  double want_sum = 0.0;
  for (const double v : values) {
    h.record(v);
    want_sum += v;
  }
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, values.size());
  EXPECT_EQ(s.sum, want_sum);
  EXPECT_EQ(s.min, 0.125);
  EXPECT_EQ(s.max, 8.0);
  u64 bucketed = 0;
  for (const auto& [idx, n] : s.buckets) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, Histogram::kNumBuckets);
    bucketed += n;
  }
  EXPECT_EQ(bucketed, s.count);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  const Histogram::Snapshot s = Histogram().snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_TRUE(s.buckets.empty());
  EXPECT_EQ(s.json(), "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,"
                      "\"buckets\":[]}");
}

// ---- quantiles -------------------------------------------------------------

TEST(HistogramQuantile, MonotoneAndBoundedOverestimate) {
  Histogram h;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(0.001 * i);  // 1ms..1s
  for (const double v : values) h.record(v);
  const Histogram::Snapshot s = h.snapshot();

  double prev = 0.0;
  for (const double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}) {
    const double est = s.quantile(q);
    EXPECT_GE(est, prev) << "quantile not monotone at q=" << q;
    prev = est;
    // True sample at the same ceil-rank convention.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double truth = values[rank == 0 ? 0 : rank - 1];
    EXPECT_GE(est, truth * (1.0 - 1e-12)) << "q=" << q;
    EXPECT_LE(est, truth * 1.125 + 1e-12) << "q=" << q;
  }
  EXPECT_EQ(s.quantile(1.0), s.max);  // clamped to the observed max, exactly
}

TEST(HistogramQuantile, SingleSampleIsItsOwnEveryQuantile) {
  Histogram h;
  h.record(0.375);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.quantile(0.0), 0.375);
  EXPECT_EQ(s.quantile(0.5), 0.375);
  EXPECT_EQ(s.quantile(1.0), 0.375);
}

// ---- merge -----------------------------------------------------------------

TEST(HistogramMerge, AssociativeAndOrderIndependent) {
  // Exactly representable values so sum is order-independent too, making the
  // merged snapshots byte-comparable.
  Histogram a, b, c;
  for (const double v : {0.25, 0.5, 1.0}) a.record(v);
  for (const double v : {2.0, 4.0}) b.record(v);
  for (const double v : {0.125, 8.0, 16.0}) c.record(v);

  // (a + b) + c
  Histogram::Snapshot left = a.snapshot();
  left.merge(b.snapshot());
  left.merge(c.snapshot());
  // a + (b + c)
  Histogram::Snapshot bc = b.snapshot();
  bc.merge(c.snapshot());
  Histogram::Snapshot right = a.snapshot();
  right.merge(bc);

  EXPECT_EQ(left.json(), right.json());
  EXPECT_EQ(left.count, 8u);
  EXPECT_EQ(left.min, 0.125);
  EXPECT_EQ(left.max, 16.0);

  // Merging into a live histogram matches snapshot-level merging.
  Histogram folded;
  folded.merge(a.snapshot());
  folded.merge(b.snapshot());
  folded.merge(c.snapshot());
  EXPECT_EQ(folded.snapshot().json(), left.json());
}

TEST(HistogramMerge, EmptyIsTheIdentity) {
  Histogram a;
  for (const double v : {0.25, 1.0}) a.record(v);
  Histogram::Snapshot s = a.snapshot();
  const std::string before = s.json();
  s.merge(Histogram::Snapshot{});
  EXPECT_EQ(s.json(), before);
  Histogram::Snapshot empty;
  empty.merge(a.snapshot());
  EXPECT_EQ(empty.json(), before);
}

// ---- snapshot serialization ------------------------------------------------

TEST(HistogramSnapshot, JsonIsBitIdenticalAcrossIdenticalRuns) {
  const auto run = [] {
    Histogram h;
    for (int i = 1; i <= 64; ++i) h.record(0.013 * i);
    return h.snapshot().json();
  };
  EXPECT_EQ(run(), run());
}

TEST(HistogramSnapshot, JsonRoundTripsExactly) {
  Histogram h;
  for (const double v : {1e-9, 0.0013, 0.375, 17.25, 1e12, -1.0, 0.0})
    h.record(v);
  const Histogram::Snapshot s = h.snapshot();
  const Histogram::Snapshot back =
      Histogram::Snapshot::from_json(json::parse(s.json()));
  EXPECT_EQ(back.json(), s.json());  // %.17g survives parse -> print
  EXPECT_EQ(back.count, s.count);
  EXPECT_EQ(back.sum, s.sum);
  EXPECT_EQ(back.min, s.min);
  EXPECT_EQ(back.max, s.max);
  EXPECT_EQ(back.buckets, s.buckets);
}

TEST(HistogramSnapshot, RecordingOrderDoesNotChangeTheJson) {
  const std::vector<double> values = {0.25, 0.5, 4.0, 0.125, 2.0};
  Histogram fwd, rev;
  for (std::size_t i = 0; i < values.size(); ++i) {
    fwd.record(values[i]);
    rev.record(values[values.size() - 1 - i]);
  }
  EXPECT_EQ(fwd.snapshot().json(), rev.snapshot().json());
}

// ---- concurrency (exercised under TSan by scripts/verify.sh) ---------------

TEST(HistogramConcurrency, ParallelRecordersLoseNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(0.25);  // representable
    });
  for (std::thread& w : workers) w.join();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<u64>(kThreads) * kPerThread);
  EXPECT_EQ(s.sum, 0.25 * kThreads * kPerThread);
  EXPECT_EQ(s.min, 0.25);
  EXPECT_EQ(s.max, 0.25);
}

// ---- metrics registry integration ------------------------------------------

TEST(MetricsHistogram, RegistryRecordsAndSurvivesJsonRoundTrip) {
  Tracer tracer;
  tracer.metrics().record("latency_seconds", 0.25);
  tracer.metrics().record("latency_seconds", 0.5);
  const auto snaps = tracer.metrics().histograms();
  ASSERT_EQ(snaps.count("latency_seconds"), 1u);
  EXPECT_EQ(snaps.at("latency_seconds").count, 2u);

  const std::filesystem::path path =
      test_temp_path("gsnp_histogram_metrics.json");
  write_metrics_json(path, tracer);
  const MetricsSnapshot back = read_metrics_json(path);
  std::filesystem::remove(path);
  ASSERT_EQ(back.histograms.count("latency_seconds"), 1u);
  EXPECT_EQ(back.histograms.at("latency_seconds").json(),
            snaps.at("latency_seconds").json());
}

// ---- Prometheus rendering --------------------------------------------------

TEST(Prometheus, RendersCountersGaugesAndHistograms) {
  Metrics m;
  m.add("jobs_done", 3);
  m.set_gauge("queue_depth", 2.0);
  m.record("wait_seconds", 0.25);
  m.record("wait_seconds", 0.5);
  const std::string text = render_prometheus(m, "t_");

  EXPECT_NE(text.find("# TYPE t_jobs_done_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("t_jobs_done_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("t_queue_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_wait_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("t_wait_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("t_wait_seconds_sum 0.75\n"), std::string::npos);
  EXPECT_NE(text.find("t_wait_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
}

TEST(Prometheus, CumulativeBucketsAreMonotone) {
  Metrics m;
  for (int i = 1; i <= 100; ++i) m.record("lat_seconds", 0.001 * i);
  const std::string text = render_prometheus(m, "t_");
  std::istringstream in(text);
  std::string line;
  u64 prev = 0;
  u64 inf_value = 0;
  bool saw_bucket = false;
  while (std::getline(in, line)) {
    const std::string prefix = "t_lat_seconds_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    saw_bucket = true;
    const u64 n = std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(n, prev) << line;
    prev = n;
    if (line.find("+Inf") != std::string::npos) inf_value = n;
  }
  EXPECT_TRUE(saw_bucket);
  EXPECT_EQ(inf_value, 100u);  // +Inf bucket equals the sample count
}

TEST(Prometheus, LabeledSeriesGroupUnderOneFamily) {
  Metrics m;
  m.record("done_seconds", 0.25);
  m.record(labeled_series("done_seconds", "tenant", "alice"), 0.25);
  m.record(labeled_series("done_seconds", "tenant", "bob"), 0.5);
  const std::string text = render_prometheus(m, "t_");
  // Exactly one TYPE line for the family, covering all three series.
  std::size_t type_lines = 0;
  std::size_t at = 0;
  const std::string type_line = "# TYPE t_done_seconds histogram";
  while ((at = text.find(type_line, at)) != std::string::npos) {
    ++type_lines;
    at += type_line.size();
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("t_done_seconds_count{tenant=\"alice\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_done_seconds_count{tenant=\"bob\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_done_seconds_count 1\n"), std::string::npos);
}

TEST(Prometheus, SanitizesHostileMetricNames) {
  EXPECT_EQ(sanitize_metric_name("good_name_1"), "good_name_1");
  EXPECT_EQ(sanitize_metric_name("has-dash.and space"), "has_dash_and_space");
  EXPECT_EQ(sanitize_metric_name("9starts_with_digit"), "_9starts_with_digit");
}

}  // namespace
}  // namespace gsnp::obs
