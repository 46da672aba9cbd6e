// Metrics registry (bucket/quantile math, snapshot-and-reset, concurrency)
// and the HEAD_SCOPE primitive (trace nesting, Chrome trace export, disabled
// path, and the independence of its profiler / trace / histogram outputs).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace head::obs {
namespace {

TEST(HistogramTest, BucketMathFollowsLeConvention) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // ≤ 1        → bucket 0
  h.Observe(1.0);  // ≤ 1        → bucket 0 (inclusive upper edge)
  h.Observe(1.5);  // (1, 2]     → bucket 1
  h.Observe(4.0);  // (2, 4]     → bucket 2
  h.Observe(9.0);  // > 4        → overflow bucket
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 2);
  EXPECT_EQ(s.buckets[1], 1);
  EXPECT_EQ(s.buckets[2], 1);
  EXPECT_EQ(s.buckets[3], 1);
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.sum, 16.0);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.2);
}

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  Histogram h({10.0, 20.0, 30.0});
  for (int v = 1; v <= 10; ++v) h.Observe(v);   // bucket 0
  for (int v = 11; v <= 20; ++v) h.Observe(v);  // bucket 1
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 20);
  // rank 10 exhausts bucket 0 exactly: its upper edge.
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 10.0);
  // rank 19 → 90% through bucket 1 (10..20).
  EXPECT_DOUBLE_EQ(s.Quantile(0.95), 19.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);  // clamped to observed min
}

TEST(HistogramTest, QuantileOfEmptyIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(1.0), 0.0);
}

TEST(HistogramTest, QuantileOfSingleSampleIsThatSample) {
  Histogram h({1.0, 2.0});
  h.Observe(1.5);
  const HistogramSnapshot s = h.Snapshot();
  // Every quantile of a one-sample distribution collapses to the sample
  // (min == max clamps the within-bucket interpolation).
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 1.5);
}

TEST(HistogramTest, AllSamplesInOverflowBucket) {
  Histogram h({1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.Observe(1000.0);
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.buckets.back(), 10);
  // Identical samples: observed min == max, so every quantile is exact even
  // though the overflow bucket has no finite upper bound.
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 1000.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, OverflowBucketInterpolatesBetweenObservedMinAndMax) {
  Histogram h({1.0});
  h.Observe(100.0);
  h.Observe(200.0);
  // Both land in the overflow bucket, whose edges fall back to the observed
  // range [100, 200]; p99 of rank 1.98/2 interpolates to 199.
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(0.99), 199.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(1.0), 200.0);
}

TEST(HistogramTest, ResetZeroesButKeepsBounds) {
  Histogram h({1.0, 2.0});
  h.Observe(1.5);
  h.Reset();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_EQ(s.bounds, (std::vector<double>{1.0, 2.0}));
  for (int64_t b : s.buckets) EXPECT_EQ(b, 0);
}

TEST(ExponentialBoundsTest, GeometricProgression) {
  const std::vector<double> b = ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
}

TEST(RegistryTest, ReferencesAreStableAndNamed) {
  Counter& a = GetCounter("obs_test.stable");
  Counter& b = GetCounter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(RegistryTest, SnapshotAndResetScopesMeasurements) {
  GetCounter("obs_test.reset_counter").Add(7);
  GetGauge("obs_test.reset_gauge").Set(2.5);
  GetHistogram("obs_test.reset_hist", {1.0}).Observe(0.5);

  MetricsSnapshot s = Registry::Global().SnapshotAndReset();
  EXPECT_EQ(s.counters.at("obs_test.reset_counter"), 7);
  EXPECT_DOUBLE_EQ(s.gauges.at("obs_test.reset_gauge"), 2.5);
  EXPECT_EQ(s.histograms.at("obs_test.reset_hist").count, 1);

  // Metrics stay registered with zeroed values.
  s = Registry::Global().Snapshot();
  EXPECT_EQ(s.counters.at("obs_test.reset_counter"), 0);
  EXPECT_DOUBLE_EQ(s.gauges.at("obs_test.reset_gauge"), 0.0);
  EXPECT_EQ(s.histograms.at("obs_test.reset_hist").count, 0);
}

TEST(RegistryTest, ConcurrentCounterIncrementsFromEightThreads) {
  Counter& counter = GetCounter("obs_test.concurrent_counter");
  Histogram& hist = GetHistogram("obs_test.concurrent_hist", {0.5, 1.5});
  counter.Reset();
  hist.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
        hist.Observe(t % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  const HistogramSnapshot s = hist.Snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.buckets[0], kThreads / 2 * kPerThread);
  EXPECT_EQ(s.buckets[1], kThreads / 2 * kPerThread);
}

TEST(RegistryTest, JsonExportContainsAllKinds) {
  GetCounter("obs_test.json_counter").Add(2);
  GetGauge("obs_test.json_gauge").Set(1.25);
  GetHistogram("obs_test.json_hist", {1.0}).Observe(0.75);
  const std::string json = Registry::Global().Snapshot().ToJson();
  EXPECT_NE(json.find("\"obs_test.json_counter\":2"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_gauge\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(RegistryTest, JsonEscapeRoundTripsAwkwardStrings) {
  const std::string awkward =
      "quote\" back\\slash\nnew\ttab\rret\x01"
      "ctl";
  const std::string escaped = JsonEscape(awkward);
  // The escaped form is clean JSON string content: no raw quotes/controls.
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_NE(escaped.find("\\\""), std::string::npos);
  EXPECT_NE(escaped.find("\\\\"), std::string::npos);
  EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
  EXPECT_EQ(JsonUnescape(escaped), awkward);
}

TEST(RegistryTest, JsonExportEscapesMetricNames) {
  GetCounter("obs_test.escaped\"name\\with\njunk").Add(1);
  const std::string json = Registry::Global().Snapshot().ToJson();
  // The raw name must not appear; its escaped form must.
  EXPECT_EQ(json.find("escaped\"name"), std::string::npos);
  EXPECT_NE(json.find("escaped\\\"name\\\\with\\njunk"), std::string::npos);
}

TEST(RegistryTest, SnapshotCarriesWallClockTimestamp) {
  const MetricsSnapshot s = Registry::Global().Snapshot();
  // Wall clock is seconds since the Unix epoch: sanity-bound it between
  // 2020 and 2100 rather than pinning a flaky exact value.
  EXPECT_GT(s.captured_unix_s, 1.577e9);
  EXPECT_LT(s.captured_unix_s, 4.1e9);
  const std::string json = s.ToJson();
  EXPECT_EQ(json.rfind("{\"captured_unix_s\":", 0), 0u) << json;
}

TEST(SpanTest, DisabledSpansRecordNothing) {
  SetTracingEnabled(false);
  DrainTraceEvents();
  { HEAD_SCOPE("obs_test.disabled"); }
  EXPECT_TRUE(DrainTraceEvents().empty());
}

TEST(SpanTest, NestedSpansRecordDepthAndContainment) {
  SetTracingEnabled(false);
  DrainTraceEvents();
  SetTracingEnabled(true);
  {
    HEAD_SCOPE("outer");
    {
      HEAD_SCOPE("inner");
    }
  }
  SetTracingEnabled(false);
  const std::vector<TraceEvent> events = DrainTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete innermost-first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  // Containment: inner within outer.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(SpanTest, ChromeTraceJsonShape) {
  SetTracingEnabled(false);
  DrainTraceEvents();
  SetTracingEnabled(true);
  { HEAD_SCOPE("shape"); }
  SetTracingEnabled(false);
  std::ostringstream os;
  WriteChromeTrace(DrainTraceEvents(), os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shape\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(SpanTest, DroppedEventsCountedAtBufferCap) {
  SetTracingEnabled(false);
  DrainTraceEvents();
  SetTracingEnabled(true);
  const int64_t dropped_before = DroppedTraceEvents();
  // Fill the buffer past its cap (2^21 events); the overflow must be
  // counted, not silently discarded, and the buffer must stop growing.
  constexpr size_t kCap = size_t{1} << 21;
  constexpr size_t kExtra = 10;
  for (size_t i = 0; i < kCap + kExtra; ++i) {
    HEAD_SCOPE("drop");
  }
  SetTracingEnabled(false);
  EXPECT_EQ(DroppedTraceEvents() - dropped_before,
            static_cast<int64_t>(kExtra));
  EXPECT_EQ(DrainTraceEvents().size(), kCap);
}

/// The profiler row of a shapeless region scope, or nullptr.
const OpStats* FindRow(const ProfileReport& report, const std::string& name) {
  for (const OpStats& op : report.ops) {
    if (op.op == name) return &op;
  }
  return nullptr;
}

void StartWallClockProfiling() {
  ProfilerOptions options;
  options.hw_counters = false;
  StartProfiling(options);
}

TEST(ScopeTest, EachOutputFollowsItsOwnGate) {
  SetTracingEnabled(false);
  StopProfiling();
  DrainTraceEvents();

  // Profiling only: a profiler row, no trace event.
  StartWallClockProfiling();
  { HEAD_SCOPE("scope_test.profile_only"); }
  StopProfiling();
  const ProfileReport profile_only = CollectProfile();
  const OpStats* row = FindRow(profile_only, "scope_test.profile_only");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 1);
  EXPECT_TRUE(DrainTraceEvents().empty());

  // Tracing only: a trace event, no row.
  SetTracingEnabled(true);
  { HEAD_SCOPE("scope_test.trace_only"); }
  SetTracingEnabled(false);
  std::vector<TraceEvent> events = DrainTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "scope_test.trace_only");
  EXPECT_EQ(FindRow(CollectProfile(), "scope_test.trace_only"), nullptr);

  // Both on: one row and one event, timed by the same clock reads.
  StartWallClockProfiling();
  SetTracingEnabled(true);
  { HEAD_SCOPE("scope_test.both"); }
  SetTracingEnabled(false);
  StopProfiling();
  const ProfileReport both = CollectProfile();
  row = FindRow(both, "scope_test.both");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 1);
  events = DrainTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "scope_test.both");
  EXPECT_EQ(row->total_ns, events[0].dur_ns);

  // Both off: a histogram scope still observes exactly once; a plain scope
  // records nothing anywhere.
  Histogram hist({1.0});
  { HEAD_SCOPE("scope_test.off_hist", hist); }
  { HEAD_SCOPE("scope_test.off"); }
  EXPECT_EQ(hist.Snapshot().count, 1);
  EXPECT_TRUE(DrainTraceEvents().empty());
  const ProfileReport off = CollectProfile();
  EXPECT_EQ(FindRow(off, "scope_test.off_hist"), nullptr);
  EXPECT_EQ(FindRow(off, "scope_test.off"), nullptr);
}

TEST(LoggingTest, LogEveryNFiresOnFirstAndEveryNth) {
  std::atomic<long> counter{0};
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (::head::internal::LogEveryN(counter, 4)) ++fired;
  }
  EXPECT_EQ(fired, 3);  // calls 1, 5, 9
}

TEST(LoggingTest, EveryNMacroCompilesInStatementPosition) {
  // Behavioral coverage is in LogEveryNFiresOnFirstAndEveryNth; this guards
  // the macro's expansion (static declaration + if) in a plain scope.
  for (int i = 0; i < 3; ++i) {
    HEAD_LOG_EVERY_N(Debug, 2) << "tick " << i;
  }
}

}  // namespace
}  // namespace head::obs
