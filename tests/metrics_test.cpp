// Metrics registry tests: instrument semantics, histogram bucket and
// quantile math, snapshot consistency under concurrent writers (the
// Metrics.* cases run under TSan in CI), and JSON rendering.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace adr::obs {
namespace {

TEST(Metrics, CounterStartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, CounterConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, GaugeSetAddValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.add(-20);
  EXPECT_EQ(g.value(), -13);  // gauges go negative; that is a bug signal
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, HistogramBucketBoundaries) {
  // Prometheus "le" semantics: a value lands in the first bucket whose
  // upper bound is >= value; past the last bound is the overflow bucket.
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0 (le, not lt)
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(5.0);  // overflow
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 5.0);
}

TEST(Metrics, HistogramQuantileInterpolation) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) h.observe(0.5);  // bucket 0
  for (int i = 0; i < 10; ++i) h.observe(1.5);  // bucket 1
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, 20u);
  // rank(q=0.25) = 5 of 10 in [0, 1] -> midpoint 0.5.
  EXPECT_DOUBLE_EQ(snap.quantile(0.25), 0.5);
  // rank(q=0.5) = 10: exactly exhausts bucket 0 -> its upper bound.
  EXPECT_DOUBLE_EQ(snap.p50(), 1.0);
  // rank(q=0.75) = 15: 5 of 10 into [1, 2] -> 1.5.
  EXPECT_DOUBLE_EQ(snap.quantile(0.75), 1.5);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(snap.mean(), (10 * 0.5 + 10 * 1.5) / 20.0);
}

TEST(Metrics, HistogramQuantileOverflowReportsLargestBound) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 8; ++i) h.observe(100.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.p50(), 4.0);
  EXPECT_DOUBLE_EQ(snap.p99(), 4.0);
}

TEST(Metrics, HistogramEmptyQuantileIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.snapshot().p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.snapshot().mean(), 0.0);
}

TEST(Metrics, RegistryReturnsStableInstances) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("a");
  c1.add(3);
  EXPECT_EQ(&reg.counter("a"), &c1);
  EXPECT_EQ(reg.counter("a").value(), 3u);
  EXPECT_NE(&reg.counter("b"), &c1);

  // First registration fixes the buckets; later bounds are ignored.
  Histogram& h = reg.histogram("lat", {1.0, 2.0});
  EXPECT_EQ(&reg.histogram("lat", {5.0}), &h);
  EXPECT_EQ(h.bounds().size(), 2u);

  // Empty bounds select the default latency buckets.
  EXPECT_EQ(reg.histogram("default").bounds(), default_latency_buckets());
}

// TSan target: snapshots race with writers; totals must be internally
// consistent (count == sum of buckets) at every read and exact after join.
TEST(Metrics, SnapshotUnderConcurrentIncrement) {
  MetricsRegistry reg;
  Counter& hits = reg.counter("hits");
  Gauge& depth = reg.gauge("depth");
  Histogram& lat = reg.histogram("lat", {0.001, 0.01, 0.1});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load()) {
      const MetricsSnapshot snap = reg.snapshot();
      const HistogramSnapshot* h = snap.histogram("lat");
      ASSERT_NE(h, nullptr);
      std::uint64_t bucket_total = 0;
      for (const std::uint64_t c : h->counts) bucket_total += c;
      EXPECT_EQ(h->count, bucket_total);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&]() {
      for (int i = 0; i < kPerThread; ++i) {
        hits.add();
        depth.add(i % 2 == 0 ? 1 : -1);
        lat.observe(0.005);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();

  const MetricsSnapshot final_snap = reg.snapshot();
  ASSERT_NE(final_snap.counter("hits"), nullptr);
  EXPECT_EQ(*final_snap.counter("hits"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_NE(final_snap.gauge("depth"), nullptr);
  EXPECT_EQ(*final_snap.gauge("depth"), 0);
  EXPECT_EQ(final_snap.histogram("lat")->count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, SnapshotJsonIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("server.queries_served").add(7);
  reg.gauge("scheduler.queue_depth").set(-2);
  Histogram& lat = reg.histogram("submit.latency_s");
  lat.observe(0.003);
  lat.observe(0.5);

  const std::string json = reg.snapshot().to_json();
  EXPECT_NO_THROW(obs::parse_json(json));
  EXPECT_NE(json.find("\"server.queries_served\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scheduler.queue_depth\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"submit.latency_s\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(Metrics, GlobalRegistryIsSharedAndContainsServingSeries) {
  // The process-wide registry: reading a name twice is the same series.
  Counter& c = metrics().counter("test.metrics_test.shared");
  c.add(5);
  EXPECT_EQ(metrics().counter("test.metrics_test.shared").value(), 5u);
}

}  // namespace
}  // namespace adr::obs
