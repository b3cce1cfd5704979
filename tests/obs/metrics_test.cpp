// Metrics instrument correctness: log-bucket boundaries, percentile math,
// merge/overflow behavior, registry pointer stability, and concurrent
// updates (run under TSan via the unit-obs-tsan label).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace cwf::obs {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0: <= 0. Bucket i (i >= 1): [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(-5), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Everything at or above 2^(kBuckets-2) lands in the overflow bucket.
  const int64_t overflow_floor = int64_t{1} << (Histogram::kBuckets - 2);
  EXPECT_EQ(Histogram::BucketIndex(overflow_floor), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::max()),
            Histogram::kBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1),
            std::numeric_limits<int64_t>::max());

  // Upper bound of bucket i is one less than lower bound of bucket i+1:
  // no value can fall between buckets.
  for (size_t i = 1; i + 2 < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(i)), i);
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(i) + 1),
              i + 1);
  }
}

TEST(HistogramTest, CountSumMaxMean) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 60);
  EXPECT_EQ(h.Max(), 30);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

TEST(HistogramTest, PercentilesOfUniformSamples) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  // Log-bucketing loses in-bucket detail; linear interpolation keeps the
  // estimate inside the right bucket, so allow that bucket's width.
  const double p50 = h.Percentile(50);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1023.0);
  const double p99 = h.Percentile(99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);
  // p100 is exactly the observed max, not a bucket bound.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
  // Estimates must be monotone in p.
  double prev = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST(HistogramTest, SingleSamplePercentiles) {
  Histogram h;
  h.Record(777);
  // Every percentile of a single sample is bounded by the sample itself
  // (the max clamps the bucket's upper interpolation bound).
  EXPECT_LE(h.Percentile(50), 777.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 777.0);
  EXPECT_EQ(h.Max(), 777);
}

TEST(HistogramTest, OverflowBucketUsesMaxAsUpperBound) {
  Histogram h;
  const int64_t big = int64_t{1} << (Histogram::kBuckets - 2);
  h.Record(big);
  h.Record(big + 500);
  // Percentile interpolation in the unbounded overflow bucket must clamp
  // to the observed max instead of int64 max.
  EXPECT_LE(h.Percentile(99), static_cast<double>(big + 500));
  EXPECT_GE(h.Percentile(1), static_cast<double>(big) * 0.99);
}

TEST(HistogramTest, MergeFromCombinesEverything) {
  Histogram a;
  Histogram b;
  a.Record(5);
  a.Record(100);
  b.Record(1000);
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_EQ(a.Sum(), 1105);
  EXPECT_EQ(a.Max(), 1000);
  const HistogramSnapshot snap = a.Snapshot();
  uint64_t total = 0;
  for (const auto& [bound, n] : snap.buckets) {
    total += n;
  }
  EXPECT_EQ(total, 3u);
}

TEST(HistogramTest, SnapshotListsOnlyNonEmptyBucketsInOrder) {
  Histogram h;
  h.Record(1);
  h.Record(1000);
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_LT(snap.buckets[0].first, snap.buckets[1].first);
  EXPECT_EQ(snap.buckets[0].second, 1u);
  EXPECT_EQ(snap.buckets[1].second, 1u);
}

TEST(HistogramTest, ResetZeroes) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_TRUE(h.Snapshot().buckets.empty());
}

TEST(CounterTest, AddAndReset) {
  Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, TracksValueAndHighWaterMark) {
  Gauge g;
  g.Set(10);
  g.Set(3);
  EXPECT_EQ(g.Value(), 3);
  EXPECT_EQ(g.Max(), 10);
  g.Add(20);
  EXPECT_EQ(g.Value(), 23);
  EXPECT_EQ(g.Max(), 23);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(g.Max(), 0);
}

TEST(MetricsRegistryTest, StablePointersAndIdentity) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("x_total", "actor", "a");
  Counter* c2 = reg.GetCounter("x_total", "actor", "a");
  Counter* c3 = reg.GetCounter("x_total", "actor", "b");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, c3);
  c1->Add(7);
  reg.Reset();
  // Reset zeroes values but never invalidates pointers.
  EXPECT_EQ(c1->Value(), 0u);
  c1->Add(1);
  EXPECT_EQ(reg.GetCounter("x_total", "actor", "a")->Value(), 1u);
}

TEST(MetricsRegistryTest, LabelValuesSortedPerName) {
  MetricsRegistry reg;
  reg.GetCounter("y_total", "actor", "zeta");
  reg.GetCounter("y_total", "actor", "alpha");
  reg.GetCounter("other_total", "actor", "nope");
  const std::vector<std::string> values = reg.LabelValues("y_total");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], "alpha");
  EXPECT_EQ(values[1], "zeta");
}

TEST(MetricsRegistryTest, PrometheusExpositionShape) {
  MetricsRegistry reg;
  reg.SetHelp("req_total", "requests");
  reg.GetCounter("req_total", "actor", "a \"quoted\"\nname")->Add(3);
  reg.GetGauge("depth", "port", "p")->Set(5);
  reg.GetHistogram("lat_us")->Record(100);
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# HELP req_total requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  // Label escaping: backslash-quote and backslash-n.
  EXPECT_NE(text.find("req_total{actor=\"a \\\"quoted\\\"\\nname\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 100"), std::string::npos);
  // Exposition must end with a newline (scrapers require it).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

// --- Concurrency (meaningful under -L tsan) -------------------------------

TEST(MetricsConcurrencyTest, CountersSumAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsConcurrencyTest, HistogramKeepsCountBucketInvariant) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record((t + 1) * 100 + i % 50);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (const auto& [bound, n] : snap.buckets) {
    bucket_total += n;
  }
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(MetricsConcurrencyTest, RegistryLookupsRaceWithRendering) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < 200; ++i) {
        reg.GetCounter("race_total", "actor", "a" + std::to_string(i % 7))
            ->Add(1);
        reg.GetGauge("race_depth", "actor", "a" + std::to_string(t))->Set(i);
      }
    });
  }
  threads.emplace_back([&reg] {
    for (int i = 0; i < 50; ++i) {
      (void)reg.RenderPrometheus();
    }
  });
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(reg.GetCounter("race_total", "actor", "a0")->Value() +
                reg.GetCounter("race_total", "actor", "a1")->Value() +
                reg.GetCounter("race_total", "actor", "a2")->Value() +
                reg.GetCounter("race_total", "actor", "a3")->Value() +
                reg.GetCounter("race_total", "actor", "a4")->Value() +
                reg.GetCounter("race_total", "actor", "a5")->Value() +
                reg.GetCounter("race_total", "actor", "a6")->Value(),
            4u * 200u);
}

}  // namespace
}  // namespace cwf::obs
