#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace cyqr {
namespace {

TEST(CounterTest, IncrementsAndDropsNegativeDeltas) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(5);
  c.Increment(-100);  // Monotonic: negative deltas are dropped.
  c.Increment(0);
  EXPECT_EQ(c.Value(), 6);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
}

TEST(MetricsConcurrencyTest, NThreadsTimesMIncrementsIsExact) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  Counter counter;
  Histogram histogram({1.0, 2.0, 3.0});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram, t] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
        histogram.Observe(static_cast<double>((t + i) % 4));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kIncrements);
  EXPECT_EQ(histogram.Count(), kThreads * kIncrements);
  int64_t bucket_sum = 0;
  for (size_t i = 0; i <= histogram.bounds().size(); ++i) {
    bucket_sum += histogram.BucketCount(i);
  }
  EXPECT_EQ(bucket_sum, kThreads * kIncrements);
  EXPECT_DOUBLE_EQ(histogram.Max(), 3.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({10.0, 20.0, 30.0});
  h.Observe(10.0);  // Exactly on a bound: belongs to that bound's bucket.
  h.Observe(10.5);
  h.Observe(30.0);
  h.Observe(31.0);  // Beyond the last bound: overflow bucket.
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(2), 1);
  EXPECT_EQ(h.BucketCount(3), 1);  // +Inf overflow.
  EXPECT_EQ(h.Count(), 4);
  EXPECT_DOUBLE_EQ(h.Max(), 31.0);
  EXPECT_DOUBLE_EQ(h.Sum(), 10.0 + 10.5 + 30.0 + 31.0);
}

TEST(HistogramTest, QuantilesExactWhenDataFillsBuckets) {
  Histogram h({10.0, 20.0, 30.0, 40.0});
  for (int v = 1; v <= 40; ++v) h.Observe(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(h.QuantileEstimate(0.25), 10.0);
  EXPECT_DOUBLE_EQ(h.QuantileEstimate(0.5), 20.0);
  EXPECT_DOUBLE_EQ(h.QuantileEstimate(0.75), 30.0);
  EXPECT_DOUBLE_EQ(h.QuantileEstimate(1.0), 40.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.5);
}

TEST(HistogramTest, QuantileOfOverflowBucketReportsMax) {
  Histogram h({1.0});
  h.Observe(100.0);
  h.Observe(200.0);
  EXPECT_DOUBLE_EQ(h.QuantileEstimate(0.99), 200.0);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.Count(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.QuantileEstimate(0.5), 0.0);
}

TEST(HistogramTest, DefaultLatencyBoundsPercentiles) {
  Histogram h(Histogram::DefaultLatencyBoundsMillis());
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  EXPECT_EQ(h.Count(), 100);
  EXPECT_NEAR(h.Mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.QuantileEstimate(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.QuantileEstimate(0.99), 99.0, 1.5);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
}

TEST(HistogramTest, MergeFromAddsEverything) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.Observe(0.5);
  b.Observe(1.5);
  b.Observe(9.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), 3);
  EXPECT_EQ(a.BucketCount(0), 1);
  EXPECT_EQ(a.BucketCount(1), 1);
  EXPECT_EQ(a.BucketCount(2), 1);
  EXPECT_DOUBLE_EQ(a.Sum(), 11.0);
  EXPECT_DOUBLE_EQ(a.Max(), 9.0);
}

TEST(MetricNameTest, AcceptsConventionalNames) {
  EXPECT_TRUE(IsValidMetricName("cyqr_serving_requests_total"));
  EXPECT_TRUE(IsValidMetricName("cyqr_serving_rung_latency_millis"));
  EXPECT_TRUE(IsValidMetricName("cyqr_decode_topn_time_micros"));
  EXPECT_TRUE(IsValidMetricName("cyqr_train_tokens_per_sec"));
  EXPECT_TRUE(IsValidMetricName("cyqr_train_grad_norm"));
  EXPECT_TRUE(IsValidMetricName("cyqr_serving_breaker_state"));
}

TEST(MetricNameTest, RejectsNonConventionalNames) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("serving_requests_total"));  // No prefix.
  EXPECT_FALSE(IsValidMetricName("cyqr_requests_total"));     // No layer.
  EXPECT_FALSE(IsValidMetricName("cyqr_serving_requests"));   // No unit.
  EXPECT_FALSE(IsValidMetricName("cyqr_serving_Requests_total"));  // Case.
  EXPECT_FALSE(IsValidMetricName("cyqr_serving__requests_total"));
  EXPECT_FALSE(IsValidMetricName("cyqr_serving_requests_total_"));
  EXPECT_FALSE(IsValidMetricName("cyqr_serving_latency_ms"));  // Bad unit.
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("cyqr_test_requests_total");
  Counter* b = registry.GetCounter("cyqr_test_requests_total");
  EXPECT_EQ(a, b);
  Counter* cache =
      registry.GetCounter("cyqr_test_requests_total", {{"rung", "cache"}});
  EXPECT_NE(a, cache);
  // Label order does not matter: the sorted label set is the identity.
  Counter* ab = registry.GetCounter("cyqr_test_multi_total",
                                    {{"a", "1"}, {"b", "2"}});
  Counter* ba = registry.GetCounter("cyqr_test_multi_total",
                                    {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
}

TEST(MetricsRegistryTest, HistogramKeepsBoundsAcrossLookups) {
  MetricsRegistry registry;
  const std::vector<double> bounds = {1.0, 2.0};
  Histogram* a = registry.GetHistogram("cyqr_test_latency_millis", bounds);
  Histogram* b = registry.GetHistogram("cyqr_test_latency_millis", bounds);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->bounds(), bounds);
}

TEST(MetricsRegistryTest, ExpositionTextGolden) {
  MetricsRegistry registry;
  registry.GetCounter("cyqr_test_requests_total", {{"rung", "cache"}})
      ->Increment(3);
  registry.GetGauge("cyqr_test_queue_depth_value")->Set(1.5);
  Histogram* h =
      registry.GetHistogram("cyqr_test_latency_millis", {1.0, 2.5});
  h->Observe(0.5);
  h->Observe(2.0);
  h->Observe(10.0);
  // Families are alphabetical; buckets are cumulative with a +Inf closer.
  const std::string expected =
      "# TYPE cyqr_test_latency_millis histogram\n"
      "cyqr_test_latency_millis_bucket{le=\"1\"} 1\n"
      "cyqr_test_latency_millis_bucket{le=\"2.5\"} 2\n"
      "cyqr_test_latency_millis_bucket{le=\"+Inf\"} 3\n"
      "cyqr_test_latency_millis_sum 12.5\n"
      "cyqr_test_latency_millis_count 3\n"
      "# TYPE cyqr_test_queue_depth_value gauge\n"
      "cyqr_test_queue_depth_value 1.5\n"
      "# TYPE cyqr_test_requests_total counter\n"
      "cyqr_test_requests_total{rung=\"cache\"} 3\n";
  EXPECT_EQ(registry.ExpositionText(), expected);
}

TEST(MetricsRegistryTest, JsonSnapshotContainsAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("cyqr_test_requests_total")->Increment(7);
  registry.GetGauge("cyqr_test_loss_value")->Set(0.25);
  Histogram* h =
      registry.GetHistogram("cyqr_test_latency_millis", {1.0, 2.0});
  h->Observe(1.5);
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"cyqr_test_requests_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"cyqr_test_loss_value\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"cyqr_test_latency_millis\""),
            std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteJsonSnapshotReportsIoFailure) {
  MetricsRegistry registry;
  registry.GetCounter("cyqr_test_requests_total")->Increment();
  const Status s =
      registry.WriteJsonSnapshot("/nonexistent-dir/metrics.json");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndRecording) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIncrements; ++i) {
        // Lookup + record every iteration: hammers the registration path
        // and the lock-free fast path together.
        registry.GetCounter("cyqr_test_shared_requests_total")->Increment();
        registry
            .GetHistogram("cyqr_test_shared_latency_millis", {1.0, 2.0})
            ->Observe(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("cyqr_test_shared_requests_total")->Value(),
            kThreads * kIncrements);
  EXPECT_EQ(registry
                .GetHistogram("cyqr_test_shared_latency_millis", {1.0, 2.0})
                ->Count(),
            kThreads * kIncrements);
}

TEST(MetricsRegistryTest, GlobalIsStable) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
}

TEST(HistogramExemplarTest, LastWriterWinsPerBucketAndZeroIdIsIgnored) {
  Histogram h({1.0, 10.0});
  EXPECT_EQ(h.ExemplarTraceId(0), 0u);  // Never observed: no exemplar.
  h.Observe(0.5, /*exemplar_id=*/0xabc);
  h.Observe(0.7, /*exemplar_id=*/0xdef);  // Same bucket: last writer wins.
  h.Observe(5.0, /*exemplar_id=*/0x123);
  h.Observe(0.9);  // Plain Observe (id 0) must not clear the exemplar.
  EXPECT_EQ(h.ExemplarTraceId(0), 0xdefu);
  EXPECT_DOUBLE_EQ(h.ExemplarValue(0), 0.7);
  EXPECT_EQ(h.ExemplarTraceId(1), 0x123u);
  EXPECT_DOUBLE_EQ(h.ExemplarValue(1), 5.0);
  EXPECT_EQ(h.ExemplarTraceId(2), 0u);  // Overflow bucket untouched.
}

TEST(HistogramExemplarTest, MergeFromTakesOtherExemplarsWhereSet) {
  Histogram a({1.0, 10.0});
  Histogram b({1.0, 10.0});
  a.Observe(0.5, /*exemplar_id=*/0x111);
  a.Observe(5.0, /*exemplar_id=*/0x222);
  b.Observe(5.5, /*exemplar_id=*/0x333);  // Only bucket 1 set in b.
  a.MergeFrom(b);
  // Bucket 0: b had none, a keeps its own. Bucket 1: b's wins.
  EXPECT_EQ(a.ExemplarTraceId(0), 0x111u);
  EXPECT_EQ(a.ExemplarTraceId(1), 0x333u);
  EXPECT_DOUBLE_EQ(a.ExemplarValue(1), 5.5);
}

TEST(HistogramExemplarTest, ExpositionCarriesTraceIdAnnotation) {
  MetricsRegistry registry;
  Histogram* h =
      registry.GetHistogram("cyqr_test_latency_millis", {1.0, 2.5});
  h->Observe(0.5, /*exemplar_id=*/0x1f);
  const std::string text = registry.ExpositionText();
  // OpenMetrics-style suffix on the bucket line: the 16-hex trace id plus
  // the observed value that carried it.
  EXPECT_NE(
      text.find("cyqr_test_latency_millis_bucket{le=\"1\"} 1 "
                "# {trace_id=\"000000000000001f\"} 0.5"),
      std::string::npos)
      << text;
}

// Satellite property test for Histogram::MergeFrom: two histograms
// populated concurrently from a deterministic stream, split arbitrarily
// between them, must merge into exactly the histogram that saw the whole
// stream single-threaded — buckets, count, sum, and max all equal.
TEST(MetricsConcurrencyTest, MergeOfConcurrentlyPopulatedHalvesIsExact) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0};
  Histogram left(bounds);
  Histogram right(bounds);
  Histogram reference(bounds);

  // Deterministic value stream: values spread across every bucket
  // (including overflow) with an integer-friendly pattern so the sums
  // compare exactly even in floating point.
  constexpr int kThreadsPerSide = 4;
  constexpr int kValuesPerThread = 25000;
  const auto value_at = [](int thread, int i) {
    return static_cast<double>((thread * 31 + i) % 40) * 0.25;
  };
  for (int t = 0; t < 2 * kThreadsPerSide; ++t) {
    for (int i = 0; i < kValuesPerThread; ++i) {
      reference.Observe(value_at(t, i));
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 2 * kThreadsPerSide; ++t) {
    Histogram* target = t < kThreadsPerSide ? &left : &right;
    threads.emplace_back([target, t, &value_at] {
      for (int i = 0; i < kValuesPerThread; ++i) {
        target->Observe(value_at(t, i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  left.MergeFrom(right);
  ASSERT_EQ(left.Count(), reference.Count());
  for (size_t i = 0; i <= bounds.size(); ++i) {
    EXPECT_EQ(left.BucketCount(i), reference.BucketCount(i))
        << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(left.Sum(), reference.Sum());
  EXPECT_DOUBLE_EQ(left.Max(), reference.Max());
  EXPECT_DOUBLE_EQ(left.Mean(), reference.Mean());
}

}  // namespace
}  // namespace cyqr
