#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pleroma::obs {
namespace {

// ---- Histogram bucket geometry --------------------------------------------

TEST(Histogram, BucketZeroAbsorbsSubUnitAndNonPositive) {
  EXPECT_EQ(Histogram::bucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(0.999), 0);
  EXPECT_EQ(Histogram::bucketIndex(std::nan("")), 0);
  EXPECT_EQ(Histogram::bucketLowerBound(0), 0.0);
  EXPECT_EQ(Histogram::bucketUpperBound(0), 1.0);
}

TEST(Histogram, BucketBoundsBracketTheValue) {
  for (double v : {1.0, 1.5, 2.0, 3.0, 7.9, 100.0, 1e6, 1e12}) {
    const int i = Histogram::bucketIndex(v);
    EXPECT_LE(Histogram::bucketLowerBound(i), v) << "v=" << v;
    EXPECT_LT(v, Histogram::bucketUpperBound(i)) << "v=" << v;
  }
}

TEST(Histogram, BucketIndexIsMonotonicAndContiguous) {
  // Each bucket's upper bound is the next bucket's lower bound, so the
  // geometric grid tiles [1, inf) with no gaps.
  for (int i = 1; i < 64; ++i) {
    EXPECT_EQ(Histogram::bucketUpperBound(i), Histogram::bucketLowerBound(i + 1));
    EXPECT_LT(Histogram::bucketLowerBound(i), Histogram::bucketLowerBound(i + 1));
  }
  // Powers of two start a new octave at the first sub-bucket.
  EXPECT_EQ(Histogram::bucketIndex(1.0), 1);
  EXPECT_EQ(Histogram::bucketIndex(2.0), 1 + Histogram::kSubBuckets);
  EXPECT_EQ(Histogram::bucketIndex(4.0), 1 + 2 * Histogram::kSubBuckets);
}

TEST(Histogram, RelativeResolutionWithinOneSubBucket) {
  // ~12% relative resolution: bucket width / lower bound == 1/kSubBuckets.
  for (double v : {1.0, 3.0, 10.0, 1000.0}) {
    const int i = Histogram::bucketIndex(v);
    const double lo = Histogram::bucketLowerBound(i);
    const double hi = Histogram::bucketUpperBound(i);
    EXPECT_LE((hi - lo) / lo, 1.0 / Histogram::kSubBuckets + 1e-12);
  }
}

// ---- Histogram recording / percentiles ------------------------------------

TEST(Histogram, EmptyHistogramReportsZeros) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, PercentilesApproximateNearestRank) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.lat");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1000.0);
  // Log-bucketed estimates answer with a bucket upper bound, so allow the
  // grid's ~12% relative error.
  EXPECT_NEAR(h.percentile(0.50), 500.0, 500.0 / Histogram::kSubBuckets);
  EXPECT_NEAR(h.percentile(0.90), 900.0, 900.0 / Histogram::kSubBuckets);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 990.0 / Histogram::kSubBuckets);
  // Estimates never escape the observed range.
  EXPECT_GE(h.percentile(0.0), h.min());
  EXPECT_LE(h.percentile(1.0), h.max());
}

TEST(Histogram, SingleValuePercentilesClampToObservation) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.one");
  h.record(42.0);
  EXPECT_EQ(h.percentile(0.0), 42.0);
  EXPECT_EQ(h.percentile(0.5), 42.0);
  EXPECT_EQ(h.percentile(1.0), 42.0);
}

TEST(Histogram, MergeAddsBucketwise) {
  MetricsRegistry a, b;
  Histogram& ha = a.histogram("t.h");
  Histogram& hb = b.histogram("t.h");
  for (double v : {1.0, 2.0, 3.0}) ha.record(v);
  for (double v : {100.0, 200.0}) hb.record(v);
  ha.merge(hb);
  EXPECT_EQ(ha.count(), 5u);
  EXPECT_DOUBLE_EQ(ha.sum(), 306.0);
  EXPECT_EQ(ha.min(), 1.0);
  EXPECT_EQ(ha.max(), 200.0);
}

TEST(Histogram, MergeWithEmptySidePreservesExtrema) {
  MetricsRegistry a, b;
  Histogram& full = a.histogram("t.h");
  full.record(5.0);
  full.record(9.0);
  full.merge(b.histogram("t.h"));  // empty other: no-op
  EXPECT_EQ(full.count(), 2u);
  EXPECT_EQ(full.min(), 5.0);
  EXPECT_EQ(full.max(), 9.0);

  Histogram& empty = b.histogram("t.h2");
  empty.merge(full);  // empty self adopts other's extrema
  EXPECT_EQ(empty.min(), 5.0);
  EXPECT_EQ(empty.max(), 9.0);
}

// ---- Counters / gauges / family gating ------------------------------------

TEST(MetricsRegistry, CounterHandlesAreStableAndAccumulate) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ctrl.flow_mods");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("ctrl.flow_mods"), &c);
}

TEST(MetricsRegistry, FamilyDisableStopsAllUpdatesInFamily) {
  MetricsRegistry reg;
  Counter& c = reg.counter("flow_table.lookups");
  Gauge& g = reg.gauge("flow_table.size");
  Histogram& h = reg.histogram("flow_table.probes");
  reg.setFamilyEnabled("flow_table", false);
  c.inc();
  g.set(7.0);
  h.record(3.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_FALSE(reg.familyEnabled("flow_table"));

  reg.setFamilyEnabled("flow_table", true);
  c.inc();
  g.add(2.5);
  h.record(3.0);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(g.value(), 2.5);
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, FamilyOfSplitsAtFirstDot) {
  EXPECT_EQ(MetricsRegistry::familyOf("flow_table.lookups"), "flow_table");
  EXPECT_EQ(MetricsRegistry::familyOf("a.b.c"), "a");
  EXPECT_EQ(MetricsRegistry::familyOf("bare"), "bare");
}

TEST(MetricsRegistry, FamilyEnabledFlagMirrorsSetFamilyEnabled) {
  MetricsRegistry reg;
  const bool* flag = reg.familyEnabledFlag("sim");
  ASSERT_NE(flag, nullptr);
  EXPECT_TRUE(*flag);
  reg.setFamilyEnabled("sim", false);
  EXPECT_FALSE(*flag);
  // Same flag instance shared with metrics registered later in the family.
  EXPECT_EQ(reg.familyEnabledFlag("sim"), flag);
  Counter& c = reg.counter("sim.events");
  c.inc();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistry, SetAllFamiliesEnabled) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.n");
  Counter& b = reg.counter("y.n");
  reg.setAllFamiliesEnabled(false);
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 0u);
  reg.setAllFamiliesEnabled(true);
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 1u);
  EXPECT_EQ(b.value(), 1u);
}

// ---- Registry merge / snapshot --------------------------------------------

TEST(MetricsRegistry, MergeCombinesAllKinds) {
  MetricsRegistry a, b;
  a.counter("c.n").inc(2);
  b.counter("c.n").inc(3);
  b.counter("c.only_b").inc(7);
  a.gauge("g.v").set(1.5);
  b.gauge("g.v").set(2.0);
  a.histogram("h.lat").record(10.0);
  b.histogram("h.lat").record(30.0);

  a.merge(b);
  EXPECT_EQ(a.counter("c.n").value(), 5u);
  EXPECT_EQ(a.counter("c.only_b").value(), 7u);  // created on demand
  EXPECT_DOUBLE_EQ(a.gauge("g.v").value(), 3.5);  // gauges add on merge
  EXPECT_EQ(a.histogram("h.lat").count(), 2u);
  EXPECT_EQ(a.histogram("h.lat").min(), 10.0);
  EXPECT_EQ(a.histogram("h.lat").max(), 30.0);
}

TEST(MetricsRegistry, ResetZeroesValuesKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.counter("r.n");
  c.inc(9);
  reg.histogram("r.h").record(4.0);
  reg.setFamilyEnabled("r", true);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.histogram("r.h").count(), 0u);
  EXPECT_EQ(&reg.counter("r.n"), &c);  // handle survived
}

TEST(MetricsRegistry, ToJsonShape) {
  MetricsRegistry reg;
  reg.counter("a.n").inc(3);
  reg.gauge("a.g").set(0.5);
  reg.histogram("a.h").record(2.0);
  const JsonValue doc = reg.toJson();
  ASSERT_TRUE(doc.isObject());
  const JsonValue* counters = doc.get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get("a.n")->asInt(), 3);
  EXPECT_DOUBLE_EQ(doc.get("gauges")->get("a.g")->asDouble(), 0.5);
  const JsonValue* h = doc.get("histograms")->get("a.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->get("count")->asInt(), 1);
  EXPECT_DOUBLE_EQ(h->get("mean")->asDouble(), 2.0);
  for (const char* key : {"sum", "min", "max", "p50", "p90", "p99"}) {
    EXPECT_TRUE(h->contains(key)) << key;
  }
}

TEST(MetricsRegistry, ToTextListsEveryMetric) {
  MetricsRegistry reg;
  reg.counter("t.n").inc();
  reg.gauge("t.g").set(1.0);
  reg.histogram("t.h").record(5.0);
  const std::string text = reg.toText();
  EXPECT_NE(text.find("t.n 1"), std::string::npos);
  EXPECT_NE(text.find("t.g"), std::string::npos);
  EXPECT_NE(text.find("t.h count=1"), std::string::npos);
}

}  // namespace
}  // namespace pleroma::obs
