// Self-tests of the benchmark: its statistics on synthetic data, and the
// determinism of every workload's virtual-output digest. Run with
// `perfbench --self-test`; exits non-zero on the first failed expectation.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
  if (!ok) ++failures;
}

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void testPercentiles() {
  const auto v100 = oneTo(100);
  expect(percentile(v100, 0.50) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(v100, 0.90) == 90.0, "p90 of 1..100 is 90 (10 samples beyond)");
  expect(!percentile(v100, 0.99), "p99 of 100 samples is refused (1 beyond)");
  expect(!percentile(oneTo(99), 0.90), "p90 of 99 samples is refused (9 beyond)");
  expect(percentile(oneTo(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(!percentile(oneTo(19), 0.50), "p50 of 19 samples is refused");
  expect(percentile(oneTo(20), 0.50) == 10.0, "p50 of 20 samples is supported");
  expect(!percentile(std::vector<double>{}, 0.5), "empty sample is refused");
  expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even sample");
}

void testSelfTime() {
  SpanLog log;
  const int step = log.intern("step");
  const int a = log.intern("a");
  const int b = log.intern("b");
  const int root = log.open(step, -1, 0);
  log.close(root, 100);
  const int childA = log.open(a, root, 10);
  log.close(childA, 30);
  log.add(a, childA, 12, 18);   // grandchild
  log.add(b, root, 25, 50);     // overlaps childA
  log.add(b, root, 90, 120);    // runs past the root's end
  const auto self = selfTimes(log.spans());
  expect(self[0] == 50, "root self time subtracts the union of its children, clipped");
  expect(self[1] == 14, "child self time subtracts its own child");
  const auto byName = selfTimeByName(log);
  expect(byName.at("step") == 50, "self time by name: step");
  expect(byName.at("a") == 14 + 6, "self time by name: a (child and grandchild)");
  expect(byName.at("b") == 25 + 30, "self time by name: b (leaves keep their duration)");
}

BlockSeries series(std::size_t block, const std::vector<double>& samples) {
  BlockSeries s(block);
  for (const double x : samples) s.add(x);
  return s;
}

/// `blocks` blocks of 1..20, those with index % every != 0 slowed 10x.
std::vector<double> slowedBlocks(int blocks, int every) {
  std::vector<double> v;
  for (int b = 0; b < blocks; ++b) {
    for (int i = 1; i <= 20; ++i) v.push_back(b % every == 0 ? i : 10.0 * i);
  }
  return v;
}

void testBlocks() {
  expect(rankValue({4.0, 1.0, 3.0, 2.0, 5.0}, 0.25) == 2.0, "rank value: lower quartile of 5");
  expect(rankValue({7.0}, 0.25) == 7.0, "rank value of a single sample");
  expect(rankValue(oneTo(101), kFastRank) == 3.0, "fast edge of 101 is the third fastest");
  expect(rankValue(oneTo(49), kFastRank) == 1.0, "fast edge of fewer than 50 is the fastest");
  // 60 blocks of 1..20 (median 10), all but 2 of them slowed 10x.
  const BlockSeries edge = series(20, slowedBlocks(60, 30));
  expect(edge.median() == 10.0, "median: fast edge of block medians ignores slowed blocks");
  expect(edge.rate() == 1e6 / 10.5, "rate: units per second at the fast edge of block means");
  expect(edge.tail(0.99) == 200.0 && !series(20, oneTo(100)).tail(0.99),
         "tail: the whole run's percentile, refused when unsupported");
  // 40 blocks: too few for an edge, so the whole run's figures.
  const BlockSeries few = series(20, slowedBlocks(40, 20));
  expect(few.median() == 100.0, "median: whole run's with fewer than 50 blocks");
  expect(few.rate() == 1e6 * 800 / (38 * 2100.0 + 2 * 210.0),
         "rate: whole run's with fewer than 50 blocks");
  std::vector<double> up = slowedBlocks(50, 1);
  for (int i = 0; i < 10; ++i) up.push_back(1000.0);
  const BlockSeries partial = series(20, up);
  expect(partial.median() == 10.0 && partial.count() == 1010,
         "a trailing partial block is left out of the blocks but counted");
  expect(series(2, {0.0, 0.0}).rate() == 0.0, "rate over no time is 0, not NaN");
  expect(!series(2, {}).rate(), "rate of no samples is refused");
  expect(!series(2, {}).median(), "median of no samples is refused");
}

void testMetricList() {
  MetricList m;
  const BlockSeries calls = series(2, {2.0, 2.0});
  expect(m.setIf("ops_per_s", calls.rate(), calls.count(), "1/s") &&
             m.find("ops_per_s")->value == 5e5,
         "a supported value is emitted");
  expect(m.samples().at("ops_per_s") == 2, "a value records its sample count");
  expect(m.setPercentile("x_p50", oneTo(40), 0.5, "us"), "supported percentile is emitted");
  expect(m.samples().at("x_p50") == 40, "percentile records its sample count");
  expect(!m.setPercentile("x_p99", oneTo(40), 0.99, "us") && !m.find("x_p99"),
         "unsupported percentile is not emitted");
  expect(m.refused().size() == 1 && m.refused()[0] == "x_p99",
         "unsupported percentile is listed as refused");
}

void testDigests() {
  // seconds is tiny: each run executes just its deterministic part.
  for (const std::string& w : workloadNames()) {
    const RunResult a = runWorkload({w, 7, 0.01, false});
    const RunResult b = runWorkload({w, 7, 0.01, false});
    const RunResult c = runWorkload({w, 8, 0.01, false});
    expect(!a.digest.empty() && a.digest == b.digest, w + ": same seed, same digest");
    expect(a.digest != c.digest, w + ": another seed, another digest");
    for (const RunResult* r : {&a, &c}) {
      std::string failed;
      for (const auto& f : r->checkFailures) failed += " [" + f + "]";
      expect(r->correct, w + " seed " + std::to_string(r == &a ? 7 : 8) + ": every check passes" + failed);
    }
    if (w != "congested_mixed") {
      expect(a.failed == 0 && c.failed == 0, w + ": no failed operations");
    }
  }
}

}  // namespace

int runSelfTest() {
  testPercentiles();
  testSelfTime();
  testBlocks();
  testMetricList();
  testDigests();
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << '\n';
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
