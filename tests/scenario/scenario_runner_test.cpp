// Execution-layer tests: same-seed determinism, exact
// equivalence of the flash-crowd family with a hand-coded bench, churn,
// fault schedules, multi-partition runs, and failover promotion.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/pleroma.hpp"

namespace pleroma::scenario {
namespace {

Scenario parseScenario(const std::string& text) {
  std::string error;
  auto s = Scenario::parse(text, &error);
  EXPECT_TRUE(s.has_value()) << error;
  EXPECT_TRUE(s->validate(&error)) << error;
  return *s;
}

/// Reports land in the test temp dir, not the working directory.
struct BenchDirGuard : ::testing::Test {
  void SetUp() override {
    ::setenv("PLEROMA_BENCH_DIR", ::testing::TempDir().c_str(), 1);
  }
  void TearDown() override { ::unsetenv("PLEROMA_BENCH_DIR"); }
};

using ScenarioRunnerTest = BenchDirGuard;

const char* kMixedScenario = R"({
  "schema": "pleroma-scenario-v1",
  "name": "mixed",
  "seed": 11,
  "topology": { "kind": "testbed-fat-tree" },
  "attributes": { "count": 2, "bits": 10 },
  "phases": [
    { "name": "warmup", "family": "uniform",
      "advertisements": 3, "subscriptions": 30, "events": 40 },
    { "name": "moves", "family": "churn", "churn_moves": 10, "events": 20 },
    { "name": "burst", "family": "flash-crowd",
      "advertisements": 2, "subscriptions": 20, "events": 30,
      "crowd_centre": [0.6, 0.4], "crowd_radius": 0.06 }
  ],
  "faults": [ { "at_ms": 3.0, "action": "link-down", "target": 2 } ],
  "smoke": { "max_advertisements": 2, "max_subscriptions": 10,
             "max_events": 12, "max_churn_moves": 4 }
})";

TEST_F(ScenarioRunnerTest, ByteIdenticalAcrossRuns) {
  const Scenario s = parseScenario(kMixedScenario);

  auto runOnce = [&] {
    ScenarioRunner runner(s);
    const RunResult result = runner.run();
    obs::BenchReporter report(s.name);
    runner.report(report, result);
    report.finish();
    return std::make_pair(result, report.toJson());
  };
  const auto [r1, j1] = runOnce();
  const auto [r2, j2] = runOnce();

  // Every series (phases, faults, totals) must match cell for cell.
  ASSERT_NE(j1.get("series"), nullptr);
  ASSERT_NE(j2.get("series"), nullptr);
  EXPECT_EQ(j1.get("series")->dump(), j2.get("series")->dump());

  EXPECT_EQ(r1.delivered, r2.delivered);
  EXPECT_EQ(r1.falsePositives, r2.falsePositives);
  EXPECT_EQ(r1.published, r2.published);
  EXPECT_EQ(r1.flowMods, r2.flowMods);
  EXPECT_EQ(r1.end, r2.end);
  EXPECT_DOUBLE_EQ(r1.meanLatencyUs, r2.meanLatencyUs);
  EXPECT_GT(r1.delivered, 0u);

  std::string error;
  EXPECT_TRUE(obs::BenchReporter::validate(j1, &error)) << error;
}

TEST_F(ScenarioRunnerTest, FlashCrowdMatchesHandCodedSequence) {
  const Scenario s = parseScenario(R"({
    "schema": "pleroma-scenario-v1",
    "name": "crowd_equiv",
    "seed": 23,
    "topology": { "kind": "testbed-fat-tree" },
    "attributes": { "count": 2, "bits": 10 },
    "phases": [
      { "name": "burst", "family": "flash-crowd",
        "advertisements": 3, "subscriptions": 40, "events": 60,
        "crowd_centre": [0.7, 0.3], "crowd_radius": 0.05,
        "event_interval_us": 100 }
    ]
  })");

  ScenarioRunner runner(s);
  const RunResult viaEngine = runner.run();

  // The same experiment written the way a bench binary would: one
  // generator seeded with derivePhaseSeed(seed, 0), draws in plan order
  // (advertisements, subscriptions, events), hosts assigned round-robin,
  // events paced at the phase interval and published round-robin over the
  // phase's advertisers.
  core::PleromaOptions opts;
  opts.numAttributes = s.numAttributes;
  opts.bitsPerDim = s.bitsPerDim;
  core::Pleroma middleware(s.buildTopology(), opts);
  const auto hosts = middleware.topology().hosts();
  workload::WorkloadGenerator gen(phaseWorkloadConfig(s, 0));

  std::vector<std::size_t> advSlots;
  for (std::size_t i = 0; i < 3; ++i) {
    const dz::Rectangle rect = gen.makeAdvertisement();
    middleware.advertise(hosts[i % hosts.size()], rect);
    advSlots.push_back(i % hosts.size());
  }
  for (std::size_t i = 0; i < 40; ++i) {
    const dz::Rectangle rect = gen.makeSubscription();
    middleware.subscribe(hosts[i % hosts.size()], rect);
  }
  middleware.settle();
  net::SimTime cursor = middleware.simulator().now();
  const auto events = gen.makeEvents(60);
  for (std::size_t i = 0; i < events.size(); ++i) {
    cursor += 100 * net::kMicrosecond;
    middleware.settleUntil(cursor);
    middleware.publish(hosts[advSlots[i % advSlots.size()]], events[i]);
  }
  middleware.settle();

  const core::DeliveryStats& hand = middleware.deliveryStats();
  EXPECT_GT(viaEngine.delivered, 0u);
  EXPECT_EQ(viaEngine.published, 60u);
  EXPECT_EQ(viaEngine.delivered, hand.delivered);
  EXPECT_EQ(viaEngine.falsePositives, hand.falsePositives);
  EXPECT_DOUBLE_EQ(viaEngine.meanLatencyUs, hand.meanLatencyUs());
  EXPECT_EQ(viaEngine.end, middleware.simulator().now());
}

TEST_F(ScenarioRunnerTest, ChurnMovesRehomeSubscriptions) {
  const Scenario s = parseScenario(R"({
    "schema": "pleroma-scenario-v1",
    "name": "churn_small",
    "seed": 5,
    "topology": { "kind": "ring", "switches": 6 },
    "phases": [
      { "name": "populate", "family": "uniform",
        "advertisements": 2, "subscriptions": 12, "events": 10 },
      { "name": "roam", "family": "churn", "churn_moves": 8, "events": 10 }
    ]
  })");
  ScenarioRunner runner(s);
  const RunResult result = runner.run();
  ASSERT_EQ(result.phases.size(), 2u);
  EXPECT_EQ(result.phases[1].churnMoves, 8u);
  // Re-homing is unsub+resub: the churn phase must issue fresh flow-mods
  // even though it adds no new subscriptions.
  EXPECT_GT(result.phases[1].flowMods, 0u);
  EXPECT_GT(result.delivered, 0u);
}

TEST_F(ScenarioRunnerTest, FaultScheduleAppliesAtItsInstant) {
  const Scenario s = parseScenario(kMixedScenario);
  ScenarioRunner runner(s);
  const RunResult result = runner.run();
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].spec.action, FaultAction::kLinkDown);
  // The fault fires at its virtual instant, never before.
  EXPECT_GE(result.faults[0].appliedAt, 3 * net::kMillisecond);

  // The same scenario without the fault differs in control-plane work:
  // the link-down forces spanning-tree repair flow-mods.
  Scenario noFault = s;
  noFault.faults.clear();
  ScenarioRunner clean(noFault);
  const RunResult cleanResult = clean.run();
  EXPECT_NE(result.flowMods, cleanResult.flowMods);
}

TEST_F(ScenarioRunnerTest, MultiPartitionRunProducesInteropTraffic) {
  const Scenario s = parseScenario(R"({
    "schema": "pleroma-scenario-v1",
    "name": "multi_small",
    "seed": 3,
    "topology": { "kind": "ring", "switches": 8 },
    "partitions": 4,
    "phases": [
      { "name": "main", "family": "uniform",
        "advertisements": 4, "subscriptions": 24, "events": 40 }
    ]
  })");
  ScenarioRunner runner(s);
  const RunResult result = runner.run();
  EXPECT_GT(result.delivered, 0u);
  // Subscriptions spread over 4 partitions: the controllers must have
  // exchanged interop messages to span partition borders.
  EXPECT_GT(result.controlMessages, 0u);
  EXPECT_FALSE(result.promoted);
}

TEST_F(ScenarioRunnerTest, ControllerKillPromotesStandby) {
  const Scenario s = parseScenario(R"({
    "schema": "pleroma-scenario-v1",
    "name": "kill_small",
    "seed": 9,
    "topology": { "kind": "testbed-fat-tree" },
    "failover": { "heartbeat_ms": 1, "miss_threshold": 2 },
    "phases": [
      { "name": "steady", "family": "uniform",
        "advertisements": 2, "subscriptions": 20, "events": 80,
        "event_interval_us": 100 }
    ],
    "faults": [ { "at_ms": 2.0, "action": "controller-kill" } ]
  })");
  ScenarioRunner runner(s);
  const RunResult result = runner.run();
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_TRUE(result.promoted);
  EXPECT_GT(result.delivered, 0u);
}

TEST_F(ScenarioRunnerTest, SmokeModeShrinksTheRun) {
  const Scenario s = parseScenario(kMixedScenario);
  RunOptions opts;
  opts.smoke = true;
  ScenarioRunner smokeRunner(s, opts);
  const RunResult smoke = smokeRunner.run();
  ScenarioRunner fullRunner(s);
  const RunResult full = fullRunner.run();
  ASSERT_EQ(smoke.phases.size(), full.phases.size());
  EXPECT_LT(smoke.published, full.published);
  EXPECT_LT(smoke.phases[0].subscriptions, full.phases[0].subscriptions);
}

}  // namespace
}  // namespace pleroma::scenario
