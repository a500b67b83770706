// Controller high-availability tests: standby promotion must rebuild the
// dead primary's intent exactly (muted replay), repair only the true delta
// against surviving TCAM state, stay idempotent (a second convergence pass
// issues zero mods — even over a lossy channel), preserve delivery for
// subscriptions whose entries survived (fail-soft), buffer-and-replay
// misses, defer reconciler audits that race a mutation batch, and stay
// byte-identical between runs of one seed and consistent across randomized
// controller-kill churn.
#include "controller/failover.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "controller/reconciler.hpp"
#include "controller/standby.hpp"
#include "util/rng.hpp"

namespace pleroma::ctrl {
namespace {

dz::Rectangle rect(dz::AttributeValue aLo, dz::AttributeValue aHi) {
  return dz::Rectangle{{dz::Range{aLo, aHi}, dz::Range{0, 1023}}};
}

/// The 20%-lossy async channel profile of the robustness suite.
void makeLossy(openflow::ControlChannel& channel, double drop, int retries,
               std::uint64_t seed) {
  channel.enableAsyncInstall();
  openflow::ControlFaultModel faults;
  faults.dropProbability = drop;
  faults.duplicateProbability = drop / 4;
  faults.maxExtraDelay = net::kMillisecond;
  channel.setFaultModel(faults);
  openflow::RetryPolicy retry;
  retry.maxRetries = retries;
  retry.initialTimeout = net::kMillisecond;
  channel.setRetryPolicy(retry);
  channel.reseedFaults(seed);
}

/// Canonical serialization of a controller's per-switch intent mirror,
/// for byte-identity comparisons across runs.
std::string mirrorDigest(Controller& c) {
  std::string out;
  for (const net::NodeId sw : c.scope().switches) {
    out += "sw" + std::to_string(sw) + ":";
    for (const auto& [d, entry] : c.installer().mirror(sw)) {
      out += entry.toString();
      out += ";";
    }
    out += "\n";
  }
  return out;
}

struct FailoverFixture : ::testing::Test {
  FailoverFixture()
      : topo(net::Topology::testbedFatTree()),
        network(topo, sim, {}),
        primary(dz::EventSpace(2, 10), network, Scope::wholeTopology(topo),
                {}),
        standby(primary) {
    hosts = topo.hosts();
    network.setDeliverHandler(
        [this](net::NodeId h, const net::Packet&) { delivered.insert(h); });
  }

  void deploy() {
    primary.advertise(hosts[0], rect(0, 1023));
    for (std::size_t i = 0; i < 12; ++i) {
      const net::NodeId h = hosts[1 + i % (hosts.size() - 1)];
      subs.emplace_back(h, primary.subscribe(h, rect(0, 511)));
    }
    sim.run();
  }

  std::set<net::NodeId> publish(Controller& c, const dz::Event& e) {
    delivered.clear();
    network.sendFromHost(hosts[0], c.makeEventPacket(hosts[0], e, 1));
    sim.run();
    return delivered;
  }

  /// Hosts that must receive an event inside every subscription rectangle.
  std::set<net::NodeId> expectedReceivers() const {
    std::set<net::NodeId> out;
    for (const auto& [h, id] : subs) out.insert(h);
    return out;
  }

  net::Topology topo;
  net::Simulator sim;
  net::Network network;
  Controller primary;
  StandbyController standby;
  std::vector<net::NodeId> hosts;
  std::vector<std::pair<net::NodeId, SubscriptionId>> subs;
  std::set<net::NodeId> delivered;
};

TEST_F(FailoverFixture, MutedReplayReproducesMirrorWithoutWireTraffic) {
  deploy();
  const std::string primaryDigest = mirrorDigest(primary);
  const auto statsBefore = primary.channel().stats();

  std::unique_ptr<Controller> replica = standby.promote();
  EXPECT_EQ(mirrorDigest(*replica), primaryDigest);
  // The replica's channel sent nothing during the replay.
  EXPECT_EQ(replica->channel().stats().flowModsSent, 0u);
  EXPECT_FALSE(replica->channel().muted());
  // And the primary's switches were never touched again.
  EXPECT_EQ(primary.channel().stats().flowModsSent, statsBefore.flowModsSent);
}

TEST_F(FailoverFixture, HeartbeatDetectsDeathAndPromotes) {
  deploy();
  FailoverConfig cfg;
  cfg.heartbeatInterval = net::kMillisecond;
  cfg.missThreshold = 3;
  FailoverManager fm(primary, standby, cfg);
  fm.start();
  sim.runUntil(sim.now() + 10 * net::kMillisecond);
  EXPECT_FALSE(fm.promoted());  // live primary answers echoes

  fm.killPrimary();
  const net::SimTime diedAt = sim.now();
  sim.runUntil(sim.now() + 20 * net::kMillisecond);
  ASSERT_TRUE(fm.promoted());
  const FailoverStats& s = fm.stats();
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_EQ(s.spuriousDetections, 0u);
  EXPECT_EQ(s.primaryDiedAt, diedAt);
  EXPECT_EQ(s.detectionLatency(), 3 * net::kMillisecond);
  EXPECT_GE(s.repairedAt, s.detectedAt);
  // Clean deployment: every TCAM entry survives, nothing to repair.
  EXPECT_GT(s.entriesSurviving, 0u);
  EXPECT_EQ(s.repairFlowMods, 0u);
  EXPECT_NE(&fm.active(), &primary);
  EXPECT_EQ(publish(fm.active(), {100, 100}), expectedReceivers());
}

TEST_F(FailoverFixture, SurvivingEntriesKeepForwardingDuringDeadWindow) {
  deploy();
  FailoverConfig cfg;  // default 10 ms × 3: a wide dead window
  FailoverManager fm(primary, standby, cfg);
  fm.start();
  fm.killPrimary();
  // Publish while the controller is dead and detection has not fired:
  // intact TCAM entries must keep forwarding — zero lost events.
  EXPECT_FALSE(fm.promoted());
  delivered.clear();
  network.sendFromHost(hosts[0], primary.makeEventPacket(hosts[0], {100, 100}, 1));
  sim.runUntil(sim.now() + 5 * net::kMillisecond);
  EXPECT_EQ(delivered, expectedReceivers());
  EXPECT_EQ(network.counters().packetsBufferedOnMiss, 0u);
}

TEST_F(FailoverFixture, FailSoftBuffersMissesAndReplaysAfterRepair) {
  // Deployment loses every mod (fire-and-forget): mirrors fill, switches
  // stay blank — the worst-case divergence at death.
  makeLossy(primary.channel(), 1.0, 0, 7);
  deploy();
  for (const net::NodeId sw : topo.switches()) {
    ASSERT_TRUE(network.flowTable(sw).empty());
  }
  primary.channel().setFaultModel({});  // heal: the replica inherits this

  FailoverConfig cfg;
  cfg.heartbeatInterval = net::kMillisecond;
  cfg.missThreshold = 2;
  FailoverManager fm(primary, standby, cfg);
  fm.start();
  fm.killPrimary();

  // A publish during the dead window misses everywhere; fail-soft parks it
  // at the ingress switch instead of dropping.
  delivered.clear();
  network.sendFromHost(hosts[0], primary.makeEventPacket(hosts[0], {100, 100}, 1));
  sim.runUntil(sim.now() + net::kMillisecond);
  EXPECT_TRUE(delivered.empty());
  EXPECT_GT(network.missBufferedPackets(), 0u);
  EXPECT_GT(network.counters().packetsBufferedOnMiss, 0u);

  // Detection fires, the standby promotes, the repair reinstalls the full
  // intent, and the parked publish replays to every subscriber.
  sim.runUntil(sim.now() + 50 * net::kMillisecond);
  ASSERT_TRUE(fm.promoted());
  EXPECT_FALSE(network.failSoft());
  EXPECT_EQ(network.missBufferedPackets(), 0u);
  EXPECT_GT(fm.stats().repairFlowMods, 0u);
  EXPECT_GT(fm.stats().eventsReplayed, 0u);
  EXPECT_EQ(delivered, expectedReceivers());
}

TEST_F(FailoverFixture, PromotionConvergenceIsIdempotent) {
  deploy();
  FailoverConfig cfg;
  FailoverManager fm(primary, standby, cfg);
  fm.killPrimary();
  fm.forcePromotion();
  ASSERT_TRUE(fm.promoted());
  Controller& promoted = fm.active();

  // Two back-to-back convergence passes after the promotion: the first is
  // already clean (promote() converged), the second must issue zero mods.
  Reconciler reconciler(promoted);
  EXPECT_EQ(reconciler.runToConvergence(), 0u);
  const std::uint64_t modsBefore = promoted.channel().stats().flowModsSent;
  EXPECT_EQ(reconciler.runToConvergence(), 0u);
  EXPECT_EQ(promoted.channel().stats().flowModsSent, modsBefore);
}

TEST_F(FailoverFixture, PromotionConvergenceIsIdempotentUnderDrop) {
  // 20% control-channel drop with a retry budget: the deployment diverges,
  // the promoted channel inherits the loss — convergence must still settle
  // to a state where a second pass issues zero flow-mods.
  makeLossy(primary.channel(), 0.20, 3, 42);
  deploy();
  FailoverConfig cfg;
  FailoverManager fm(primary, standby, cfg);
  fm.killPrimary();
  fm.forcePromotion();
  ASSERT_TRUE(fm.promoted());
  Controller& promoted = fm.active();
  ASSERT_EQ(promoted.channel().faultModel().dropProbability, 0.20);

  Reconciler reconciler(promoted);
  ASSERT_LT(reconciler.runToConvergence(), 16u);  // converged, not capped
  const std::uint64_t modsBefore = promoted.channel().stats().flowModsSent;
  EXPECT_EQ(reconciler.runToConvergence(), 0u);
  EXPECT_EQ(promoted.channel().stats().flowModsSent, modsBefore);
}

TEST_F(FailoverFixture, ReconcilerDefersPassesDuringMutationBatch) {
  deploy();
  Reconciler reconciler(primary);
  ASSERT_TRUE(reconciler.reconcileAll().clean());
  reconciler.enablePeriodic(2 * net::kMillisecond);

  {
    // An in-flight rebuildTrees batch (modelled by holding the RAII guard
    // across ticks): periodic passes must defer, not audit half state.
    Controller::MutationScope guard(primary);
    ASSERT_TRUE(primary.mutationInProgress());
    sim.runUntil(sim.now() + 7 * net::kMillisecond);
    EXPECT_TRUE(reconciler.lastReport().deferredForMutation);
    EXPECT_FALSE(reconciler.lastReport().clean());
    EXPECT_GT(reconciler.mutationSkips(), 0u);
  }
  ASSERT_FALSE(primary.mutationInProgress());
  sim.runUntil(sim.now() + 3 * net::kMillisecond);
  EXPECT_FALSE(reconciler.lastReport().deferredForMutation);
  EXPECT_TRUE(reconciler.lastReport().clean());
  reconciler.disablePeriodic();
  sim.run();
}

TEST_F(FailoverFixture, RoleRequestsClaimMastership) {
  deploy();
  FailoverConfig cfg;
  FailoverManager fm(primary, standby, cfg);
  fm.killPrimary();
  fm.forcePromotion();
  Controller& promoted = fm.active();
  for (const net::NodeId sw : topo.switches()) {
    EXPECT_EQ(promoted.channel().roleOf(sw), openflow::ControllerRole::kMaster)
        << "switch " << sw;
  }
}

/// Runs a full deploy → kill → promote pipeline and returns the promoted
/// controller's mirror digest plus repair stats, for determinism checks.
struct PromotionResult {
  std::string digest;
  std::uint64_t repairMods = 0;
  std::uint64_t entriesSurviving = 0;
};

PromotionResult runPromotionScenario() {
  net::Topology topo = net::Topology::testbedFatTree();
  net::Simulator sim;
  net::Network network(topo, sim, {});
  Controller primary(dz::EventSpace(2, 10), network, Scope::wholeTopology(topo),
                     {});
  StandbyController standby(primary);
  makeLossy(primary.channel(), 0.15, 2, 99);

  const auto hosts = topo.hosts();
  primary.advertise(hosts[0], rect(0, 1023));
  for (std::size_t i = 0; i < 16; ++i) {
    primary.subscribe(hosts[i % hosts.size()], rect(0, 600));
  }
  sim.run();

  FailoverConfig cfg;
  FailoverManager fm(primary, standby, cfg);
  fm.killPrimary();
  fm.forcePromotion();

  PromotionResult r;
  r.digest = mirrorDigest(fm.active());
  r.repairMods = fm.stats().repairFlowMods;
  r.entriesSurviving = fm.stats().entriesSurviving;
  return r;
}

TEST(FailoverDeterminism, PromotionRepairByteIdenticalAcrossRuns) {
  const PromotionResult first = runPromotionScenario();
  const PromotionResult second = runPromotionScenario();
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.repairMods, second.repairMods);
  EXPECT_EQ(first.entriesSurviving, second.entriesSurviving);
}

TEST(FailoverChurn, RandomizedControllerKillsStayConsistent) {
  net::Topology topo = net::Topology::testbedFatTree();
  net::Simulator sim;
  net::Network network(topo, sim, {});
  const auto hosts = topo.hosts();

  std::set<net::NodeId> delivered;
  network.setDeliverHandler(
      [&](net::NodeId h, const net::Packet&) { delivered.insert(h); });

  auto owner = std::make_unique<Controller>(dz::EventSpace(2, 10), network,
                                            Scope::wholeTopology(topo),
                                            ControllerConfig{});
  auto standby = std::make_unique<StandbyController>(*owner);

  util::Rng rng{0xC0FFEE};
  std::set<net::NodeId> subscribed;
  owner->advertise(hosts[0], rect(0, 1023));

  // Generations of controller churn: register load, kill the active
  // controller, promote, verify delivery, re-arm a successor standby that
  // inherits the full history, repeat.
  std::vector<std::unique_ptr<FailoverManager>> managers;
  Controller* active = owner.get();
  for (int generation = 0; generation < 3; ++generation) {
    for (int i = 0; i < 4; ++i) {
      const net::NodeId h =
          hosts[rng.uniformInt(1, static_cast<int>(hosts.size()) - 1)];
      active->subscribe(h, rect(0, 511));
      subscribed.insert(h);
    }
    sim.run();

    FailoverConfig cfg;
    cfg.heartbeatInterval = net::kMillisecond * (1 + generation % 3);
    cfg.missThreshold = 2 + generation % 2;
    managers.push_back(
        std::make_unique<FailoverManager>(*active, *standby, cfg));
    FailoverManager& fm = *managers.back();
    fm.start();
    // Kill at a randomized point of the heartbeat schedule.
    sim.runUntil(sim.now() +
                 net::kMillisecond * static_cast<net::SimTime>(
                                         rng.uniformInt(0, 7)));
    fm.killPrimary();
    sim.runUntil(sim.now() + 100 * net::kMillisecond);
    ASSERT_TRUE(fm.promoted()) << "generation " << generation;

    Controller& next = fm.active();
    // Delivery invariant holds on the promoted controller.
    delivered.clear();
    network.sendFromHost(hosts[0], next.makeEventPacket(hosts[0], {100, 100}, 1));
    sim.run();
    EXPECT_EQ(delivered, subscribed) << "generation " << generation;
    // A follow-up audit finds nothing to repair.
    Reconciler reconciler(next);
    EXPECT_TRUE(reconciler.reconcileAll().clean())
        << "generation " << generation;

    standby = std::make_unique<StandbyController>(next, *standby);
    active = &next;
  }

  // The final standby observes the last promoted controller, which is
  // owned by `managers` (declared earlier, destroyed later): detach it
  // while its source is still alive.
  standby.reset();
}

}  // namespace
}  // namespace pleroma::ctrl
