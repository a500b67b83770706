// Property test of the congestion model's conservation contract
// (network.hpp): under randomized pub/sub churn, link flaps, and switch
// failures on a congested fat-tree, every packet instance admitted to the
// data plane reaches exactly one terminal — delivered, punted, consumed
// by fan-out, dropped with a counted reason, or parked — so the counter
// identity holds at every quiescent point, and two runs of one seed are
// counter-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/pleroma.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace pleroma {
namespace {

void expectConservation(core::Pleroma& p) {
  net::Network& n = p.network();
  const net::NetworkCounters& c = n.counters();
  EXPECT_EQ(c.packetsSentFromHosts + c.packetsInjectedByController +
                c.packetsForwarded,
            c.packetsDeliveredToHosts + c.packetsPuntedToController +
                c.packetsConsumedAtSwitch + c.totalDropped() +
                n.missBufferedPackets() + n.backpressureParkedPackets())
      << "conservation identity violated";
}

/// Full deterministic fingerprint of a run: every aggregate counter, the
/// per-link queue-drop/peak-depth accounting, and the delivery stats.
std::vector<std::uint64_t> digest(core::Pleroma& p) {
  net::Network& n = p.network();
  const net::NetworkCounters& c = n.counters();
  std::vector<std::uint64_t> d = {
      c.packetsForwarded,
      c.packetsPuntedToController,
      c.packetsDeliveredToHosts,
      c.packetsSentFromHosts,
      c.packetsInjectedByController,
      c.packetsConsumedAtSwitch,
      c.packetsBufferedOnMiss,
      c.packetsReplayedFromMissBuffer,
      c.packetsParkedOnBackpressure,
      c.packetsResumedFromBackpressure,
      c.backpressureRetries,
  };
  for (std::size_t r = 0; r < net::kDropReasonCount; ++r) {
    d.push_back(c.dropped(static_cast<net::DropReason>(r)));
  }
  for (net::LinkId l = 0; l < p.topology().linkCount(); ++l) {
    d.push_back(n.linkCounters(l).queueDrops);
    d.push_back(n.peakLinkQueueDepth(l));
  }
  d.push_back(p.deliveryStats().delivered);
  d.push_back(p.deliveryStats().falsePositives);
  d.push_back(static_cast<std::uint64_t>(p.deliveryStats().latencySum));
  return d;
}

/// One randomized churn run on an 8 Mbps 2x2x2x2 fat-tree with 4-deep
/// link queues. The op sequence depends only on the seed (never on
/// simulation results), so two runs with the same seed are replays.
std::vector<std::uint64_t> churnRun(std::uint64_t seed, bool backpressure) {
  core::PleromaOptions opts;
  opts.numAttributes = 2;
  opts.controller.maxDzLength = 8;
  opts.network.linkQueueCapacity = 4;
  opts.network.backpressure = backpressure;
  opts.network.backpressureBufferCapacity = 8;

  core::Pleroma p(net::Topology::fatTree(2, 2, 2, 2, 50 * net::kMicrosecond,
                                         8.0e6),
                  opts);
  const auto hosts = p.topology().hosts();
  const auto switches = p.topology().switches();
  const net::Topology& topo = p.topology();

  std::vector<net::LinkId> interior;
  for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
    const net::Link& link = topo.link(l);
    if (topo.isSwitch(link.a.node) && topo.isSwitch(link.b.node)) {
      interior.push_back(l);
    }
  }

  workload::WorkloadConfig wcfg;
  wcfg.model = workload::Model::kUniform;
  wcfg.numAttributes = 2;
  wcfg.seed = seed;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng rng(seed * 0x9e3779b9ULL + 1);

  p.advertise(hosts[0], p.controller().space().wholeSpace());
  p.advertise(hosts[2], p.controller().space().wholeSpace());
  std::vector<ctrl::SubscriptionId> subs;
  for (std::size_t i = 0; i < 8; ++i) {
    subs.push_back(
        p.subscribe(hosts[(i * 3) % hosts.size()], gen.makeSubscription()));
  }
  p.settle();

  std::vector<net::LinkId> downLinks;
  std::vector<net::NodeId> downSwitches;
  net::SimTime cursor = p.simulator().now();
  for (int step = 0; step < 400; ++step) {
    p.publish(hosts[step % 2 == 0 ? 0 : 2], gen.makeEvent());

    if (rng.chance(0.08) && downLinks.size() < 2) {
      const net::LinkId l = interior[rng.uniformInt(0, interior.size() - 1)];
      p.network().setLinkUp(l, false);
      p.controller().onLinkDown(l);
      downLinks.push_back(l);
    }
    if (rng.chance(0.10) && !downLinks.empty()) {
      const net::LinkId l = downLinks.back();
      downLinks.pop_back();
      p.network().setLinkUp(l, true);
      p.controller().onLinkUp(l);
    }
    if (rng.chance(0.03) && downSwitches.empty()) {
      // Fail a core switch (never an access switch, which would detach
      // publishers/subscribers outright).
      const net::NodeId sw = switches[rng.uniformInt(0, 1)];
      p.network().setNodeUp(sw, false);
      p.controller().onSwitchDown(sw);
      downSwitches.push_back(sw);
    }
    if (rng.chance(0.06) && !downSwitches.empty()) {
      const net::NodeId sw = downSwitches.back();
      downSwitches.pop_back();
      p.network().setNodeUp(sw, true);
      p.controller().onSwitchUp(sw);
    }
    if (rng.chance(0.10)) {
      subs.push_back(p.subscribe(hosts[rng.uniformInt(0, hosts.size() - 1)],
                                 gen.makeSubscription()));
    }
    if (rng.chance(0.08) && subs.size() > 4) {
      const std::size_t i = rng.uniformInt(0, subs.size() - 1);
      p.unsubscribe(subs[i]);
      subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
    }

    cursor += rng.uniformInt(40, 120) * net::kMicrosecond;
    p.settleUntil(cursor);
    if (step % 50 == 49) {
      p.settle();
      expectConservation(p);
    }
  }

  // Heal everything, drain, and check the final quiescent point.
  for (const net::LinkId l : downLinks) {
    p.network().setLinkUp(l, true);
    p.controller().onLinkUp(l);
  }
  for (const net::NodeId sw : downSwitches) {
    p.network().setNodeUp(sw, true);
    p.controller().onSwitchUp(sw);
  }
  p.settle();
  expectConservation(p);
  EXPECT_EQ(p.network().backpressureParkedPackets(), 0u);
  EXPECT_EQ(p.network().stats().linkQueued, 0u);
  return digest(p);
}

TEST(CongestionConservation, HoldsUnderRandomizedChurnAndFlaps) {
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    SCOPED_TRACE(seed);
    churnRun(seed, /*backpressure=*/false);
  }
}

TEST(CongestionConservation, HoldsWithBackpressureEnabled) {
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    SCOPED_TRACE(seed);
    churnRun(seed, /*backpressure=*/true);
  }
}

TEST(CongestionConservation, CountersIdenticalAcrossRuns) {
  for (const bool backpressure : {false, true}) {
    SCOPED_TRACE(backpressure);
    EXPECT_EQ(churnRun(31, backpressure), churnRun(31, backpressure));
  }
}

}  // namespace
}  // namespace pleroma
