// End-to-end acceptance of the congestion-robust data plane (DESIGN.md
// §15), mirroring bench/hotspot_rebalance in miniature: two publishers in
// one fat-tree pod, their subscribers in the other, finite 8 Mbps links
// with 8-deep transmit queues. Dijkstra's NodeId tie-break concentrates
// both spanning trees on core R1, so the shared uplink is offered ~1.3x
// its service rate. The closed loop (CongestionMonitor EWMA ->
// LoadMonitor congestion-weighted reroot) must strictly improve both p99
// delivery delay and queue-full drops, and the whole congested run —
// queue timing, EWMA samples, reroot decisions — must be byte-identical
// between two runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "controller/load_monitor.hpp"
#include "core/pleroma.hpp"
#include "net/congestion.hpp"

namespace pleroma {
namespace {

struct HotspotResult {
  std::uint64_t delivered = 0;
  net::SimTime p99 = 0;
  std::uint64_t queueDrops = 0;
  std::uint64_t bpDrops = 0;
  std::uint64_t rebalances = 0;
  std::vector<net::SimTime> latencies;
};

net::SimTime p99Of(std::vector<net::SimTime> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[std::min(samples.size() - 1, (samples.size() * 99) / 100)];
}

HotspotResult runHotspot(bool rebalance, bool backpressure) {
  core::PleromaOptions opts;
  opts.numAttributes = 2;
  opts.controller.maxDzLength = 8;
  opts.network.linkQueueCapacity = 8;
  opts.network.backpressure = backpressure;

  core::Pleroma p(
      net::Topology::fatTree(2, 2, 2, 2, 50 * net::kMicrosecond, 8.0e6), opts);
  const auto hosts = p.topology().hosts();
  const dz::AttributeValue max = p.controller().space().domainMax();
  const dz::AttributeValue mid = max / 2;

  const dz::Rectangle left{{{0, mid}, {0, max}}};
  const dz::Rectangle right{{{mid + 1, max}, {0, max}}};
  p.advertise(hosts[0], left);
  p.advertise(hosts[2], right);
  p.subscribe(hosts[4], left);
  p.subscribe(hosts[6], right);
  p.settle();
  p.resetDeliveryStats();
  p.clearLatencySamples();

  net::CongestionMonitor congestion(
      p.network(),
      net::CongestionConfig{.sampleInterval = 200 * net::kMicrosecond});
  ctrl::LoadMonitorConfig lmCfg;
  lmCfg.hotLinkThreshold = 2.0;
  lmCfg.congestionScoreThreshold = 2.0;
  lmCfg.rebalanceCooldown = 4;
  ctrl::LoadMonitor monitor(p.controller(), lmCfg);
  if (rebalance) {
    monitor.attachCongestion(&congestion);
    congestion.startPeriodic();
    monitor.startPeriodic(500 * net::kMicrosecond);
  }

  net::SimTime cursor = p.simulator().now();
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<dz::AttributeValue>(i);
    p.publish(hosts[0], dz::Event{(u * 37) % mid, (u * 101) % max});
    p.publish(hosts[2],
              dz::Event{mid + 1 + (u * 53) % (max - mid), (u * 67) % max});
    cursor += 80 * net::kMicrosecond;
    p.settleUntil(cursor);
  }
  monitor.stopPeriodic();
  congestion.stop();
  p.settle();

  HotspotResult r;
  r.delivered = p.deliveryStats().delivered;
  r.p99 = p99Of(p.latencySamples());
  r.queueDrops = p.network().counters().dropped(net::DropReason::kLinkQueue);
  r.bpDrops = p.network().counters().dropped(net::DropReason::kBackpressure);
  r.rebalances = monitor.rebalances();
  r.latencies = p.latencySamples();
  return r;
}

TEST(CongestionHotspot, QueueOnlyBaselineCongests) {
  const HotspotResult drop = runHotspot(false, false);
  EXPECT_GT(drop.queueDrops, 0u);
  EXPECT_LT(drop.delivered, 800u);
  EXPECT_EQ(drop.rebalances, 0u);
}

TEST(CongestionHotspot, RebalanceStrictlyImprovesP99AndDrops) {
  const HotspotResult drop = runHotspot(false, false);
  const HotspotResult rebalanced = runHotspot(true, true);

  EXPECT_GE(rebalanced.rebalances, 1u);
  // The acceptance bar: both p99 delay and queue-full losses strictly
  // improve once the closed loop is on.
  EXPECT_LT(rebalanced.p99, drop.p99);
  EXPECT_LT(rebalanced.queueDrops + rebalanced.bpDrops, drop.queueDrops);
  EXPECT_GT(rebalanced.delivered, drop.delivered);
}

TEST(CongestionDeterminism, CongestedRunIdenticalAcrossRuns) {
  for (const bool rebalance : {false, true}) {
    SCOPED_TRACE(rebalance);
    const HotspotResult first = runHotspot(rebalance, true);
    const HotspotResult second = runHotspot(rebalance, true);
    EXPECT_EQ(first.delivered, second.delivered);
    EXPECT_EQ(first.queueDrops, second.queueDrops);
    EXPECT_EQ(first.bpDrops, second.bpDrops);
    EXPECT_EQ(first.rebalances, second.rebalances);
    EXPECT_EQ(first.latencies, second.latencies);
  }
}

}  // namespace
}  // namespace pleroma
