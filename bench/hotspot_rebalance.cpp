// Congestion hotspot study (DESIGN.md §15): two publishers in one pod,
// their subscribers in the other pod, on a 2-core fat-tree with finite
// 10 Mbps links and small per-direction transmit queues. Dijkstra's
// lowest-NodeId tie-break concentrates both spanning trees on core R1, so
// the shared agg->core uplink is offered ~1.3x its service rate and a
// standing queue forms. Three reactions are compared on identical
// workloads (same events, same instants):
//
//   drop         finite queues only: overflow packets are dropped
//                (DropReason::kLinkQueue)
//   backpressure queues + upstream park-and-retry: losses move to the
//                bounded backpressure buffer, delay grows instead
//   rebalance    backpressure + the closed loop: a net::CongestionMonitor
//                feeds queue-depth/drop EWMAs to a periodic
//                ctrl::LoadMonitor, which re-roots the overloaded tree
//                with congestion-weighted link costs, steering one flow
//                onto the idle second core
//
// Acceptance for the congestion work: p99 delivery delay and queue-full
// drops must strictly improve once rebalancing is enabled. The "queued"
// gauge column is the peak of Network::stats() occupancy sampled at the
// fixed virtual instants of the pacing loop, so every number is
// byte-identical between runs.
#include "bench_common.hpp"

#include <algorithm>

#include "controller/load_monitor.hpp"
#include "net/congestion.hpp"

namespace {

using namespace pleroma;

enum class Mode { kDrop, kBackpressure, kRebalance };

const char* name(Mode m) {
  switch (m) {
    case Mode::kDrop: return "drop";
    case Mode::kBackpressure: return "backpressure";
    case Mode::kRebalance: return "rebalance";
  }
  return "?";
}

struct ModeResult {
  std::uint64_t delivered = 0;
  double p99DelayMs = 0.0;
  std::uint64_t queueDrops = 0;
  std::uint64_t bpDrops = 0;
  std::uint64_t bpParks = 0;
  std::uint64_t bpRetries = 0;
  std::uint64_t peakQueueDepth = 0;
  std::uint64_t maxQueuedGauge = 0;  ///< peak linkQueued+parked at step ends
  std::uint64_t rebalances = 0;
};

double p99Ms(const std::vector<net::SimTime>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<net::SimTime> sorted(samples);
  std::sort(sorted.begin(), sorted.end());
  const std::size_t idx =
      std::min(sorted.size() - 1, (sorted.size() * 99) / 100);
  return static_cast<double>(sorted[idx]) / 1.0e6;
}

/// 8 Mbps: a 49-byte event packet (48 + dz/8, Sec 6.2) serializes in
/// 49us. Publishing one event per publisher every 80us offers the shared
/// uplink 2 packets / 80us against a 98us service time — a standing queue
/// that overflows without a reaction, a comfortable 61% utilisation once
/// the flows are split across the two cores.
constexpr double kBandwidthBps = 8.0e6;
constexpr net::SimTime kEventInterval = 80 * net::kMicrosecond;

ModeResult runMode(Mode mode, int steps) {
  core::PleromaOptions opts;
  opts.numAttributes = 2;
  opts.controller.maxDzLength = 8;
  opts.network.linkQueueCapacity = 8;
  opts.network.backpressure = mode != Mode::kDrop;

  core::Pleroma p(net::Topology::fatTree(/*core=*/2, /*aggregation=*/2,
                                         /*edgePerAgg=*/2, /*hostsPerEdge=*/2,
                                         50 * net::kMicrosecond, kBandwidthBps),
                  opts);
  const auto hosts = p.topology().hosts();
  const dz::AttributeValue max = p.controller().space().domainMax();
  const dz::AttributeValue mid = max / 2;

  // Pod A publishes: hosts[0] (edge R5) the left half of the space,
  // hosts[2] (edge R6) the right half. Pod B subscribes: hosts[4]
  // (edge R7) left, hosts[6] (edge R8) right. Every event crosses the
  // core layer exactly once and matches exactly one subscriber, so each
  // access link carries one packet per interval — only the core uplinks
  // can congest, and only they are rebalanceable.
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
      p.network(), net::CongestionConfig{.sampleInterval = 200 * net::kMicrosecond});
  ctrl::LoadMonitorConfig lmCfg;
  lmCfg.hotLinkThreshold = 2.0;
  // Require a standing queue (EWMA >= 2): transient depth-1 samples on a
  // healthily utilised link must not trigger a reroot.
  lmCfg.congestionScoreThreshold = 2.0;
  lmCfg.congestionFactor = 8.0;
  // Four 500us windows of cooldown: the vacated uplink's EWMA needs ~2ms
  // to decay below the threshold, or the monitor chases its own shadow.
  lmCfg.rebalanceCooldown = 4;
  ctrl::LoadMonitor monitor(p.controller(), lmCfg);
  if (mode == Mode::kRebalance) {
    monitor.attachCongestion(&congestion);
    congestion.startPeriodic();
    monitor.startPeriodic(500 * net::kMicrosecond);
  }

  ModeResult r;
  net::SimTime cursor = p.simulator().now();
  // Deterministic per-step jitter keeps events off cell boundaries without
  // pulling in a RNG (dimension 1 is unconstrained in both halves).
  for (int i = 0; i < steps; ++i) {
    const auto u = static_cast<dz::AttributeValue>(i);
    p.publish(hosts[0], dz::Event{(u * 37) % mid, (u * 101) % max});
    p.publish(hosts[2], dz::Event{mid + 1 + (u * 53) % (max - mid),
                                  (u * 67) % max});
    cursor += kEventInterval;
    p.settleUntil(cursor);
    const net::Network::Stats s = p.network().stats();
    r.maxQueuedGauge = std::max(
        r.maxQueuedGauge,
        static_cast<std::uint64_t>(s.linkQueued + s.backpressureParked));
  }
  // Stop the closed loop before draining: a live periodic task re-arms
  // forever and settle() would never return. The already-armed ticks fire
  // once as no-ops at their deterministic instants.
  monitor.stopPeriodic();
  congestion.stop();
  p.settle();

  const net::NetworkCounters& c = p.network().counters();
  r.delivered = p.deliveryStats().delivered;
  r.p99DelayMs = p99Ms(p.latencySamples());
  r.queueDrops = c.dropped(net::DropReason::kLinkQueue);
  r.bpDrops = c.dropped(net::DropReason::kBackpressure);
  r.bpParks = c.packetsParkedOnBackpressure;
  r.bpRetries = c.backpressureRetries;
  r.peakQueueDepth = p.network().stats().peakLinkQueueDepth;
  r.rebalances = monitor.rebalances();
  return r;
}

}  // namespace

int main() {
  using namespace pleroma::bench;
  BenchTable bench("hotspot_rebalance", "Congestion",
                   "finite link queues under a cross-pod hotspot: drop vs. "
                   "backpressure vs. congestion-driven tree rebalancing");
  bench.meta("seed", 0);
  bench.meta("topology", "fat_tree_2x2x2x2_8mbps");
  bench.meta("workload", "two_publisher_hotspot");
  bench.beginSeries("modes", {{"mode", ""},
                              {"delivered", "count"},
                              {"p99_delay_ms", "ms"},
                              {"queue_drops", "count"},
                              {"bp_drops", "count"},
                              {"bp_parks", "count"},
                              {"bp_retries", "count"},
                              {"peak_queue_depth", "packets"},
                              {"max_queued_gauge", "packets"},
                              {"rebalances", "count"}});

  const int steps = scaled(3000, 300);
  for (const Mode mode : {Mode::kDrop, Mode::kBackpressure, Mode::kRebalance}) {
    const ModeResult r = runMode(mode, steps);
    bench.row({name(mode), r.delivered, cell(r.p99DelayMs, 3), r.queueDrops,
               r.bpDrops, r.bpParks, r.bpRetries, r.peakQueueDepth,
               r.maxQueuedGauge, r.rebalances});
  }
  return 0;
}
