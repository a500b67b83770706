// Overload detection and reaction — the extension sketched in the paper's
// conclusion (Sec 8: "new mechanisms need to be introduced in order to
// detect and react to overload situations in the presence of a dynamic
// workload").
//
// The monitor periodically samples the data plane's per-link packet
// counters and computes per-link rates over the sampling window. When the
// hottest switch-switch link exceeds `hotLinkThreshold` times the mean
// rate, the monitor reacts by re-rooting the spanning tree that embeds the
// most paths across that link: the rebuilt shortest-path tree is rooted at
// the coldest switch, steering its traffic onto less-utilised links (this
// exploits PLEROMA's multiple independently configurable trees, Sec 3.1).
#pragma once

#include <cstdint>
#include <vector>

#include "controller/controller.hpp"
#include "net/congestion.hpp"

namespace pleroma::ctrl {

struct LoadMonitorConfig {
  /// A link is "hot" when its rate exceeds threshold * mean rate of used
  /// switch-switch links.
  double hotLinkThreshold = 2.0;
  /// With a CongestionMonitor attached: an EWMA congestion score at or
  /// above this also flags an overload (a standing queue or losses on some
  /// link), even when packet rates alone look balanced.
  double congestionScoreThreshold = 1.0;
  /// How strongly congestion inflates Dijkstra edge weights during a
  /// rebalancing reroot: cost(l) = latency(l) * (1 + factor * score(l) /
  /// maxScore). 0 disables cost shaping (reroot moves the root only).
  double congestionFactor = 8.0;
  /// Sample windows after a successful reroot during which
  /// rebalanceOnce() declines to act again. The congestion EWMA needs a
  /// few windows to reflect the *new* routing; reacting to the stale
  /// score of the link just vacated re-roots the next tree onto the same
  /// detour and the trees ping-pong between paths. 0 = react every window.
  int rebalanceCooldown = 2;
};

struct LinkLoad {
  net::LinkId link = net::kInvalidLink;
  std::uint64_t packetsInWindow = 0;
};

struct LoadReport {
  net::SimTime windowStart = 0;
  net::SimTime windowEnd = 0;
  std::vector<LinkLoad> links;   ///< switch-switch links with traffic, hottest first
  double meanPackets = 0.0;
  bool overloaded = false;       ///< hottest link exceeded the threshold
};

class LoadMonitor {
 public:
  LoadMonitor(Controller& controller, LoadMonitorConfig config = {});

  /// Wires in the data plane's congestion monitor (DESIGN.md §15): sample()
  /// then also treats a link whose EWMA congestion score reaches
  /// congestionScoreThreshold as hot, and rebalanceOnce() reroots with
  /// congestion-inflated Dijkstra costs so the rebuilt tree routes *around*
  /// the hot links rather than merely from a different root. The monitor
  /// must outlive this LoadMonitor.
  void attachCongestion(const net::CongestionMonitor* congestion) {
    congestion_ = congestion;
  }

  /// Samples the link counters, returning the load of the window since the
  /// previous sample.
  LoadReport sample();

  /// If the last report flagged an overload, re-roots the tree with the
  /// most paths across the hottest link at the coldest reachable switch
  /// (with congestion-weighted link costs when a CongestionMonitor is
  /// attached). Returns whether a tree was re-rooted.
  bool rebalanceOnce();

  /// Periodic closed-loop mode: every `interval` of virtual time, sample()
  /// then rebalanceOnce(). Runs as a slow-lane simulator task at exact
  /// virtual instants, so the control loop is deterministic. The
  /// LoadMonitor must outlive the pending task (or be stopped and the event
  /// queue drained).
  void startPeriodic(net::SimTime interval);
  void stopPeriodic() noexcept { periodicInterval_ = 0; }
  bool periodicEnabled() const noexcept { return periodicInterval_ > 0; }

  const LoadReport& lastReport() const noexcept { return last_; }
  /// Successful reroots triggered by rebalanceOnce(), cumulative.
  std::uint64_t rebalances() const noexcept { return rebalances_; }

 private:
  /// The tree embedding the most registered paths over `link`, or -1.
  int busiestTreeOn(net::LinkId link) const;
  /// The switch whose adjacent links carried the least traffic.
  net::NodeId coldestSwitch() const;
  /// Congestion-inflated Dijkstra edge weights, or nullptr when no
  /// congestion monitor is attached / everything is calm. Writes scratch_.
  const std::vector<net::SimTime>* congestionCosts();
  void scheduleTick();

  Controller& controller_;
  LoadMonitorConfig config_;
  const net::CongestionMonitor* congestion_ = nullptr;
  std::vector<std::uint64_t> previousPackets_;
  net::SimTime previousTime_ = 0;
  LoadReport last_;
  std::vector<net::SimTime> scratch_;  ///< cost vector, reused per reroot
  std::uint64_t rebalances_ = 0;
  int cooldown_ = 0;  ///< windows left before rebalanceOnce() may act again
  net::SimTime periodicInterval_ = 0;
  bool tickArmed_ = false;
};

}  // namespace pleroma::ctrl
