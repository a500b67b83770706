// Data-plane congestion monitor (DESIGN.md §15). Periodically samples every
// link's occupancy and loss into an EWMA congestion score — the traffic
// matrix the control plane's LoadMonitor consumes to steer spanning trees
// away from hot links (the MPINET-style hottest-pair / periodic-timestep
// loop, PAPERS.md "SDN-like: The Next Generation of Pub/Sub").
//
// Determinism: samples run as slow-lane simulator tasks at exact virtual
// instants and read only counter totals, so the score series is a pure
// function of the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace pleroma::net {

struct CongestionConfig {
  /// Virtual time between samples in periodic mode.
  SimTime sampleInterval = kMillisecond;
  /// EWMA weight of the newest window (0 < alpha <= 1).
  double ewmaAlpha = 0.3;
  /// Score contribution per packet sitting in the link's queues at the
  /// sample instant.
  double queueWeight = 1.0;
  /// Score contribution per packet lost to the link's full queue (or
  /// parked on backpressure) during the window — losses signal harder
  /// overload than standing occupancy.
  double dropWeight = 10.0;
};

/// Per-link EWMA congestion scores over queue depth, queue-loss rate and
/// backpressure parking. score() == 0 for an uncongested link; anything
/// above ~queueWeight means a standing queue.
class CongestionMonitor {
 public:
  explicit CongestionMonitor(Network& network, CongestionConfig config = {});

  /// Takes one sample window ending now. Returns the hottest link's score.
  double sampleOnce();

  /// Starts periodic self-rescheduling sampling on the network's
  /// simulator. The monitor must outlive the simulator's event queue (or
  /// be stopped and the queue drained) — the scheduled task holds a plain
  /// pointer to it.
  void startPeriodic();
  void stop() noexcept { running_ = false; }
  bool running() const noexcept { return running_; }

  double score(LinkId link) const {
    return ewma_[static_cast<std::size_t>(link)];
  }
  const std::vector<double>& scores() const noexcept { return ewma_; }
  /// The highest current score across all links (0 when calm).
  double maxScore() const;
  std::uint64_t samplesTaken() const noexcept { return samples_; }

  const CongestionConfig& config() const noexcept { return config_; }

 private:
  void tick();

  Network& network_;
  CongestionConfig config_;
  std::vector<double> ewma_;                    // indexed by LinkId
  std::vector<std::uint64_t> prevQueueDrops_;   // cumulative, per link
  std::uint64_t prevParked_ = 0;                // cumulative parks
  bool running_ = false;
  bool tickArmed_ = false;
  std::uint64_t samples_ = 0;
};

}  // namespace pleroma::net
