// The public PLEROMA middleware API for a single controlled partition.
// Wraps topology instantiation, the SDN controller, and the data-plane
// simulation behind the publish/subscribe operations of the paper:
// advertise / publish on the producer side, subscribe / deliver on the
// consumer side, plus false-positive accounting, latency metrics, and the
// periodic dimension-selection hook (Sec 5).
//
// Multi-partition deployments use interop::MultiDomain, which exposes the
// same operations across independently controlled networks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "controller/controller.hpp"
#include "controller/failover.hpp"
#include "controller/standby.hpp"
#include "dimsel/dimension_selection.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pleroma::core {

/// Controller high-availability options (DESIGN.md §11). When enabled, the
/// instance constructs a hot-standby replica that mirrors the controller's
/// command stream plus a FailoverManager that heartbeats it; on detection
/// of a controller death the standby is promoted and reconciles the
/// switches' surviving TCAM state against the mirrored intent.
struct FailoverOptions {
  bool enableStandby = false;
  /// Arm the heartbeat at construction (otherwise call
  /// failover()->start() explicitly).
  bool autoStart = true;
  ctrl::FailoverConfig config;
};

struct PleromaOptions {
  int numAttributes = 2;
  int bitsPerDim = 10;
  ctrl::ControllerConfig controller;
  net::NetworkConfig network;
  FailoverOptions failover;
  /// Size of the sliding event window kept for dimension selection (eta).
  std::size_t dimensionWindow = 256;
  /// Apply flow-mods asynchronously (each takes flowModLatency of simulated
  /// time): subscriptions *activate* only once their flows are installed.
  bool asyncFlowInstall = false;
};

/// One delivered (event, host) pair as observed at the application layer.
struct DeliveryRecord {
  net::NodeId host = net::kInvalidNode;
  net::EventId eventId = 0;
  net::SimTime latency = 0;
  /// True when no subscription at the host actually matches the event —
  /// the event is an (expected, dz-truncation-induced) false positive.
  bool falsePositive = false;
};

struct DeliveryStats {
  std::uint64_t delivered = 0;
  std::uint64_t falsePositives = 0;
  net::SimTime latencySum = 0;

  double falsePositiveRate() const noexcept {
    return delivered == 0
               ? 0.0
               : static_cast<double>(falsePositives) / static_cast<double>(delivered);
  }
  double meanLatencyUs() const noexcept {
    return delivered == 0 ? 0.0
                          : static_cast<double>(latencySum) /
                                static_cast<double>(delivered) / 1000.0;
  }
};

class Pleroma {
 public:
  using DeliveryCallback = std::function<void(const DeliveryRecord&)>;

  Pleroma(net::Topology topology, PleromaOptions options = {});

  // ---- pub/sub operations ---------------------------------------------

  ctrl::PublisherId advertise(net::NodeId host, const dz::Rectangle& rect);
  void unadvertise(ctrl::PublisherId id);
  ctrl::SubscriptionId subscribe(net::NodeId host, const dz::Rectangle& rect);
  void unsubscribe(ctrl::SubscriptionId id);

  /// Publishes one event from `host` into the data plane. Assigns the
  /// event id automatically when `id` is 0.
  net::EventId publish(net::NodeId host, const dz::Event& event,
                       net::EventId id = 0);

  /// Runs the simulator until all in-flight packets have been delivered.
  void settle() { sim_.run(); }
  /// Runs the simulator up to the given virtual time.
  void settleUntil(net::SimTime t) { sim_.runUntil(t); }

  void setDeliveryCallback(DeliveryCallback cb) { callback_ = std::move(cb); }

  // ---- dimension selection (Sec 5) --------------------------------------

  /// Re-runs spectral dimension selection over the recent event window and
  /// re-indexes the controller when the selected set changed. Returns the
  /// selected dimensions.
  std::vector<int> runDimensionSelection(double threshold = 0.9);

  /// Explicitly re-index on the given dimensions.
  void reindex(const std::vector<int>& dims) { controller().reindex(dims); }

  /// Enables the paper's periodic adaptation: every `everyNEvents`
  /// publications the controller re-runs dimension selection over the
  /// recent window and re-indexes when the selected set changed ("a
  /// controller periodically collects information about the events
  /// disseminated ... and repeats the dimension selection process", Sec 5).
  /// Pass 0 to disable.
  void setAutoDimensionSelection(std::size_t everyNEvents, double threshold = 0.9) {
    autoDimselEvery_ = everyNEvents;
    autoDimselThreshold_ = threshold;
    publishesSinceDimsel_ = 0;
  }

  /// Number of re-index operations the automatic selection performed.
  std::size_t autoReindexCount() const noexcept { return autoReindexCount_; }

  // ---- metrics ----------------------------------------------------------

  const DeliveryStats& deliveryStats() const noexcept { return stats_; }
  void resetDeliveryStats() noexcept { stats_ = DeliveryStats{}; }
  const std::vector<net::SimTime>& latencySamples() const noexcept {
    return latencies_;
  }
  void clearLatencySamples() noexcept { latencies_.clear(); }

  // ---- observability ----------------------------------------------------

  /// The instance-wide metrics registry. Every layer (flow tables, control
  /// channel, controller, installer, core) is attached to it at
  /// construction; families start enabled.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Hop-by-hop event / controller-op tracer. Disabled by default; enable
  /// with tracer().setEnabled(true) before publishing/registering.
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// Refreshes the snapshot-style gauges (simulator event counts,
  /// virtual/wall time ratio, network drop/forward counters) and returns
  /// the full registry as JSON.
  obs::JsonValue snapshotMetrics();

  // ---- access to the layers ---------------------------------------------

  /// The controller currently in charge: the original until a failover
  /// promotion, the promoted replica after.
  ctrl::Controller& controller() noexcept {
    return failover_ ? failover_->active() : *controller_;
  }
  /// Failover layer, present only with FailoverOptions::enableStandby.
  ctrl::FailoverManager* failover() noexcept { return failover_.get(); }
  ctrl::StandbyController* standby() noexcept { return standby_.get(); }
  net::Network& network() noexcept { return *network_; }
  net::Simulator& simulator() noexcept { return sim_; }
  const net::Topology& topology() const { return network_->topology(); }

 private:
  void onDeliver(net::NodeId host, const net::Packet& packet);

  obs::MetricsRegistry metrics_;  // before network/controller: outlives them
  obs::Tracer tracer_;
  net::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<ctrl::Controller> controller_;
  /// Failover layer (optional). Declared after controller_ / network_: the
  /// standby and manager reference both.
  std::unique_ptr<ctrl::StandbyController> standby_;
  std::unique_ptr<ctrl::FailoverManager> failover_;
  std::map<ctrl::SubscriptionId, std::pair<net::NodeId, dz::Rectangle>> subs_;
  /// Per-host view of subs_, indexed by NodeId for the delivery hot path.
  /// Rectangle pointers alias subs_ map nodes (stable across insert/erase).
  struct HostSub {
    ctrl::SubscriptionId id;
    const dz::Rectangle* rect;
  };
  std::vector<std::vector<HostSub>> subsByHost_;
  DeliveryCallback callback_;
  DeliveryStats stats_;
  std::vector<net::SimTime> latencies_;
  std::deque<dz::Event> eventWindow_;
  std::size_t dimensionWindow_;
  net::EventId nextEventId_ = 1;
  std::size_t autoDimselEvery_ = 0;
  double autoDimselThreshold_ = 0.9;
  std::size_t publishesSinceDimsel_ = 0;
  std::size_t autoReindexCount_ = 0;
  std::size_t reindexes_ = 0;

  obs::Counter* obsPublishes_ = nullptr;
  obs::Counter* obsDeliveries_ = nullptr;
  obs::Counter* obsFalsePositives_ = nullptr;
  obs::Histogram* obsDeliveryLatency_ = nullptr;
};

}  // namespace pleroma::core
