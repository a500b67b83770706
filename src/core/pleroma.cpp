#include "core/pleroma.hpp"

#include <algorithm>

namespace pleroma::core {

Pleroma::Pleroma(net::Topology topology, PleromaOptions options)
    : dimensionWindow_(options.dimensionWindow) {
  network_ = std::make_unique<net::Network>(std::move(topology), sim_,
                                            options.network);
  subsByHost_.resize(
      static_cast<std::size_t>(network_->topology().nodeCount()));
  controller_ = std::make_unique<ctrl::Controller>(
      dz::EventSpace(options.numAttributes, options.bitsPerDim), *network_,
      ctrl::Scope::wholeTopology(network_->topology()), options.controller);
  if (options.asyncFlowInstall) controller_->channel().enableAsyncInstall();
  network_->setDeliverHandler(
      [this](net::NodeId host, const net::Packet& pkt) { onDeliver(host, pkt); });

  network_->attachObservability(metrics_, &tracer_);
  controller_->attachObservability(metrics_, &tracer_);
  if (options.failover.enableStandby) {
    // The standby must attach before any registration (its replay starts
    // from an empty history); constructing it here guarantees that.
    standby_ = std::make_unique<ctrl::StandbyController>(*controller_);
    failover_ = std::make_unique<ctrl::FailoverManager>(
        *controller_, *standby_, options.failover.config);
    failover_->attachMetrics(metrics_);
    failover_->setPromotionCallback([this](ctrl::Controller& promoted) {
      promoted.attachObservability(metrics_, &tracer_);
    });
    if (options.failover.autoStart) failover_->start();
  }
  obsPublishes_ = &metrics_.counter("core.publishes");
  obsDeliveries_ = &metrics_.counter("core.deliveries");
  obsFalsePositives_ = &metrics_.counter("core.false_positive_deliveries");
  obsDeliveryLatency_ = &metrics_.histogram("core.delivery_latency_ns");
}

ctrl::PublisherId Pleroma::advertise(net::NodeId host, const dz::Rectangle& rect) {
  return controller().advertise(host, rect);
}

void Pleroma::unadvertise(ctrl::PublisherId id) { controller().unadvertise(id); }

ctrl::SubscriptionId Pleroma::subscribe(net::NodeId host,
                                        const dz::Rectangle& rect) {
  const ctrl::SubscriptionId id = controller().subscribe(host, rect);
  const auto [it, inserted] = subs_.emplace(id, std::make_pair(host, rect));
  (void)inserted;
  subsByHost_[static_cast<std::size_t>(host)].push_back(
      HostSub{id, &it->second.second});
  return id;
}

void Pleroma::unsubscribe(ctrl::SubscriptionId id) {
  controller().unsubscribe(id);
  const auto it = subs_.find(id);
  if (it != subs_.end()) {
    auto& list = subsByHost_[static_cast<std::size_t>(it->second.first)];
    std::erase_if(list, [id](const HostSub& s) { return s.id == id; });
    subs_.erase(it);
  }
}

net::EventId Pleroma::publish(net::NodeId host, const dz::Event& event,
                              net::EventId id) {
  if (id == 0) id = nextEventId_++;
  obsPublishes_->inc();
  net::Packet packet = controller().makeEventPacket(host, event, id);
  if (tracer_.enabled()) {
    // Root of the event's data-plane span tree: traceId = event id.
    const obs::SpanId root = tracer_.instant(id, obs::kNoSpan, "publish",
                                             sim_.now(), host);
    tracer_.annotate(root, "dz", packet.eventDz().toString());
    packet.traceSpan = root;
  }
  network_->sendFromHost(host, std::move(packet));
  eventWindow_.push_back(event);
  while (eventWindow_.size() > dimensionWindow_) eventWindow_.pop_front();
  if (autoDimselEvery_ != 0 && ++publishesSinceDimsel_ >= autoDimselEvery_) {
    publishesSinceDimsel_ = 0;
    const std::size_t reindexesBefore = reindexes_;
    runDimensionSelection(autoDimselThreshold_);
    if (reindexes_ != reindexesBefore) ++autoReindexCount_;
  }
  return id;
}

void Pleroma::onDeliver(net::NodeId host, const net::Packet& packet) {
  DeliveryRecord rec;
  rec.host = host;
  rec.eventId = packet.eventId();
  rec.latency = sim_.now() - packet.sentAt();

  // A delivery is a false positive when no subscription registered at this
  // host actually matches the event's exact attribute values (Sec 6.4).
  bool matched = false;
  for (const HostSub& sub : subsByHost_[static_cast<std::size_t>(host)]) {
    if (sub.rect->contains(packet.event())) {
      matched = true;
      break;
    }
  }
  rec.falsePositive = !matched;

  ++stats_.delivered;
  if (rec.falsePositive) ++stats_.falsePositives;
  stats_.latencySum += rec.latency;
  latencies_.push_back(rec.latency);

  obsDeliveries_->inc();
  if (rec.falsePositive) obsFalsePositives_->inc();
  obsDeliveryLatency_->record(static_cast<double>(rec.latency));
  if (tracer_.enabled()) {
    const obs::SpanId span = tracer_.instant(packet.eventId(), packet.traceSpan,
                                             "app_deliver", sim_.now(), host);
    if (rec.falsePositive) tracer_.annotate(span, "false_positive", "true");
  }
  if (callback_) callback_(rec);
}

obs::JsonValue Pleroma::snapshotMetrics() {
  metrics_.gauge("sim.events_executed")
      .set(static_cast<double>(sim_.processedEvents()));
  metrics_.gauge("sim.virtual_time_ns").set(static_cast<double>(sim_.now()));
  metrics_.gauge("sim.wall_time_ns")
      .set(static_cast<double>(sim_.wallTimeNanos()));
  metrics_.gauge("sim.virtual_wall_ratio")
      .set(sim_.wallTimeNanos() == 0
               ? 0.0
               : static_cast<double>(sim_.now()) /
                     static_cast<double>(sim_.wallTimeNanos()));
  const net::NetworkCounters& nc = network_->counters();
  metrics_.gauge("net.packets_forwarded")
      .set(static_cast<double>(nc.packetsForwarded));
  metrics_.gauge("net.packets_punted")
      .set(static_cast<double>(nc.packetsPuntedToController));
  metrics_.gauge("net.packets_delivered")
      .set(static_cast<double>(nc.packetsDeliveredToHosts));
  // One gauge per drop reason, named from the shared taxonomy so metrics,
  // the CLI `stats` command and bench reports agree on the labels.
  for (std::size_t r = 0; r < net::kDropReasonCount; ++r) {
    const auto reason = static_cast<net::DropReason>(r);
    metrics_.gauge(std::string("net.drops_") + net::dropReasonName(reason))
        .set(static_cast<double>(nc.dropped(reason)));
  }
  metrics_.gauge("net.drops_total")
      .set(static_cast<double>(nc.totalDropped()));
  metrics_.gauge("net.miss_buffered")
      .set(static_cast<double>(nc.packetsBufferedOnMiss));
  metrics_.gauge("net.miss_replayed")
      .set(static_cast<double>(nc.packetsReplayedFromMissBuffer));
  metrics_.gauge("net.link_bytes_total")
      .set(static_cast<double>(network_->totalLinkBytes()));
  const net::Network::Stats occupancy = network_->stats();
  metrics_.gauge("net.queued_hosts")
      .set(static_cast<double>(occupancy.hostQueued));
  metrics_.gauge("net.queued_links")
      .set(static_cast<double>(occupancy.linkQueued));
  metrics_.gauge("net.bp_parked")
      .set(static_cast<double>(occupancy.backpressureParked));
  metrics_.gauge("net.bp_retries")
      .set(static_cast<double>(nc.backpressureRetries));
  metrics_.gauge("net.peak_link_queue_depth")
      .set(static_cast<double>(occupancy.peakLinkQueueDepth));
  return metrics_.toJson();
}

std::vector<int> Pleroma::runDimensionSelection(double threshold) {
  std::vector<dz::Rectangle> rects;
  rects.reserve(subs_.size());
  for (const auto& [id, hostRect] : subs_) rects.push_back(hostRect.second);
  const std::vector<dz::Event> window(eventWindow_.begin(), eventWindow_.end());
  std::vector<int> dims = dimsel::selectDimensions(
      window, rects, controller().space().numAttributes(), threshold);
  if (dims.empty()) return dims;
  std::vector<int> sorted = dims;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> current = controller().space().indexedDimensions();
  std::sort(current.begin(), current.end());
  if (sorted != current) {
    controller().reindex(dims);
    ++reindexes_;
  }
  return dims;
}

}  // namespace pleroma::core
