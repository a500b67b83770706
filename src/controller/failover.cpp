#include "controller/failover.hpp"

#include <vector>

namespace pleroma::ctrl {

FailoverManager::FailoverManager(Controller& primary,
                                 StandbyController& standby,
                                 FailoverConfig config)
    : primary_(primary),
      standby_(standby),
      config_(config),
      hbChannel_(primary.network()) {
  openflow::ControlFaultModel faults;
  faults.dropProbability = config_.heartbeatDropProbability;
  hbChannel_.setFaultModel(faults);
  hbChannel_.reseedFaults(config_.heartbeatSeed);
}

void FailoverManager::start() {
  if (running_) return;
  running_ = true;
  armTick();
}

void FailoverManager::stop() { running_ = false; }

void FailoverManager::killPrimary() {
  if (!primaryAlive_) return;
  primaryAlive_ = false;
  net::Network& network = primary_.network();
  stats_.primaryDiedAt = network.simulator().now();
  // Switches notice the dead control session through their own echo
  // timeout; modelled as immediate, they enter fail-soft: keep forwarding
  // on the installed TCAM entries, park misses for post-repair replay.
  if (config_.failSoft) network.setFailSoft(true);
  const net::NetworkCounters& c = network.counters();
  bufferedAtKill_ = c.packetsBufferedOnMiss;
  droppedAtKill_ = c.dropped(net::DropReason::kMissBuffer);
  replayedAtKill_ = c.packetsReplayedFromMissBuffer;
}

void FailoverManager::armTick() {
  primary_.network().simulator().schedule(config_.heartbeatInterval,
                                          [this] { onTick(); });
}

void FailoverManager::onTick() {
  // A stopped manager or a completed promotion ends the schedule — the
  // tick must not re-arm, or nested convergence loops would never drain.
  if (!running_ || promotedCtrl_ != nullptr) return;
  ++stats_.heartbeatsSent;
  if (obsHeartbeats_ != nullptr) obsHeartbeats_->inc();
  if (hbChannel_.sendEcho(primaryAlive_)) {
    consecutiveMisses_ = 0;
    armTick();
    return;
  }
  ++stats_.heartbeatsMissed;
  if (obsMisses_ != nullptr) obsMisses_->inc();
  if (++consecutiveMisses_ < config_.missThreshold) {
    armTick();
    return;
  }
  stats_.detectedAt = primary_.network().simulator().now();
  if (primaryAlive_) {
    // The channel ate missThreshold echoes in a row from a live primary.
    ++stats_.spuriousDetections;
    if (obsSpurious_ != nullptr) obsSpurious_->inc();
  }
  promote();
}

void FailoverManager::forcePromotion() {
  if (promotedCtrl_ != nullptr) return;
  stats_.detectedAt = primary_.network().simulator().now();
  if (primaryAlive_) {
    ++stats_.spuriousDetections;
    if (obsSpurious_ != nullptr) obsSpurious_->inc();
  }
  promote();
}

void FailoverManager::promote() {
  ++stats_.promotions;
  if (obsPromotions_ != nullptr) obsPromotions_->inc();

  // 1. Muted-replay rebuild of the primary's intent (standby.hpp).
  promotedCtrl_ = standby_.promote();
  openflow::ControlChannel& channel = promotedCtrl_->channel();

  // The replica inherits the deployment's channel profile — mode, batching,
  // fault model, retry policy — but a fixed fault seed: the dead primary's
  // Rng position is unknowable, and a deterministic reseed keeps the repair
  // byte-identical across runs and bench configurations.
  const openflow::ControlChannel& old = primary_.channel();
  if (old.asyncInstall()) channel.enableAsyncInstall();
  channel.enableBatching(old.batchingEnabled());
  channel.setFaultModel(old.faultModel());
  channel.setRetryPolicy(old.retryPolicy());
  channel.reseedFaults(config_.promotedChannelSeed);

  // 2. Claim mastership and snapshot every reachable TCAM in one batched
  // stats sweep.
  std::vector<net::NodeId> reachable;
  for (const net::NodeId sw : promotedCtrl_->scope().switches) {
    if (!promotedCtrl_->switchActive(sw) || !channel.switchConnected(sw)) {
      continue;
    }
    channel.sendRoleRequest(sw, openflow::ControllerRole::kMaster);
    reachable.push_back(sw);
  }
  for (const openflow::FlowStatsReply& reply :
       channel.requestFlowStatsBatch(reachable)) {
    if (!reply.ok) continue;
    ++stats_.switchesAudited;
    stats_.entriesSurviving += reply.entries.size();
  }

  // 3. Anti-entropy repair: only the delta between mirrored intent and the
  // audited tables moves — surviving entries are never reinstalled.
  Reconciler reconciler(*promotedCtrl_);
  stats_.repairRounds = reconciler.runToConvergence(config_.repairRoundLimit);
  stats_.repairFlowMods = reconciler.totalRepairMods();
  if (obsRepairMods_ != nullptr) {
    obsRepairMods_->inc(stats_.repairFlowMods);
  }

  net::Network& network = promotedCtrl_->network();
  stats_.repairedAt = network.simulator().now();

  // 4. Leave fail-soft *before* replaying the parked misses: anything still
  // unmatched after the repair is a genuine no-route drop, not re-parked.
  if (config_.failSoft) {
    network.setFailSoft(false);
    network.releaseMissBuffers();
    network.simulator().run();  // drain the replayed packets' deliveries
  }
  const net::NetworkCounters& c = network.counters();
  stats_.eventsBuffered = c.packetsBufferedOnMiss - bufferedAtKill_;
  stats_.eventsDroppedBufferFull = c.dropped(net::DropReason::kMissBuffer) - droppedAtKill_;
  stats_.eventsReplayed = c.packetsReplayedFromMissBuffer - replayedAtKill_;
  if (obsReplayed_ != nullptr) obsReplayed_->inc(stats_.eventsReplayed);
  if (obsDetectionLatency_ != nullptr) {
    obsDetectionLatency_->set(static_cast<double>(stats_.detectionLatency()));
    obsFailoverWindow_->set(static_cast<double>(stats_.failoverWindow()));
  }

  if (onPromoted_) onPromoted_(*promotedCtrl_);
}

void FailoverManager::attachMetrics(obs::MetricsRegistry& reg) {
  obsPromotions_ = &reg.counter("failover.promotions");
  obsSpurious_ = &reg.counter("failover.spurious_detections");
  obsHeartbeats_ = &reg.counter("failover.heartbeats_sent");
  obsMisses_ = &reg.counter("failover.heartbeats_missed");
  obsRepairMods_ = &reg.counter("failover.repair_mods");
  obsReplayed_ = &reg.counter("failover.events_replayed");
  obsDetectionLatency_ = &reg.gauge("failover.detection_latency");
  obsFailoverWindow_ = &reg.gauge("failover.window");
}

}  // namespace pleroma::ctrl
