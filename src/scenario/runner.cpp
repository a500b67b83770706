#include "scenario/runner.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "controller/load_monitor.hpp"
#include "core/pleroma.hpp"
#include "interop/multi_domain.hpp"
#include "net/congestion.hpp"

namespace pleroma::scenario {

namespace {

/// Cumulative counters sampled at phase boundaries; phase values are
/// deltas between snapshots.
struct Snapshot {
  std::uint64_t delivered = 0;
  std::uint64_t falsePositives = 0;
  net::SimTime latencySum = 0;
  std::uint64_t flowMods = 0;
  std::uint64_t flowEntries = 0;  ///< current total, not cumulative
  std::uint64_t controlMessages = 0;
};

/// Clamped delta: a controller promotion swaps in a fresh control channel
/// whose counters restart from zero, so `cur` may be below `prev`.
std::uint64_t delta(std::uint64_t cur, std::uint64_t prev) {
  return cur >= prev ? cur - prev : cur;
}

/// The deployment surface shared by the single-partition (core::Pleroma)
/// and multi-partition (interop::MultiDomain) execution paths. Host slots
/// are indices into Topology::hosts(); subscription handles are backend
/// tokens the phase loop threads through churn moves.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::size_t hostCount() const = 0;
  virtual void advertise(std::size_t slot, const dz::Rectangle& rect) = 0;
  virtual std::uint64_t subscribe(std::size_t slot, const dz::Rectangle& rect) = 0;
  virtual void unsubscribe(std::uint64_t handle) = 0;
  virtual void publish(std::size_t slot, const dz::Event& event) = 0;
  virtual void settle() = 0;
  virtual void settleUntil(net::SimTime t) = 0;
  virtual net::SimTime now() const = 0;
  virtual Snapshot snapshot() = 0;
  virtual void applyFault(const FaultSpec& fault) = 0;
  virtual bool promoted() const = 0;
  virtual CongestionResult congestion() = 0;
};

class SingleBackend final : public Backend {
 public:
  explicit SingleBackend(const Scenario& s) {
    core::PleromaOptions opts;
    opts.numAttributes = s.numAttributes;
    opts.bitsPerDim = s.bitsPerDim;
    if (s.maxDzLength.has_value()) opts.controller.maxDzLength = *s.maxDzLength;
    if (s.maxCellsPerRequest.has_value()) {
      opts.controller.maxCellsPerRequest = *s.maxCellsPerRequest;
    }
    if (s.aggregateSubscriptions.has_value()) {
      opts.controller.aggregateSubscriptions = *s.aggregateSubscriptions;
    }
    if (s.tcamBudget.has_value()) opts.controller.tcamBudget = *s.tcamBudget;
    opts.network.linkQueueCapacity = s.network.linkQueueCapacity;
    opts.network.backpressure = s.network.backpressure;
    if (s.needsFailover()) {
      // The heartbeat is armed at the kill instant, not at start-up: a
      // live self-rearming tick would keep settle() from ever draining
      // (see ctrl::FailoverManager::start).
      opts.failover.enableStandby = true;
      opts.failover.autoStart = false;
      opts.failover.config.heartbeatInterval = s.failover.heartbeatInterval;
      opts.failover.config.missThreshold = s.failover.missThreshold;
    }
    pleroma_ = std::make_unique<core::Pleroma>(s.buildTopology(), opts);
    hosts_ = pleroma_->topology().hosts();
    switches_ = pleroma_->topology().switches();
    if (s.rebalance.enabled) {
      // Closed loop (DESIGN.md §15): the congestion monitor samples the
      // data plane every interval and the load monitor reacts with
      // congestion-weighted reroots. Both are slow-lane ticks scheduled at
      // the same instants; the congestion sample is armed first, so it
      // runs before the reaction that consumes it.
      rebalanceInterval_ = s.rebalance.interval;
      net::CongestionConfig cc;
      cc.sampleInterval = s.rebalance.interval;
      congestion_ =
          std::make_unique<net::CongestionMonitor>(pleroma_->network(), cc);
      ctrl::LoadMonitorConfig lc;
      lc.hotLinkThreshold = s.rebalance.hotThreshold;
      lc.congestionFactor = s.rebalance.congestionFactor;
      loadMonitor_ =
          std::make_unique<ctrl::LoadMonitor>(pleroma_->controller(), lc);
      loadMonitor_->attachCongestion(congestion_.get());
      congestion_->startPeriodic();
      loadMonitor_->startPeriodic(rebalanceInterval_);
    }
  }

  std::size_t hostCount() const override { return hosts_.size(); }

  void advertise(std::size_t slot, const dz::Rectangle& rect) override {
    pleroma_->advertise(hosts_[slot], rect);
  }

  std::uint64_t subscribe(std::size_t slot, const dz::Rectangle& rect) override {
    return static_cast<std::uint64_t>(pleroma_->subscribe(hosts_[slot], rect));
  }

  void unsubscribe(std::uint64_t handle) override {
    pleroma_->unsubscribe(static_cast<ctrl::SubscriptionId>(handle));
  }

  void publish(std::size_t slot, const dz::Event& event) override {
    pleroma_->publish(hosts_[slot], event);
  }

  void settle() override {
    // A live self-rearming monitor tick would keep sim.run() from ever
    // draining (same constraint as the failover heartbeat above): pause
    // the loop, drain — the already-armed ticks fire once as no-ops at
    // their deterministic instants — then re-arm relative to the settled
    // clock.
    if (loadMonitor_ != nullptr) {
      loadMonitor_->stopPeriodic();
      congestion_->stop();
    }
    pleroma_->settle();
    if (loadMonitor_ != nullptr) {
      congestion_->startPeriodic();
      loadMonitor_->startPeriodic(rebalanceInterval_);
    }
  }
  void settleUntil(net::SimTime t) override { pleroma_->settleUntil(t); }
  net::SimTime now() const override { return pleroma_->simulator().now(); }

  Snapshot snapshot() override {
    Snapshot s;
    const core::DeliveryStats& d = pleroma_->deliveryStats();
    s.delivered = d.delivered;
    s.falsePositives = d.falsePositives;
    s.latencySum = d.latencySum;
    s.flowMods = pleroma_->controller().controlStats().flowModsSent;
    for (const net::NodeId sw : switches_) {
      s.flowEntries += pleroma_->network().flowTable(sw).size();
    }
    return s;
  }

  void applyFault(const FaultSpec& fault) override {
    switch (fault.action) {
      case FaultAction::kLinkDown:
        pleroma_->network().setLinkUp(fault.target, false);
        pleroma_->controller().onLinkDown(fault.target);
        break;
      case FaultAction::kLinkUp:
        pleroma_->network().setLinkUp(fault.target, true);
        pleroma_->controller().onLinkUp(fault.target);
        break;
      case FaultAction::kSwitchDown: {
        const net::NodeId sw = switches_[static_cast<std::size_t>(fault.target)];
        pleroma_->network().setNodeUp(sw, false);
        pleroma_->controller().onSwitchDown(sw);
        break;
      }
      case FaultAction::kSwitchUp: {
        const net::NodeId sw = switches_[static_cast<std::size_t>(fault.target)];
        pleroma_->network().setNodeUp(sw, true);
        pleroma_->controller().onSwitchUp(sw);
        break;
      }
      case FaultAction::kControllerKill:
        if (ctrl::FailoverManager* fo = pleroma_->failover()) {
          if (!fo->running()) fo->start();
          fo->killPrimary();
        }
        break;
    }
  }

  bool promoted() const override {
    ctrl::FailoverManager* fo = pleroma_->failover();
    return fo != nullptr && fo->promoted();
  }

  CongestionResult congestion() override {
    CongestionResult c;
    const net::NetworkCounters& nc = pleroma_->network().counters();
    c.queueDrops = nc.dropped(net::DropReason::kLinkQueue);
    c.bpDrops = nc.dropped(net::DropReason::kBackpressure);
    c.bpParks = nc.packetsParkedOnBackpressure;
    c.bpRetries = nc.backpressureRetries;
    c.peakLinkQueueDepth = pleroma_->network().stats().peakLinkQueueDepth;
    if (loadMonitor_ != nullptr) c.rebalances = loadMonitor_->rebalances();
    return c;
  }

 private:
  std::unique_ptr<core::Pleroma> pleroma_;
  std::vector<net::NodeId> hosts_;
  std::vector<net::NodeId> switches_;
  // Declared after pleroma_: destroyed first, while the simulator whose
  // tasks point at them still exists.
  std::unique_ptr<net::CongestionMonitor> congestion_;
  std::unique_ptr<ctrl::LoadMonitor> loadMonitor_;
  net::SimTime rebalanceInterval_ = 0;
};

class MultiBackend final : public Backend {
 public:
  explicit MultiBackend(const Scenario& s) {
    net::Topology topo = s.buildTopology();
    hosts_ = topo.hosts();
    switches_ = topo.switches();
    // Contiguous partition assignment over the switch list (the fig7g
    // idiom): switch i of n belongs to partition i*k/n.
    std::vector<interop::PartitionId> partitionOf(
        static_cast<std::size_t>(topo.nodeCount()), 0);
    const std::size_t n = switches_.size();
    for (std::size_t i = 0; i < n; ++i) {
      partitionOf[static_cast<std::size_t>(switches_[i])] =
          static_cast<interop::PartitionId>(
              i * static_cast<std::size_t>(s.partitions) / n);
    }
    ctrl::ControllerConfig cfg;
    if (s.maxDzLength.has_value()) cfg.maxDzLength = *s.maxDzLength;
    if (s.maxCellsPerRequest.has_value()) {
      cfg.maxCellsPerRequest = *s.maxCellsPerRequest;
    }
    if (s.aggregateSubscriptions.has_value()) {
      cfg.aggregateSubscriptions = *s.aggregateSubscriptions;
    }
    if (s.tcamBudget.has_value()) cfg.tcamBudget = *s.tcamBudget;
    partitions_ = s.partitions;
    domain_ = std::make_unique<interop::MultiDomain>(
        std::move(topo), std::move(partitionOf),
        dz::EventSpace(s.numAttributes, s.bitsPerDim), cfg);
    subsByHost_.resize(hosts_.size());
    hostIndexOf_.assign(
        static_cast<std::size_t>(domain_->network().topology().nodeCount()),
        static_cast<std::size_t>(-1));
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      hostIndexOf_[static_cast<std::size_t>(hosts_[h])] = h;
    }
    domain_->network().setDeliverHandler(
        [this](net::NodeId host, const net::Packet& packet) {
          onDeliver(host, packet);
        });
  }

  std::size_t hostCount() const override { return hosts_.size(); }

  void advertise(std::size_t slot, const dz::Rectangle& rect) override {
    domain_->advertise(hosts_[slot], rect);
  }

  std::uint64_t subscribe(std::size_t slot, const dz::Rectangle& rect) override {
    const std::uint64_t handle = static_cast<std::uint64_t>(handles_.size());
    handles_.push_back({domain_->subscribe(hosts_[slot], rect), slot});
    subsByHost_[slot].push_back({handle, rect});
    return handle;
  }

  void unsubscribe(std::uint64_t handle) override {
    HandleEntry& e = handles_[static_cast<std::size_t>(handle)];
    domain_->unsubscribe(e.id);
    auto& subs = subsByHost_[e.slot];
    subs.erase(std::remove_if(subs.begin(), subs.end(),
                              [&](const HostSub& hs) { return hs.handle == handle; }),
               subs.end());
  }

  void publish(std::size_t slot, const dz::Event& event) override {
    domain_->publish(hosts_[slot], event);
  }

  void settle() override { domain_->settle(); }
  void settleUntil(net::SimTime t) override { domain_->simulator().runUntil(t); }
  net::SimTime now() const override {
    return const_cast<interop::MultiDomain&>(*domain_).simulator().now();
  }

  Snapshot snapshot() override {
    Snapshot s;
    s.delivered = delivered_;
    s.falsePositives = falsePositives_;
    s.latencySum = latencySum_;
    for (interop::PartitionId p = 0; p < partitions_; ++p) {
      s.flowMods += domain_->controller(p).controlStats().flowModsSent;
    }
    for (const net::NodeId sw : switches_) {
      s.flowEntries += domain_->network().flowTable(sw).size();
    }
    s.controlMessages = domain_->totalControlMessages();
    return s;
  }

  void applyFault(const FaultSpec&) override {
    // validate() rejects fault schedules on multi-partition scenarios.
    assert(false && "faults are single-partition only");
  }

  bool promoted() const override { return false; }

  CongestionResult congestion() override {
    CongestionResult c;
    const net::NetworkCounters& nc = domain_->network().counters();
    c.queueDrops = nc.dropped(net::DropReason::kLinkQueue);
    c.bpDrops = nc.dropped(net::DropReason::kBackpressure);
    c.bpParks = nc.packetsParkedOnBackpressure;
    c.bpRetries = nc.backpressureRetries;
    c.peakLinkQueueDepth = domain_->network().stats().peakLinkQueueDepth;
    return c;
  }

 private:
  struct HandleEntry {
    interop::GlobalSubscriptionId id;
    std::size_t slot = 0;
  };
  struct HostSub {
    std::uint64_t handle = 0;
    dz::Rectangle rect;
  };

  void onDeliver(net::NodeId host, const net::Packet& packet) {
    if (!packet.payload) return;
    ++delivered_;
    latencySum_ += now() - packet.sentAt();
    const std::size_t slot = hostIndexOf_[static_cast<std::size_t>(host)];
    const auto& subs = subsByHost_[slot];
    const bool match =
        std::any_of(subs.begin(), subs.end(), [&](const HostSub& hs) {
          return hs.rect.contains(packet.event());
        });
    if (!match) ++falsePositives_;
  }

  std::unique_ptr<interop::MultiDomain> domain_;
  std::vector<net::NodeId> hosts_;
  std::vector<net::NodeId> switches_;
  std::vector<std::size_t> hostIndexOf_;  ///< NodeId -> host slot
  std::vector<HandleEntry> handles_;
  std::vector<std::vector<HostSub>> subsByHost_;  ///< by host slot
  interop::PartitionId partitions_ = 1;
  std::uint64_t delivered_ = 0;
  std::uint64_t falsePositives_ = 0;
  net::SimTime latencySum_ = 0;
};

}  // namespace

ScenarioRunner::ScenarioRunner(Scenario scenario, RunOptions options)
    : scenario_(std::move(scenario)), options_(std::move(options)) {}

RunResult ScenarioRunner::run() {
  const Scenario& s = scenario_;
  assert(!s.phases.empty());

  std::unique_ptr<Backend> backend;
  if (s.partitions > 1) {
    backend = std::make_unique<MultiBackend>(s);
  } else {
    backend = std::make_unique<SingleBackend>(s);
  }
  const std::size_t hostCount = backend->hostCount();

  auto say = [&](const std::string& line) {
    if (options_.log) options_.log(line);
  };

  // The fault schedule, in application order. Faults fire at their exact
  // virtual instant: the timeline below advances the clock with
  // settleUntil(fault.at) before applying each one.
  std::vector<FaultSpec> pending = s.faults;
  std::stable_sort(pending.begin(), pending.end(),
                   [](const FaultSpec& a, const FaultSpec& b) { return a.at < b.at; });
  std::size_t nextFault = 0;

  RunResult result;
  auto applyFaultsUpTo = [&](net::SimTime t) {
    while (nextFault < pending.size() && pending[nextFault].at <= t) {
      const FaultSpec& f = pending[nextFault];
      if (f.at > backend->now()) backend->settleUntil(f.at);
      backend->applyFault(f);
      result.faults.push_back({f, backend->now()});
      say("fault @" + std::to_string(f.at / net::kMillisecond) + "ms: " +
          toString(f.action));
      ++nextFault;
    }
  };

  // Live subscriptions across phases; churn moves index this ledger.
  struct LiveSub {
    std::size_t slot;
    dz::Rectangle rect;
    std::uint64_t handle;
  };
  std::vector<LiveSub> ledger;
  // Advertiser host slots, accumulated; events round-robin over them.
  std::vector<std::size_t> advSlots;

  Snapshot prev = backend->snapshot();
  for (std::size_t p = 0; p < s.phases.size(); ++p) {
    const PhaseSpec& spec = s.phases[p];
    const PhasePlan plan =
        buildPhasePlan(s, p, hostCount, ledger.size(), options_.smoke);
    say("phase " + std::to_string(p) + " (" + spec.name + ", " +
        toString(spec.family) + "): " +
        std::to_string(plan.advertisements.size()) + " adv, " +
        std::to_string(plan.subscriptions.size()) + " sub, " +
        std::to_string(plan.churnMoves.size()) + " moves, " +
        std::to_string(plan.events.size()) + " events");

    std::vector<std::size_t> phaseAdvSlots;
    for (const auto& [slot, rect] : plan.advertisements) {
      backend->advertise(slot, rect);
      advSlots.push_back(slot);
      phaseAdvSlots.push_back(slot);
    }
    // Events come from this phase's own advertisers when it declares any
    // (their rectangles follow the phase's family — a flash-crowd burst is
    // published from crowd publishers); phases without advertisements fall
    // back to every advertiser deployed so far.
    const std::vector<std::size_t>& publishers =
        phaseAdvSlots.empty() ? advSlots : phaseAdvSlots;
    for (const auto& [slot, rect] : plan.subscriptions) {
      const std::uint64_t handle = backend->subscribe(slot, rect);
      ledger.push_back({slot, rect, handle});
    }
    backend->settle();

    for (const workload::ChurnStep& step : plan.churnMoves) {
      LiveSub& sub = ledger[step.subIndex];
      const std::size_t newSlot = (sub.slot + step.hostOffset) % hostCount;
      backend->unsubscribe(sub.handle);
      sub.handle = backend->subscribe(newSlot, sub.rect);
      sub.slot = newSlot;
      backend->settle();
    }

    net::SimTime cursor = backend->now();
    for (const dz::Event& event : plan.events) {
      cursor += plan.eventInterval;
      applyFaultsUpTo(cursor);
      backend->settleUntil(cursor);
      backend->publish(publishers[result.published % publishers.size()], event);
      ++result.published;
    }
    backend->settle();

    const Snapshot cur = backend->snapshot();
    PhaseResult pr;
    pr.name = spec.name;
    pr.family = spec.family;
    pr.advertisements = plan.advertisements.size();
    pr.subscriptions = plan.subscriptions.size();
    pr.churnMoves = plan.churnMoves.size();
    pr.events = plan.events.size();
    pr.delivered = delta(cur.delivered, prev.delivered);
    pr.falsePositives = delta(cur.falsePositives, prev.falsePositives);
    const net::SimTime latency =
        cur.latencySum >= prev.latencySum ? cur.latencySum - prev.latencySum
                                          : cur.latencySum;
    pr.meanLatencyUs = pr.delivered == 0
                           ? 0.0
                           : static_cast<double>(latency) /
                                 static_cast<double>(pr.delivered) / 1000.0;
    pr.flowMods = delta(cur.flowMods, prev.flowMods);
    pr.flowEntries = cur.flowEntries;
    pr.end = backend->now();
    result.flowMods += pr.flowMods;
    result.phases.push_back(std::move(pr));
    prev = cur;
  }

  // Faults scheduled past the last phase still fire, at their instant.
  applyFaultsUpTo(pending.empty() ? 0
                                  : pending.back().at);
  backend->settle();

  const Snapshot total = backend->snapshot();
  result.delivered = total.delivered;
  result.falsePositives = total.falsePositives;
  result.meanLatencyUs = total.delivered == 0
                             ? 0.0
                             : static_cast<double>(total.latencySum) /
                                   static_cast<double>(total.delivered) / 1000.0;
  // flowMods accumulates clamped per-phase deltas (a promotion swaps in a
  // fresh channel); the tail delta covers post-phase fault repair.
  result.flowMods += delta(total.flowMods, prev.flowMods);
  result.controlMessages = total.controlMessages;
  result.promoted = backend->promoted();
  result.congestion = backend->congestion();
  result.end = backend->now();
  return result;
}

void ScenarioRunner::report(obs::BenchReporter& out,
                            const RunResult& result) const {
  const Scenario& s = scenario_;
  out.meta("seed", s.seed);
  out.meta("topology", s.topologyLabel());
  out.meta("workload", s.workloadLabel());
  out.meta("scenario", s.name);
  out.meta("scenario_schema", kScenarioSchema);
  out.meta("partitions", s.partitions);
  out.meta("smoke", options_.smoke);

  auto ms = [](net::SimTime t) {
    return static_cast<double>(t) / static_cast<double>(net::kMillisecond);
  };

  out.beginSeries("phases", {{"phase", ""},
                             {"name", ""},
                             {"family", ""},
                             {"advertisements", ""},
                             {"subscriptions", ""},
                             {"churn_moves", ""},
                             {"events", ""},
                             {"delivered", ""},
                             {"false_positives", ""},
                             {"mean_latency_us", "us"},
                             {"flow_mods", ""},
                             {"flow_entries", ""},
                             {"end_ms", "ms"}});
  for (std::size_t p = 0; p < result.phases.size(); ++p) {
    const PhaseResult& pr = result.phases[p];
    out.row({static_cast<unsigned long long>(p), pr.name, toString(pr.family),
             static_cast<unsigned long long>(pr.advertisements),
             static_cast<unsigned long long>(pr.subscriptions),
             static_cast<unsigned long long>(pr.churnMoves),
             static_cast<unsigned long long>(pr.events), pr.delivered,
             pr.falsePositives, pr.meanLatencyUs, pr.flowMods, pr.flowEntries,
             ms(pr.end)});
  }

  if (!result.faults.empty()) {
    out.beginSeries("faults", {{"at_ms", "ms"},
                               {"applied_ms", "ms"},
                               {"action", ""},
                               {"target", ""}});
    for (const AppliedFault& f : result.faults) {
      out.row({ms(f.spec.at), ms(f.appliedAt), toString(f.spec.action),
               f.spec.target});
    }
  }

  // Emitted only for congestion-enabled scenarios so legacy reports stay
  // byte-identical.
  if (s.network.linkQueueCapacity > 0 || s.rebalance.enabled) {
    out.beginSeries("congestion", {{"queue_drops", ""},
                                   {"bp_drops", ""},
                                   {"bp_parks", ""},
                                   {"bp_retries", ""},
                                   {"peak_link_queue_depth", ""},
                                   {"rebalances", ""}});
    const CongestionResult& c = result.congestion;
    out.row({c.queueDrops, c.bpDrops, c.bpParks, c.bpRetries,
             c.peakLinkQueueDepth, c.rebalances});
  }

  out.beginSeries("totals", {{"published", ""},
                             {"delivered", ""},
                             {"false_positives", ""},
                             {"mean_latency_us", "us"},
                             {"flow_mods", ""},
                             {"control_messages", ""},
                             {"promoted", ""},
                             {"end_ms", "ms"}});
  out.row({result.published, result.delivered, result.falsePositives,
           result.meanLatencyUs, result.flowMods, result.controlMessages,
           result.promoted, ms(result.end)});
}

}  // namespace pleroma::scenario
