// The PLEROMA controller of one network partition (Sec 2-3, Algorithm 1).
// It reacts to (un)advertisements and (un)subscriptions by maintaining the
// set of disjoint-DZ spanning trees, embedding per-(publisher, subscriber)
// routes in them, and keeping the switches' TCAM flow tables consistent.
// Requests are processed strictly sequentially (Sec 2), so no internal
// synchronisation is needed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "controller/flow_installer.hpp"
#include "controller/intent_log.hpp"
#include "controller/path_registry.hpp"
#include "dz/aggregation_index.hpp"
#include "dz/dz_trie.hpp"
#include "controller/tree.hpp"
#include "controller/types.hpp"
#include "dz/event_space.hpp"
#include "net/network.hpp"
#include "openflow/control_channel.hpp"

namespace pleroma::ctrl {

struct ControllerConfig {
  /// L_dz: longest dz installable in flows / stamped on events. Bounded by
  /// the IP-multicast embedding (Sec 5, Sec 6.4).
  int maxDzLength = 24;
  /// Decomposition budget: max dz per advertisement/subscription request.
  std::size_t maxCellsPerRequest = 8;
  /// Tree-merge threshold: merging starts once |T| exceeds this (Sec 3.2).
  std::size_t maxTrees = 64;
  /// During merges, opportunistically shorten the merged DZ members as long
  /// as disjointness from other trees holds (the paper's coarsening).
  bool coarsenOnMerge = true;
  /// Modelled switch-side latency of one flow-mod (reconfiguration delay).
  net::SimTime flowModLatency = net::kMillisecond;
  /// Aggregate same-endpoint subscriptions through a dz::AggregationIndex
  /// before flow install: a subscription covered by its endpoint's
  /// aggregate installs nothing, sibling interests merge into one coarser
  /// flow, and unsubscription uncovers incrementally. Installed flow state
  /// then grows with the number of *distinct interest regions* instead of
  /// the number of subscriptions (sublinear under skew).
  bool aggregateSubscriptions = false;
  /// Per-switch TCAM entry budget handed to the FlowInstaller (0 =
  /// unlimited): exceeding installs coarsen the switch's flows (supersets,
  /// never misses) instead of failing. Part of the replicated config, so a
  /// promoted standby reproduces the same coarsening decisions.
  std::size_t tcamBudget = 0;
};

/// The slice of the physical topology one controller manages: its switches
/// and the switch-switch links internal to the partition (from LLDP
/// discovery, Sec 4.1). Host access links are implicit.
struct Scope {
  std::vector<net::NodeId> switches;
  std::vector<net::LinkId> internalLinks;

  /// Single-partition deployment: every switch and switch-switch link.
  static Scope wholeTopology(const net::Topology& topology);
};

class Controller {
 public:
  Controller(dz::EventSpace space, net::Network& network, Scope scope,
             ControllerConfig config = {});

  // ---- publish/subscribe registration --------------------------------

  /// Advertisement from a real host, given the exact rectangle semantics;
  /// the controller decomposes it into DZ(p) (Sec 2).
  PublisherId advertise(net::NodeId host, const dz::Rectangle& rect);

  /// Advertisement at an arbitrary endpoint (virtual hosts of Sec 4.2) with
  /// a pre-decomposed DZ.
  PublisherId advertiseEndpoint(const Endpoint& endpoint, const dz::DzSet& dzSet,
                                std::optional<dz::Rectangle> rect = std::nullopt);

  void unadvertise(PublisherId id);

  SubscriptionId subscribe(net::NodeId host, const dz::Rectangle& rect);
  SubscriptionId subscribeEndpoint(const Endpoint& endpoint, const dz::DzSet& dzSet,
                                   std::optional<dz::Rectangle> rect = std::nullopt);
  void unsubscribe(SubscriptionId id);

  // ---- event stamping -------------------------------------------------

  /// The dz a publisher stamps on an event: maximal length under the
  /// current indexing, truncated at L_dz (Sec 2, Sec 6.4).
  dz::DzExpression stampEvent(const dz::Event& event) const;

  /// A ready-to-send publication packet from `publisherHost`.
  net::Packet makeEventPacket(net::NodeId publisherHost, const dz::Event& event,
                              net::EventId eventId = 0) const;

  /// The endpoint describing a real host's attachment.
  Endpoint endpointForHost(net::NodeId host) const;

  // ---- load adaptation (Sec 8 future work) ------------------------------

  /// Rebuilds tree `treeId` as a shortest-path tree rooted at `newRoot`
  /// (must be a switch of this partition) and re-embeds all its paths.
  /// Used by the overload-reaction extension to move traffic off hot
  /// links. `linkCosts` (indexed by LinkId, covering every topology link)
  /// replaces link latency as the Dijkstra edge weight for this one
  /// rebuild — the congestion-aware rebalancer passes inflated costs for
  /// hot links so the new tree routes around them. The override is
  /// ephemeral by design (not intent-logged): a promoted standby rebuilds
  /// plain shortest-path trees and the rebalancer re-derives congestion
  /// from live counters. Returns false when the tree or root is unknown.
  bool rerootTree(int treeId, net::NodeId newRoot,
                  const std::vector<net::SimTime>* linkCosts = nullptr);

  // ---- failure handling --------------------------------------------------

  /// Reacts to a data-plane link failure: every tree whose edges use the
  /// link is rebuilt over the remaining internal links and its routes are
  /// re-derived from the registered advertisements and subscriptions.
  /// Endpoints left unreachable lose their paths for the duration of the
  /// outage; onLinkUp() re-derives them.
  void onLinkDown(net::LinkId link);

  /// Reacts to a link repair: the link becomes usable again and every tree
  /// is rebuilt so previously degraded (or dropped) routes return to
  /// shortest paths.
  void onLinkUp(net::LinkId link);

  /// Reacts to a switch *node* failure: the switch's control session is
  /// disconnected, its mirror discarded (the TCAM state is gone), every
  /// incident link is treated as failed, and each affected tree is rebuilt
  /// over the surviving switches (trees rooted at the dead switch are
  /// re-rooted). Endpoints attached to the dead switch lose their paths for
  /// the duration of the outage.
  void onSwitchDown(net::NodeId switchNode);

  /// Reacts to a switch reconnecting after a failure. The switch comes back
  /// with an *empty* TCAM: the controller reconnects its control session,
  /// rebuilds all trees over the restored topology, and resyncs the
  /// switch's flow table in full from the registered intent — no
  /// re-subscription by the endpoints is needed.
  void onSwitchUp(net::NodeId switchNode);

  bool switchActive(net::NodeId switchNode) const;
  const std::vector<net::NodeId>& failedSwitches() const noexcept {
    return downSwitches_;
  }

  /// Internal links currently usable (scope minus failed links and links
  /// incident to failed switches).
  std::vector<net::LinkId> activeInternalLinks() const;
  const std::vector<net::LinkId>& failedLinks() const noexcept { return downLinks_; }

  // ---- dimension selection (Sec 5) ------------------------------------

  /// Re-indexes the event space on the given dimensions: regenerates DZ for
  /// all rectangle-registered advertisements and subscriptions, tears down
  /// and reinstalls trees and flows, after which newly stamped events use
  /// the new indexing.
  void reindex(const std::vector<int>& dims);

  // ---- introspection ---------------------------------------------------

  const dz::EventSpace& space() const noexcept { return space_; }
  const Scope& scope() const noexcept { return scope_; }
  const ControllerConfig& config() const noexcept { return config_; }
  int effectiveMaxDzLength() const noexcept;

  std::size_t treeCount() const noexcept { return trees_.size(); }
  std::vector<const SpanningTree*> trees() const;
  const PathRegistry& registry() const noexcept { return registry_; }
  const openflow::ControlPlaneStats& controlStats() const {
    return channel_.stats();
  }
  /// Flow-mod counts and modelled install latency of the last registration
  /// operation (Fig 7f input).
  const OpStats& lastOpStats() const noexcept { return lastOp_; }

  std::size_t advertisementCount() const noexcept;
  std::size_t subscriptionCount() const noexcept;
  const dz::DzSet& subscriptionDz(SubscriptionId id) const {
    return subscriptions_.at(id).dzSet;
  }
  const dz::DzSet& advertisementDz(PublisherId id) const {
    return advertisements_.at(id).dzSet;
  }
  const Endpoint& subscriberEndpoint(SubscriptionId id) const {
    return subscriptions_.at(id).endpoint;
  }
  /// Union of all active subscriptions' DZ (interop uses it to forward
  /// pre-existing interest towards newly arrived external advertisements).
  dz::DzSet subscriptionUnion() const;

  // ---- subscription aggregation (when config().aggregateSubscriptions) --

  /// Distinct subscriber endpoints holding an aggregate.
  std::size_t aggregateCount() const noexcept { return aggregates_.size(); }
  /// Representatives across all endpoint aggregates — the interest regions
  /// actually driving installed flows.
  std::size_t aggregateRepresentatives() const noexcept;
  /// Subscribes whose interest was already covered by their endpoint's
  /// aggregate and therefore installed nothing.
  std::uint64_t coveredSubscribes() const noexcept { return coveredSubscribes_; }
  /// Deterministic byte accounting of controller flow state (registry
  /// paths + aggregation indexes + installer mirrors), element counts only
  /// — identical across runs of one seed, for the bench memory series.
  std::size_t flowStateBytes() const noexcept;

  /// Wires this controller, its control channel, and its flow installer
  /// into the observability layer. Registration ops (advertise/subscribe/
  /// un-*) become tracer spans that parent the flow-mod records they cause;
  /// tree lifecycle and per-op flow-mod volume land in "controller.*"
  /// metrics.
  void attachObservability(obs::MetricsRegistry& reg,
                           obs::Tracer* tracer = nullptr);

  // ---- high availability (controller failover) --------------------------

  /// Registers the observer that mirrors this controller's command stream
  /// (normally a ctrl::StandbyController). Every state-changing request —
  /// registrations, link/switch failure notifications, re-indexing — is
  /// reported after it was applied. One observer at most; pass nullptr to
  /// detach.
  void setIntentObserver(IntentObserver observer) {
    intentObserver_ = std::move(observer);
  }

  /// True while a multi-step mutation batch is rewriting tree / registry /
  /// mirror state: a rebuildTrees commit, a tree merge, a re-index, or a
  /// standby's promotion replay. The Reconciler defers audit passes that
  /// would otherwise diff against the half-committed state.
  bool mutationInProgress() const noexcept { return mutationDepth_ > 0; }

  /// RAII marker of such a batch. Held internally by rebuildTrees /
  /// mergeTreePair / reindex; StandbyController holds one across its whole
  /// promotion replay. Nestable.
  class MutationScope {
   public:
    explicit MutationScope(Controller& controller) : controller_(controller) {
      ++controller_.mutationDepth_;
    }
    ~MutationScope() { --controller_.mutationDepth_; }
    MutationScope(const MutationScope&) = delete;
    MutationScope& operator=(const MutationScope&) = delete;

   private:
    Controller& controller_;
  };

  net::Network& network() noexcept { return network_; }
  /// The control channel to this partition's switches (e.g. to enable
  /// asynchronous flow installation or inject control-plane faults).
  openflow::ControlChannel& channel() noexcept { return channel_; }
  /// The flow installer, whose per-switch mirror is the controller's
  /// intended flow state (the reconciler diffs it against the switches).
  FlowInstaller& installer() noexcept { return installer_; }
  const FlowInstaller& installer() const noexcept { return installer_; }

 private:
  struct AdvRecord {
    Endpoint endpoint;
    dz::DzSet dzSet;
    std::optional<dz::Rectangle> rect;
  };
  struct SubRecord {
    Endpoint endpoint;
    dz::DzSet dzSet;
    std::optional<dz::Rectangle> rect;
  };

  /// One subscriber endpoint's aggregated interest. Flow install in
  /// aggregated mode is keyed by `aggId` — a pseudo-subscription id from a
  /// separate (negative) range, assigned in endpoint-first-seen order so
  /// standby replay reproduces it — and the registry/subscription index
  /// hold the aggregate's representatives instead of per-subscription dz.
  struct EndpointAggregate {
    Endpoint endpoint;
    SubscriptionId aggId = kInvalidSubscription;
    dz::AggregationIndex index;
    std::size_t liveSubs = 0;
  };
  /// Stable identity of a subscriber endpoint.
  using EndpointKey = std::tuple<net::NodeId, net::PortId, net::NodeId>;
  static EndpointKey endpointKey(const Endpoint& e) {
    return {e.attachSwitch, e.port, e.host};
  }

  dz::DzSet decompose(const dz::Rectangle& rect) const;
  void runAdvertise(PublisherId id);
  void runSubscribe(SubscriptionId id);
  /// Algorithm 1's addFlowMultSub: connects publisher `p` to every
  /// subscription overlapping `dzSet` on tree `t`.
  void addFlowMultSub(PublisherId p, const dz::DzSet& dzSet, SpanningTree& t);
  void installPathRecord(PublisherId p, SubscriptionId s, SpanningTree& t,
                         const dz::DzSet& overlap);
  void removePaths(const std::vector<PathId>& ids);

  // ---- tree pooling ----------------------------------------------------
  /// A ready-to-use tree: a recycled pool object rebuilt in place when one
  /// is available (allocation-free on an unchanged topology), a fresh
  /// SpanningTree otherwise. `linkCosts` as in the SpanningTree constructor.
  std::unique_ptr<SpanningTree> acquireTree(
      int id, dz::DzSet dzSet, net::NodeId root,
      const std::vector<net::LinkId>& allowedLinks,
      const std::vector<net::SimTime>* linkCosts = nullptr);
  /// Returns a no-longer-listed tree to the pool (dropped once the pool is
  /// at capacity). Null-safe.
  void retireTree(std::unique_ptr<SpanningTree> tree);

  // ---- aggregated-mode plumbing ---------------------------------------
  /// The aggregate of `endpoint`, created (with a fresh aggId) on demand.
  EndpointAggregate& aggregateFor(const Endpoint& endpoint);
  /// Pushes an aggregate delta into spatial index, registry and switches:
  /// shrinks/removes paths carrying removed pieces, installs added pieces
  /// through the Algorithm-1 machinery, reconciles affected switches.
  void applyAggregateDelta(EndpointAggregate& agg,
                           const dz::AggregationDelta& delta);
  /// Interest lookups valid for real subscription ids and aggregate ids
  /// (negative range) alike — every flow-install path resolves through
  /// these so both modes share Algorithm 1.
  bool isAggregateId(std::int64_t sid) const noexcept { return sid < -1; }
  const dz::DzSet& interestDz(std::int64_t sid) const;
  const Endpoint& interestEndpoint(std::int64_t sid) const;
  bool interestActive(std::int64_t sid) const;
  void mergeTreesIfNeeded();
  void mergeTreePair(std::size_t idxA, std::size_t idxB);
  /// Rebuilds a tree in place (same root, DZ and publishers) over the
  /// currently active links, re-deriving its routes from the registered
  /// subscriptions. Heals paths dropped during outages.
  void rebuildTree(int treeId);
  void rebuildTreeAt(int treeId, net::NodeId root);
  /// Rebuilds several trees at given roots, one after another in list
  /// order, as one MutationScope batch.
  void rebuildTrees(const std::vector<std::pair<int, net::NodeId>>& idRoots);
  /// The tree's root if still active, else a live fallback (the attach
  /// switch of one of its publishers, or any active scope switch).
  net::NodeId pickActiveRoot(const SpanningTree& tree) const;
  dz::DzSet coarsen(dz::DzSet dzSet, const SpanningTree* exclude) const;
  OpStats beginOp(const char* opName);
  void endOp(OpStats& snapshot);
  /// Reports a completed state-changing request to the intent observer.
  void logIntent(IntentCommand command) {
    if (intentObserver_) intentObserver_(command);
  }

  dz::EventSpace space_;
  net::Network& network_;
  Scope scope_;
  ControllerConfig config_;
  openflow::ControlChannel channel_;
  FlowInstaller installer_;
  PathRegistry registry_;

  std::vector<std::unique_ptr<SpanningTree>> trees_;
  /// Retired SpanningTree objects kept for reuse: acquireTree() pops one and
  /// rebuild()s it in place, so steady-state tree churn (merge, rebuild,
  /// reindex) recycles parent arrays and Dijkstra scratch instead of
  /// allocating. Bounded by kTreePoolCap.
  std::vector<std::unique_ptr<SpanningTree>> treePool_;
  std::vector<net::LinkId> downLinks_;
  std::vector<net::NodeId> downSwitches_;
  /// Dijkstra edge-weight override for the rebuildTrees call currently on
  /// the stack (set by rerootTree). nullptr = plain link latency.
  const std::vector<net::SimTime>* linkCostOverride_ = nullptr;
  int nextTreeId_ = 0;
  std::map<PublisherId, AdvRecord> advertisements_;
  std::map<SubscriptionId, SubRecord> subscriptions_;
  /// Aggregated mode: per-endpoint aggregates (map nodes are stable, so
  /// the id/sub lookaside tables hold plain pointers).
  std::map<EndpointKey, EndpointAggregate> aggregates_;
  std::unordered_map<SubscriptionId, EndpointAggregate*> subAggregate_;
  std::unordered_map<SubscriptionId, EndpointAggregate*> aggById_;
  SubscriptionId nextAggregateId_ = -2;
  std::uint64_t coveredSubscribes_ = 0;
  /// Spatial index over subscription dz members, so addFlowMultSub touches
  /// only subscriptions overlapping the advertised subspaces.
  dz::DzTrie<SubscriptionId> subscriptionIndex_;
  PublisherId nextPublisher_ = 0;
  SubscriptionId nextSubscription_ = 0;
  IntentObserver intentObserver_;
  int mutationDepth_ = 0;
  OpStats lastOp_;
  /// Recycles (control block + EventPayload) allocations across publishes;
  /// mutable because stamping a packet does not change controller state.
  mutable net::PayloadPool payloadPool_;

  obs::Tracer* tracer_ = nullptr;
  obs::SpanId opSpan_ = obs::kNoSpan;  // open registration-op span
  obs::Counter* obsOps_ = nullptr;
  obs::Counter* obsTreesCreated_ = nullptr;
  obs::Counter* obsTreesJoined_ = nullptr;
  obs::Counter* obsTreeMerges_ = nullptr;
  obs::Counter* obsReroots_ = nullptr;
  obs::Counter* obsTreeRebuilds_ = nullptr;
  obs::Counter* obsReindexes_ = nullptr;
  obs::Histogram* obsOpFlowMods_ = nullptr;
  obs::Histogram* obsOpInstallTime_ = nullptr;
};

}  // namespace pleroma::ctrl
