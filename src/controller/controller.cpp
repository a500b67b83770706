#include "controller/controller.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

#include "net/packet.hpp"

namespace pleroma::ctrl {

Scope Scope::wholeTopology(const net::Topology& topology) {
  Scope s;
  s.switches = topology.switches();
  for (net::LinkId l = 0; l < topology.linkCount(); ++l) {
    const net::Link& link = topology.link(l);
    if (topology.isSwitch(link.a.node) && topology.isSwitch(link.b.node)) {
      s.internalLinks.push_back(l);
    }
  }
  return s;
}

Controller::Controller(dz::EventSpace space, net::Network& network, Scope scope,
                       ControllerConfig config)
    : space_(std::move(space)),
      network_(network),
      scope_(std::move(scope)),
      config_(config),
      channel_(network_, config.flowModLatency),
      installer_(channel_) {
  if (config_.tcamBudget != 0) installer_.setTcamBudget(config_.tcamBudget);
}

int Controller::effectiveMaxDzLength() const noexcept {
  return std::min(config_.maxDzLength, space_.maxDzLength());
}

dz::DzSet Controller::decompose(const dz::Rectangle& rect) const {
  return space_.rectangleToDz(rect, effectiveMaxDzLength(),
                              config_.maxCellsPerRequest);
}

Endpoint Controller::endpointForHost(net::NodeId host) const {
  const auto att = network_.topology().hostAttachment(host);
  return Endpoint{att.switchNode, att.switchPort, net::hostAddress(host), host};
}

// ---- registration ------------------------------------------------------

PublisherId Controller::advertise(net::NodeId host, const dz::Rectangle& rect) {
  return advertiseEndpoint(endpointForHost(host), decompose(rect), rect);
}

PublisherId Controller::advertiseEndpoint(const Endpoint& endpoint,
                                          const dz::DzSet& dzSet,
                                          std::optional<dz::Rectangle> rect) {
  OpStats snapshot = beginOp("op.advertise");
  const PublisherId id = nextPublisher_++;
  advertisements_.emplace(id, AdvRecord{endpoint, dzSet, std::move(rect)});
  {
    FlowInstaller::BatchScope batchScope(installer_);
    runAdvertise(id);
    mergeTreesIfNeeded();
  }
  endOp(snapshot);
  if (intentObserver_) {
    const AdvRecord& record = advertisements_.at(id);
    IntentCommand cmd;
    cmd.kind = IntentCommand::Kind::kAdvertise;
    cmd.id = id;
    cmd.endpoint = record.endpoint;
    cmd.dzSet = record.dzSet;
    cmd.rect = record.rect;
    logIntent(std::move(cmd));
  }
  return id;
}

SubscriptionId Controller::subscribe(net::NodeId host, const dz::Rectangle& rect) {
  return subscribeEndpoint(endpointForHost(host), decompose(rect), rect);
}

SubscriptionId Controller::subscribeEndpoint(const Endpoint& endpoint,
                                             const dz::DzSet& dzSet,
                                             std::optional<dz::Rectangle> rect) {
  OpStats snapshot = beginOp("op.subscribe");
  const SubscriptionId id = nextSubscription_++;
  subscriptions_.emplace(id, SubRecord{endpoint, dzSet, std::move(rect)});
  if (config_.aggregateSubscriptions) {
    EndpointAggregate& agg = aggregateFor(endpoint);
    ++agg.liveSubs;
    subAggregate_.emplace(id, &agg);
    dz::AggregationDelta delta = agg.index.add(dzSet);
    if (delta.empty()) {
      // Covered subscription: the endpoint's installed flows already
      // forward a superset of this interest — zero flow mods.
      ++coveredSubscribes_;
    } else {
      FlowInstaller::BatchScope batchScope(installer_);
      applyAggregateDelta(agg, delta);
    }
  } else {
    for (const dz::DzExpression& d : dzSet) subscriptionIndex_.insert(d, id);
    {
      FlowInstaller::BatchScope batchScope(installer_);
      runSubscribe(id);
    }
  }
  endOp(snapshot);
  if (intentObserver_) {
    const SubRecord& record = subscriptions_.at(id);
    IntentCommand cmd;
    cmd.kind = IntentCommand::Kind::kSubscribe;
    cmd.id = id;
    cmd.endpoint = record.endpoint;
    cmd.dzSet = record.dzSet;
    cmd.rect = record.rect;
    logIntent(std::move(cmd));
  }
  return id;
}

void Controller::unsubscribe(SubscriptionId id) {
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return;
  OpStats snapshot = beginOp("op.unsubscribe");
  if (config_.aggregateSubscriptions) {
    EndpointAggregate& agg = *subAggregate_.at(id);
    // Incremental uncover: only the representatives actually released by
    // this member's refcounts leave the switches; a still-covered interest
    // costs zero flow mods.
    const dz::AggregationDelta delta = agg.index.remove(it->second.dzSet);
    --agg.liveSubs;
    if (!delta.empty()) {
      FlowInstaller::BatchScope batchScope(installer_);
      applyAggregateDelta(agg, delta);
    }
    subAggregate_.erase(id);
    subscriptions_.erase(it);
  } else {
    {
      FlowInstaller::BatchScope batchScope(installer_);
      removePaths(registry_.pathsOfSubscription(id));
    }
    for (const dz::DzExpression& d : it->second.dzSet) {
      subscriptionIndex_.erase(d, id);
    }
    subscriptions_.erase(it);
  }
  endOp(snapshot);
  if (intentObserver_) {
    IntentCommand cmd;
    cmd.kind = IntentCommand::Kind::kUnsubscribe;
    cmd.id = id;
    logIntent(std::move(cmd));
  }
}

void Controller::unadvertise(PublisherId id) {
  const auto it = advertisements_.find(id);
  if (it == advertisements_.end()) return;
  OpStats snapshot = beginOp("op.unadvertise");
  {
    FlowInstaller::BatchScope batchScope(installer_);
    removePaths(registry_.pathsOfPublisher(id));
  }
  for (auto& tree : trees_) tree->removePublisher(id);
  // Trees left without any publisher carry no traffic; retire them so their
  // subspaces become available to future advertisements.
  for (auto& tree : trees_) {
    if (tree->publishers().empty()) retireTree(std::move(tree));
  }
  std::erase_if(trees_, [](const std::unique_ptr<SpanningTree>& t) {
    return t == nullptr;
  });
  advertisements_.erase(it);
  endOp(snapshot);
  if (intentObserver_) {
    IntentCommand cmd;
    cmd.kind = IntentCommand::Kind::kUnadvertise;
    cmd.id = id;
    logIntent(std::move(cmd));
  }
}

// ---- Algorithm 1 -------------------------------------------------------

void Controller::runAdvertise(PublisherId id) {
  const AdvRecord& adv = advertisements_.at(id);
  for (const dz::DzExpression& dzi : adv.dzSet) {
    const dz::DzSet dziSet(dzi);
    dz::DzSet covered;
    // Trees whose DZ overlaps dz_i (lines 4-9).
    for (auto& tree : trees_) {
      const dz::DzSet overlap = tree->dzSet().intersect(dziSet);
      if (overlap.empty()) continue;
      tree->addPublisher(id, overlap);
      ++lastOp_.treesJoined;
      if (obsTreesJoined_ != nullptr) obsTreesJoined_->inc();
      addFlowMultSub(id, overlap, *tree);
      covered.unionWith(overlap);
    }
    // Subspaces of dz_i not carried by any tree start a new one rooted at
    // the publisher (lines 10-15).
    const dz::DzSet uncovered = dziSet.subtract(covered);
    if (!uncovered.empty()) {
      trees_.push_back(acquireTree(nextTreeId_++, uncovered,
                                   adv.endpoint.attachSwitch,
                                   activeInternalLinks()));
      ++lastOp_.treesCreated;
      if (obsTreesCreated_ != nullptr) obsTreesCreated_->inc();
      SpanningTree& tn = *trees_.back();
      tn.addPublisher(id, uncovered);
      addFlowMultSub(id, uncovered, tn);
    }
  }
}

void Controller::runSubscribe(SubscriptionId id) {
  const SubRecord& sub = subscriptions_.at(id);
  for (const dz::DzExpression& dzi : sub.dzSet) {
    const dz::DzSet dziSet(dzi);
    for (auto& tree : trees_) {
      if (!tree->dzSet().overlaps(dzi)) continue;
      // Publishers of the tree with overlapping DZ^t(p) (lines 22-25).
      for (const auto& [pub, pubOverlap] : tree->publishers()) {
        const dz::DzSet overlapWithPub = dziSet.intersect(pubOverlap);
        if (overlapWithPub.empty()) continue;
        installPathRecord(pub, id, *tree, overlapWithPub);
      }
    }
    // No overlapping tree: the subscription is simply stored (line 19's
    // negative branch); it is re-examined by addFlowMultSub whenever an
    // advertisement extends or creates trees.
  }
}

void Controller::addFlowMultSub(PublisherId p, const dz::DzSet& dzSet,
                                SpanningTree& t) {
  // Candidate subscriptions via the spatial index: only those with a dz
  // member overlapping some advertised member are examined.
  std::set<SubscriptionId> candidates;
  for (const dz::DzExpression& d : dzSet) {
    subscriptionIndex_.forEachOverlapping(
        d, [&](const dz::DzExpression&, const SubscriptionId& id) {
          candidates.insert(id);
        });
  }
  for (const SubscriptionId subId : candidates) {
    const dz::DzSet overlap = dzSet.intersect(interestDz(subId));
    if (overlap.empty()) continue;
    installPathRecord(p, subId, t, overlap);
  }
}

void Controller::installPathRecord(PublisherId p, SubscriptionId s,
                                   SpanningTree& t, const dz::DzSet& overlap) {
  if (registry_.alreadyCovered(p, s, t.id(), overlap)) return;
  const AdvRecord& adv = advertisements_.at(p);
  const Endpoint& subEndpoint = interestEndpoint(s);
  // A subscriber is not connected to itself: identical endpoints would
  // yield a route reflecting packets out of their ingress port.
  if (adv.endpoint == subEndpoint) return;
  std::vector<RouteHop> hops =
      t.route(adv.endpoint, subEndpoint, network_.topology());
  if (hops.empty()) return;  // endpoints not connected within this partition
  installer_.installPath(overlap, hops);
  registry_.add(InstalledPath{-1, p, s, t.id(), overlap, std::move(hops)});
}

void Controller::removePaths(const std::vector<PathId>& ids) {
  if (ids.empty()) return;
  const std::vector<net::NodeId> affected = registry_.switchesOf(ids);
  for (const PathId id : ids) registry_.remove(id);
  for (const net::NodeId sw : affected) {
    installer_.reconcileSwitch(sw, registry_.requiredFlows(sw));
  }
}

// ---- tree pooling ----------------------------------------------------------

namespace {
/// Retired trees kept around for reuse; beyond this the pool drops them.
constexpr std::size_t kTreePoolCap = 64;
}  // namespace

std::unique_ptr<SpanningTree> Controller::acquireTree(
    int id, dz::DzSet dzSet, net::NodeId root,
    const std::vector<net::LinkId>& allowedLinks,
    const std::vector<net::SimTime>* linkCosts) {
  if (!treePool_.empty()) {
    std::unique_ptr<SpanningTree> t = std::move(treePool_.back());
    treePool_.pop_back();
    t->rebuild(id, std::move(dzSet), root, network_.topology(), allowedLinks,
               linkCosts);
    return t;
  }
  return std::make_unique<SpanningTree>(id, std::move(dzSet), root,
                                        network_.topology(), allowedLinks,
                                        linkCosts);
}

void Controller::retireTree(std::unique_ptr<SpanningTree> tree) {
  if (tree == nullptr) return;
  if (treePool_.size() < kTreePoolCap) treePool_.push_back(std::move(tree));
}

// ---- subscription aggregation (tentpole) ----------------------------------

Controller::EndpointAggregate& Controller::aggregateFor(const Endpoint& endpoint) {
  const EndpointKey key = endpointKey(endpoint);
  auto it = aggregates_.find(key);
  if (it == aggregates_.end()) {
    it = aggregates_.try_emplace(key).first;
    it->second.endpoint = endpoint;
    // Ids from the negative range, assigned in endpoint-first-seen order —
    // replaying the same subscribe sequence (standby promotion) reproduces
    // the identical assignment.
    it->second.aggId = nextAggregateId_--;
    aggById_.emplace(it->second.aggId, &it->second);
  }
  return it->second;
}

void Controller::applyAggregateDelta(EndpointAggregate& agg,
                                     const dz::AggregationDelta& delta) {
  // The spatial index tracks the aggregate's representatives, keyed by the
  // endpoint's aggregate id; deltas are exact piece identities, so erase
  // hits precisely what a prior insert added.
  for (const dz::DzExpression& d : delta.removed) {
    subscriptionIndex_.erase(d, agg.aggId);
  }
  for (const dz::DzExpression& d : delta.added) {
    subscriptionIndex_.insert(d, agg.aggId);
  }

  // Shrink (or drop) installed paths carrying the removed pieces. Hops are
  // unchanged by a shrink, so the path is edited in place; switches whose
  // flows referenced the removed subspaces are reconciled below.
  std::vector<net::NodeId> affected;
  if (!delta.removed.empty()) {
    dz::DzSet removedSet;
    for (const dz::DzExpression& d : delta.removed) removedSet.insert(d);
    for (const PathId id : registry_.pathsOfSubscription(agg.aggId)) {
      const InstalledPath& p = registry_.at(id);
      dz::DzSet shrunk = p.dz.subtract(removedSet);
      if (shrunk == p.dz) continue;
      for (const RouteHop& hop : p.hops) affected.push_back(hop.switchNode);
      if (shrunk.empty()) {
        registry_.remove(id);
      } else {
        registry_.setDz(id, std::move(shrunk));
      }
    }
  }

  // Install the added pieces — runSubscribe over the aggregate delta
  // instead of one rule-set per subscription.
  if (!delta.added.empty()) {
    dz::DzSet addedSet;
    for (const dz::DzExpression& d : delta.added) addedSet.insert(d);
    for (auto& tree : trees_) {
      const dz::DzSet treeOverlap = tree->dzSet().intersect(addedSet);
      if (treeOverlap.empty()) continue;
      for (const auto& [pub, pubOverlap] : tree->publishers()) {
        const dz::DzSet overlap = treeOverlap.intersect(pubOverlap);
        if (overlap.empty()) continue;
        installPathRecord(pub, agg.aggId, *tree, overlap);
      }
    }
  }

  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
  for (const net::NodeId sw : affected) {
    installer_.reconcileSwitch(sw, registry_.requiredFlows(sw));
  }
}

const dz::DzSet& Controller::interestDz(std::int64_t sid) const {
  if (isAggregateId(sid)) return aggById_.at(sid)->index.aggregate();
  return subscriptions_.at(sid).dzSet;
}

const Endpoint& Controller::interestEndpoint(std::int64_t sid) const {
  if (isAggregateId(sid)) return aggById_.at(sid)->endpoint;
  return subscriptions_.at(sid).endpoint;
}

bool Controller::interestActive(std::int64_t sid) const {
  if (isAggregateId(sid)) {
    const auto it = aggById_.find(sid);
    return it != aggById_.end() && !it->second->index.aggregate().empty();
  }
  return subscriptions_.contains(sid);
}

std::size_t Controller::aggregateRepresentatives() const noexcept {
  std::size_t n = 0;
  for (const auto& [key, agg] : aggregates_) n += agg.index.representativeCount();
  return n;
}

std::size_t Controller::flowStateBytes() const noexcept {
  std::size_t bytes = registry_.stateBytes();
  bytes += installer_.stateBytes();
  for (const auto& [key, agg] : aggregates_) {
    bytes += sizeof(EndpointAggregate) + agg.index.stateBytes();
  }
  return bytes;
}

// ---- tree merging (Sec 3.2) ---------------------------------------------

void Controller::mergeTreesIfNeeded() {
  while (trees_.size() > config_.maxTrees && trees_.size() >= 2) {
    // Merge the two trees with the fewest embedded paths: cheapest rebuild.
    std::size_t a = 0, b = 1;
    auto cost = [&](std::size_t i) {
      return registry_.pathsOfTree(trees_[i]->id()).size();
    };
    if (cost(a) > cost(b)) std::swap(a, b);
    for (std::size_t i = 2; i < trees_.size(); ++i) {
      const std::size_t c = cost(i);
      if (c < cost(a)) {
        b = a;
        a = i;
      } else if (c < cost(b)) {
        b = i;
      }
    }
    mergeTreePair(a, b);
  }
}

void Controller::mergeTreePair(std::size_t idxA, std::size_t idxB) {
  assert(idxA != idxB);
  MutationScope mutationScope(*this);
  if (obsTreeMerges_ != nullptr) obsTreeMerges_->inc();
  SpanningTree& ta = *trees_[idxA];
  SpanningTree& tb = *trees_[idxB];

  // Collect and detach both trees' paths.
  std::vector<PathId> pathIds = registry_.pathsOfTree(ta.id());
  const std::vector<PathId> idsB = registry_.pathsOfTree(tb.id());
  const std::size_t pathCountA = pathIds.size();
  const std::size_t pathCountB = idsB.size();
  pathIds.insert(pathIds.end(), idsB.begin(), idsB.end());
  struct OldPath {
    PublisherId pub;
    SubscriptionId sub;
    dz::DzSet dz;
  };
  std::vector<OldPath> oldPaths;
  oldPaths.reserve(pathIds.size());
  for (const PathId id : pathIds) {
    const InstalledPath& p = registry_.at(id);
    oldPaths.push_back(OldPath{p.publisher, p.subscription, p.dz});
  }
  std::vector<net::NodeId> affected = registry_.switchesOf(pathIds);
  for (const PathId id : pathIds) registry_.remove(id);

  // The merged DZ: exact union (canonicalisation already coarsens complete
  // sibling sets, e.g. {0000,0010} ∪ {0001,0011} = {00}), optionally
  // coarsened further while disjointness with other trees holds.
  dz::DzSet mergedDz = ta.dzSet();
  mergedDz.unionWith(tb.dzSet());

  // Root at the tree that carried more paths: fewer routes move.
  const net::NodeId root = pathCountA >= pathCountB ? ta.root() : tb.root();

  std::map<PublisherId, dz::DzSet> publishers(ta.publishers().begin(),
                                              ta.publishers().end());
  for (const auto& [pub, overlap] : tb.publishers()) {
    publishers[pub].unionWith(overlap);
  }

  const int removeIdA = ta.id();
  const int removeIdB = tb.id();
  for (auto& tree : trees_) {
    if (tree->id() == removeIdA || tree->id() == removeIdB) {
      retireTree(std::move(tree));
    }
  }
  std::erase_if(trees_, [](const std::unique_ptr<SpanningTree>& t) {
    return t == nullptr;
  });

  if (config_.coarsenOnMerge) mergedDz = coarsen(std::move(mergedDz), nullptr);

  trees_.push_back(acquireTree(nextTreeId_++, std::move(mergedDz), root,
                               activeInternalLinks()));
  SpanningTree& tm = *trees_.back();
  for (const auto& [pub, overlap] : publishers) tm.addPublisher(pub, overlap);

  // Re-embed the collected paths along the merged tree.
  for (const OldPath& old : oldPaths) {
    if (!advertisements_.contains(old.pub) || !interestActive(old.sub)) {
      continue;
    }
    installPathRecord(old.pub, old.sub, tm, old.dz);
  }
  // Repair switches that the old trees touched but the new one might not.
  for (const net::NodeId sw : affected) {
    installer_.reconcileSwitch(sw, registry_.requiredFlows(sw));
  }
}

namespace {
/// Locates a tree by id in the controller's tree list.
auto findTree(std::vector<std::unique_ptr<SpanningTree>>& trees, int treeId) {
  return std::find_if(
      trees.begin(), trees.end(),
      [&](const std::unique_ptr<SpanningTree>& t) { return t->id() == treeId; });
}
}  // namespace

bool Controller::rerootTree(int treeId, net::NodeId newRoot,
                            const std::vector<net::SimTime>* linkCosts) {
  if (findTree(trees_, treeId) == trees_.end()) return false;
  if (std::find(scope_.switches.begin(), scope_.switches.end(), newRoot) ==
      scope_.switches.end()) {
    return false;
  }
  if (obsReroots_ != nullptr) obsReroots_->inc();
  linkCostOverride_ = linkCosts;
  rebuildTreeAt(treeId, newRoot);
  linkCostOverride_ = nullptr;
  return true;
}

// ---- failure handling (link down/up) ---------------------------------------

std::vector<net::LinkId> Controller::activeInternalLinks() const {
  if (downLinks_.empty() && downSwitches_.empty()) return scope_.internalLinks;
  std::vector<net::LinkId> out;
  out.reserve(scope_.internalLinks.size());
  for (const net::LinkId l : scope_.internalLinks) {
    if (std::find(downLinks_.begin(), downLinks_.end(), l) != downLinks_.end()) {
      continue;
    }
    const net::Link& link = network_.topology().link(l);
    if (!switchActive(link.a.node) || !switchActive(link.b.node)) continue;
    out.push_back(l);
  }
  return out;
}

bool Controller::switchActive(net::NodeId switchNode) const {
  return std::find(downSwitches_.begin(), downSwitches_.end(), switchNode) ==
         downSwitches_.end();
}

void Controller::onLinkDown(net::LinkId link) {
  FlowInstaller::BatchScope batchScope(installer_);
  if (std::find(downLinks_.begin(), downLinks_.end(), link) != downLinks_.end()) {
    return;
  }
  downLinks_.push_back(link);
  // Rebuild only the trees whose edges traverse the failed link.
  std::vector<std::pair<int, net::NodeId>> affectedTrees;
  for (const auto& tree : trees_) {
    const auto edges = tree->edges();
    if (std::find(edges.begin(), edges.end(), link) != edges.end()) {
      affectedTrees.emplace_back(tree->id(), tree->root());
    }
  }
  rebuildTrees(affectedTrees);
  if (intentObserver_) {
    IntentCommand cmd;
    cmd.kind = IntentCommand::Kind::kLinkDown;
    cmd.link = link;
    logIntent(std::move(cmd));
  }
}

void Controller::onLinkUp(net::LinkId link) {
  FlowInstaller::BatchScope batchScope(installer_);
  const auto it = std::find(downLinks_.begin(), downLinks_.end(), link);
  if (it == downLinks_.end()) return;
  downLinks_.erase(it);
  // Rebuild every tree: routes degraded (or dropped) during the outage
  // return to shortest paths and unreachable endpoints reconnect.
  std::vector<std::pair<int, net::NodeId>> ids;
  ids.reserve(trees_.size());
  for (const auto& tree : trees_) ids.emplace_back(tree->id(), tree->root());
  rebuildTrees(ids);
  if (intentObserver_) {
    IntentCommand cmd;
    cmd.kind = IntentCommand::Kind::kLinkUp;
    cmd.link = link;
    logIntent(std::move(cmd));
  }
}

// ---- failure handling (switch node down/up) --------------------------------

void Controller::onSwitchDown(net::NodeId switchNode) {
  FlowInstaller::BatchScope batchScope(installer_);
  if (!switchActive(switchNode)) return;
  downSwitches_.push_back(switchNode);
  // The control session is gone and the node's TCAM state with it; keeping
  // a mirror (or sending mods) for the dead switch would be fiction.
  channel_.setSwitchConnected(switchNode, false);
  installer_.forgetSwitch(switchNode);

  // Rebuild every tree rooted at the dead switch or using an incident
  // link; the rebuild routes over active links only, so the dead switch is
  // evicted from all forwarding state.
  std::vector<std::pair<int, net::NodeId>> affected;
  for (const auto& tree : trees_) {
    bool hit = tree->root() == switchNode;
    if (!hit) {
      for (const net::LinkId l : tree->edges()) {
        const net::Link& link = network_.topology().link(l);
        if (link.a.node == switchNode || link.b.node == switchNode) {
          hit = true;
          break;
        }
      }
    }
    if (hit) affected.emplace_back(tree->id(), pickActiveRoot(*tree));
  }
  rebuildTrees(affected);
  if (intentObserver_) {
    IntentCommand cmd;
    cmd.kind = IntentCommand::Kind::kSwitchDown;
    cmd.node = switchNode;
    logIntent(std::move(cmd));
  }
}

void Controller::onSwitchUp(net::NodeId switchNode) {
  FlowInstaller::BatchScope batchScope(installer_);
  const auto it =
      std::find(downSwitches_.begin(), downSwitches_.end(), switchNode);
  if (it == downSwitches_.end()) return;
  downSwitches_.erase(it);
  channel_.setSwitchConnected(switchNode, true);
  // The reconnecting switch arrives with an empty TCAM: restart its mirror
  // empty so the rebuild below re-issues every needed flow as an add.
  installer_.forgetSwitch(switchNode);

  // Rebuild every tree: routes degraded (or dropped) during the outage
  // return to shortest paths and endpoints behind the failed switch
  // reconnect — no re-subscription needed.
  std::vector<std::pair<int, net::NodeId>> ids;
  ids.reserve(trees_.size());
  for (const auto& tree : trees_) {
    ids.emplace_back(tree->id(), pickActiveRoot(*tree));
  }
  rebuildTrees(ids);
  // Catch-all resync from registered intent for anything the rebuilds did
  // not touch on this switch.
  installer_.reconcileSwitch(switchNode, registry_.requiredFlows(switchNode));
  if (intentObserver_) {
    IntentCommand cmd;
    cmd.kind = IntentCommand::Kind::kSwitchUp;
    cmd.node = switchNode;
    logIntent(std::move(cmd));
  }
}

net::NodeId Controller::pickActiveRoot(const SpanningTree& tree) const {
  if (switchActive(tree.root())) return tree.root();
  for (const auto& [pub, overlap] : tree.publishers()) {
    const auto it = advertisements_.find(pub);
    if (it != advertisements_.end() &&
        switchActive(it->second.endpoint.attachSwitch)) {
      return it->second.endpoint.attachSwitch;
    }
  }
  for (const net::NodeId sw : scope_.switches) {
    if (switchActive(sw)) return sw;
  }
  return tree.root();  // no active switch left: keep the old root
}

void Controller::rebuildTree(int treeId) {
  const auto it = findTree(trees_, treeId);
  if (it == trees_.end()) return;
  rebuildTreeAt(treeId, (*it)->root());
}

void Controller::rebuildTreeAt(int treeId, net::NodeId root) {
  rebuildTrees({{treeId, root}});
}

void Controller::rebuildTrees(
    const std::vector<std::pair<int, net::NodeId>>& idRoots) {
  if (idRoots.empty()) return;
  // The batch rewrites trees/registry/mirror; hold off any Reconciler
  // audit pass until every tree of it has been rebuilt.
  MutationScope mutationScope(*this);

  // A route derived against the fresh tree, installed once the old tree's
  // paths are gone.
  struct PlannedPath {
    PublisherId pub;
    SubscriptionId sub;
    dz::DzSet overlap;
    std::vector<RouteHop> hops;
  };
  std::vector<PlannedPath> planned;
  const std::vector<net::LinkId> activeLinks = activeInternalLinks();
  for (const auto& [treeId, root] : idRoots) {
    const auto oldIt = findTree(trees_, treeId);
    if (oldIt == trees_.end()) continue;
    if (obsTreeRebuilds_ != nullptr) obsTreeRebuilds_->inc();
    const SpanningTree& old = **oldIt;
    // Detached paths; routes are re-derived from the registered
    // advertisements and subscriptions (not replayed from the registry), so
    // paths that were dropped while endpoints were unreachable heal here.
    const std::vector<PathId> oldPaths = registry_.pathsOfTree(treeId);
    const std::vector<net::NodeId> affected = registry_.switchesOf(oldPaths);
    std::unique_ptr<SpanningTree> fresh = acquireTree(
        nextTreeId_++, old.dzSet(), root, activeLinks, linkCostOverride_);
    planned.clear();
    for (const auto& [pub, overlap] : old.publishers()) {
      if (!advertisements_.contains(pub)) continue;
      fresh->addPublisher(pub, overlap);
      // addFlowMultSub, minus the side effects: candidate subscriptions via
      // the spatial index, then route derivation per overlapping pair.
      std::set<SubscriptionId> candidates;
      for (const dz::DzExpression& d : overlap) {
        subscriptionIndex_.forEachOverlapping(
            d, [&](const dz::DzExpression&, const SubscriptionId& id) {
              candidates.insert(id);
            });
      }
      const AdvRecord& adv = advertisements_.at(pub);
      for (const SubscriptionId subId : candidates) {
        dz::DzSet pairDz = overlap.intersect(interestDz(subId));
        if (pairDz.empty()) continue;
        const Endpoint& subEndpoint = interestEndpoint(subId);
        if (adv.endpoint == subEndpoint) continue;
        std::vector<RouteHop> hops =
            fresh->route(adv.endpoint, subEndpoint, network_.topology());
        if (hops.empty()) continue;  // not connected within this partition
        planned.push_back(
            PlannedPath{pub, subId, std::move(pairDz), std::move(hops)});
      }
    }

    for (const PathId id : oldPaths) registry_.remove(id);
    retireTree(std::move(*oldIt));
    trees_.erase(oldIt);
    trees_.push_back(std::move(fresh));
    const int freshId = trees_.back()->id();
    for (PlannedPath& pp : planned) {
      if (registry_.alreadyCovered(pp.pub, pp.sub, freshId, pp.overlap)) {
        continue;
      }
      installer_.installPath(pp.overlap, pp.hops);
      registry_.add(InstalledPath{-1, pp.pub, pp.sub, freshId, pp.overlap,
                                  std::move(pp.hops)});
    }
    for (const net::NodeId sw : affected) {
      installer_.reconcileSwitch(sw, registry_.requiredFlows(sw));
    }
  }
}

dz::DzSet Controller::coarsen(dz::DzSet dzSet, const SpanningTree* exclude) const {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const dz::DzExpression& member : dzSet) {
      if (member.length() == 0) continue;
      const dz::DzExpression parent = member.parent();
      bool clash = false;
      for (const auto& tree : trees_) {
        if (tree.get() == exclude) continue;
        if (tree->dzSet().overlaps(parent)) {
          clash = true;
          break;
        }
      }
      if (!clash) {
        dzSet.insert(parent);  // canonicalisation drops the covered children
        changed = true;
        break;
      }
    }
  }
  return dzSet;
}

// ---- event stamping -----------------------------------------------------

dz::DzExpression Controller::stampEvent(const dz::Event& event) const {
  return space_.eventToDz(event, effectiveMaxDzLength());
}

net::Packet Controller::makeEventPacket(net::NodeId publisherHost,
                                        const dz::Event& event,
                                        net::EventId eventId) const {
  net::Packet pkt;
  std::shared_ptr<net::EventPayload> payload = payloadPool_.acquire();
  payload->eventDz = stampEvent(event);
  payload->publisherHost = publisherHost;
  payload->event = event;
  payload->eventId = eventId;
  pkt.dst = dz::dzToAddress(payload->eventDz);
  pkt.src = net::hostAddress(publisherHost);
  // "The size of each packet is up to 64 bytes depending upon the length of
  // dz" (Sec 6.2): IPv6 header dominates, dz bits ride in the address.
  pkt.sizeBytes = 48 + payload->eventDz.length() / 8;
  pkt.payload = std::move(payload);
  return pkt;
}

// ---- re-indexing (Sec 5) --------------------------------------------------

void Controller::reindex(const std::vector<int>& dims) {
  FlowInstaller::BatchScope batchScope(installer_);
  MutationScope mutationScope(*this);
  if (obsReindexes_ != nullptr) obsReindexes_->inc();
  space_.setIndexedDimensions(dims);

  // Regenerate DZ for every rectangle-based registration; raw-DZ
  // registrations (virtual hosts relay already-encoded DZ) keep theirs.
  for (auto& [id, adv] : advertisements_) {
    if (adv.rect) adv.dzSet = decompose(*adv.rect);
  }
  subscriptionIndex_.clear();
  if (config_.aggregateSubscriptions) {
    // Rebuild every endpoint aggregate from the re-decomposed interests;
    // aggregate ids are stable, so the index keys don't change identity.
    for (auto& [key, agg] : aggregates_) agg.index.clear();
    for (auto& [id, sub] : subscriptions_) {
      if (sub.rect) sub.dzSet = decompose(*sub.rect);
      subAggregate_.at(id)->index.add(sub.dzSet);
    }
    for (const auto& [key, agg] : aggregates_) {
      for (const dz::DzExpression& d : agg.index.aggregate()) {
        subscriptionIndex_.insert(d, agg.aggId);
      }
    }
  } else {
    for (auto& [id, sub] : subscriptions_) {
      if (sub.rect) sub.dzSet = decompose(*sub.rect);
      for (const dz::DzExpression& d : sub.dzSet) subscriptionIndex_.insert(d, id);
    }
  }

  // Tear down all trees and flows, then replay advertisements in id order;
  // subscriptions re-attach inside addFlowMultSub.
  const std::vector<net::NodeId> switches = registry_.allSwitches();
  registry_.clear();
  for (auto& tree : trees_) retireTree(std::move(tree));
  trees_.clear();
  for (const net::NodeId sw : switches) installer_.reconcileSwitch(sw, {});
  for (const auto& [id, adv] : advertisements_) runAdvertise(id);
  mergeTreesIfNeeded();
  if (intentObserver_) {
    IntentCommand cmd;
    cmd.kind = IntentCommand::Kind::kReindex;
    cmd.dims = dims;
    logIntent(std::move(cmd));
  }
}

// ---- misc ----------------------------------------------------------------

std::vector<const SpanningTree*> Controller::trees() const {
  std::vector<const SpanningTree*> out;
  out.reserve(trees_.size());
  for (const auto& t : trees_) out.push_back(t.get());
  return out;
}

std::size_t Controller::advertisementCount() const noexcept {
  return advertisements_.size();
}

std::size_t Controller::subscriptionCount() const noexcept {
  return subscriptions_.size();
}

dz::DzSet Controller::subscriptionUnion() const {
  dz::DzSet out;
  for (const auto& [id, sub] : subscriptions_) out.unionWith(sub.dzSet);
  return out;
}

OpStats Controller::beginOp(const char* opName) {
  OpStats snapshot;
  const auto& s = channel_.stats();
  snapshot.flowAdds = s.flowAdds;
  snapshot.flowModifies = s.flowModifies;
  snapshot.flowDeletes = s.flowDeletes;
  snapshot.modeledInstallTime = channel_.modeledInstallTime();
  lastOp_ = OpStats{};
  if (obsOps_ != nullptr) obsOps_->inc();
  if (tracer_ != nullptr && tracer_->enabled()) {
    // The op span is the ambient context for every flow-mod record the
    // control channel emits until endOp.
    opSpan_ = tracer_->begin(tracer_->newTraceId(), obs::kNoSpan, opName,
                             network_.simulator().now());
    tracer_->pushContext(opSpan_);
  }
  return snapshot;
}

void Controller::endOp(OpStats& snapshot) {
  const auto& s = channel_.stats();
  lastOp_.flowAdds = s.flowAdds - snapshot.flowAdds;
  lastOp_.flowModifies = s.flowModifies - snapshot.flowModifies;
  lastOp_.flowDeletes = s.flowDeletes - snapshot.flowDeletes;
  lastOp_.modeledInstallTime =
      channel_.modeledInstallTime() - snapshot.modeledInstallTime;
  if (obsOpFlowMods_ != nullptr) {
    obsOpFlowMods_->record(static_cast<double>(lastOp_.totalFlowMods()));
    obsOpInstallTime_->record(static_cast<double>(lastOp_.modeledInstallTime));
  }
  if (opSpan_ != obs::kNoSpan && tracer_ != nullptr) {
    tracer_->annotate(opSpan_, "flow_mods",
                      std::to_string(lastOp_.totalFlowMods()));
    tracer_->annotate(opSpan_, "trees_created",
                      std::to_string(lastOp_.treesCreated));
    tracer_->annotate(opSpan_, "trees_joined",
                      std::to_string(lastOp_.treesJoined));
    tracer_->popContext();
    tracer_->end(opSpan_, network_.simulator().now());
    opSpan_ = obs::kNoSpan;
  }
}

void Controller::attachObservability(obs::MetricsRegistry& reg,
                                     obs::Tracer* tracer) {
  tracer_ = tracer;
  obsOps_ = &reg.counter("controller.ops");
  obsTreesCreated_ = &reg.counter("controller.trees_created");
  obsTreesJoined_ = &reg.counter("controller.trees_joined");
  obsTreeMerges_ = &reg.counter("controller.tree_merges");
  obsReroots_ = &reg.counter("controller.tree_reroots");
  obsTreeRebuilds_ = &reg.counter("controller.tree_rebuilds");
  obsReindexes_ = &reg.counter("controller.reindexes");
  obsOpFlowMods_ = &reg.histogram("controller.flow_mods_per_op");
  obsOpInstallTime_ = &reg.histogram("controller.op_install_time_ns");
  channel_.attachObservability(reg, tracer);
  installer_.attachMetrics(reg);
}

}  // namespace pleroma::ctrl
