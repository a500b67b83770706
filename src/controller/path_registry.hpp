// The controller's record of every installed (publisher, subscriber, tree)
// path: which subspaces it forwards and through which (switch, out-port)
// hops. From this record the *required* flow set of any switch can be
// derived, which drives unsubscription handling (delete vs. downgrade,
// Sec 3.3.3), tree merging, and the consistency checks in the tests.
//
// Required-flow semantics: a switch needs, for destination address a, to
// forward to exactly the ports
//     ports(a) = U { contrib(dz) : dz contributed at this switch, dz covers a }
// Because TCAM lookup applies only the first (longest-dz) match, the flow
// installed for a dz must carry the union of its own ports and the ports of
// every contributed coarser prefix; and a flow whose own ports are already
// covered by its prefixes' union is unnecessary (that's the "downgrade").
//
// Storage is sharded by tree id: each tree's paths live in their own map,
// so pathsOfTree — the first step of every tree rebuild
// (Controller::rebuildTrees) — reads one shard instead of scanning all
// paths, and a rebuild drains one shard and fills another. Algorithm 1
// keeps DZ(t) disjoint across trees, so shards never share a path. The
// cross-tree indexes (by switch / subscription / publisher) are maintained
// alongside.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "controller/tree.hpp"
#include "dz/dz_set.hpp"
#include "net/flow_table.hpp"

namespace pleroma::ctrl {

using PathId = std::int64_t;

struct InstalledPath {
  PathId id = -1;
  PublisherId publisher = kInvalidPublisher;
  SubscriptionId subscription = kInvalidSubscription;
  int treeId = -1;
  /// The subspaces forwarded along this path: the DZ^t(s) ∩ DZ^t(p) pieces.
  dz::DzSet dz;
  std::vector<RouteHop> hops;
};

class PathRegistry {
 public:
  PathId add(InstalledPath path);
  void remove(PathId id);
  bool contains(PathId id) const { return treeOf_.contains(id); }
  const InstalledPath& at(PathId id) const {
    return shards_.at(treeOf_.at(id)).at(id);
  }
  std::size_t size() const noexcept { return treeOf_.size(); }
  void clear();

  /// Replaces the dz set a path forwards (its hops are unchanged, so no
  /// index maintenance is needed). Used by aggregated-mode uncover to
  /// shrink a path in place instead of remove + re-add.
  void setDz(PathId id, dz::DzSet dz);

  /// Deterministic byte accounting of the registry's element payload
  /// (paths, hops, dz members — no container overhead or capacity), for
  /// the bench memory series.
  std::size_t stateBytes() const noexcept;

  std::vector<PathId> pathsOfSubscription(SubscriptionId s) const;
  std::vector<PathId> pathsOfPublisher(PublisherId p) const;
  std::vector<PathId> pathsOfTree(int treeId) const;
  /// Switches traversed by a set of paths (deduplicated).
  std::vector<net::NodeId> switchesOf(const std::vector<PathId>& ids) const;

  /// True when a path for this (publisher, subscription, tree) already
  /// forwards a superset of `dz` — used to avoid duplicate installs.
  bool alreadyCovered(PublisherId p, SubscriptionId s, int treeId,
                      const dz::DzSet& dz) const;

  /// The canonical flow set switch `sw` must hold so that every registered
  /// path's traffic is forwarded (and nothing more). Priorities are the dz
  /// length, matching the controller's installation discipline.
  std::vector<net::FlowEntry> requiredFlows(net::NodeId sw) const;

  /// All switches that appear in any registered path.
  std::vector<net::NodeId> allSwitches() const;

 private:
  static std::vector<PathId> sortedIds(
      const std::unordered_map<std::int64_t, std::unordered_set<PathId>>& index,
      std::int64_t key);

  /// nullptr when unknown; the only internal path-by-id lookup.
  const InstalledPath* findPath(PathId id) const;

  /// Per-tree shards (see file comment); treeOf_ routes id lookups.
  std::unordered_map<int, std::unordered_map<PathId, InstalledPath>> shards_;
  std::unordered_map<PathId, int> treeOf_;
  std::unordered_map<net::NodeId, std::unordered_set<PathId>> bySwitch_;
  std::unordered_map<std::int64_t, std::unordered_set<PathId>> bySubscription_;
  std::unordered_map<std::int64_t, std::unordered_set<PathId>> byPublisher_;
  PathId next_ = 0;
};

}  // namespace pleroma::ctrl
