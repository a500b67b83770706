#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pleroma::net {
namespace {

TEST(Topology, AddNodesAndConnect) {
  Topology t;
  const NodeId s1 = t.addSwitch();
  const NodeId s2 = t.addSwitch();
  const NodeId h1 = t.addHost();
  EXPECT_TRUE(t.isSwitch(s1));
  EXPECT_TRUE(t.isHost(h1));

  const LinkId l1 = t.connect(s1, s2, 100);
  const LinkId l2 = t.connect(s1, h1, 200);
  EXPECT_EQ(t.linkCount(), 2);
  EXPECT_EQ(t.link(l1).latency, 100);

  // Ports assigned densely, 1-based.
  EXPECT_EQ(t.linkAt(s1, 1), l1);
  EXPECT_EQ(t.linkAt(s1, 2), l2);
  EXPECT_EQ(t.linkAt(s2, 1), l1);
  EXPECT_EQ(t.linkAt(s1, 3), kInvalidLink);

  const LinkEnd peer = t.peer(s1, 1);
  EXPECT_EQ(peer.node, s2);
  EXPECT_EQ(peer.port, 1);
}

TEST(Topology, HostAttachment) {
  Topology t;
  const NodeId s1 = t.addSwitch();
  const NodeId h1 = t.addHost();
  t.connect(s1, h1);
  const auto att = t.hostAttachment(h1);
  EXPECT_EQ(att.switchNode, s1);
  EXPECT_EQ(att.switchPort, 1);
  EXPECT_EQ(att.hostPort, 1);
}

TEST(Topology, ShortestPathsLine) {
  Topology t = Topology::line(4, 10);
  const auto switches = t.switches();
  ASSERT_EQ(switches.size(), 4u);
  const auto sp = t.shortestPathsFrom(switches[0]);
  EXPECT_EQ(sp.distance[static_cast<std::size_t>(switches[3])], 30);
  const auto path = t.shortestPath(switches[0], switches[3]);
  EXPECT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), switches[0]);
  EXPECT_EQ(path.back(), switches[3]);
}

TEST(Topology, ShortestPathNeverThroughHosts) {
  // Two switches joined only via a host must be unreachable from each other.
  Topology t;
  const NodeId s1 = t.addSwitch();
  const NodeId s2 = t.addSwitch();
  const NodeId h = t.addHost();
  t.connect(s1, h);
  t.connect(s2, h);
  EXPECT_TRUE(t.shortestPath(s1, s2).empty());
}

TEST(Topology, ShortestPathRespectsLatencies) {
  Topology t;
  const NodeId a = t.addSwitch();
  const NodeId b = t.addSwitch();
  const NodeId c = t.addSwitch();
  t.connect(a, b, 100);
  t.connect(b, c, 100);
  t.connect(a, c, 500);  // direct but slower
  const auto path = t.shortestPath(a, c);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], b);
}

TEST(Topology, TestbedFatTreeShape) {
  // Fig 6: 10 switches (2 core, 4 aggregation, 4 edge), 8 hosts.
  const Topology t = Topology::testbedFatTree();
  EXPECT_EQ(t.switches().size(), 10u);
  EXPECT_EQ(t.hosts().size(), 8u);
  // 2*4 core-agg + 4 agg-edge + 8 host links.
  EXPECT_EQ(t.linkCount(), 8 + 4 + 8);
  // Every host attaches to an edge switch.
  for (const NodeId h : t.hosts()) {
    EXPECT_TRUE(t.isSwitch(t.hostAttachment(h).switchNode));
  }
}

TEST(Topology, TestbedFatTreeAllHostsConnected) {
  const Topology t = Topology::testbedFatTree();
  const auto hosts = t.hosts();
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    const auto path = t.shortestPath(hosts[0], hosts[i]);
    EXPECT_FALSE(path.empty()) << "host " << i;
  }
}

TEST(Topology, RingShape) {
  const Topology t = Topology::ring(20);
  EXPECT_EQ(t.switches().size(), 20u);
  EXPECT_EQ(t.hosts().size(), 20u);
  EXPECT_EQ(t.linkCount(), 40);  // 20 ring + 20 access
  // Every switch has exactly 3 ports (two ring neighbours + one host).
  for (const NodeId sw : t.switches()) {
    EXPECT_EQ(t.portsOf(sw).size(), 3u);
  }
}

TEST(Topology, RingDiameter) {
  const Topology t = Topology::ring(6, 10);
  const auto sw = t.switches();
  const auto sp = t.shortestPathsFrom(sw[0]);
  // Opposite switch is 3 hops away around either side.
  EXPECT_EQ(sp.distance[static_cast<std::size_t>(sw[3])], 30);
}

TEST(Topology, GenericFatTree) {
  const Topology t = Topology::fatTree(2, 4, 2, 2);
  EXPECT_EQ(t.switches().size(), 2u + 4u + 8u);
  EXPECT_EQ(t.hosts().size(), 16u);
}

TEST(Topology, NodeNames) {
  const Topology t = Topology::testbedFatTree();
  EXPECT_EQ(t.node(t.switches()[0]).name, "R1");
  EXPECT_EQ(t.node(t.hosts()[0]).name, "h1");
}

TEST(Topology, KAryFatTreeShape) {
  // k=4: 4 cores, 4 pods x (2 agg + 2 edge) = 20 switches, 16 hosts.
  const Topology t = Topology::kAryFatTree(4);
  EXPECT_EQ(t.switches().size(), 20u);
  EXPECT_EQ(t.hosts().size(), 16u);
  // Links: 4 pods x 2 agg x 2 cores + 4 pods x 4 agg-edge + 16 access.
  EXPECT_EQ(t.linkCount(), 16 + 16 + 16);
}

TEST(Topology, KAryFatTreeFullBisection) {
  const Topology t = Topology::kAryFatTree(4);
  const auto hosts = t.hosts();
  // All host pairs connected; cross-pod paths have 6 nodes (edge, agg,
  // core, agg, edge + 2 hosts = 7 nodes).
  const auto path = t.shortestPath(hosts[0], hosts[15]);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.size(), 7u);
  // Same-edge pair: host, edge, host.
  const auto local = t.shortestPath(hosts[0], hosts[1]);
  EXPECT_EQ(local.size(), 3u);
}

TEST(Topology, KAryFatTreeMinimal) {
  const Topology t = Topology::kAryFatTree(2);
  EXPECT_EQ(t.switches().size(), 1u + 2u + 2u);  // 1 core, 2 pods x (1+1)
  EXPECT_EQ(t.hosts().size(), 2u);
  for (const NodeId h : t.hosts()) {
    EXPECT_FALSE(t.shortestPath(t.hosts()[0], h).empty());
  }
}

TEST(Topology, RandomConnectedIsConnected) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 99u}) {
    const Topology t = Topology::randomConnected(9, 4, seed);
    EXPECT_EQ(t.switches().size(), 9u);
    EXPECT_EQ(t.hosts().size(), 9u);
    // 8 tree links + up to 4 extra + 9 access links.
    EXPECT_GE(t.linkCount(), 8 + 9);
    EXPECT_LE(t.linkCount(), 8 + 4 + 9);
    const auto hosts = t.hosts();
    for (std::size_t i = 1; i < hosts.size(); ++i) {
      EXPECT_FALSE(t.shortestPath(hosts[0], hosts[i]).empty())
          << "seed " << seed << " host " << i;
    }
  }
}

TEST(Topology, RandomConnectedDeterministicPerSeed) {
  const Topology a = Topology::randomConnected(7, 3, 42);
  const Topology b = Topology::randomConnected(7, 3, 42);
  ASSERT_EQ(a.linkCount(), b.linkCount());
  for (LinkId l = 0; l < a.linkCount(); ++l) {
    EXPECT_EQ(a.link(l).a.node, b.link(l).a.node);
    EXPECT_EQ(a.link(l).b.node, b.link(l).b.node);
  }
}

TEST(Topology, RandomConnectedNoDuplicateLinks) {
  const Topology t = Topology::randomConnected(6, 10, 7);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (LinkId l = 0; l < t.linkCount(); ++l) {
    const Link& link = t.link(l);
    if (t.isHost(link.a.node) || t.isHost(link.b.node)) continue;
    pairs.emplace_back(std::min(link.a.node, link.b.node),
                       std::max(link.a.node, link.b.node));
  }
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

TEST(Topology, SingleSwitchRandom) {
  const Topology t = Topology::randomConnected(1, 3, 5);
  EXPECT_EQ(t.switches().size(), 1u);
  EXPECT_EQ(t.hosts().size(), 1u);
  EXPECT_EQ(t.linkCount(), 1);  // just the access link
}

TEST(Topology, LinkPeerOf) {
  Topology t;
  const NodeId a = t.addSwitch();
  const NodeId b = t.addSwitch();
  const LinkId l = t.connect(a, b);
  EXPECT_EQ(t.link(l).peerOf(a).node, b);
  EXPECT_EQ(t.link(l).peerOf(b).node, a);
  EXPECT_EQ(t.link(l).endOf(a).node, a);
}

}  // namespace
}  // namespace pleroma::net
