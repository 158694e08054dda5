#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/dissemination.hpp"
#include "net/medium.hpp"
#include "net/routing.hpp"
#include "net/rtlink.hpp"
#include "scenario/spec.hpp"
#include "testbed/topology_spec.hpp"

namespace evm::net {
namespace {

using testbed::TopologySpec;

std::vector<NodeId> targets_of(const TopologySpec& spec) {
  return spec.dissemination_targets();
}

/// A tree cache seeded the way TestbedBuilder seeds it: with the tree of
/// `topo` as it stands now.
std::unique_ptr<DisseminationTreeCache> tree_cache(const Topology& topo, NodeId root,
                                                   std::vector<NodeId> targets) {
  DisseminationTree tree = DisseminationTree::compute(topo, root, targets);
  return std::make_unique<DisseminationTreeCache>(topo, root, std::move(targets),
                                                  std::move(tree));
}

// --- Tree construction over the generator worlds ----------------------------

TEST(DisseminationTree, LineSpansTheWholeChain) {
  // gateway - sensor - r1 - r2 - r3 - ctrl_a - ctrl_b - actuator: with
  // targets at both ends every relay sits on the only path and joins.
  const TopologySpec spec = testbed::line_topology(8);
  const Topology topo = spec.to_topology();
  const auto tree =
      DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
  EXPECT_EQ(tree.root(), spec.gateway());
  EXPECT_EQ(tree.size(), 8u);
  // Interior nodes (everyone but the two chain ends) forward; the ends are
  // leaves and stay quiet.
  EXPECT_EQ(tree.forwarder_count(), 6u);
  EXPECT_FALSE(tree.forwards(spec.primary_actuator()));
  EXPECT_TRUE(tree.forwards(spec.primary_sensor()));
  // Parents walk toward the root.
  NodeId walk = spec.primary_actuator();
  int hops = 0;
  while (walk != tree.root()) {
    walk = tree.parent(walk);
    ASSERT_NE(walk, kInvalidNode);
    ++hops;
  }
  EXPECT_EQ(hops, 7);
}

TEST(DisseminationTree, GridPrunesOffPathRelays) {
  const TopologySpec spec = testbed::grid_topology(5, 4);
  const Topology topo = spec.to_topology();
  const auto tree =
      DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
  // Every role node is covered...
  for (NodeId target : targets_of(spec)) {
    EXPECT_TRUE(tree.contains(target)) << "target " << target;
  }
  // ...but the tree is strictly smaller than the 20-node world: relays off
  // the shortest paths are pruned, which is where the slot savings live.
  EXPECT_LT(tree.size(), spec.nodes.size());
  EXPECT_LT(tree.forwarder_count(), tree.size());
}

TEST(DisseminationTree, StarUsesOnlyTheHub) {
  const TopologySpec spec = testbed::star_topology(8);
  const Topology topo = spec.to_topology();
  const auto tree =
      DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
  // Hub + the 4 role leaves; pure relay leaves are pruned, and the hub is
  // the only forwarder.
  EXPECT_EQ(tree.size(), 5u);
  EXPECT_EQ(tree.forwarder_count(), 1u);
  EXPECT_TRUE(tree.forwards(spec.gateway()));
}

// --- Liveness: dead nodes never parent, link_up cannot resurrect ------------

TEST(DisseminationTree, CrashedNodeIsNeverAParent) {
  const TopologySpec spec = testbed::line_topology(8);
  Topology topo = spec.to_topology();
  const NodeId relay = spec.relays()[1];
  topo.set_node_down(relay, true);
  const auto tree =
      DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
  EXPECT_FALSE(tree.contains(relay));
  for (NodeId member : tree.members()) {
    EXPECT_NE(tree.parent(member), relay);
  }
  // The chain is severed at the corpse: nodes beyond it are pruned, not
  // routed through it.
  EXPECT_FALSE(tree.contains(spec.primary_actuator()));
}

TEST(DisseminationTree, LinkUpDuringCrashDoesNotResurrectThePath) {
  // The PR 4 route-liveness hole, tree edition: crash a path node, then let
  // a scripted link_up fire while it is down. Route selection must keep
  // consulting node liveness — the corpse stays off the tree until the node
  // itself recovers.
  const TopologySpec spec = testbed::line_topology(8);
  Topology topo = spec.to_topology();
  const NodeId relay = spec.relays()[1];
  const NodeId neighbor = spec.relays()[0];
  topo.set_node_down(relay, true);
  topo.set_link_up(neighbor, relay, false);
  topo.set_link_up(neighbor, relay, true);  // scripted link_up mid-crash
  const auto tree =
      DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
  EXPECT_FALSE(tree.contains(relay));

  // Unicast route selection agrees: no next hop through the corpse.
  EXPECT_FALSE(topo.next_hop(spec.gateway(), spec.primary_actuator()).has_value());

  // Recovery (not the link flip) is what restores the path.
  topo.set_node_down(relay, false);
  const auto healed =
      DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
  EXPECT_TRUE(healed.contains(relay));
  EXPECT_TRUE(topo.next_hop(spec.gateway(), spec.primary_actuator()).has_value());
}

TEST(DisseminationTree, ReRootsWhenTheGatewayIsCutOff) {
  // Losing every gateway-adjacent link must not orphan the tree: it
  // re-roots at the lowest-id live target (the head-succession rule) so
  // the surviving replica set keeps a broadcast plane.
  const TopologySpec spec = testbed::line_topology(8);
  Topology topo = spec.to_topology();
  topo.set_link_up(spec.gateway(), spec.primary_sensor(), false);
  const auto tree =
      DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
  EXPECT_FALSE(tree.contains(spec.gateway()));
  EXPECT_EQ(tree.root(), spec.primary_sensor());  // lowest-id live target
  EXPECT_TRUE(tree.contains(spec.primary_actuator()));
}

TEST(DisseminationTree, GatewayAdjacentLinkLossReRoutesWithinTheGrid) {
  // A single gateway link going down re-routes paths through the other
  // gateway links; the tree stays rooted at the gateway.
  const TopologySpec spec = testbed::grid_topology(4, 3);
  Topology topo = spec.to_topology();
  const auto neighbors = topo.neighbors(spec.gateway());
  ASSERT_GE(neighbors.size(), 2u);
  topo.set_link_up(spec.gateway(), neighbors.front(), false);
  const auto tree =
      DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
  EXPECT_EQ(tree.root(), spec.gateway());
  for (NodeId target : targets_of(spec)) {
    EXPECT_TRUE(tree.contains(target)) << "target " << target;
  }
}

TEST(DisseminationTree, EqualLengthPathsPickTheLowestIdParent) {
  // Diamond 1-2-4 / 1-3-4, links inserted high ids first: the tie still
  // resolves to relay 2, and the unused relay 3 is pruned.
  Topology topo;
  topo.set_link(3, 4, {true, 0.0});
  topo.set_link(1, 3, {true, 0.0});
  topo.set_link(2, 4, {true, 0.0});
  topo.set_link(1, 2, {true, 0.0});
  const auto tree = DisseminationTree::compute(topo, 1, {4});
  EXPECT_EQ(tree.parent(4), 2);
  EXPECT_EQ(tree.parent(2), 1);
  EXPECT_FALSE(tree.contains(3));
  EXPECT_EQ(tree.members(), (std::vector<NodeId>{1, 2, 4}));
  EXPECT_EQ(tree.forwarder_count(), 1u);
  EXPECT_TRUE(tree.forwards(2));
}

TEST(DisseminationTree, UnreachableTargetIsPrunedNotFatal) {
  // A partitioned target is simply absent; the reachable ones keep their
  // paths and the tree stays rooted at the gateway.
  Topology topo = Topology::line({1, 2, 3});
  topo.add_node(9);
  const auto tree = DisseminationTree::compute(topo, 1, {3, 9});
  EXPECT_EQ(tree.root(), 1);
  EXPECT_FALSE(tree.contains(9));
  EXPECT_EQ(tree.members(), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(tree.forwarder_count(), 1u);
}

TEST(DisseminationTree, NoUsableRootGivesAnEmptyTree) {
  // Root and every target down: nothing can anchor the tree, and the
  // empty tree answers every query as "not a member".
  Topology topo = Topology::line({1, 2, 3});
  topo.set_node_down(1, true);
  topo.set_node_down(3, true);
  const auto tree = DisseminationTree::compute(topo, 1, {1, 3});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root(), kInvalidNode);
  EXPECT_EQ(tree.forwarder_count(), 0u);
  for (NodeId id : {1, 2, 3}) {
    EXPECT_FALSE(tree.contains(id)) << id;
    EXPECT_FALSE(tree.forwards(id)) << id;
    EXPECT_EQ(tree.parent(id), kInvalidNode) << id;
  }
}

TEST(DisseminationTree, NonMembersHaveNoParentAndZeroDegree) {
  const TopologySpec spec = testbed::grid_topology(5, 4);
  const Topology topo = spec.to_topology();
  const auto tree =
      DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
  EXPECT_TRUE(std::is_sorted(tree.members().begin(), tree.members().end()));
  EXPECT_EQ(tree.parent(tree.root()), kInvalidNode);
  EXPECT_GE(tree.degree(tree.root()), 1);
  std::size_t pruned = 0;
  for (NodeId id : topo.nodes()) {
    if (tree.contains(id)) continue;
    ++pruned;
    EXPECT_EQ(tree.parent(id), kInvalidNode) << id;
    EXPECT_EQ(tree.degree(id), 0) << id;
  }
  EXPECT_GT(pruned, 0u);
  // Ids past the world's largest one are answered, not indexed blindly.
  EXPECT_FALSE(tree.contains(5000));
  EXPECT_EQ(tree.parent(5000), kInvalidNode);
  EXPECT_EQ(tree.degree(5000), 0);
}

TEST(DisseminationTreeCache, RecomputesOnlyWhenTheTopologyMutates) {
  const TopologySpec spec = testbed::line_topology(8);
  Topology topo = spec.to_topology();
  const auto cache = tree_cache(topo, spec.gateway(), targets_of(spec));
  const DisseminationTree* first = &cache->tree();
  EXPECT_EQ(first, &cache->tree());  // same version: cached object reused

  const std::uint64_t before = topo.version();
  topo.set_node_down(spec.relays()[0], true);
  EXPECT_GT(topo.version(), before);
  EXPECT_FALSE(cache->tree().contains(spec.relays()[0]));
}

TEST(DisseminationTreeCache, ServesTheSeededTreeUntilTheFirstMutation) {
  // TestbedBuilder seeds the cache with the slot plan's tree instead of
  // computing the same tree again. The cache must serve the seed as-is
  // (a deliberately different tree proves nothing recomputed it) and only
  // replace it once the topology moves.
  const TopologySpec spec = testbed::line_topology(8);
  Topology topo = spec.to_topology();
  DisseminationTree seed =
      DisseminationTree::compute(topo, spec.gateway(), {spec.primary_sensor()});
  const std::size_t seed_size = seed.size();
  DisseminationTreeCache cache(topo, spec.gateway(), targets_of(spec),
                               std::move(seed));
  EXPECT_EQ(cache.tree().size(), seed_size);
  EXPECT_FALSE(cache.tree().contains(spec.primary_actuator()));

  // A link flap leaves the world as it was but moves the version.
  topo.set_link_up(spec.links[0].a, spec.links[0].b, false);
  topo.set_link_up(spec.links[0].a, spec.links[0].b, true);
  EXPECT_EQ(cache.tree().size(), 8u);
  EXPECT_TRUE(cache.tree().contains(spec.primary_actuator()));
}

TEST(DisseminationTree, SlotPlanCarriesTheInitialTreeOnMultiHopWorldsOnly) {
  const TopologySpec line = testbed::line_topology(8);
  const testbed::SchedulePlan plan = testbed::plan_schedule(line, line.analyze());
  const DisseminationTree fresh = DisseminationTree::compute(
      line.to_topology(), line.gateway(), targets_of(line));
  EXPECT_EQ(plan.tree.members(), fresh.members());
  EXPECT_EQ(plan.tree.forwarder_count(), fresh.forwarder_count());
  for (NodeId id : fresh.members()) {
    EXPECT_EQ(plan.tree.parent(id), fresh.parent(id)) << "node " << id;
  }

  const TopologySpec mesh = testbed::default_fig5_topology();
  EXPECT_TRUE(testbed::plan_schedule(mesh, mesh.analyze()).tree.empty());
}

// --- Shipped worlds: unicasts to the root climb the tree --------------------

TEST(DisseminationTree, ShortestPathToTheRootIsTheTreeParentInShippedWorlds) {
  // Fault reports travel as unicasts to the head on Topology::next_hop. In
  // every shipped multi-hop world that hop is the tree parent, so they ride
  // the tree's mirror-pass slots; a BFS or next-hop tie-break change that
  // splits the two would send them through out-of-tree relays instead.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(EVM_REPO_SCENARIOS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::size_t worlds = 0;
  for (const auto& file : files) {
    auto scenario = scenario::ScenarioSpec::load_file(file.string());
    ASSERT_TRUE(scenario.ok()) << scenario.status().to_string();
    const TopologySpec spec = scenario->topology();
    if (!spec.analyze().multi_hop()) continue;
    ++worlds;
    const Topology topo = spec.to_topology();
    const auto tree =
        DisseminationTree::compute(topo, spec.gateway(), targets_of(spec));
    ASSERT_EQ(tree.root(), spec.gateway()) << file;
    for (NodeId n : tree.members()) {
      if (n == tree.root()) continue;
      EXPECT_EQ(topo.next_hop(n, tree.root()), tree.parent(n))
          << file.filename() << ": node " << n;
    }
  }
  EXPECT_GE(worlds, 8u);
}

// --- Router integration: scoped relaying and its cost -----------------------

struct TreeRoutingFixture : ::testing::Test {
  sim::Simulator sim{5};
  Topology topo;
  std::unique_ptr<Medium> medium;
  RtLinkSchedule schedule{12, util::Duration::millis(5)};
  TimeSync sync{sim, {}};
  std::unique_ptr<DisseminationTreeCache> cache;

  struct Stack {
    NodeClock clock;
    std::unique_ptr<Radio> radio;
    std::unique_ptr<RtLink> mac;
    std::unique_ptr<Router> router;
  };
  std::map<NodeId, Stack> stacks;

  void build(Topology world, std::vector<NodeId> targets, NodeId root) {
    topo = std::move(world);
    medium = std::make_unique<Medium>(sim, topo);
    cache = tree_cache(topo, root, targets);
    int slot = 0;
    for (NodeId id : topo.nodes()) {
      auto& s = stacks[id];
      s.radio = std::make_unique<Radio>(sim, *medium, id);
      s.mac = std::make_unique<RtLink>(sim, *s.radio, s.clock, schedule);
      s.router = std::make_unique<Router>(*s.mac, topo);
      s.router->enable_tree_dissemination(cache.get());
      s.router->set_default_ttl(8);
      sync.attach(id, s.clock);
      schedule.assign_tx(slot++, id);
    }
    sync.start();
    for (auto& [id, s] : stacks) {
      (void)id;
      s.mac->start();
    }
  }

  void run_for(util::Duration d) { sim.run_until(sim.now() + d); }
};

TEST_F(TreeRoutingFixture, BroadcastCoversTreeButOffTreeNodesDoNotRelay) {
  // Line 1-2-3-4 with an off-path spur 5 hanging off node 2. Targets are
  // {1, 4}: the trunk is in the tree, the spur is not. The spur still
  // *hears* its neighbour (single-hop physics) but must never spend a slot
  // relaying, and a two-hop-away spur listener gets nothing.
  Topology world;
  world.set_link(1, 2, {true, 0.0});
  world.set_link(2, 3, {true, 0.0});
  world.set_link(3, 4, {true, 0.0});
  world.set_link(2, 5, {true, 0.0});
  world.set_link(5, 6, {true, 0.0});
  std::map<NodeId, int> got;
  build(std::move(world), {1, 4}, 1);
  for (auto& [id, s] : stacks) {
    s.router->set_receive_handler(
        [&got, id = id](const Datagram&) { ++got[id]; });
  }
  ASSERT_TRUE(stacks[1].router->send(kBroadcast, 7, {1}));
  run_for(util::Duration::seconds(2));

  EXPECT_EQ(got[2], 1);
  EXPECT_EQ(got[3], 1);
  EXPECT_EQ(got[4], 1);  // far target covered across two relays
  EXPECT_EQ(got[5], 1);  // spur neighbour hears node 2's relay
  EXPECT_EQ(got[6], 0);  // but the spur never re-broadcasts
  EXPECT_EQ(stacks[5].router->broadcast_relays(), 0u);
  EXPECT_EQ(stacks[4].router->broadcast_relays(), 0u);  // leaf stays quiet

  // Cost accounting: 1 origination + relays by interior nodes 2 and 3 only.
  std::size_t originated = 0, relayed = 0;
  for (auto& [id, s] : stacks) {
    (void)id;
    originated += s.router->broadcasts_originated();
    relayed += s.router->broadcast_relays();
  }
  EXPECT_EQ(originated, 1u);
  EXPECT_EQ(relayed, 2u);
}

TEST_F(TreeRoutingFixture, BroadcastFromALeafStillFloodsTheTree) {
  Topology world;
  world.set_link(1, 2, {true, 0.0});
  world.set_link(2, 3, {true, 0.0});
  world.set_link(3, 4, {true, 0.0});
  std::map<NodeId, int> got;
  build(std::move(world), {1, 4}, 1);
  for (auto& [id, s] : stacks) {
    s.router->set_receive_handler(
        [&got, id = id](const Datagram&) { ++got[id]; });
  }
  // Origin at the far leaf: the datagram climbs the tree through the
  // interior nodes and reaches the root.
  ASSERT_TRUE(stacks[4].router->send(kBroadcast, 7, {2}));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 1);
  EXPECT_EQ(got[3], 1);
}

TEST_F(TreeRoutingFixture, CrashReRoutesTheTreeMidRun) {
  // Diamond: 1-2-4 and 1-3-4. BFS prefers the lower-id relay 2; crashing it
  // must re-route the tree through 3 without any reconfiguration call.
  Topology world;
  world.set_link(1, 2, {true, 0.0});
  world.set_link(1, 3, {true, 0.0});
  world.set_link(2, 4, {true, 0.0});
  world.set_link(3, 4, {true, 0.0});
  std::map<NodeId, int> got;
  build(std::move(world), {1, 4}, 1);
  EXPECT_TRUE(cache->tree().forwards(2));
  EXPECT_FALSE(cache->tree().forwards(3));
  for (auto& [id, s] : stacks) {
    s.router->set_receive_handler(
        [&got, id = id](const Datagram&) { ++got[id]; });
  }
  topo.set_node_down(2, true);
  EXPECT_FALSE(cache->tree().contains(2));
  EXPECT_TRUE(cache->tree().forwards(3));
  ASSERT_TRUE(stacks[1].router->send(kBroadcast, 7, {3}));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(got[4], 1) << "broadcast must cross the surviving relay";
}

}  // namespace
}  // namespace evm::net
