#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"
#include "net/routing.hpp"
#include "net/rtlink.hpp"

namespace evm::net {
namespace {

/// A tree cache seeded the way TestbedBuilder seeds it: with the tree of
/// `topo` as it stands now.
std::unique_ptr<DisseminationTreeCache> tree_cache(const Topology& topo, NodeId root,
                                                   std::vector<NodeId> targets) {
  DisseminationTree tree = DisseminationTree::compute(topo, root, targets);
  return std::make_unique<DisseminationTreeCache>(topo, root, std::move(targets),
                                                  std::move(tree));
}

struct RoutingFixture : ::testing::Test {
  sim::Simulator sim{5};
  Topology topo = Topology::line({1, 2, 3, 4, 5});
  Medium medium{sim, topo};
  RtLinkSchedule schedule{10, util::Duration::millis(5)};
  TimeSync sync{sim, {}};
  std::unique_ptr<DisseminationTreeCache> cache;

  struct Stack {
    NodeClock clock;
    std::unique_ptr<Radio> radio;
    std::unique_ptr<RtLink> mac;
    std::unique_ptr<Router> router;
  };
  std::map<NodeId, Stack> stacks;

  Router& make_node(NodeId id) {
    auto& s = stacks[id];
    s.radio = std::make_unique<Radio>(sim, medium, id);
    s.mac = std::make_unique<RtLink>(sim, *s.radio, s.clock, schedule);
    s.router = std::make_unique<Router>(*s.mac, topo);
    sync.attach(id, s.clock);
    schedule.assign_tx(static_cast<int>(id) - 1, id);
    return *s.router;
  }

  void start_all() {
    sync.start();
    for (auto& [id, s] : stacks) {
      (void)id;
      s.mac->start();
    }
  }
  void run_for(util::Duration d) { sim.run_until(sim.now() + d); }
};

TEST(Datagram, EncodeDecodeRoundTrip) {
  Datagram d;
  d.source = 3;
  d.destination = 9;
  d.type = 0x42;
  d.ttl = 5;
  d.seq = 777;
  d.beacon_probe = true;
  d.beacon = {4, 1234};
  d.payload = {1, 2, 3, 4, 5};
  Datagram out;
  ASSERT_TRUE(Router::decode(Router::encode(d), out));
  EXPECT_TRUE(out.beacon_probe);
  EXPECT_EQ(out.source, 3);
  EXPECT_EQ(out.destination, 9);
  EXPECT_EQ(out.type, 0x42);
  EXPECT_EQ(out.ttl, 5);
  EXPECT_EQ(out.seq, 777);
  EXPECT_EQ(out.beacon.head, 4);
  EXPECT_EQ(out.beacon.seq, 1234);
  EXPECT_EQ(out.payload, d.payload);
}

TEST(Datagram, DecodeRejectsGarbage) {
  Datagram out;
  EXPECT_FALSE(Router::decode(std::vector<std::uint8_t>{1, 2}, out));
}

TEST_F(RoutingFixture, SingleHopDelivery) {
  Router& a = make_node(1);
  Router& b = make_node(2);
  int got = 0;
  b.set_receive_handler([&](const Datagram& d) {
    EXPECT_EQ(d.source, 1);
    EXPECT_EQ(d.type, 7);
    ++got;
  });
  start_all();
  ASSERT_TRUE(a.send(2, 7, {1, 2, 3}));
  run_for(util::Duration::millis(500));
  EXPECT_EQ(got, 1);
}

TEST_F(RoutingFixture, MultiHopForwardsAlongLine) {
  Router& a = make_node(1);
  make_node(2);
  make_node(3);
  Router& d4 = make_node(4);
  int got = 0;
  d4.set_receive_handler([&](const Datagram& d) {
    EXPECT_EQ(d.source, 1);
    ++got;
  });
  start_all();
  ASSERT_TRUE(a.send(4, 1, {0xAB}));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(got, 1);
  EXPECT_GE(stacks[2].router->forwarded_count() +
                stacks[3].router->forwarded_count(),
            2u);
}

TEST_F(RoutingFixture, NoRouteFailsFast) {
  Router& a = make_node(1);
  topo.add_node(99);
  start_all();
  const util::Status status = a.send(99, 1, {});
  EXPECT_FALSE(status);
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
}

TEST_F(RoutingFixture, ReroutesAroundFailedLink) {
  // Add a detour 1-3 so breaking 1-2 still leaves a path to 3.
  topo.set_link(1, 3, {true, 0.0});
  Router& a = make_node(1);
  make_node(2);
  Router& c = make_node(3);
  int got = 0;
  c.set_receive_handler([&](const Datagram&) { ++got; });
  start_all();
  topo.set_link_up(1, 2, false);
  ASSERT_TRUE(a.send(3, 1, {}));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(got, 1);
}

TEST_F(RoutingFixture, TreeBroadcastCrossesRelaysExactlyOnce) {
  // Line 1-2-3-4-5 with tree dissemination rooted at 1: the tree is the
  // whole chain, so 2, 3 and 4 relay. A broadcast from one end reaches the
  // far end (4 hops), and every node delivers it exactly once, although
  // each interior relay also hears its downstream neighbour's re-broadcast.
  cache = tree_cache(topo, 1, {1, 5});
  std::map<NodeId, int> got;
  for (NodeId id : {1, 2, 3, 4, 5}) {
    Router& r = make_node(id);
    r.enable_tree_dissemination(cache.get());
    r.set_default_ttl(6);
    r.set_receive_handler([&got, id](const Datagram& d) {
      EXPECT_EQ(d.source, 1);
      ++got[id];
    });
  }
  start_all();
  ASSERT_TRUE(stacks[1].router->send(kBroadcast, 1, {9}));
  run_for(util::Duration::seconds(2));
  for (NodeId id : {2, 3, 4, 5}) EXPECT_EQ(got[id], 1) << "node " << id;
  EXPECT_EQ(got[1], 0);  // own broadcast must not echo back up
  for (NodeId id : {2, 3, 4}) {
    EXPECT_EQ(stacks[id].router->broadcast_relays(), 1u) << "node " << id;
  }
  EXPECT_EQ(stacks[5].router->broadcast_relays(), 0u);  // leaf stays quiet
}

TEST_F(RoutingFixture, TreeDeduplicatesCopiesFromTwoRelays) {
  // Diamond 1-2, 1-3, 2-4, 3-4 plus a spur 3-5, tree rooted at 1 with
  // targets {4, 5}: BFS makes 2 the parent of 4 and 3 the parent of 5, so
  // 2 and 3 both relay. Node 4 hears the datagram from its parent 2 and,
  // over its non-tree link, from relay 3, but must deliver it once.
  topo = Topology();
  topo.set_link(1, 2, {true, 0.0});
  topo.set_link(1, 3, {true, 0.0});
  topo.set_link(2, 4, {true, 0.0});
  topo.set_link(3, 4, {true, 0.0});
  topo.set_link(3, 5, {true, 0.0});
  cache = tree_cache(topo, 1, {1, 4, 5});
  ASSERT_EQ(cache->tree().parent(4), 2);
  ASSERT_TRUE(cache->tree().forwards(3));
  int got = 0;
  for (NodeId id : {1, 2, 3, 4, 5}) {
    Router& r = make_node(id);
    r.enable_tree_dissemination(cache.get());
    if (id == 4) r.set_receive_handler([&](const Datagram&) { ++got; });
  }
  start_all();
  ASSERT_TRUE(stacks[1].router->send(kBroadcast, 1, {}));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(stacks[2].router->broadcast_relays(), 1u);
  EXPECT_EQ(stacks[3].router->broadcast_relays(), 1u);
  EXPECT_EQ(got, 1);
}

TEST_F(RoutingFixture, TreeRelayStopsWhenTtlRunsOut) {
  // TTL bounds tree relaying: with TTL 1 the first relay (2) forwards a
  // TTL-0 copy, which its neighbour 3 delivers but never re-broadcasts, so
  // 4 and 5 hear nothing although they are on the tree.
  cache = tree_cache(topo, 1, {1, 5});
  std::map<NodeId, int> got;
  for (NodeId id : {1, 2, 3, 4, 5}) {
    Router& r = make_node(id);
    r.enable_tree_dissemination(cache.get());
    r.set_default_ttl(1);
    r.set_receive_handler([&got, id](const Datagram&) { ++got[id]; });
  }
  start_all();
  ASSERT_TRUE(stacks[1].router->send(kBroadcast, 1, {}));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(got[2], 1);
  EXPECT_EQ(got[3], 1);
  EXPECT_EQ(got[4], 0);
  EXPECT_EQ(got[5], 0);
  EXPECT_EQ(stacks[2].router->broadcast_relays(), 1u);
  EXPECT_EQ(stacks[3].router->broadcast_relays(), 0u);
}

TEST_F(RoutingFixture, ParticipationFollowsTreeMembership) {
  // Without a tree every node takes part in the broadcast plane; with one,
  // only the tree's members do, and a crashed member drops out as soon as
  // the topology changes.
  Router& plain = make_node(1);
  EXPECT_TRUE(plain.participates_in_dissemination());

  cache = tree_cache(topo, 1, {1, 3});
  plain.enable_tree_dissemination(cache.get());
  for (NodeId id : {2, 3, 4, 5}) {
    make_node(id).enable_tree_dissemination(cache.get());
  }
  for (NodeId id : {1, 2, 3}) {
    EXPECT_TRUE(stacks[id].router->participates_in_dissemination()) << id;
  }
  for (NodeId id : {4, 5}) {
    EXPECT_FALSE(stacks[id].router->participates_in_dissemination()) << id;
  }
  topo.set_node_down(2, true);
  EXPECT_FALSE(stacks[2].router->participates_in_dissemination());
}

TEST_F(RoutingFixture, BeaconProbeRelayIsSkippedAfterTaggedDataThenResumes) {
  // Line 1-2-3, tree rooted at 1: relay 2 already carries the head's
  // current tag on its own data frames. The first probe after such a frame
  // says nothing new to 2's neighbours, so 2 skips it; the next probe finds
  // the link silent since then and is relayed.
  cache = tree_cache(topo, 1, {1, 3});
  int probes_at_3 = 0;
  int data_at_3 = 0;
  for (NodeId id : {1, 2, 3}) {
    Router& r = make_node(id);
    r.enable_tree_dissemination(cache.get());
    r.set_beacon_tag({1, 5});
  }
  stacks[3].router->set_receive_handler([&](const Datagram& d) {
    ++(d.beacon_probe ? probes_at_3 : data_at_3);
  });
  start_all();
  Router& relay = *stacks[2].router;
  ASSERT_TRUE(relay.send(kBroadcast, 1, {}));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(data_at_3, 1);
  EXPECT_EQ(relay.tagged_broadcast_sends(), 1u);

  ASSERT_TRUE(stacks[1].router->send_beacon(2, {}));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(relay.beacon_relays_suppressed(), 1u);
  EXPECT_EQ(relay.broadcast_relays(), 0u);
  EXPECT_EQ(probes_at_3, 0);

  ASSERT_TRUE(stacks[1].router->send_beacon(2, {}));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(relay.beacon_relays_suppressed(), 1u);
  EXPECT_EQ(relay.broadcast_relays(), 1u);
  EXPECT_EQ(probes_at_3, 1);
}

TEST_F(RoutingFixture, BeaconProbeIsRelayedWhenTheRelaysTagIsStale) {
  // Relay 2's data frames carried an older beacon seq than the probe, so
  // its neighbours have not seen this proof yet: the probe must go on.
  cache = tree_cache(topo, 1, {1, 3});
  int probes_at_3 = 0;
  for (NodeId id : {1, 2, 3}) make_node(id).enable_tree_dissemination(cache.get());
  stacks[1].router->set_beacon_tag({1, 5});
  stacks[2].router->set_beacon_tag({1, 4});
  stacks[3].router->set_receive_handler([&](const Datagram& d) {
    if (d.beacon_probe) ++probes_at_3;
  });
  start_all();
  Router& relay = *stacks[2].router;
  ASSERT_TRUE(relay.send(kBroadcast, 1, {}));
  run_for(util::Duration::seconds(1));
  ASSERT_TRUE(stacks[1].router->send_beacon(2, {}));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(relay.beacon_relays_suppressed(), 0u);
  EXPECT_EQ(relay.broadcast_relays(), 1u);
  EXPECT_EQ(probes_at_3, 1);
}

TEST_F(RoutingFixture, BeaconObserverSeesEveryCopyBeforeDedup) {
  // Same diamond as TreeDeduplicatesCopiesFromTwoRelays: node 4 delivers
  // the datagram once but observes the beacon tag on both copies, because
  // liveness gossip must not depend on which copy won the dedup race.
  topo = Topology();
  topo.set_link(1, 2, {true, 0.0});
  topo.set_link(1, 3, {true, 0.0});
  topo.set_link(2, 4, {true, 0.0});
  topo.set_link(3, 4, {true, 0.0});
  topo.set_link(3, 5, {true, 0.0});
  cache = tree_cache(topo, 1, {1, 4, 5});
  int delivered = 0;
  int observed = 0;
  for (NodeId id : {1, 2, 3, 4, 5}) {
    make_node(id).enable_tree_dissemination(cache.get());
  }
  stacks[1].router->set_beacon_tag({1, 3});
  stacks[4].router->set_receive_handler([&](const Datagram&) { ++delivered; });
  stacks[4].router->set_beacon_observer([&](const BeaconTag& tag) {
    EXPECT_EQ(tag.head, 1);
    EXPECT_EQ(tag.seq, 3);
    ++observed;
  });
  start_all();
  ASSERT_TRUE(stacks[1].router->send(kBroadcast, 1, {}));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(observed, 2);
}

TEST_F(RoutingFixture, BroadcastIsOneHop) {
  Router& a = make_node(1);
  Router& b = make_node(2);
  Router& c = make_node(3);  // two hops away: must NOT hear a broadcast
  int got_b = 0, got_c = 0;
  b.set_receive_handler([&](const Datagram&) { ++got_b; });
  c.set_receive_handler([&](const Datagram&) { ++got_c; });
  start_all();
  ASSERT_TRUE(a.send(kBroadcast, 1, {}));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 0);
}

}  // namespace
}  // namespace evm::net
