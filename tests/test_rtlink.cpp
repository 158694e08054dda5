#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/medium.hpp"
#include "net/rtlink.hpp"

namespace evm::net {
namespace {

struct RtLinkFixture : ::testing::Test {
  sim::Simulator sim{42};
  Topology topo = Topology::full_mesh({1, 2, 3});
  Medium medium{sim, topo};
  RtLinkSchedule schedule{8, util::Duration::millis(5)};
  TimeSync sync{sim, {}};

  struct NodeStack {
    NodeClock clock;
    std::unique_ptr<Radio> radio;
    std::unique_ptr<RtLink> mac;
  };
  std::map<NodeId, NodeStack> nodes;

  RtLink& make_node(NodeId id, double drift_ppm = 10.0,
                    std::size_t queue_capacity = 32) {
    auto& stack = nodes[id];
    stack.clock.set_drift_ppm(drift_ppm);
    stack.radio = std::make_unique<Radio>(sim, medium, id);
    stack.mac = std::make_unique<RtLink>(sim, *stack.radio, stack.clock,
                                         schedule, queue_capacity);
    sync.attach(id, stack.clock);
    return *stack.mac;
  }

  void run_for(util::Duration d) {
    sim.run_until(sim.now() + d);
  }

  /// Queue broadcasts 1, 2, 4 and unicasts 3, 5 (node 1 -> node 2, tagged
  /// by their first payload byte) before the first frame, then return the
  /// tags in the order node 2 received them. Node 1 owns one slot per
  /// frame, so the receive order is the MAC's drain order.
  std::vector<int> drain_order(bool unicast_priority) {
    schedule.assign_tx(0, 1);
    RtLink& a = make_node(1);
    RtLink& b = make_node(2);
    a.set_unicast_priority(unicast_priority);
    std::vector<int> order;
    b.set_receive_handler([&](const Packet& p) { order.push_back(p.payload[0]); });
    sync.start();
    a.start();
    b.start();
    for (std::uint8_t tag = 1; tag <= 5; ++tag) {
      Packet p;
      p.dst = tag == 3 || tag == 5 ? NodeId{2} : kBroadcast;
      p.payload = {tag};
      EXPECT_TRUE(a.send(p));
    }
    run_for(schedule.frame_length() * 8);
    return order;
  }
};

TEST_F(RtLinkFixture, ScheduleAssignment) {
  schedule.assign_tx(0, 1);
  schedule.assign_tx(3, 2);
  EXPECT_EQ(schedule.tx_of(0), 1);
  EXPECT_EQ(schedule.tx_of(3), 2);
  EXPECT_EQ(schedule.tx_of(5), kInvalidNode);
  EXPECT_EQ(schedule.slots_of(1), (std::vector<int>{0}));
  EXPECT_EQ(schedule.frame_length().ms(), 40);
}

TEST_F(RtLinkFixture, ScheduleVersionBumpsOnMutation) {
  const auto v0 = schedule.version();
  schedule.assign_tx(0, 1);
  EXPECT_GT(schedule.version(), v0);
  schedule.clear_slot(0);
  EXPECT_GT(schedule.version(), v0 + 1);
}

TEST_F(RtLinkFixture, ListenerDefaultsAndRestrictions) {
  schedule.assign_tx(0, 1);
  EXPECT_TRUE(schedule.should_listen(0, 2));   // default: everyone listens
  EXPECT_FALSE(schedule.should_listen(0, 1));  // not the transmitter itself
  EXPECT_FALSE(schedule.should_listen(1, 2));  // idle slot: sleep
  schedule.set_listeners(0, {3});
  EXPECT_FALSE(schedule.should_listen(0, 2));
  EXPECT_TRUE(schedule.should_listen(0, 3));
}

TEST_F(RtLinkFixture, DeliversUnicast) {
  schedule.assign_tx(0, 1);
  schedule.assign_tx(1, 2);
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  int received = 0;
  b.set_receive_handler([&](const Packet& p) {
    EXPECT_EQ(p.src, 1);
    ++received;
  });
  sync.start();
  a.start();
  b.start();
  Packet p;
  p.dst = 2;
  p.payload = {0xAA};
  ASSERT_TRUE(a.send(p));
  run_for(util::Duration::millis(200));
  EXPECT_EQ(received, 1);
}

TEST_F(RtLinkFixture, DeliversBroadcastToAll) {
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  RtLink& c = make_node(3);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  c.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  c.start();
  Packet p;
  p.dst = kBroadcast;
  ASSERT_TRUE(a.send(p));
  run_for(util::Duration::millis(200));
  EXPECT_EQ(received, 2);
}

TEST_F(RtLinkFixture, CollisionFreeUnderLoad) {
  // Both nodes saturate their slots; TDMA keeps the medium collision-free.
  schedule.assign_tx(0, 1);
  schedule.assign_tx(4, 2);
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  a.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  for (int frame = 0; frame < 50; ++frame) {
    sim.schedule_after(util::Duration::millis(40 * frame), [&] {
      Packet p;
      p.dst = 2;
      (void)a.send(p);
      Packet q;
      q.dst = 1;
      (void)b.send(q);
    });
  }
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(medium.collision_count(), 0u);
  EXPECT_GE(received, 95);  // ~100 minus queue-timing boundary effects
}

TEST_F(RtLinkFixture, NoSlotNoTransmission) {
  RtLink& a = make_node(1);  // never assigned a slot
  RtLink& b = make_node(2);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  Packet p;
  p.dst = 2;
  (void)a.send(p);
  run_for(util::Duration::millis(500));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(a.worst_case_access_delay(), util::Duration::max());
}

TEST_F(RtLinkFixture, RuntimeSlotReassignmentTakesEffect) {
  schedule.assign_tx(0, 3);  // someone else's slot
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  Packet p;
  p.dst = 2;
  (void)a.send(p);
  run_for(util::Duration::millis(200));
  EXPECT_EQ(received, 0);
  // The EVM's parametric "network time-slot assignment" operation:
  schedule.assign_tx(0, 1);
  run_for(util::Duration::millis(200));
  EXPECT_EQ(received, 1);
}

TEST_F(RtLinkFixture, SleepsWhenIdle) {
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1);
  sync.start();
  a.start();
  a.radio().reset_energy(sim.now());
  run_for(util::Duration::seconds(10));
  // With nothing to send and nothing to listen to (slots 1-7 idle, slot 0
  // is its own), the node should be asleep nearly all the time.
  const double duty =
      a.radio().time_in(RadioState::kIdleListen).to_seconds() / 10.0;
  EXPECT_LT(duty, 0.05);
}

TEST_F(RtLinkFixture, ListenersBurnEnergyOnlyInActiveSlots) {
  schedule.assign_tx(0, 1);  // 1 slot of 8 active
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  sync.start();
  a.start();
  b.start();
  b.radio().reset_energy(sim.now());
  run_for(util::Duration::seconds(10));
  const double listen_fraction =
      b.radio().time_in(RadioState::kIdleListen).to_seconds() / 10.0;
  // One slot in eight = 12.5 % duty for a listener.
  EXPECT_NEAR(listen_fraction, 0.125, 0.03);
}

TEST_F(RtLinkFixture, WorstCaseAccessDelayIsOneFrame) {
  schedule.assign_tx(2, 1);
  RtLink& a = make_node(1);
  EXPECT_EQ(a.worst_case_access_delay(), schedule.frame_length());
}

TEST_F(RtLinkFixture, StopSilencesNode) {
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  a.stop();
  Packet p;
  p.dst = 2;
  (void)a.send(p);
  run_for(util::Duration::millis(500));
  EXPECT_EQ(received, 0);
}

TEST_F(RtLinkFixture, DriftWithinGuardStillDelivers) {
  // +/-40 ppm across nodes with 1 s sync period: error ~40 us << 200 us guard.
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1, +40.0);
  RtLink& b = make_node(2, -40.0);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  for (int i = 0; i < 20; ++i) {
    sim.schedule_after(util::Duration::millis(40 * i), [&] {
      Packet p;
      p.dst = 2;
      (void)a.send(p);
    });
  }
  run_for(util::Duration::seconds(2));
  EXPECT_GE(received, 18);
}

TEST_F(RtLinkFixture, UnicastPriorityLaneDrainsUnicastsFirst) {
  // Unicasts overtake the broadcasts queued ahead of them; each lane stays
  // FIFO.
  EXPECT_EQ(drain_order(true), (std::vector<int>{3, 5, 1, 2, 4}));
}

TEST_F(RtLinkFixture, WithoutThePriorityLaneOneFifo) {
  EXPECT_EQ(drain_order(false), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_F(RtLinkFixture, FullPriorityLaneCountsAQueueDrop) {
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1, 10.0, /*queue_capacity=*/2);
  a.set_unicast_priority(true);
  Packet unicast;
  unicast.dst = 2;
  ASSERT_TRUE(a.send(unicast));
  ASSERT_TRUE(a.send(unicast));
  const util::Status full = a.send(unicast);
  EXPECT_EQ(full.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(a.stats().queue_drops, 1u);
  EXPECT_EQ(a.stats().enqueued, 3u);
  // The broadcast lane has its own capacity and still accepts.
  Packet broadcast;
  broadcast.dst = kBroadcast;
  EXPECT_TRUE(a.send(broadcast));
  EXPECT_EQ(a.stats().queue_drops, 1u);
  EXPECT_EQ(a.queue_depth(), 3u);
}

}  // namespace
}  // namespace evm::net
