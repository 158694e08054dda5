#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "net/link_dynamics.hpp"
#include "net/medium.hpp"
#include "net/radio.hpp"
#include "sim/trace.hpp"

namespace evm::net {
namespace {

TEST(GilbertElliott, SteadyStateLossAnalytic) {
  GilbertElliottParams params;
  params.p_good_loss = 0.0;
  params.p_bad_loss = 1.0;
  params.p_good_to_bad = 0.1;
  params.p_bad_to_good = 0.4;
  GilbertElliott chain(params);
  // pi_bad = 0.1 / 0.5 = 0.2 -> loss = 0.2.
  EXPECT_NEAR(chain.steady_state_loss(), 0.2, 1e-12);
}

TEST(GilbertElliott, EmpiricalMatchesAnalytic) {
  GilbertElliottParams params;
  GilbertElliott chain(params, 7);
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) drops += chain.drop_next() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, chain.steady_state_loss(), 0.01);
}

TEST(GilbertElliott, LossesAreBursty) {
  // Compare run-length of losses against an i.i.d. process of equal rate:
  // consecutive-drop pairs must be far more frequent.
  GilbertElliottParams params;
  GilbertElliott chain(params, 11);
  const int n = 100000;
  std::vector<bool> outcome(n);
  for (int i = 0; i < n; ++i) outcome[i] = chain.drop_next();
  int losses = 0, pairs = 0;
  for (int i = 0; i + 1 < n; ++i) {
    losses += outcome[i] ? 1 : 0;
    pairs += (outcome[i] && outcome[i + 1]) ? 1 : 0;
  }
  const double rate = static_cast<double>(losses) / n;
  const double pair_rate = static_cast<double>(pairs) / n;
  EXPECT_GT(pair_rate, 2.0 * rate * rate);  // strongly super-independent
}

TEST(GilbertElliott, DeterministicPerSeed) {
  GilbertElliott a({}, 5), b({}, 5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.drop_next(), b.drop_next());
}

struct MediumBurstFixture : ::testing::Test {
  sim::Simulator sim{3};
  Topology topo = Topology::full_mesh({1, 2});
  Medium medium{sim, topo};
};

TEST_F(MediumBurstFixture, BurstModelGovernsLink) {
  GilbertElliottParams always_bad;
  always_bad.p_good_loss = 1.0;
  always_bad.p_bad_loss = 1.0;
  medium.set_burst_loss(1, 2, always_bad);

  Radio tx(sim, medium, 1), rx(sim, medium, 2);
  tx.set_state(RadioState::kIdleListen);
  rx.set_state(RadioState::kIdleListen);
  int received = 0;
  rx.set_receive_handler([&](const Packet&) { ++received; });
  for (int i = 0; i < 5; ++i) {
    sim.schedule_after(util::Duration::millis(20 * i), [&] {
      Packet p;
      p.dst = 2;
      tx.transmit(p);
    });
  }
  sim.run_all();
  EXPECT_EQ(received, 0);

  medium.clear_burst_loss(1, 2);
  Packet p;
  p.dst = 2;
  tx.transmit(p);
  sim.run_all();
  EXPECT_EQ(received, 1);  // back to the (lossless) static model
}

struct ScriptFixture : ::testing::Test {
  sim::Simulator sim{4};
  Topology topo = Topology::full_mesh({1, 2, 3});
  TopologyScript script{sim, topo};

  util::TimePoint at(std::int64_t s) {
    return util::TimePoint::zero() + util::Duration::seconds(s);
  }
};

TEST_F(ScriptFixture, TimedLinkChanges) {
  script.link_down(at(10), 1, 2);
  script.set_loss(at(20), 1, 3, 0.5);
  script.link_up(at(30), 1, 2);

  sim.run_until(at(15));
  EXPECT_FALSE(topo.connected(1, 2));
  EXPECT_DOUBLE_EQ(topo.loss(1, 3), 0.0);

  sim.run_until(at(25));
  EXPECT_DOUBLE_EQ(topo.loss(1, 3), 0.5);

  sim.run_until(at(35));
  EXPECT_TRUE(topo.connected(1, 2));
  EXPECT_EQ(script.events_applied(), 3u);
}

TEST_F(ScriptFixture, OutageRestoresAutomatically) {
  script.outage(at(5), 2, 3, util::Duration::seconds(10));
  sim.run_until(at(6));
  EXPECT_FALSE(topo.connected(2, 3));
  sim.run_until(at(16));
  EXPECT_TRUE(topo.connected(2, 3));
}

TEST_F(ScriptFixture, ArbitraryMutation) {
  script.at(at(7), [](Topology& t) { t.set_link(1, 9, {true, 0.25}); });
  sim.run_until(at(8));
  EXPECT_TRUE(topo.connected(1, 9));
  EXPECT_DOUBLE_EQ(topo.loss(1, 9), 0.25);
}

TEST_F(ScriptFixture, SimultaneousMutationsApplyInRegistrationOrder) {
  // Identical timestamps resolve FIFO by the simulator's sequence counter:
  // the mutation registered last wins, and scenario specs rely on this to
  // keep file order meaningful.
  script.link_down(at(10), 1, 2);
  script.link_up(at(10), 1, 2);
  sim.run_until(at(11));
  EXPECT_TRUE(topo.connected(1, 2));
  EXPECT_EQ(script.events_applied(), 2u);

  script.link_up(at(20), 1, 3);
  script.link_down(at(20), 1, 3);
  sim.run_until(at(21));
  EXPECT_FALSE(topo.connected(1, 3));
}

TEST_F(ScriptFixture, UnknownLinkMutationsAreInertNoOps) {
  // Node 7 is not in the topology: the mutation fires (it still counts as
  // applied) but must neither crash nor conjure the link into existence.
  script.link_down(at(5), 1, 7);
  script.set_loss(at(6), 1, 7, 0.9);
  script.link_up(at(7), 1, 7);
  sim.run_until(at(10));
  EXPECT_EQ(script.events_applied(), 3u);
  EXPECT_FALSE(topo.link(1, 7).has_value());
  EXPECT_FALSE(topo.connected(1, 7));
  EXPECT_DOUBLE_EQ(topo.loss(1, 7), 1.0);  // absent links are total loss
}

TEST_F(ScriptFixture, RerunAfterTraceClearIsDeterministic) {
  // A scripted run recorded into a Trace, cleared, and re-run from scratch
  // must reproduce the identical mutation sequence sample for sample.
  auto run_recorded = [](sim::Trace& trace) {
    sim::Simulator sim(4);
    Topology topo = Topology::full_mesh({1, 2, 3});
    TopologyScript script(sim, topo);
    auto at = [](std::int64_t s) {
      return util::TimePoint::zero() + util::Duration::seconds(s);
    };
    script.outage(at(2), 1, 2, util::Duration::seconds(3));
    script.set_loss(at(4), 1, 3, 0.5);
    script.outage(at(6), 2, 3, util::Duration::seconds(1));
    for (std::int64_t s = 0; s <= 8; ++s) {
      sim.schedule_at(at(s), [&, s] {
        trace.record("up_1_2", at(s), topo.connected(1, 2) ? 1.0 : 0.0);
        trace.record("loss_1_3", at(s), topo.loss(1, 3));
      });
    }
    sim.run_all();
  };

  const auto dump = [](const sim::Trace& t) {
    std::ostringstream csv;
    t.to_csv(csv);
    return csv.str();
  };
  sim::Trace trace;
  run_recorded(trace);
  const std::string first = dump(trace);
  EXPECT_GT(trace.total_samples(), 0u);

  trace.clear();
  EXPECT_EQ(trace.total_samples(), 0u);
  run_recorded(trace);
  EXPECT_EQ(dump(trace), first);
}

}  // namespace
}  // namespace evm::net
