#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace evm::scenario {
namespace {

util::Result<ScenarioSpec> parse(const std::string& text) {
  auto json = util::Json::parse(text);
  if (!json) return json.status();
  return ScenarioSpec::from_json(*json);
}

// A fast failover scenario shared by several tests: compressed evidence
// window, fault at t=10s, 60s horizon.
const char* kFailoverSpec = R"({
  "name": "test-failover",
  "horizon_s": 60,
  "testbed": {"evidence_threshold": 8, "dormant_delay_s": 5, "link_loss": 0.05},
  "events": [{"at_s": 10, "do": "primary_fault", "value": 75.0}]
})";

TEST(ScenarioSpec, ParsesMinimalSpec) {
  auto spec = parse(R"({"name": "s"})");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec->name, "s");
  EXPECT_TRUE(spec->events.empty());
  EXPECT_FALSE(spec->churn.enabled);
  EXPECT_DOUBLE_EQ(spec->first_fault_s(), -1.0);
}

TEST(ScenarioSpec, ParsesFullSchedule) {
  auto spec = parse(R"({
    "name": "full",
    "horizon_s": 90,
    "testbed": {"control_period_ms": 200, "evidence_threshold": 4,
                "dormant_delay_s": 7.5, "level_setpoint": 55,
                "third_controller": true, "link_loss": 0.1},
    "record": ["TowerFeed.MolarFlow"],
    "churn": {"outages_per_minute": 10, "outage_s": 2},
    "events": [
      {"at_s": 5, "do": "link_down", "a": "gateway", "b": "sensor"},
      {"at_s": 6, "do": "link_up", "a": 1, "b": 2},
      {"at_s": 7, "do": "link_outage", "a": "ctrl_a", "b": "ctrl_c", "duration_s": 3},
      {"at_s": 8, "do": "link_loss", "a": "sensor", "b": "ctrl_b", "loss": 0.4},
      {"at_s": 9, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_bad_loss": 0.9},
      {"at_s": 10, "do": "clear_burst_loss", "a": "sensor", "b": "ctrl_a"},
      {"at_s": 11, "do": "node_crash", "node": "ctrl_b"},
      {"at_s": 12, "do": "node_restart", "node": "ctrl_b"},
      {"at_s": 13, "do": "clock_drift", "node": "actuator", "ppm": 55},
      {"at_s": 14, "do": "traffic_burst", "node": "sensor", "count": 5, "interval_ms": 10},
      {"at_s": 15, "do": "primary_fault", "value": 80},
      {"at_s": 16, "do": "clear_primary_fault"}
    ]
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec->events.size(), 12u);
  EXPECT_EQ(spec->testbed.control_period.ms(), 200);
  EXPECT_TRUE(spec->testbed.third_controller);
  EXPECT_TRUE(spec->churn.enabled);
  // node_crash at 11s precedes the primary fault at 15s.
  EXPECT_DOUBLE_EQ(spec->first_fault_s(), 11.0);
  EXPECT_DOUBLE_EQ(spec->events[2].duration_s, 3.0);
  EXPECT_DOUBLE_EQ(spec->events[4].burst.p_bad_loss, 0.9);
}

TEST(ScenarioSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      R"({"horizon_s": 10})",                                         // no name
      R"({"name": "x", "horizon_s": -1})",                            // bad horizon
      R"({"name": "x", "events": [{"at_s": 1, "do": "explode"}]})",   // unknown kind
      R"({"name": "x", "events": [{"do": "primary_fault", "value": 1}]})",  // no at_s
      R"({"name": "x", "events": [{"at_s": 1, "do": "primary_fault"}]})",   // no value
      R"({"name": "x", "events": [{"at_s": 1, "do": "node_crash"}]})",      // no node
      R"({"name": "x", "events": [{"at_s": 1, "do": "node_crash", "node": "nobody"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "link_down", "a": "sensor", "b": "sensor"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "link_loss", "a": "sensor", "b": "ctrl_a", "loss": 2}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "node_crash", "node": "ctrl_c"}]})",  // no 3rd ctrl
      R"({"name": "x", "testbed": {"evidence_threshold": 0}})",
      R"({"name": "x", "testbed": {"dormant_delay_s": -1}})",
      R"({"name": "x", "churn": {"outages_per_minute": 10, "start_s": -20}})",
      R"({"name": "x", "churn": {"outages_per_minute": 10, "end_margin_s": -5}})",
      R"({"name": "x", "record": [7]})",
      // Wrong-typed numerics must be rejected, never silently 0.0.
      R"({"name": "x", "events": [{"at_s": 1, "do": "primary_fault", "value": "75.0"}]})",
      R"({"name": "x", "events": [{"at_s": "1", "do": "clear_primary_fault"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "clock_drift", "node": "sensor", "ppm": "80"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_bad_to_good": 25}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_bad_loss": "0.8"}]})",
      R"({"name": "x", "horizon_s": "120"})",
      R"({"name": "x", "testbed": {"link_loss": "0.5"}})",
      R"({"name": "x", "testbed": {"third_controller": "true"}})",
      R"({"name": "x", "churn": {"outages_per_minute": "15"}})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "link_outage", "a": "sensor", "b": "ctrl_a", "duration_s": "3"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "traffic_burst", "node": "sensor", "count": "5", "interval_ms": 10}]})",
  };
  for (const char* text : bad) {
    auto spec = parse(text);
    EXPECT_FALSE(spec.ok()) << "accepted: " << text;
  }
}

TEST(ScenarioSpec, EventDiagnosticsNameTheOffendingKey) {
  // Every fault-event kind, with a required field missing or ill-typed: the
  // diagnostic must name the key the author has to fix (and the events[i]
  // wrapper locates the entry).
  struct Case {
    const char* events;     // contents of the "events" array
    const char* expect_key; // substring the error must contain
  };
  const Case cases[] = {
      // missing fields, one per kind
      {R"([{"at_s": 1, "do": "primary_fault"}])", "'value'"},
      {R"([{"do": "clear_primary_fault"}])", "'at_s'"},
      {R"([{"at_s": 1, "do": "node_crash"}])", "'node'"},
      {R"([{"at_s": 1, "do": "node_restart"}])", "'node'"},
      {R"([{"at_s": 1, "do": "link_down", "b": "sensor"}])", "'a'"},
      {R"([{"at_s": 1, "do": "link_up", "a": "sensor"}])", "'b'"},
      {R"([{"at_s": 1, "do": "link_outage", "a": "sensor", "b": "ctrl_a"}])",
       "'duration_s'"},
      {R"([{"at_s": 1, "do": "link_loss", "a": "sensor", "b": "ctrl_a"}])",
       "'loss'"},
      {R"([{"at_s": 1, "do": "clear_burst_loss", "a": "sensor"}])", "'b'"},
      {R"([{"at_s": 1, "do": "clock_drift", "node": "sensor"}])", "'ppm'"},
      {R"([{"at_s": 1, "do": "traffic_burst", "node": "sensor", "interval_ms": 10}])",
       "'count'"},
      {R"([{"at_s": 1, "do": "traffic_burst", "node": "sensor", "count": 5}])",
       "'interval_ms'"},
      // ill-typed fields
      {R"([{"at_s": 1, "do": "primary_fault", "value": "75"}])", "'value'"},
      {R"([{"at_s": true, "do": "clear_primary_fault"}])", "'at_s'"},
      {R"([{"at_s": 1, "do": "node_crash", "node": true}])", "'node'"},
      {R"([{"at_s": 1, "do": "link_down", "a": {}, "b": "sensor"}])", "'a'"},
      {R"([{"at_s": 1, "do": "link_outage", "a": "sensor", "b": "ctrl_a", "duration_s": "3"}])",
       "'duration_s'"},
      {R"([{"at_s": 1, "do": "link_loss", "a": "sensor", "b": "ctrl_a", "loss": "0.4"}])",
       "'loss'"},
      {R"([{"at_s": 1, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_good_to_bad": "x"}])",
       "'p_good_to_bad'"},
      {R"([{"at_s": 1, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_bad_loss": 9}])",
       "'p_bad_loss'"},
      {R"([{"at_s": 1, "do": "clock_drift", "node": "sensor", "ppm": []}])",
       "'ppm'"},
      {R"([{"at_s": 1, "do": "traffic_burst", "node": "sensor", "count": "5", "interval_ms": 10}])",
       "'count'"},
  };
  for (const auto& c : cases) {
    auto spec = parse(std::string(R"({"name": "x", "events": )") + c.events + "}");
    ASSERT_FALSE(spec.ok()) << "accepted: " << c.events;
    const std::string message = spec.status().message();
    EXPECT_NE(message.find(c.expect_key), std::string::npos)
        << "diagnostic for " << c.events << " does not name " << c.expect_key
        << ": " << message;
    EXPECT_NE(message.find("events[0]"), std::string::npos) << message;
  }
}

TEST(ScenarioSpec, RejectsEventsScheduledPastTheHorizon) {
  auto spec = parse(R"({
    "name": "x",
    "horizon_s": 60,
    "events": [
      {"at_s": 10, "do": "primary_fault", "value": 75},
      {"at_s": 100, "do": "node_crash", "node": "ctrl_a"}
    ]
  })");
  ASSERT_FALSE(spec.ok());
  const std::string message = spec.status().message();
  EXPECT_NE(message.find("events[1]"), std::string::npos) << message;
  EXPECT_NE(message.find("horizon"), std::string::npos) << message;
  EXPECT_NE(message.find("node_crash"), std::string::npos) << message;

  // Exactly at the horizon still fires (the simulator runs events at the
  // end time), so it is accepted.
  auto boundary = parse(R"({
    "name": "x",
    "horizon_s": 60,
    "events": [{"at_s": 60, "do": "primary_fault", "value": 75}]
  })");
  EXPECT_TRUE(boundary.ok()) << boundary.status().to_string();
}

TEST(ScenarioRunner, RejectsReTimedSpecWithEventsPastHorizon) {
  // A spec re-timed after parsing (the CLI horizon override path) must be
  // rejected by the runner rather than silently dropping scheduled faults.
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  spec->horizon_s = 5.0;  // fault is at 10 s
  ScenarioRunner runner(*spec, 1);
  const RunMetrics m = runner.run();
  EXPECT_FALSE(m.ok);
  EXPECT_NE(m.error.find("horizon"), std::string::npos) << m.error;
}

TEST(ScenarioRunner, ProgrammaticInfeasibleScheduleFailsItsRun) {
  // The runner leaves world and slot-plan checks to TestbedBuilder; a spec
  // assembled in code, never through from_json, must still fail its run
  // with the diagnostic ScenarioSpec::validate gives. (Events past the
  // horizon: RejectsReTimedSpecWithEventsPastHorizon.)
  ScenarioSpec spec;
  spec.name = "infeasible";
  spec.horizon_s = 30.0;
  spec.testbed.topology = testbed::grid_topology(5, 4);
  spec.testbed.control_period = util::Duration::millis(100);
  const RunMetrics m = ScenarioRunner(spec, 1).run();
  EXPECT_FALSE(m.ok);
  EXPECT_NE(m.error.find("infeasible schedule"), std::string::npos) << m.error;
  EXPECT_EQ(m.error, spec.validate().message());
}

TEST(ScenarioRunner, SingleHopWorldNeverRelaysBroadcasts) {
  // The Fig. 5 full mesh is single-hop: the builder installs no tree, so
  // every broadcast costs exactly its origination slot.
  auto spec = parse(R"({"name": "single-hop", "horizon_s": 10})");
  ASSERT_TRUE(spec.ok());
  const RunMetrics m = ScenarioRunner(*spec, 1).run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.dissemination, "single_hop");
  EXPECT_GT(m.bcast_datagrams, 0u);
  EXPECT_EQ(m.bcast_transmissions, m.bcast_datagrams);
  EXPECT_DOUBLE_EQ(m.slots_per_broadcast, 1.0);
}

TEST(ScenarioSpec, RemovedTestbedKeysAreIgnoredAndNotEchoed) {
  // Older specs (and generated workloads) still carry testbed keys whose
  // knobs are gone. They must parse, vanish from the echo, and run the
  // same experiment as the spec without them.
  const char* kBody = R"(
    "horizon_s": 20,
    "topology": {"generator": "line", "nodes": 6},
    "events": [{"at_s": 8, "do": "primary_fault", "value": 75.0}]
  })";
  auto with_keys = parse(std::string(R"({"name": "removed-keys",
    "testbed": {"evidence_threshold": 6, "dormant_delay_s": 5,
                "dissemination": "flood", "head_bound_tree_unicast": true,
                "mac_unicast_priority": true},)") + kBody);
  auto without = parse(std::string(R"({"name": "removed-keys",
    "testbed": {"evidence_threshold": 6, "dormant_delay_s": 5},)") + kBody);
  ASSERT_TRUE(with_keys.ok()) << with_keys.status().to_string();
  ASSERT_TRUE(without.ok()) << without.status().to_string();

  const util::Json echo = with_keys->to_json();
  const util::Json* tb = echo.find("testbed");
  ASSERT_NE(tb, nullptr);
  for (const char* key :
       {"dissemination", "head_bound_tree_unicast", "mac_unicast_priority"}) {
    EXPECT_EQ(tb->find(key), nullptr) << key;
  }
  EXPECT_EQ(echo.dump(), without->to_json().dump());

  const RunMetrics m = ScenarioRunner(*with_keys, 1).run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.dissemination, "tree");
  EXPECT_EQ(m.to_json().dump(),
            ScenarioRunner(*without, 1).run().to_json().dump());
}

TEST(ScenarioSpec, JsonRoundTripIsStable) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  auto reparsed = ScenarioSpec::from_json(spec->to_json());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed->to_json().dump(), spec->to_json().dump());
}

TEST(ScenarioSpec, TopologySectionParsesResolvesAndRoundTrips) {
  auto spec = parse(R"({
    "name": "line-world",
    "horizon_s": 40,
    "testbed": {"control_period_ms": 500, "evidence_threshold": 6},
    "topology": {"generator": "line", "nodes": 8},
    "events": [
      {"at_s": 10, "do": "node_crash", "node": "relay_2"},
      {"at_s": 14, "do": "node_restart", "node": "relay_2"},
      {"at_s": 20, "do": "link_outage", "a": "ctrl_a", "b": "ctrl_b", "duration_s": 2}
    ]
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  const testbed::TopologySpec topo = spec->topology();
  EXPECT_EQ(topo.nodes.size(), 8u);
  EXPECT_TRUE(topo.analyze().multi_hop());
  // Event node refs resolved against the custom role table.
  EXPECT_EQ(spec->events[0].node, topo.find_name("relay_2")->id);

  // Round trip: the report's spec echo rebuilds the identical world.
  auto reparsed = ScenarioSpec::from_json(spec->to_json());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed->to_json().dump(), spec->to_json().dump());
  EXPECT_EQ(reparsed->topology().to_json().dump(), topo.to_json().dump());
}

TEST(ScenarioSpec, TopologyRejectsConflictsAndMissingLinks) {
  // Fig. 5-only knobs cannot be combined with an explicit world.
  auto third = parse(R"({
    "name": "x", "testbed": {"third_controller": true},
    "topology": {"generator": "line", "nodes": 8}
  })");
  EXPECT_FALSE(third.ok());
  auto loss = parse(R"({
    "name": "x", "testbed": {"link_loss": 0.1},
    "topology": {"generator": "line", "nodes": 8}
  })");
  EXPECT_FALSE(loss.ok());

  // Link events must reference links that exist (gateway-actuator is 7 hops
  // apart on the chain).
  auto no_link = parse(R"({
    "name": "x", "horizon_s": 30,
    "testbed": {"control_period_ms": 500},
    "topology": {"generator": "line", "nodes": 8},
    "events": [{"at_s": 5, "do": "link_down", "a": "gateway", "b": "actuator"}]
  })");
  ASSERT_FALSE(no_link.ok());
  EXPECT_NE(no_link.status().message().find("no link"), std::string::npos);

  // Unknown role names fail with the world's own vocabulary.
  auto unknown = parse(R"({
    "name": "x", "horizon_s": 30,
    "testbed": {"control_period_ms": 500},
    "topology": {"generator": "line", "nodes": 8},
    "events": [{"at_s": 5, "do": "node_crash", "node": "ctrl_c"}]
  })");
  EXPECT_FALSE(unknown.ok());

  // Schedule feasibility: a 20-node frame cannot fit a 100 ms period.
  auto infeasible = parse(R"({
    "name": "x", "horizon_s": 30,
    "testbed": {"control_period_ms": 100},
    "topology": {"generator": "grid", "width": 5, "height": 4}
  })");
  ASSERT_FALSE(infeasible.ok());
  EXPECT_NE(infeasible.status().message().find("infeasible"), std::string::npos);
}

TEST(ScenarioRunner, MultiHopLineFailoverCrossesRelays) {
  // A world the fixed six-node testbed could never express: the failover
  // evidence, the fault report and the promotion all cross a relay chain.
  auto spec = parse(R"({
    "name": "test-line-failover",
    "horizon_s": 40,
    "testbed": {"control_period_ms": 250, "evidence_threshold": 6,
                "dormant_delay_s": 5},
    "topology": {"generator": "line", "nodes": 6},
    "events": [{"at_s": 10, "do": "primary_fault", "value": 75.0}]
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  ScenarioRunner runner(*spec, 3);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GE(m.failover_count, 1u);
  EXPECT_TRUE(m.backup_active);
  EXPECT_EQ(m.ctrl_b_mode, "Active");
  EXPECT_LT(m.level_rmse_pct, 5.0);
}

TEST(ScenarioSpec, ShippedScenariosStillParseAndRoundTrip) {
  // Every shipped spec parses and resolves to a valid world: the Fig. 5
  // mesh without a "topology" key, a multi-hop world with one. Its echo is
  // a fixed point and rebuilds the same experiment: seed 1 of
  // from_json(to_json()) must report what seed 1 of the file does, so a
  // field the echo drops cannot hide behind an echo-to-echo comparison.
  // The runs are cut to 30 s, long enough for the beacon plane, the
  // control loop and the routing to show any dropped field.
  constexpr double kHorizonS = 30.0;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(EVM_REPO_SCENARIOS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    auto spec = ScenarioSpec::load_file(file.string());
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status().to_string();
    const testbed::TopologySpec topo = spec->topology();
    EXPECT_TRUE(topo.validate()) << name;
    if (spec->testbed.topology.empty()) {
      EXPECT_EQ(topo.nodes.size(), 6u) << name;
      EXPECT_EQ(topo.diameter(), 1) << name;
    } else {
      EXPECT_TRUE(topo.analyze().multi_hop()) << name;
    }
    const util::Json echo = spec->to_json();
    auto reparsed = ScenarioSpec::from_json(echo);
    ASSERT_TRUE(reparsed.ok()) << name << ": " << reparsed.status().to_string();
    EXPECT_EQ(reparsed->to_json().dump(), echo.dump()) << name;

    for (ScenarioSpec* s : {&*spec, &*reparsed}) {
      s->horizon_s = std::min(s->horizon_s, kHorizonS);
      std::erase_if(s->events, [&](const FaultEvent& e) {
        return e.at_s > s->horizon_s;
      });
    }
    const RunMetrics from_file = ScenarioRunner(*spec, 1).run();
    ASSERT_TRUE(from_file.ok) << name << ": " << from_file.error;
    EXPECT_EQ(ScenarioRunner(*reparsed, 1).run().to_json().dump(),
              from_file.to_json().dump())
        << name << ": the spec echo runs a different experiment";
  }
}

TEST(ScenarioRunner, ShippedFig6ScenarioReproducesItsAggregates) {
  // The canonical pre-redesign experiment still runs on the (now data-built)
  // Fig. 5 world and produces the same shape of result: one failover, the
  // backup in charge, the plant held near setpoint — deterministically.
  const std::string dir = EVM_REPO_SCENARIOS_DIR;
  auto spec = ScenarioSpec::load_file(dir + "/fig6_failover.json");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  ScenarioRunner runner(*spec, 1);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.failover_count, 1u);
  EXPECT_TRUE(m.backup_active);
  EXPECT_EQ(m.ctrl_a_mode, "Dormant");
  EXPECT_EQ(m.ctrl_b_mode, "Active");
  EXPECT_GT(m.failover_latency_s, 0.0);
  EXPECT_LT(m.failover_latency_s, 10.0);
  EXPECT_LT(m.level_rmse_pct, 2.0);
  ScenarioRunner again(*spec, 1);
  EXPECT_EQ(again.run().to_json().dump(), m.to_json().dump());
}

/// Seed `seed` of a shipped scenario file. Holds on to the runner so a test
/// can read the run's plant trace; a load failure leaves `metrics.ok` false.
struct ShippedRun {
  ShippedRun(const std::string& file, std::uint64_t seed) {
    auto loaded = ScenarioSpec::load_file(std::string(EVM_REPO_SCENARIOS_DIR) +
                                          "/" + file);
    EXPECT_TRUE(loaded.ok()) << file << ": " << loaded.status().to_string();
    if (!loaded.ok()) return;
    spec = *loaded;
    runner = std::make_unique<ScenarioRunner>(spec, seed);
    metrics = runner->run();
  }
  ScenarioSpec spec;
  std::unique_ptr<ScenarioRunner> runner;
  RunMetrics metrics;
};

TEST(ScenarioRunner, ShippedFig6PaperScenarioHasTheFig6bShape) {
  // E1 at the paper's own timescale: fault at T1 = 300 s, the backup Active
  // at T2 ~ 600 s after 1200 cycles of evidence, a deep level sag before the
  // takeover, recovery after it, and Ctrl-A parked Dormant by T3 ~ 800 s.
  const ShippedRun run("fig6_paper.json", 1);
  const RunMetrics& m = run.metrics;
  ASSERT_TRUE(m.ok) << m.error;
  const sim::Series* level = run.runner->trace().find("LTS.LiquidPercentLevel");
  ASSERT_NE(level, nullptr);
  EXPECT_DOUBLE_EQ(m.fault_injected_s, 300.0);
  EXPECT_EQ(m.failover_count, 1u);
  EXPECT_GE(m.failover_at_s, 595.0);
  EXPECT_LE(m.failover_at_s, 605.0);

  double min_level = level->samples.front().second;
  double takeover_level = min_level;
  for (const auto& [t, value] : level->samples) {
    min_level = std::min(min_level, value);
    if (t.to_seconds() <= m.failover_at_s) takeover_level = value;
  }
  EXPECT_LT(min_level, 30.0);
  EXPECT_GT(m.final_level_pct, takeover_level);
  EXPECT_EQ(m.ctrl_a_mode, "Dormant");
  EXPECT_EQ(m.ctrl_b_mode, "Active");
}

TEST(ScenarioRunner, ShippedDegradationScenariosShowWhatDeviationDetectionBuys) {
  // E8: with output comparison the wrong-output fault and the successor's
  // crash each cost one failover and a bounded excursion. Silence-only
  // detection (degradation_silence_only.json) never sees the wrong output:
  // the level sags until Ctrl-A crashes, and only that crash fails over.
  const RunMetrics with = ShippedRun("degradation.json", 1).metrics;
  ASSERT_TRUE(with.ok) << with.error;
  EXPECT_EQ(with.failover_count, 2u);
  EXPECT_LT(with.failover_at_s, 70.0);
  EXPECT_LT(with.level_max_dev_pct, 2.0);
  EXPECT_TRUE(with.backup_active);

  const RunMetrics without = ShippedRun("degradation_silence_only.json", 1).metrics;
  ASSERT_TRUE(without.ok) << without.error;
  EXPECT_EQ(without.failover_count, 1u);
  EXPECT_GT(without.failover_at_s, 240.0);
  EXPECT_GT(without.level_max_dev_pct, 20.0);
  EXPECT_TRUE(without.backup_active);
}

TEST(ScenarioRunner, ReplicaWhoseNodeIsDownReportsCrashed) {
  // degradation_silence_only ends with Ctrl-A crashed since 240 s. Its
  // service state still reads Active, but a crashed node drives nothing, so
  // the report names it Crashed; the promoted Ctrl-B ends Active.
  const RunMetrics m = ShippedRun("degradation_silence_only.json", 1).metrics;
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.ctrl_a_mode, "Crashed");
  EXPECT_EQ(m.ctrl_b_mode, "Active");
  EXPECT_TRUE(m.backup_active);
}

/// Every summed count of RunMetrics has one definition: its counter in the
/// run's deterministic snapshot (ScenarioRunner::metrics()). One single-hop
/// and one multi-hop shipped world, so the relay counts are non-zero once.
class RunCountsMatchTheSnapshot : public ::testing::TestWithParam<const char*> {};

TEST_P(RunCountsMatchTheSnapshot, EverySummedCountEqualsItsCounter) {
  const ShippedRun run(GetParam(), 1);
  const RunMetrics& m = run.metrics;
  ASSERT_TRUE(m.ok) << m.error;
  const obs::Metrics& snapshot = run.runner->metrics();
  const auto counter = [&snapshot](const std::string& name) -> std::uint64_t {
    const obs::Counter* c = snapshot.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? 0 : c->value;
  };
  EXPECT_EQ(m.failover_count, counter("core.service.failovers"));
  EXPECT_EQ(m.head_successions, counter("core.service.head_successions"));
  EXPECT_EQ(m.task_releases, counter("rtos.task_releases"));
  EXPECT_EQ(m.missed_deadlines, counter("rtos.deadline_misses"));
  EXPECT_EQ(m.bcast_datagrams, counter("net.route.broadcasts_originated"));
  EXPECT_EQ(m.bcast_transmissions, counter("net.route.broadcasts_originated") +
                                       counter("net.route.broadcast_relays"));
  EXPECT_EQ(m.beacons_suppressed, counter("core.service.beacons_suppressed") +
                                      counter("net.route.beacon_relays_suppressed"));
  EXPECT_EQ(m.packets_delivered, counter("net.medium.deliveries"));
  EXPECT_EQ(m.packets_lost, counter("net.medium.losses"));
  EXPECT_EQ(m.packets_collided, counter("net.medium.collisions"));
  EXPECT_EQ(m.sim_events, counter("sim.events_dispatched"));

  // The world exercises what is compared: a failover, releases, traffic,
  // and relaying exactly where the world is multi-hop.
  EXPECT_GE(m.failover_count, 1u);
  EXPECT_GT(m.task_releases, 0u);
  EXPECT_GT(m.packets_delivered, 0u);
  EXPECT_GT(m.bcast_datagrams, 0u);
  EXPECT_EQ(m.bcast_transmissions > m.bcast_datagrams, m.dissemination == "tree");
}

INSTANTIATE_TEST_SUITE_P(ShippedWorlds, RunCountsMatchTheSnapshot,
                         ::testing::Values("fig6_failover.json", "line_multihop.json"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param).find("line") == 0
                                      ? std::string("MultiHop")
                                      : std::string("SingleHop");
                         });

TEST(ScenarioRunner, FailoverBeforeTheFaultIsNotItsDetection) {
  // churn_storm seed 2: a churn outage trips a failover at ~17.5 s, before
  // the 20 s fault, and the demoted Ctrl-A's wrong output then never
  // actuates. That failover is not a detection of the fault: the run must
  // report no latency rather than a negative one.
  const RunMetrics m = ShippedRun("churn_storm.json", 2).metrics;
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_DOUBLE_EQ(m.fault_injected_s, 20.0);
  EXPECT_EQ(m.failover_count, 1u);
  EXPECT_DOUBLE_EQ(m.failover_at_s, -1.0);
  EXPECT_DOUBLE_EQ(m.failover_latency_s, -1.0);
  EXPECT_TRUE(m.backup_active);
}

TEST(ScenarioRunner, BaselineHoldsLevelWithoutFailover) {
  auto spec = parse(R"({
    "name": "test-baseline",
    "horizon_s": 30,
    "testbed": {"evidence_threshold": 8, "link_loss": 0.01}
  })");
  ASSERT_TRUE(spec.ok());
  ScenarioRunner runner(*spec, 1);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.failover_count, 0u);
  EXPECT_FALSE(m.backup_active);
  EXPECT_EQ(m.ctrl_a_mode, "Active");
  EXPECT_LT(m.level_rmse_pct, 1.0);
  EXPECT_GT(m.packets_delivered, 0u);
  EXPECT_GT(m.task_releases, 0u);
}

TEST(ScenarioRunner, PrimaryFaultTriggersFailover) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  ScenarioRunner runner(*spec, 3);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_DOUBLE_EQ(m.fault_injected_s, 10.0);
  EXPECT_GE(m.failover_count, 1u);
  EXPECT_GT(m.failover_latency_s, 0.0);
  EXPECT_LT(m.failover_latency_s, 30.0);
  EXPECT_TRUE(m.backup_active);
  EXPECT_EQ(m.ctrl_b_mode, "Active");
}

TEST(ScenarioRunner, NodeCrashIsDetectedAsSilence) {
  auto spec = parse(R"({
    "name": "test-crash",
    "horizon_s": 60,
    "testbed": {"evidence_threshold": 8, "dormant_delay_s": 5},
    "events": [{"at_s": 10, "do": "node_crash", "node": "ctrl_a"}]
  })");
  ASSERT_TRUE(spec.ok());
  ScenarioRunner runner(*spec, 2);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GE(m.failover_count, 1u);
  EXPECT_TRUE(m.backup_active);
}

TEST(ScenarioRunner, SameSeedIsByteIdentical) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  ScenarioRunner a(*spec, 7), b(*spec, 7);
  EXPECT_EQ(a.run().to_json().dump(), b.run().to_json().dump());
}

TEST(ScenarioRunner, DifferentSeedsDiverge) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  ScenarioRunner a(*spec, 1), b(*spec, 2);
  // Link-loss draws differ, so at minimum the packet counters move.
  EXPECT_NE(a.run().to_json().dump(), b.run().to_json().dump());
}

TEST(ScenarioRunner, ChurnIsSeededAndApplied) {
  auto spec = parse(R"({
    "name": "test-churn",
    "horizon_s": 40,
    "testbed": {"evidence_threshold": 8},
    "churn": {"outages_per_minute": 30, "outage_s": 2, "start_s": 5, "end_margin_s": 5}
  })");
  ASSERT_TRUE(spec.ok());
  ScenarioRunner a(*spec, 5);
  const RunMetrics m = a.run();
  ASSERT_TRUE(m.ok) << m.error;
  // 30/min over the 30s placement window [5, 35] -> 15 outages -> 30
  // mutations (down + up).
  EXPECT_EQ(m.topology_mutations, 30u);
  ScenarioRunner b(*spec, 5);
  EXPECT_EQ(b.run().to_json().dump(), m.to_json().dump());
}

TEST(ScenarioRunner, TraceExportsCsv) {
  auto spec = parse(R"({
    "name": "test-trace",
    "horizon_s": 20,
    "record": ["TowerFeed.MolarFlow"]
  })");
  ASSERT_TRUE(spec.ok());
  ScenarioRunner runner(*spec, 1);
  ASSERT_TRUE(runner.run().ok);

  std::ostringstream csv;
  runner.trace().to_csv(csv);
  EXPECT_NE(csv.str().find("series,time_s,value\n"), std::string::npos);
  EXPECT_NE(csv.str().find("LTS.LiquidPercentLevel,"), std::string::npos);
  EXPECT_NE(csv.str().find("TowerFeed.MolarFlow,"), std::string::npos);
}

TEST(Campaign, ResultIndependentOfJobCount) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  // The wall-clock "timing" block is machine-dependent by design; every
  // other byte of the report must be identical across pool sizes.
  const auto stripped_dump = [](const util::Json& report) {
    util::Json out = util::Json::object();
    for (const auto& [key, value] : report.members()) {
      if (key != "timing") out.set(key, value);
    }
    return out.dump();
  };
  CampaignConfig config;
  config.base_seed = 1;
  config.seeds = 4;
  config.jobs = 1;
  const util::Json serial =
      campaign_report(*spec, config, run_campaign(*spec, config));
  config.jobs = 4;
  const util::Json parallel =
      campaign_report(*spec, config, run_campaign(*spec, config));
  EXPECT_EQ(stripped_dump(serial), stripped_dump(parallel));
}

TEST(Campaign, AggregatesFailoverLatencyPercentiles) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  CampaignConfig config;
  config.seeds = 4;
  config.jobs = 2;
  const CampaignResult result = run_campaign(*spec, config);
  EXPECT_TRUE(result.all_ok());
  const util::Json report = campaign_report(*spec, config, result);

  ASSERT_NE(report.find("runs"), nullptr);
  EXPECT_EQ(report.find("runs")->size(), 4u);
  const util::Json* aggregate = report.find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->find("runs_ok")->as_int(), 4);
  const util::Json* latency = aggregate->find("failover_latency_s");
  ASSERT_NE(latency, nullptr) << "no failovers detected in any seed";
  for (const char* key : {"p50", "p90", "p99", "mean", "max"}) {
    ASSERT_NE(latency->find(key), nullptr) << key;
    EXPECT_GT(latency->find(key)->as_double(), 0.0) << key;
  }
  // The spec echo makes reports self-describing.
  ASSERT_NE(report.find("spec"), nullptr);
  EXPECT_EQ(report.find("spec")->find("name")->as_string(), "test-failover");
}

TEST(Campaign, WorkerFailuresAreReportedNotThrown) {
  // Force a deterministic per-run failure: an impossible control period.
  // The parser rejects it up front (schedule feasibility), so re-time the
  // spec programmatically after parsing — TestbedBuilder rejects the plan
  // and every worker must capture the error in its RunMetrics instead of
  // throwing.
  auto spec = parse(R"({
    "name": "test-inadmissible",
    "horizon_s": 10
  })");
  ASSERT_TRUE(spec.ok());
  spec->testbed.control_period = util::Duration::millis(1);
  CampaignConfig config;
  config.seeds = 2;
  config.jobs = 2;
  const CampaignResult result = run_campaign(*spec, config);
  ASSERT_EQ(result.runs.size(), 2u);
  for (const auto& run : result.runs) {
    EXPECT_FALSE(run.ok);
    EXPECT_FALSE(run.error.empty());
  }
  const util::Json report = campaign_report(*spec, config, result);
  EXPECT_EQ(report.find("aggregate")->find("runs_failed")->as_int(), 2);
}

}  // namespace
}  // namespace evm::scenario
