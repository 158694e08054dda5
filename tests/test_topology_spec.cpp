// The declarative topology layer: generators produce the shapes they claim
// (node/link counts, role placement, VC membership), the hop-aware schedule
// plan covers every node and stays feasible, JSON round-trips are stable,
// and validation rejects malformed worlds.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "net/dissemination.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/spec.hpp"
#include "testbed/topology_spec.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace evm::testbed {
namespace {

util::Json parse_json(const std::string& text) {
  auto json = util::Json::parse(text);
  EXPECT_TRUE(json.ok()) << json.status().to_string();
  return *json;
}

TEST(TopologySpecFig5, MatchesThePaperTestbed) {
  const TopologySpec spec = default_fig5_topology();
  ASSERT_TRUE(spec.validate()) << spec.validate().to_string();
  ASSERT_EQ(spec.nodes.size(), 6u);
  EXPECT_EQ(spec.gateway(), 1);
  EXPECT_EQ(spec.primary_sensor(), 2);
  EXPECT_EQ(spec.primary_actuator(), 6);
  EXPECT_EQ(spec.node_name(3), "ctrl_a");
  EXPECT_EQ(spec.node_name(5), "ctrl_c");
  // Full mesh over six nodes: 15 links, single-hop.
  EXPECT_EQ(spec.links.size(), 15u);
  EXPECT_EQ(spec.diameter(), 1);
  EXPECT_FALSE(spec.analyze().multi_hop());
  // Ctrl-C exists but is outside the VC until the third controller is on.
  EXPECT_EQ(spec.controllers(), (std::vector<net::NodeId>{3, 4, 5}));
  EXPECT_EQ(spec.replica_order(), (std::vector<net::NodeId>{3, 4}));
  EXPECT_EQ(spec.members(), (std::vector<net::NodeId>{1, 2, 3, 4, 6}));

  const TopologySpec third = default_fig5_topology(true);
  EXPECT_EQ(third.replica_order(), (std::vector<net::NodeId>{3, 4, 5}));
  EXPECT_EQ(third.members(), (std::vector<net::NodeId>{1, 2, 3, 4, 5, 6}));
}

TEST(TopologySpecGenerators, LineChainsRolesWithRelaysBetween) {
  const TopologySpec spec = line_topology(8);
  ASSERT_TRUE(spec.validate()) << spec.validate().to_string();
  ASSERT_EQ(spec.nodes.size(), 8u);
  EXPECT_EQ(spec.links.size(), 7u);
  const TopologyAnalysis analysis = spec.analyze();
  EXPECT_EQ(analysis.depth, 7);
  EXPECT_EQ(spec.diameter(), 7);
  EXPECT_TRUE(analysis.multi_hop());
  EXPECT_EQ(spec.relays().size(), 3u);
  // Chain order: gateway, sensor, relays, controllers, actuator — the
  // relays sit between sensor and controllers by construction.
  EXPECT_EQ(spec.nodes[0].role, NodeRole::kGateway);
  EXPECT_EQ(spec.nodes[1].role, NodeRole::kSensor);
  EXPECT_EQ(spec.nodes[2].name, "relay_1");
  EXPECT_EQ(spec.nodes[5].name, "ctrl_a");
  EXPECT_EQ(spec.nodes[7].role, NodeRole::kActuator);
  // Interior chain nodes are cut vertices; the ends are not.
  EXPECT_TRUE(analysis.is_cut_vertex(spec.nodes[3].id));
  EXPECT_TRUE(analysis.is_cut_vertex(spec.nodes[5].id));
  EXPECT_FALSE(analysis.is_cut_vertex(spec.nodes[0].id));
  EXPECT_FALSE(default_fig5_topology().analyze().is_cut_vertex(3));
}

TEST(TopologySpecGenerators, GridPlacesRolesAndStaysConnected) {
  const TopologySpec spec = grid_topology(5, 4);
  ASSERT_TRUE(spec.validate()) << spec.validate().to_string();
  ASSERT_EQ(spec.nodes.size(), 20u);
  // 4-neighbour lattice: 4*(5-1) horizontal rows... h*(w-1) + w*(h-1).
  EXPECT_EQ(spec.links.size(), 4u * 4u + 5u * 3u);
  EXPECT_EQ(spec.replica_order().size(), 2u);
  EXPECT_EQ(spec.relays().size(), 20u - 5u);
  EXPECT_TRUE(spec.analyze().multi_hop());
  EXPECT_EQ(spec.nodes.front().role, NodeRole::kGateway);
  EXPECT_EQ(spec.nodes[4].role, NodeRole::kSensor);       // top-right
  EXPECT_EQ(spec.nodes.back().role, NodeRole::kActuator); // bottom-right
}

TEST(TopologySpecGenerators, StarHangsLeavesOffTheGateway) {
  const TopologySpec spec = star_topology(7);
  ASSERT_TRUE(spec.validate()) << spec.validate().to_string();
  ASSERT_EQ(spec.nodes.size(), 7u);
  EXPECT_EQ(spec.links.size(), 6u);
  EXPECT_EQ(spec.diameter(), 2);
  for (const auto& link : spec.links) {
    EXPECT_TRUE(link.a == spec.gateway() || link.b == spec.gateway());
  }
}

TEST(TopologySpecSchedule, PlanIsHopOrderedCoversAllAndReproducesFig5) {
  // Fig. 5: the historic 10-slot frame — one slot per node in id order,
  // then extra slots for sensor, ctrl_a, ctrl_b and the gateway.
  const TopologySpec mesh = default_fig5_topology();
  const SchedulePlan fig5 = plan_schedule(mesh, mesh.analyze());
  EXPECT_EQ(fig5.slots,
            (std::vector<net::NodeId>{1, 2, 3, 4, 5, 6, 2, 3, 4, 1}));
  EXPECT_EQ(fig5.frame_length(), util::Duration::millis(50));

  // Line: base slots follow the chain (hop order from the gateway), so a
  // broadcast travelling away from the gateway crosses every hop inside one
  // frame; then the dissemination tree's interior nodes mirror back in
  // descending hop order, so inward traffic (fault reports racing to the
  // head) chains across hops inside the same frame too.
  const TopologySpec line = line_topology(8);
  const SchedulePlan plan = plan_schedule(line, line.analyze());
  // 8 base + 6 interior mirror slots + sensor + two replicas + gateway.
  ASSERT_EQ(plan.slots.size(), 8u + 6u + 4u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(plan.slots[i], line.nodes[i].id) << "slot " << i;
  }
  // Mirror pass: interior chain nodes (everyone but the two ends), deepest
  // first.
  const std::vector<net::NodeId> mirror(plan.slots.begin() + 8,
                                        plan.slots.begin() + 14);
  EXPECT_EQ(mirror, (std::vector<net::NodeId>{7, 6, 5, 4, 3, 2}));
  // Every node owns at least one slot (schedule feasibility).
  std::set<net::NodeId> owners(plan.slots.begin(), plan.slots.end());
  for (const auto& node : line.nodes) EXPECT_TRUE(owners.count(node.id));
}

TEST(TopologySpecSchedule, StarMirrorPassIsTheHubAlone) {
  // A star is multi-hop (leaf to leaf is two hops) but its tree has one
  // interior node, the gateway hub, so the mirror pass is one slot.
  const TopologySpec star = star_topology(8);
  const TopologyAnalysis analysis = star.analyze();
  ASSERT_TRUE(analysis.multi_hop());
  const SchedulePlan plan = plan_schedule(star, analysis);
  std::size_t chatty = std::min<std::size_t>(star.replica_order().size(), 2) + 1;
  for (const auto& node : star.nodes) {
    if (node.role == NodeRole::kSensor) ++chatty;
  }
  ASSERT_EQ(plan.slots.size(), star.nodes.size() + 1 + chatty);
  EXPECT_EQ(plan.slots.front(), star.gateway());
  EXPECT_EQ(plan.slots[star.nodes.size()], star.gateway());
}

TEST(SchedulePlan, FitsUpToTheControlPeriodAndNamesTheOverrun) {
  SchedulePlan plan;
  plan.slots = {1, 2, 3, 4};  // 4 x 5 ms = 20 ms
  EXPECT_TRUE(plan.fits(util::Duration::millis(20)));
  EXPECT_TRUE(plan.fits(util::Duration::millis(250)));
  const util::Status over = plan.fits(util::Duration::millis(19));
  EXPECT_FALSE(over);
  EXPECT_EQ(over.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(over.message(),
            "infeasible schedule: the 4-slot RT-Link frame (20 ms) exceeds "
            "the 19 ms control period");
}

TEST(TopologySpecJson, ExplicitFormRoundTripsByteExactly) {
  for (const TopologySpec& spec :
       {default_fig5_topology(true, 0.05), line_topology(9, 3, 0.01),
        grid_topology(4, 3), star_topology(6)}) {
    auto reparsed = TopologySpec::from_json(spec.to_json());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
    EXPECT_EQ(reparsed->to_json().dump(), spec.to_json().dump());
  }
}

TEST(TopologySpecJson, GeneratorShorthandExpands) {
  auto grid = TopologySpec::from_json(parse_json(
      R"({"generator": "grid", "width": 5, "height": 4, "link_loss": 0.02})"));
  ASSERT_TRUE(grid.ok()) << grid.status().to_string();
  EXPECT_EQ(grid->nodes.size(), 20u);
  EXPECT_DOUBLE_EQ(grid->links.front().loss, 0.02);

  auto line = TopologySpec::from_json(
      parse_json(R"({"generator": "line", "nodes": 7, "controllers": 3})"));
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->replica_order().size(), 3u);

  auto fig5 = TopologySpec::from_json(
      parse_json(R"({"generator": "fig5", "third_controller": true})"));
  ASSERT_TRUE(fig5.ok());
  EXPECT_EQ(fig5->replica_order().size(), 3u);

  // The expansion itself re-parses identically (provenance in reports).
  auto reparsed = TopologySpec::from_json(grid->to_json());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->to_json().dump(), grid->to_json().dump());
}

TEST(TopologySpecJson, ExplicitNodesAndLinksParse) {
  auto spec = TopologySpec::from_json(parse_json(R"({
    "nodes": [
      {"id": 1, "name": "gw", "role": "gateway"},
      {"id": 2, "name": "s", "role": "sensor"},
      {"id": 3, "name": "c1", "role": "controller"},
      {"id": 4, "name": "c2", "role": "controller", "vc_member": false},
      {"id": 5, "name": "a", "role": "actuator"}
    ],
    "links": [
      {"a": "gw", "b": "s"},
      {"a": "s", "b": "c1", "loss": 0.1},
      {"a": "c1", "b": 4},
      {"a": 4, "b": "a"}
    ]
  })"));
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec->replica_order(), (std::vector<net::NodeId>{3}));
  EXPECT_TRUE(spec->has_link(2, 3));
  EXPECT_FALSE(spec->has_link(1, 5));
  EXPECT_DOUBLE_EQ(spec->links[1].loss, 0.1);
  EXPECT_EQ(spec->diameter(), 4);
}

TEST(TopologySpecValidation, RejectsMalformedWorlds) {
  const char* bad[] = {
      // no gateway
      R"({"nodes": [{"id": 1, "role": "sensor"}, {"id": 2, "role": "controller"},
          {"id": 3, "role": "actuator"}], "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}]})",
      // two gateways
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "gateway"},
          {"id": 3, "role": "sensor"}, {"id": 4, "role": "controller"},
          {"id": 5, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4}, {"a": 4, "b": 5}]})",
      // duplicate id
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 1, "role": "sensor"}],
          "links": []})",
      // duplicate name
      R"({"nodes": [{"id": 1, "name": "x", "role": "gateway"},
          {"id": 2, "name": "x", "role": "sensor"}], "links": [{"a": 1, "b": 2}]})",
      // unknown role
      R"({"nodes": [{"id": 1, "role": "router"}], "links": []})",
      // disconnected
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}]})",
      // self-link
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 1}]})",
      // duplicate link
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 1}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]})",
      // loss out of range
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2, "loss": 1.5}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]})",
      // no vc-member controller
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller", "vc_member": false},
          {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]})",
      // non-member sensor (essential roles must be in the VC)
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor", "vc_member": false},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]})",
      // grid too small for its roles
      R"({"generator": "grid", "width": 2, "height": 2, "controllers": 2})",
      // unknown generator
      R"({"generator": "torus", "nodes": 9})",
  };
  for (const char* text : bad) {
    auto spec = TopologySpec::from_json(parse_json(text));
    EXPECT_FALSE(spec.ok()) << "accepted: " << text;
  }
}

TEST(TopologySpecValidation, ParseNodeResolvesNamesAndIds) {
  const TopologySpec spec = line_topology(8);
  auto by_name = spec.parse_node(util::Json("relay_2"));
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(*by_name, spec.nodes[3].id);
  auto by_id = spec.parse_node(util::Json(static_cast<std::int64_t>(1)));
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(*by_id, spec.gateway());
  EXPECT_FALSE(spec.parse_node(util::Json("ctrl_c")).ok());  // only 2 ctrls
  EXPECT_FALSE(spec.parse_node(util::Json(static_cast<std::int64_t>(99))).ok());
}

// --- TopologyAnalysis against a brute-force reference ----------------------
// The reference works straight off the spec's link list with ordered
// containers and knows nothing of net::Topology: one BFS per question, and
// the cut-vertex verdict is the historical remove-the-node-and-BFS rule.

class ReferenceGraph {
 public:
  explicit ReferenceGraph(const TopologySpec& spec) : spec_(spec) {
    for (const auto& node : spec.nodes) adj_[node.id];
    for (const auto& link : spec.links) {
      adj_[link.a].insert(link.b);
      adj_[link.b].insert(link.a);
    }
  }

  /// Hop counts from `source`, never entering `removed`.
  std::map<net::NodeId, int> hops(net::NodeId source,
                                  net::NodeId removed = net::kInvalidNode) const {
    std::map<net::NodeId, int> dist;
    if (adj_.count(source) == 0 || source == removed) return dist;
    dist[source] = 0;
    std::deque<net::NodeId> frontier{source};
    while (!frontier.empty()) {
      const net::NodeId cur = frontier.front();
      frontier.pop_front();
      for (net::NodeId next : adj_.at(cur)) {
        if (next == removed || dist.count(next) > 0) continue;
        dist[next] = dist[cur] + 1;
        frontier.push_back(next);
      }
    }
    return dist;
  }

  int diameter() const {
    int diameter = 0;
    for (const auto& node : spec_.nodes) {
      const auto dist = hops(node.id);
      if (dist.size() != spec_.nodes.size()) return -1;
      for (const auto& [other, h] : dist) diameter = std::max(diameter, h);
    }
    return diameter;
  }

  bool is_cut_vertex(net::NodeId id) const {
    if (spec_.nodes.size() < 3) return false;
    net::NodeId start = net::kInvalidNode;
    for (const auto& node : spec_.nodes) {
      if (node.id != id) {
        start = node.id;
        break;
      }
    }
    return hops(start, id).size() != spec_.nodes.size() - 1;
  }

 private:
  const TopologySpec& spec_;
  std::map<net::NodeId, std::set<net::NodeId>> adj_;
};

/// Connectivity, single- vs multi-hop, the gateway depth (and its bound on
/// the diameter), every gateway hop count and every node's cut-vertex
/// verdict must match the reference; so must the all-pairs diameter().
void expect_matches_reference(const TopologySpec& spec, const std::string& label) {
  const TopologyAnalysis analysis = spec.analyze();
  const ReferenceGraph ref(spec);
  const int diameter = ref.diameter();
  EXPECT_EQ(analysis.connected, diameter >= 0) << label;
  EXPECT_EQ(analysis.multi_hop(), diameter > 1) << label;
  EXPECT_GE(2 * analysis.depth, diameter) << label;
  EXPECT_EQ(spec.diameter(), diameter) << label;
  const auto gateway_hops = ref.hops(spec.gateway());
  int depth = 0;
  for (const auto& [id, h] : gateway_hops) depth = std::max(depth, h);
  EXPECT_EQ(analysis.depth, depth) << label;
  for (const auto& node : spec.nodes) {
    const auto it = gateway_hops.find(node.id);
    EXPECT_EQ(analysis.hops_from_gateway(node.id),
              it == gateway_hops.end() ? -1 : it->second)
        << label << " node " << node.id;
    EXPECT_EQ(analysis.is_cut_vertex(node.id), ref.is_cut_vertex(node.id))
        << label << " node " << node.id;
  }
}

/// A random world: sparse distinct ids, a random spanning tree (sometimes
/// left with gaps, so some worlds are disconnected) plus random chords.
TopologySpec random_world(std::uint64_t seed) {
  util::Rng rng(seed);
  TopologySpec spec;
  const std::size_t count = 1 + rng.next_below(30);
  std::set<net::NodeId> used;
  for (std::size_t i = 0; i < count; ++i) {
    net::NodeId id = 0;
    do {
      id = static_cast<net::NodeId>(1 + rng.next_below(300));
    } while (!used.insert(id).second);
    TopologyNode node;
    node.id = id;
    node.name = "n";
    node.name += std::to_string(id);
    node.role = i == 0 ? NodeRole::kGateway : NodeRole::kRelay;
    spec.nodes.push_back(node);
  }
  std::set<std::pair<net::NodeId, net::NodeId>> links;
  auto add = [&](net::NodeId a, net::NodeId b) {
    if (a == b) return;
    if (links.insert({std::min(a, b), std::max(a, b)}).second) {
      spec.links.push_back({a, b, 0.0});
    }
  };
  const double gap = rng.bernoulli(0.2) ? 0.15 : 0.0;
  for (std::size_t i = 1; i < count; ++i) {
    if (rng.bernoulli(gap)) continue;
    add(spec.nodes[i].id, spec.nodes[rng.next_below(i)].id);
  }
  const std::size_t chords = rng.next_below(count + 1);
  for (std::size_t i = 0; i < chords; ++i) {
    add(spec.nodes[rng.next_below(count)].id, spec.nodes[rng.next_below(count)].id);
  }
  return spec;
}

TEST(TopologyAnalysisOracle, GeneratorWorldsMatchTheReference) {
  expect_matches_reference(default_fig5_topology(), "fig5");
  expect_matches_reference(default_fig5_topology(true), "fig5+c");
  for (std::size_t n : {4u, 5u, 8u, 13u}) {
    expect_matches_reference(line_topology(n, 1), "line" + std::to_string(n));
  }
  for (std::size_t n : {4u, 7u, 12u}) {
    expect_matches_reference(star_topology(n), "star" + std::to_string(n));
  }
  for (auto [w, h] : {std::pair<std::size_t, std::size_t>{2, 3}, {5, 4}, {7, 2}, {6, 6}}) {
    expect_matches_reference(grid_topology(w, h, 1),
                             "grid" + std::to_string(w) + "x" + std::to_string(h));
  }
}

TEST(TopologyAnalysisOracle, MeshMissingOneLinkIsMultiHopAtDepthOne) {
  // The gateway still hears every node directly, but ctrl_a and ctrl_b are
  // two hops apart: multi-hop is not a question of gateway depth.
  TopologySpec spec = default_fig5_topology();
  spec.links.erase(std::remove_if(spec.links.begin(), spec.links.end(),
                                  [](const TopologyLink& l) {
                                    return l.a == 3 && l.b == 4;
                                  }),
                   spec.links.end());
  ASSERT_EQ(spec.links.size(), 14u);
  const TopologyAnalysis analysis = spec.analyze();
  EXPECT_EQ(analysis.depth, 1);
  EXPECT_TRUE(analysis.multi_hop());
  expect_matches_reference(spec, "fig5-minus-3-4");
}

TEST(TopologyAnalysisOracle, FuzzGeneratedWorldsMatchTheReference) {
  const scenario::GeneratorConfig config;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const TopologySpec spec = scenario::generate_spec(seed, config).topology();
    expect_matches_reference(spec, "fuzz seed " + std::to_string(seed));
  }
}

TEST(TopologyAnalysisOracle, RandomGraphsMatchTheReference) {
  std::size_t disconnected = 0, with_cuts = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const TopologySpec spec = random_world(seed);
    expect_matches_reference(spec, "random seed " + std::to_string(seed));
    const TopologyAnalysis analysis = spec.analyze();
    if (!analysis.connected) ++disconnected;
    if (std::any_of(analysis.cut_vertices.begin(), analysis.cut_vertices.end(),
                    [](std::uint8_t c) { return c != 0; })) {
      ++with_cuts;
    }
  }
  // The generator must reach both regimes, or the oracle proves little.
  EXPECT_GT(disconnected, 20u);
  EXPECT_GT(with_cuts, 100u);
}

TEST(TopologyAnalysis, UnknownIdsAreNeitherReachableNorCut) {
  const TopologyAnalysis analysis = line_topology(6).analyze();
  EXPECT_EQ(analysis.hops_from_gateway(999), -1);
  EXPECT_FALSE(analysis.is_cut_vertex(999));
  EXPECT_FALSE(analysis.is_cut_vertex(net::kInvalidNode));
}

TEST(TopologyAnalysis, RelayTtlIsTwiceTheDepthPlusOneSaturated) {
  EXPECT_EQ(default_fig5_topology().analyze().relay_ttl(), 8);  // floor
  EXPECT_EQ(line_topology(8).analyze().relay_ttl(), 15);        // depth 7
  EXPECT_EQ(grid_topology(40, 25).analyze().relay_ttl(), 127);  // depth 63
  // Depth 299: 2 * 299 + 1 does not fit a byte and must not wrap.
  EXPECT_EQ(line_topology(300).analyze().relay_ttl(), 255);
}

// --- The 1000-node tier, pinned -------------------------------------------

/// FNV-1a over "id:parent;" for every tree member in ascending id order.
std::string parent_fingerprint(const net::DisseminationTree& tree) {
  std::string text;
  for (net::NodeId id : tree.members()) {
    text += std::to_string(id);
    text += ':';
    text += std::to_string(tree.parent(id));
    text += ';';
  }
  return util::hash_hex(util::fnv1a64(text));
}

TEST(TopologySpecScale1000, DiameterPlanAndTreeParentsArePinned) {
  auto scenario = scenario::ScenarioSpec::load_file(
      std::string(EVM_REPO_SCENARIOS_DIR) + "/scale_sweep_1000.json");
  ASSERT_TRUE(scenario.ok()) << scenario.status().to_string();
  const TopologySpec spec = scenario->topology();
  ASSERT_EQ(spec.nodes.size(), 1000u);
  const TopologyAnalysis analysis = spec.analyze();
  EXPECT_TRUE(analysis.connected);
  EXPECT_EQ(analysis.depth, 63);  // (40 - 1) + (25 - 1) from the corner
  EXPECT_EQ(spec.diameter(), 63);
  EXPECT_EQ(plan_schedule(spec, analysis).slots.size(), 1088u);

  // Fingerprints of the tree parents, captured before the flat BFS rewrite:
  // the tree must pick the same lowest-id parents, lose and regain relay_3
  // across its crash and restart exactly as before.
  net::Topology graph = spec.to_topology();
  const net::NodeId relay = spec.find_name("relay_3")->id;
  const auto tree = [&] {
    return net::DisseminationTree::compute(graph, spec.gateway(),
                                           spec.dissemination_targets());
  };
  const net::DisseminationTree before = tree();
  EXPECT_EQ(before.size(), 88u);
  EXPECT_EQ(before.forwarder_count(), 84u);
  EXPECT_EQ(parent_fingerprint(before), "d09282d769efb9f7");

  graph.set_node_down(relay, true);
  const net::DisseminationTree crashed = tree();
  EXPECT_FALSE(crashed.contains(relay));
  EXPECT_EQ(crashed.size(), 122u);
  EXPECT_EQ(crashed.forwarder_count(), 117u);
  EXPECT_EQ(parent_fingerprint(crashed), "e5bfcf0f2e4ad69a");

  graph.set_node_down(relay, false);
  const net::DisseminationTree restarted = tree();
  EXPECT_EQ(restarted.members(), before.members());
  for (net::NodeId id : before.members()) {
    EXPECT_EQ(restarted.parent(id), before.parent(id)) << "node " << id;
  }
  EXPECT_EQ(parent_fingerprint(restarted), "d09282d769efb9f7");
}

}  // namespace
}  // namespace evm::testbed
