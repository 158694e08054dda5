// Declarative world description: the set of nodes (with Fig. 5-style roles),
// the wireless links between them, and the Virtual Component membership —
// the paper's §4 claim that EVMs survive "dramatic topology changes" made
// data instead of constructor code. A TopologySpec is what the scenario
// engine's optional "topology" JSON section parses into; TestbedBuilder
// compiles it into a running co-simulation. Generators produce the canonical
// shapes (the six-node Fig. 5 gas-plant testbed, multi-hop lines, grids,
// stars) so a 20-node failover experiment is one JSON object, no recompile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace evm::testbed {

/// What a node contributes to the control loop. Relays only forward traffic
/// (they sit between sensor and controllers in multi-hop worlds).
enum class NodeRole : std::uint8_t {
  kGateway = 0,  // ModBus bridge, VC head
  kSensor,       // publishes the plant measurement stream
  kController,   // replica of the control function (priority = spec order)
  kActuator,     // drives the plant valve
  kRelay,        // pure forwarder
};

const char* to_string(NodeRole role);

struct TopologyNode {
  net::NodeId id = net::kInvalidNode;
  std::string name;  // role-table name events resolve against ("ctrl_a", ...)
  NodeRole role = NodeRole::kRelay;
  /// Part of the Virtual Component. A non-member controller exists in the
  /// world but holds no replica (the Fig. 5 testbed always builds Ctrl-C;
  /// it only joins the VC when the third controller is enabled).
  bool vc_member = true;
};

struct TopologyLink {
  net::NodeId a = net::kInvalidNode;
  net::NodeId b = net::kInvalidNode;
  /// Independent per-frame loss probability.
  double loss = 0.0;
};

/// The hop-aware RT-Link schedule TestbedBuilder installs: slots[i] is the
/// licensed transmitter of slot i. Base slots are ordered by BFS hop count
/// from the gateway (ties by spec order), so a broadcast travelling away
/// from the gateway crosses as many downstream hops as possible within one
/// frame. On multi-hop worlds the dissemination tree's interior nodes then
/// get a second slot in *descending* hop order — the mirror pass — so
/// inward traffic (heartbeats, fault reports racing toward the head) also
/// chains across several hops inside one frame instead of paying a frame
/// per hop. Chatty nodes (sensors, the first two replicas, the gateway)
/// close the frame with one more slot each.
struct SchedulePlan {
  std::vector<net::NodeId> slots;
  util::Duration slot_length = util::Duration::millis(5);

  util::Duration frame_length() const { return slot_length * static_cast<int>(slots.size()); }
  /// Schedule feasibility: one frame (the worst-case link access) must fit
  /// inside the control period, or the loop can never close on time.
  util::Status fits(util::Duration control_period) const;
};

/// Everything the testbed derives from a world's link graph, computed in
/// one pass (TopologySpec::analyze) over flat vectors indexed by raw NodeId:
/// connectivity, the diameter (routing TTL, single- vs multi-hop), hop
/// counts from the gateway (the slot plan's order) and the cut vertices
/// (the bound of the fail-stop fault model, from one Tarjan pass).
/// validate(), plan_schedule() and TestbedBuilder all take it, so a world
/// is analysed once instead of once per question.
struct TopologyAnalysis {
  /// Every spec node reaches every other over the spec's links.
  bool connected = false;
  /// Longest shortest-path hop count between any node pair; -1 when the
  /// graph is disconnected. 1 on the Fig. 5 full mesh.
  int diameter = -1;
  /// BFS hop count from the gateway; -1 where unreachable.
  std::vector<std::int32_t> gateway_hops;
  /// Non-zero where removing the node disconnects the remaining nodes.
  std::vector<std::uint8_t> cut_vertices;

  bool multi_hop() const { return diameter > 1; }
  /// -1 for ids the gateway cannot reach (or the spec does not have).
  int hops_from_gateway(net::NodeId id) const;
  /// False for ids the spec does not have.
  bool is_cut_vertex(net::NodeId id) const;
};

struct TopologySpec {
  /// Construction order is meaningful: controllers appear in replica
  /// priority order (the first vc-member controller is the initial primary).
  std::vector<TopologyNode> nodes;
  std::vector<TopologyLink> links;

  bool empty() const { return nodes.empty(); }

  const TopologyNode* find(net::NodeId id) const;
  const TopologyNode* find_name(const std::string& name) const;
  bool has_link(net::NodeId a, net::NodeId b) const;

  net::NodeId gateway() const;
  /// The node whose local sensor feeds the published stream (first sensor).
  net::NodeId primary_sensor() const;
  /// The node that drives the plant valve (first actuator).
  net::NodeId primary_actuator() const;

  std::vector<net::NodeId> node_ids() const;          // spec order
  std::vector<net::NodeId> members() const;           // vc_member, spec order
  std::vector<net::NodeId> controllers() const;       // all, spec order
  std::vector<net::NodeId> replica_order() const;     // vc_member controllers
  std::vector<net::NodeId> relays() const;
  /// Nodes the broadcast plane must reach: every non-relay role (gateway,
  /// sensors, controllers, actuators). The dissemination tree is pruned to
  /// these; pure relays only join it when they sit on a shortest path.
  std::vector<net::NodeId> dissemination_targets() const;

  /// Role-table name of `id`; "node<id>" for unknown ids (diagnostics only).
  std::string node_name(net::NodeId id) const;
  /// Resolve a node reference (a role-table name or a numeric id).
  util::Result<net::NodeId> parse_node(const util::Json& ref) const;

  /// The world's one topology analysis (see TopologyAnalysis). Defined on
  /// any spec; only meaningful for a structurally valid one.
  TopologyAnalysis analyze() const;
  /// Convenience wrapper running a full analyze(): callers asking more than
  /// one question should analyse once and keep the result.
  int diameter() const { return analyze().diameter; }

  /// Structural checks: unique ids/names, exactly one gateway, at least one
  /// sensor / actuator / vc-member controller, well-formed connected links.
  util::Status validate() const;
  /// Same checks, reading connectivity from an analysis of this spec.
  util::Status validate(const TopologyAnalysis& analysis) const;

  /// Compile the static link set into the runtime net::Topology.
  net::Topology to_topology() const;

  /// Parse either an explicit {"nodes": [...], "links": [...]} document or
  /// a generator shorthand {"generator": "line" | "grid" | "star" | "fig5",
  /// ...params}. to_json always emits the explicit form (full provenance in
  /// campaign reports; re-parses to an identical spec).
  static util::Result<TopologySpec> from_json(const util::Json& json);
  util::Json to_json() const;
};

/// Build the RT-Link slot plan for `topo` (see SchedulePlan). The mirror
/// pass of second slots for the dissemination tree's interior only exists
/// where the tree does: on multi-hop worlds.
SchedulePlan plan_schedule(const TopologySpec& topo,
                           const TopologyAnalysis& analysis);
/// Same plan, analysing `topo` first.
SchedulePlan plan_schedule(const TopologySpec& topo);

/// The paper's Fig. 5 six-node testbed: gateway, sensor, three controllers
/// (Ctrl-C built but outside the VC unless `third_controller`), actuator,
/// full wireless mesh. This is what worlds without a "topology" section get.
TopologySpec default_fig5_topology(bool third_controller = false,
                                   double link_loss = 0.0);
/// Chain: gateway - sensor - relays... - controllers - actuator. Requires
/// nodes >= controllers + 3.
TopologySpec line_topology(std::size_t nodes, std::size_t controllers = 2,
                           double link_loss = 0.0);
/// width x height 4-neighbour grid: gateway top-left, sensor top-right,
/// actuator bottom-right, controllers at the centre, relays elsewhere.
TopologySpec grid_topology(std::size_t width, std::size_t height,
                           std::size_t controllers = 2, double link_loss = 0.0);
/// Star centred on the gateway: sensor, controllers and actuator are leaves
/// (remaining leaves are relays).
TopologySpec star_topology(std::size_t nodes, std::size_t controllers = 2,
                           double link_loss = 0.0);

}  // namespace evm::testbed
