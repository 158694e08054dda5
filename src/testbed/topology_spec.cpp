#include "testbed/topology_spec.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace evm::testbed {

using util::Json;
using util::Result;
using util::Status;

namespace {

struct RoleName {
  NodeRole role;
  const char* name;
};

constexpr RoleName kRoleNames[] = {
    {NodeRole::kGateway, "gateway"},   {NodeRole::kSensor, "sensor"},
    {NodeRole::kController, "controller"}, {NodeRole::kActuator, "actuator"},
    {NodeRole::kRelay, "relay"},
};

/// Controller names follow the Fig. 5 labels: ctrl_a, ctrl_b, ctrl_c, ...
std::string controller_name(std::size_t index) {
  if (index < 26) return std::string("ctrl_") + static_cast<char>('a' + index);
  return "ctrl_" + std::to_string(index + 1);
}

std::string indexed_name(const char* base, std::size_t index) {
  if (index == 0) return base;
  return std::string(base) + "_" + std::to_string(index + 1);
}

/// Shared scaffolding for the generators: assign sequential ids and the
/// conventional role names ("gateway", "sensor", "relay_1", "ctrl_a", ...).
class SpecBuilder {
 public:
  net::NodeId add(NodeRole role) {
    TopologyNode node;
    node.id = next_id_++;
    node.role = role;
    std::size_t& count = role_counts_[role];
    switch (role) {
      case NodeRole::kGateway: node.name = indexed_name("gateway", count); break;
      case NodeRole::kSensor: node.name = indexed_name("sensor", count); break;
      case NodeRole::kActuator: node.name = indexed_name("actuator", count); break;
      case NodeRole::kController: node.name = controller_name(count); break;
      case NodeRole::kRelay:
        node.name = "relay_" + std::to_string(count + 1);
        break;
    }
    ++count;
    spec_.nodes.push_back(std::move(node));
    return spec_.nodes.back().id;
  }

  void link(net::NodeId a, net::NodeId b, double loss) {
    spec_.links.push_back({a, b, loss});
  }

  TopologySpec take() { return std::move(spec_); }

 private:
  TopologySpec spec_;
  net::NodeId next_id_ = 1;
  std::map<NodeRole, std::size_t> role_counts_;
};

}  // namespace

const char* to_string(NodeRole role) {
  for (const auto& [r, name] : kRoleNames) {
    if (r == role) return name;
  }
  return "unknown";
}

const TopologyNode* TopologySpec::find(net::NodeId id) const {
  for (const auto& node : nodes) {
    if (node.id == id) return &node;
  }
  return nullptr;
}

const TopologyNode* TopologySpec::find_name(const std::string& name) const {
  for (const auto& node : nodes) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

bool TopologySpec::has_link(net::NodeId a, net::NodeId b) const {
  for (const auto& link : links) {
    if ((link.a == a && link.b == b) || (link.a == b && link.b == a)) return true;
  }
  return false;
}

net::NodeId TopologySpec::gateway() const {
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kGateway) return node.id;
  }
  return net::kInvalidNode;
}

net::NodeId TopologySpec::primary_sensor() const {
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kSensor) return node.id;
  }
  return net::kInvalidNode;
}

net::NodeId TopologySpec::primary_actuator() const {
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kActuator) return node.id;
  }
  return net::kInvalidNode;
}

std::vector<net::NodeId> TopologySpec::node_ids() const {
  std::vector<net::NodeId> out;
  out.reserve(nodes.size());
  for (const auto& node : nodes) out.push_back(node.id);
  return out;
}

std::vector<net::NodeId> TopologySpec::members() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.vc_member) out.push_back(node.id);
  }
  return out;
}

std::vector<net::NodeId> TopologySpec::controllers() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kController) out.push_back(node.id);
  }
  return out;
}

std::vector<net::NodeId> TopologySpec::replica_order() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kController && node.vc_member) out.push_back(node.id);
  }
  return out;
}

std::vector<net::NodeId> TopologySpec::relays() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kRelay) out.push_back(node.id);
  }
  return out;
}

std::vector<net::NodeId> TopologySpec::dissemination_targets() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.role != NodeRole::kRelay) out.push_back(node.id);
  }
  return out;
}

std::string TopologySpec::node_name(net::NodeId id) const {
  const TopologyNode* node = find(id);
  if (node != nullptr) return node->name;
  return "node" + std::to_string(id);
}

Result<net::NodeId> TopologySpec::parse_node(const Json& ref) const {
  if (ref.is_number()) {
    const std::int64_t id = ref.as_int();
    for (const auto& node : nodes) {
      if (node.id == id) return node.id;
    }
    return Status::invalid_argument("unknown node id " + std::to_string(id) +
                                    " (this topology has " +
                                    std::to_string(nodes.size()) + " nodes)");
  }
  if (ref.is_string()) {
    const TopologyNode* node = find_name(ref.as_string());
    if (node != nullptr) return node->id;
    std::string known;
    for (const auto& n : nodes) {
      if (!known.empty()) known += ", ";
      known += n.name;
    }
    return Status::invalid_argument("unknown node '" + ref.as_string() +
                                    "' (expected " + known + ")");
  }
  return Status::invalid_argument("node reference must be a name or an id");
}

net::Topology TopologySpec::to_topology() const {
  net::Topology topo;
  for (const auto& node : nodes) topo.add_node(node.id);
  for (const auto& link : links) {
    topo.set_link(link.a, link.b, net::LinkState{true, link.loss});
  }
  return topo;
}

namespace {

/// Cut vertices of `graph` restricted to the spec's nodes, flat by raw
/// NodeId. A connected world takes one iterative Tarjan pass: a DFS root is
/// a cut vertex when it has two or more DFS children, any other node u when
/// some DFS child v has low[v] >= disc[u]. In a disconnected world the
/// rest of the nodes stay connected only when the removed node sits alone
/// in one of exactly two components, so every other node is a cut vertex.
std::vector<std::uint8_t> find_cut_vertices(const net::Topology& graph,
                                            const std::vector<TopologyNode>& nodes,
                                            bool connected) {
  const std::size_t width = static_cast<std::size_t>(graph.max_node_id()) + 1;
  std::vector<std::uint8_t> cut(width, 0);
  if (nodes.size() < 3) return cut;

  if (!connected) {
    std::vector<std::uint8_t> seen(width, 0);
    std::vector<std::int32_t> dist;
    std::size_t components = 0;
    for (const auto& node : nodes) {
      if (seen[node.id] != 0) continue;
      ++components;
      graph.bfs(node.id, dist);
      for (std::size_t id = 0; id < width; ++id) {
        if (dist[id] >= 0) seen[id] = 1;
      }
    }
    for (const auto& node : nodes) {
      const bool alone = graph.neighbors_view(node.id).empty();
      cut[node.id] = alone && components == 2 ? 0 : 1;
    }
    return cut;
  }

  std::vector<std::int32_t> disc(width, -1);
  std::vector<std::int32_t> low(width, 0);
  std::vector<std::size_t> next_edge(width, 0);
  std::vector<net::NodeId> path;  // the DFS stack, root first
  path.reserve(nodes.size());
  const net::NodeId root = nodes.front().id;
  std::int32_t clock = 0;
  std::size_t root_children = 0;
  disc[root] = low[root] = clock++;
  path.push_back(root);
  while (!path.empty()) {
    const net::NodeId u = path.back();
    const std::vector<net::NodeId>& adjacent = graph.neighbors_view(u);
    if (next_edge[u] < adjacent.size()) {
      const net::NodeId v = adjacent[next_edge[u]++];
      if (disc[v] < 0) {
        disc[v] = low[v] = clock++;
        if (u == root) ++root_children;
        path.push_back(v);
      } else {
        low[u] = std::min(low[u], disc[v]);
      }
      continue;
    }
    path.pop_back();
    if (path.empty()) break;
    const net::NodeId p = path.back();
    low[p] = std::min(low[p], low[u]);
    if (p != root && low[u] >= disc[p]) cut[p] = 1;
  }
  cut[root] = root_children >= 2 ? 1 : 0;
  return cut;
}

/// Everything validate() checks apart from connectivity.
Status check_structure(const TopologySpec& spec) {
  if (spec.nodes.empty()) return Status::invalid_argument("topology has no nodes");

  std::set<net::NodeId> ids;
  std::set<std::string> names;
  std::size_t gateways = 0;
  for (const auto& node : spec.nodes) {
    if (node.id == net::kInvalidNode || node.id == net::kBroadcast) {
      return Status::invalid_argument("node id " + std::to_string(node.id) +
                                      " is reserved");
    }
    if (!ids.insert(node.id).second) {
      return Status::invalid_argument("duplicate node id " + std::to_string(node.id));
    }
    if (node.name.empty()) {
      return Status::invalid_argument("node " + std::to_string(node.id) +
                                      " has an empty name");
    }
    if (!names.insert(node.name).second) {
      return Status::invalid_argument("duplicate node name '" + node.name + "'");
    }
    if (node.role == NodeRole::kGateway) ++gateways;
  }
  if (gateways != 1) {
    return Status::invalid_argument("topology needs exactly one gateway, has " +
                                    std::to_string(gateways));
  }
  if (spec.primary_sensor() == net::kInvalidNode) {
    return Status::invalid_argument("topology needs at least one sensor node");
  }
  if (spec.primary_actuator() == net::kInvalidNode) {
    return Status::invalid_argument("topology needs at least one actuator node");
  }
  if (spec.replica_order().empty()) {
    return Status::invalid_argument(
        "topology needs at least one vc-member controller");
  }
  for (net::NodeId essential :
       {spec.gateway(), spec.primary_sensor(), spec.primary_actuator()}) {
    const TopologyNode* node = spec.find(essential);
    if (node != nullptr && !node->vc_member) {
      return Status::invalid_argument("node '" + node->name +
                                      "' must be a VC member");
    }
  }

  std::set<std::pair<net::NodeId, net::NodeId>> seen;
  for (const auto& link : spec.links) {
    const bool known_a = ids.count(link.a) > 0;
    if (!known_a || ids.count(link.b) == 0) {
      return Status::invalid_argument("link references unknown node " +
                                      std::to_string(known_a ? link.b : link.a));
    }
    if (link.a == link.b) {
      return Status::invalid_argument("link endpoints must differ (node " +
                                      std::to_string(link.a) + ")");
    }
    if (link.loss < 0.0 || link.loss >= 1.0) {
      return Status::invalid_argument("link loss must be in [0, 1)");
    }
    const auto key = link.a < link.b ? std::make_pair(link.a, link.b)
                                     : std::make_pair(link.b, link.a);
    if (!seen.insert(key).second) {
      return Status::invalid_argument("duplicate link " + std::to_string(link.a) +
                                      "-" + std::to_string(link.b));
    }
  }
  return Status::ok();
}

}  // namespace

int TopologyAnalysis::hops_from_gateway(net::NodeId id) const {
  return static_cast<std::size_t>(id) < gateway_hops.size() ? gateway_hops[id]
                                                            : -1;
}

bool TopologyAnalysis::is_cut_vertex(net::NodeId id) const {
  return static_cast<std::size_t>(id) < cut_vertices.size() &&
         cut_vertices[id] != 0;
}

std::uint8_t TopologyAnalysis::relay_ttl() const {
  return static_cast<std::uint8_t>(std::clamp(2 * depth + 1, 8, 255));
}

TopologyAnalysis TopologySpec::analyze() const {
  TopologyAnalysis analysis;
  const net::Topology graph = to_topology();
  const net::Topology::BfsReach reach = graph.bfs(gateway(), analysis.gateway_hops);
  analysis.connected = reach.reached == nodes.size();
  analysis.depth = reach.depth;
  analysis.full_mesh = std::all_of(nodes.begin(), nodes.end(), [&](const TopologyNode& n) {
    return graph.neighbors_view(n.id).size() + 1 == nodes.size();
  });
  analysis.cut_vertices = find_cut_vertices(graph, nodes, analysis.connected);
  return analysis;
}

int TopologySpec::diameter() const {
  // A search that misses a node proves the world disconnected.
  const net::Topology graph = to_topology();
  std::vector<std::int32_t> dist;
  int diameter = 0;
  for (const auto& node : nodes) {
    const net::Topology::BfsReach reach = graph.bfs(node.id, dist);
    if (reach.reached != nodes.size()) return -1;
    diameter = std::max(diameter, static_cast<int>(reach.depth));
  }
  return diameter;
}

util::Status TopologySpec::validate() const { return validate(analyze()); }

util::Status TopologySpec::validate(const TopologyAnalysis& analysis) const {
  if (Status s = check_structure(*this); !s) return s;
  if (!analysis.connected) return Status::invalid_argument("topology is disconnected");
  return Status::ok();
}

util::Status SchedulePlan::fits(util::Duration control_period) const {
  if (frame_length() <= control_period) return Status::ok();
  return Status::invalid_argument(
      "infeasible schedule: the " + std::to_string(slots.size()) +
      "-slot RT-Link frame (" + std::to_string(frame_length().ms()) +
      " ms) exceeds the " + std::to_string(control_period.ms()) +
      " ms control period");
}

SchedulePlan plan_schedule(const TopologySpec& topo,
                           const TopologyAnalysis& analysis) {
  SchedulePlan plan;
  // Base slots in hop order from the gateway, ties by spec order: a packet
  // travelling away from the gateway end of the network can cross several
  // hops inside a single frame instead of paying one frame per hop.
  auto hops = [&](net::NodeId id) {
    const int h = analysis.hops_from_gateway(id);
    return h < 0 ? 1 << 20 : h;
  };
  std::vector<net::NodeId> order = topo.node_ids();
  std::stable_sort(order.begin(), order.end(),
                   [&](net::NodeId a, net::NodeId b) { return hops(a) < hops(b); });
  plan.slots = order;

  // Mirror pass (multi-hop worlds only): the dissemination tree's interior
  // nodes in descending hop order. A frame then carries inward-bound chains
  // too — a fault report at hop 4 is relayed by hop 3, then hop 2, then
  // hop 1 later in the same frame, instead of one frame per hop. Single-hop
  // worlds skip this, keeping the paper's 10-slot Fig. 5 frame intact.
  if (analysis.multi_hop()) {
    plan.tree = net::DisseminationTree::compute(
        topo.to_topology(), topo.gateway(), topo.dissemination_targets());
    std::vector<net::NodeId> interior;
    for (net::NodeId id : order) {
      if (plan.tree.forwards(id)) interior.push_back(id);
    }
    plan.slots.insert(plan.slots.end(), interior.rbegin(), interior.rend());
  }

  // A second slot per frame for the chatty nodes: every sensor, the primary
  // and first backup replica, and the gateway (mode commands + beacons).
  for (const auto& node : topo.nodes) {
    if (node.role == NodeRole::kSensor) plan.slots.push_back(node.id);
  }
  const auto replicas = topo.replica_order();
  for (std::size_t i = 0; i < replicas.size() && i < 2; ++i) {
    plan.slots.push_back(replicas[i]);
  }
  plan.slots.push_back(topo.gateway());
  return plan;
}

TopologySpec default_fig5_topology(bool third_controller, double link_loss) {
  TopologySpec spec;
  spec.nodes = {
      {1, "gateway", NodeRole::kGateway, true},
      {2, "sensor", NodeRole::kSensor, true},
      {3, "ctrl_a", NodeRole::kController, true},
      {4, "ctrl_b", NodeRole::kController, true},
      // Ctrl-C is always built (degradation studies flip it on at runtime)
      // but joins the VC only when the third controller is enabled.
      {5, "ctrl_c", NodeRole::kController, third_controller},
      {6, "actuator", NodeRole::kActuator, true},
  };
  for (net::NodeId a = 1; a <= 6; ++a) {
    for (net::NodeId b = static_cast<net::NodeId>(a + 1); b <= 6; ++b) {
      spec.links.push_back({a, b, link_loss});
    }
  }
  return spec;
}

TopologySpec line_topology(std::size_t nodes, std::size_t controllers,
                           double link_loss) {
  SpecBuilder b;
  std::vector<net::NodeId> chain;
  chain.push_back(b.add(NodeRole::kGateway));
  chain.push_back(b.add(NodeRole::kSensor));
  const std::size_t relays =
      nodes > controllers + 3 ? nodes - controllers - 3 : 0;
  for (std::size_t i = 0; i < relays; ++i) chain.push_back(b.add(NodeRole::kRelay));
  for (std::size_t i = 0; i < controllers; ++i) {
    chain.push_back(b.add(NodeRole::kController));
  }
  chain.push_back(b.add(NodeRole::kActuator));
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    b.link(chain[i], chain[i + 1], link_loss);
  }
  return b.take();
}

TopologySpec grid_topology(std::size_t width, std::size_t height,
                           std::size_t controllers, double link_loss) {
  // Role placement by grid position: gateway top-left, sensor top-right,
  // actuator bottom-right, controllers from the centre cell onward (skipping
  // cells already taken), relays everywhere else.
  const std::size_t count = width * height;
  std::vector<NodeRole> roles(count, NodeRole::kRelay);
  std::set<std::size_t> taken;
  auto place = [&](std::size_t index, NodeRole role) {
    while (taken.count(index) > 0) index = (index + 1) % count;
    roles[index] = role;
    taken.insert(index);
  };
  place(0, NodeRole::kGateway);
  if (width > 0) place(width - 1, NodeRole::kSensor);
  if (count > 0) place(count - 1, NodeRole::kActuator);
  const std::size_t centre = (height / 2) * width + width / 2;
  for (std::size_t i = 0; i < controllers; ++i) {
    place((centre + i) % count, NodeRole::kController);
  }

  SpecBuilder b;
  std::vector<net::NodeId> ids(count);
  for (std::size_t i = 0; i < count; ++i) ids[i] = b.add(roles[i]);
  for (std::size_t row = 0; row < height; ++row) {
    for (std::size_t col = 0; col < width; ++col) {
      const std::size_t i = row * width + col;
      if (col + 1 < width) b.link(ids[i], ids[i + 1], link_loss);
      if (row + 1 < height) b.link(ids[i], ids[i + width], link_loss);
    }
  }
  return b.take();
}

TopologySpec star_topology(std::size_t nodes, std::size_t controllers,
                           double link_loss) {
  SpecBuilder b;
  const net::NodeId hub = b.add(NodeRole::kGateway);
  std::vector<net::NodeId> leaves;
  leaves.push_back(b.add(NodeRole::kSensor));
  for (std::size_t i = 0; i < controllers; ++i) {
    leaves.push_back(b.add(NodeRole::kController));
  }
  leaves.push_back(b.add(NodeRole::kActuator));
  while (leaves.size() + 1 < nodes) leaves.push_back(b.add(NodeRole::kRelay));
  for (net::NodeId leaf : leaves) b.link(hub, leaf, link_loss);
  return b.take();
}

Result<TopologySpec> TopologySpec::from_json(const Json& json) {
  if (!json.is_object()) {
    return Status::invalid_argument("'topology' must be an object");
  }

  auto read_count = [&](const char* key, std::size_t fallback,
                        std::size_t min_value) -> Result<std::size_t> {
    const Json* v = json.find(key);
    if (v == nullptr) return fallback;
    if (!v->is_number() || v->as_int() < static_cast<std::int64_t>(min_value)) {
      return Status::invalid_argument("topology '" + std::string(key) +
                                      "' must be a number >= " +
                                      std::to_string(min_value));
    }
    return static_cast<std::size_t>(v->as_int());
  };
  auto read_loss = [&]() -> Result<double> {
    const Json* v = json.find("link_loss");
    if (v == nullptr) return 0.0;
    if (!v->is_number() || v->as_double() < 0.0 || v->as_double() >= 1.0) {
      return Status::invalid_argument("topology 'link_loss' must be in [0, 1)");
    }
    return v->as_double();
  };

  if (const Json* generator = json.find("generator")) {
    if (!generator->is_string()) {
      return Status::invalid_argument("topology 'generator' must be a string");
    }
    const std::string& kind = generator->as_string();
    auto loss = read_loss();
    if (!loss) return loss.status();
    auto controllers = read_count("controllers", 2, 1);
    if (!controllers) return controllers.status();

    TopologySpec spec;
    if (kind == "fig5") {
      const Json* third = json.find("third_controller");
      if (third != nullptr && !third->is_bool()) {
        return Status::invalid_argument("topology 'third_controller' must be a boolean");
      }
      spec = default_fig5_topology(third != nullptr && third->as_bool(), *loss);
    } else if (kind == "line") {
      auto count = read_count("nodes", 0, *controllers + 3);
      if (!count) return count.status();
      if (*count == 0) {
        return Status::invalid_argument("line topology requires 'nodes'");
      }
      spec = line_topology(*count, *controllers, *loss);
    } else if (kind == "grid") {
      auto width = read_count("width", 0, 2);
      if (!width) return width.status();
      auto height = read_count("height", 0, 2);
      if (!height) return height.status();
      if (*width == 0 || *height == 0) {
        return Status::invalid_argument("grid topology requires 'width' and 'height'");
      }
      if (*width * *height < *controllers + 3) {
        return Status::invalid_argument("grid too small for its roles");
      }
      spec = grid_topology(*width, *height, *controllers, *loss);
    } else if (kind == "star") {
      auto count = read_count("nodes", 0, *controllers + 3);
      if (!count) return count.status();
      if (*count == 0) {
        return Status::invalid_argument("star topology requires 'nodes'");
      }
      spec = star_topology(*count, *controllers, *loss);
    } else {
      return Status::invalid_argument("unknown topology generator '" + kind +
                                      "' (known: fig5, line, grid, star)");
    }
    if (Status s = spec.validate(); !s) return s;
    return spec;
  }

  const Json* nodes = json.find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->size() == 0) {
    return Status::invalid_argument(
        "topology requires a 'generator' or a non-empty 'nodes' array");
  }
  TopologySpec spec;
  for (std::size_t i = 0; i < nodes->size(); ++i) {
    const Json& entry = nodes->at(i);
    if (!entry.is_object()) {
      return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                      "] must be an object");
    }
    TopologyNode node;
    const Json* id = entry.find("id");
    if (id == nullptr || !id->is_number() || id->as_int() < 1 ||
        id->as_int() >= net::kInvalidNode) {
      return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                      "] requires a numeric 'id' in [1, " +
                                      std::to_string(net::kInvalidNode - 1) + "]");
    }
    node.id = static_cast<net::NodeId>(id->as_int());
    const Json* role = entry.find("role");
    if (role == nullptr || !role->is_string()) {
      return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                      "] requires a string 'role'");
    }
    bool known = false;
    for (const auto& [r, name] : kRoleNames) {
      if (role->as_string() == name) {
        node.role = r;
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::invalid_argument(
          "topology nodes[" + std::to_string(i) + "]: unknown role '" +
          role->as_string() +
          "' (expected gateway, sensor, controller, actuator or relay)");
    }
    if (const Json* name = entry.find("name")) {
      if (!name->is_string() || name->as_string().empty()) {
        return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                        "] 'name' must be a non-empty string");
      }
      node.name = name->as_string();
    } else {
      node.name = "node" + std::to_string(node.id);
    }
    if (const Json* member = entry.find("vc_member")) {
      if (!member->is_bool()) {
        return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                        "] 'vc_member' must be a boolean");
      }
      node.vc_member = member->as_bool();
    }
    spec.nodes.push_back(std::move(node));
  }

  if (const Json* links = json.find("links")) {
    if (!links->is_array()) {
      return Status::invalid_argument("topology 'links' must be an array");
    }
    for (std::size_t i = 0; i < links->size(); ++i) {
      const Json& entry = links->at(i);
      if (!entry.is_object()) {
        return Status::invalid_argument("topology links[" + std::to_string(i) +
                                        "] must be an object");
      }
      TopologyLink link;
      for (auto [key, out] : {std::pair{"a", &link.a}, std::pair{"b", &link.b}}) {
        const Json* ref = entry.find(key);
        if (ref == nullptr) {
          return Status::invalid_argument("topology links[" + std::to_string(i) +
                                          "] requires field '" + key + "'");
        }
        auto node = spec.parse_node(*ref);
        if (!node) {
          return Status::invalid_argument("topology links[" + std::to_string(i) +
                                          "] field '" + key +
                                          "': " + node.status().message());
        }
        *out = *node;
      }
      if (const Json* loss = entry.find("loss")) {
        if (!loss->is_number() || loss->as_double() < 0.0 ||
            loss->as_double() >= 1.0) {
          return Status::invalid_argument("topology links[" + std::to_string(i) +
                                          "] 'loss' must be in [0, 1)");
        }
        link.loss = loss->as_double();
      }
      spec.links.push_back(link);
    }
  } else {
    return Status::invalid_argument("explicit topology requires a 'links' array");
  }

  if (Status s = spec.validate(); !s) return s;
  return spec;
}

Json TopologySpec::to_json() const {
  Json root = Json::object();
  Json nodes_json = Json::array();
  for (const auto& node : nodes) {
    Json entry = Json::object();
    entry.set("id", static_cast<std::int64_t>(node.id));
    entry.set("name", node.name);
    entry.set("role", to_string(node.role));
    if (!node.vc_member) entry.set("vc_member", false);
    nodes_json.push(std::move(entry));
  }
  root.set("nodes", std::move(nodes_json));

  Json links_json = Json::array();
  for (const auto& link : links) {
    Json entry = Json::object();
    entry.set("a", node_name(link.a));
    entry.set("b", node_name(link.b));
    if (link.loss > 0.0) entry.set("loss", link.loss);
    links_json.push(std::move(entry));
  }
  root.set("links", std::move(links_json));
  return root;
}

}  // namespace evm::testbed
