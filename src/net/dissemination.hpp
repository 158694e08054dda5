// Scoped dissemination: a shortest-path spanning tree rooted at the VC head
// (the gateway), pruned to the nodes that actually consume broadcast-plane
// traffic — the replica set plus the sensor/actuator/gateway roles. It is
// the one relay structure of every multi-hop world: only the tree's interior
// nodes re-broadcast (one RT-Link slot each per unique datagram), so
// multicast cost scales with the tree, not the network. The tree is
// recomputed from the *live* topology — link state AND node liveness, the
// link-estimator view — whenever the topology mutates, which is what closes
// the route-liveness hole: a scripted link_up firing while a node is crashed
// cannot resurrect a dissemination path through the corpse, and losing a
// gateway-adjacent link (or the gateway itself) re-roots the tree instead of
// silently orphaning the subtree.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace evm::net {

class DisseminationTree {
 public:
  /// Shortest-path tree over the *current* up links between live nodes,
  /// rooted at `root` and pruned to the nodes on root-to-target paths.
  /// Deterministic: Topology::bfs expands neighbours in ascending id order,
  /// so equal-length paths always resolve to the lowest-id parent. If
  /// `root` is down or isolated, the tree re-roots at the lowest-id live
  /// target that still has a live link (head succession picks the lowest id
  /// too, so the dissemination structure follows the control plane).
  /// Unreachable targets are simply absent — a partition prunes, it does
  /// not throw.
  static DisseminationTree compute(const Topology& topo, NodeId root,
                                   const std::vector<NodeId>& targets);

  NodeId root() const { return root_; }
  bool empty() const { return members_.empty(); }
  std::size_t size() const { return members_.size(); }
  /// Tree members in ascending id order (targets plus path relays).
  const std::vector<NodeId>& members() const { return members_; }
  bool contains(NodeId id) const {
    return static_cast<std::size_t>(id) < degree_.size() &&
           degree_[id] != kNotMember;
  }
  /// Parent toward the root; kInvalidNode for the root and non-members.
  NodeId parent(NodeId id) const;
  /// Tree degree (parent edge + child edges); 0 for non-members.
  int degree(NodeId id) const;
  /// True when `id` should re-broadcast tree-scoped datagrams: an interior
  /// node (degree >= 2). Leaves never relay — their only tree neighbour
  /// already has the datagram (it is either the originator or on the path
  /// the datagram arrived by), so a leaf slot would be pure waste.
  bool forwards(NodeId id) const { return degree(id) >= 2; }
  /// Interior node count: the per-unique-datagram relay cost of the tree
  /// (the originator's own slot comes on top).
  std::size_t forwarder_count() const { return forwarders_; }

 private:
  static constexpr std::int32_t kNotMember = -1;

  NodeId root_ = kInvalidNode;
  // Flat, indexed by raw NodeId: parent toward the root (kInvalidNode for
  // the root and non-members) and tree degree (kNotMember off the tree).
  std::vector<NodeId> parent_;
  std::vector<std::int32_t> degree_;
  std::vector<NodeId> members_;
  std::size_t forwarders_ = 0;
};

/// Per-world cache: recomputes the tree only when the topology's mutation
/// counter moves. Shared by every Router of one simulation, so a
/// topology event (crash, link flip) costs one recompute, not one per node
/// per datagram.
class DisseminationTreeCache {
 public:
  /// `initial` must be the tree of `topology` as it stands now; it is served
  /// until the first mutation. TestbedBuilder passes the slot plan's tree,
  /// so a world computes its initial tree once.
  DisseminationTreeCache(const Topology& topology, NodeId root,
                         std::vector<NodeId> targets, DisseminationTree initial)
      : topology_(topology), root_(root), targets_(std::move(targets)),
        cached_(std::move(initial)), cached_version_(topology.version()) {}

  const DisseminationTree& tree() const {
    if (cached_version_ != topology_.version()) {
      cached_ = DisseminationTree::compute(topology_, root_, targets_);
      cached_version_ = topology_.version();
    }
    return cached_;
  }

 private:
  const Topology& topology_;
  NodeId root_;
  std::vector<NodeId> targets_;
  mutable DisseminationTree cached_;
  mutable std::uint64_t cached_version_;
};

}  // namespace evm::net
