#include "net/dissemination.hpp"

#include <algorithm>

namespace evm::net {

DisseminationTree DisseminationTree::compute(const Topology& topo, NodeId root,
                                             const std::vector<NodeId>& targets) {
  DisseminationTree tree;

  // Liveness-aware root selection: a crashed or isolated root cannot anchor
  // the tree (its links all read down through the link-estimator view), so
  // re-root at the lowest-id live target — the same deterministic rule head
  // succession uses, keeping data and control planes aligned.
  auto usable = [&](NodeId id) {
    return topo.has_node(id) && !topo.node_down(id) &&
           !topo.neighbors_view(id).empty();
  };
  NodeId effective_root = kInvalidNode;
  if (usable(root)) {
    effective_root = root;
  } else {
    std::vector<NodeId> sorted = targets;
    std::sort(sorted.begin(), sorted.end());
    for (NodeId candidate : sorted) {
      if (usable(candidate)) {
        effective_root = candidate;
        break;
      }
    }
  }
  if (effective_root == kInvalidNode) return tree;
  tree.root_ = effective_root;

  // BFS over live neighbours only; first discovery fixes the parent, and
  // Topology::bfs expands neighbours in ascending id order, so ties are
  // deterministic (lowest-id parent).
  std::vector<std::int32_t> dist;
  std::vector<NodeId> bfs_parent;
  topo.bfs(effective_root, dist, &bfs_parent);

  // Prune to the union of root-to-target paths: walking each reachable
  // target's parent chain marks exactly the relays the replica set needs.
  const std::size_t width = dist.size();
  tree.parent_.assign(width, kInvalidNode);
  tree.degree_.assign(width, kNotMember);
  tree.degree_[effective_root] = 0;
  for (NodeId target : targets) {
    if (static_cast<std::size_t>(target) >= width || dist[target] < 0) {
      continue;  // partitioned off: prune
    }
    NodeId walk = target;
    while (walk != kInvalidNode && tree.degree_[walk] == kNotMember) {
      tree.degree_[walk] = 0;
      tree.parent_[walk] = bfs_parent[walk];
      walk = bfs_parent[walk];
    }
  }

  for (std::size_t id = 0; id < width; ++id) {
    if (tree.degree_[id] == kNotMember) continue;
    tree.members_.push_back(static_cast<NodeId>(id));
    const NodeId parent = tree.parent_[id];
    if (parent != kInvalidNode) {
      ++tree.degree_[id];
      ++tree.degree_[parent];
    }
  }
  for (std::int32_t degree : tree.degree_) {
    if (degree >= 2) ++tree.forwarders_;
  }
  return tree;
}

NodeId DisseminationTree::parent(NodeId id) const {
  return static_cast<std::size_t>(id) < parent_.size() ? parent_[id]
                                                       : kInvalidNode;
}

int DisseminationTree::degree(NodeId id) const {
  if (static_cast<std::size_t>(id) >= degree_.size()) return 0;
  return std::max(degree_[id], 0);
}

}  // namespace evm::net
