// Minimal network layer: static shortest-path forwarding over the current
// topology, recomputed on demand. EVM messages (task migration, health
// assessment) ride on this so multi-hop virtual components work; the paper's
// six-node HIL setup is single-hop through the gateway but E5 sweeps 1-5
// hops. Broadcasts are one-hop by default; multi-hop worlds built from a
// TopologySpec enable tree-scoped dissemination, where only the interior
// nodes of the gateway-rooted spanning tree (pruned to the replica set)
// re-broadcast (TTL-bounded, deduplicated), so multicast cost follows the
// tree size instead of the node count.
//
// Datagrams additionally carry a piggy-backed head-beacon tag (head id +
// beacon sequence) that gossips VC-head liveness over whatever data-plane
// traffic is flowing, reclaiming the explicit once-per-second beacon
// broadcast.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "net/dissemination.hpp"
#include "net/mac.hpp"
#include "net/topology.hpp"
#include "obs/trace_recorder.hpp"
#include "util/bytes.hpp"

namespace evm::net {

/// Packet.type value used by routed datagrams at the link layer.
inline constexpr std::uint8_t kRoutedPacketType = 0x52;  // 'R'

/// Piggy-backed head-beacon gossip: the freshest VC-head liveness proof this
/// frame's sender knows. `head == kInvalidNode` means untagged. The sequence
/// only moves when the head itself beats, so stale tags circulating through
/// laggard nodes never refresh anybody's liveness clock.
struct BeaconTag {
  NodeId head = kInvalidNode;
  std::uint16_t seq = 0;

  bool valid() const { return head != kInvalidNode; }
};

struct Datagram {
  NodeId source = kInvalidNode;
  NodeId destination = kBroadcast;
  std::uint8_t type = 0;  // upper-layer (EVM) message class
  std::uint8_t ttl = 8;
  /// Originator-assigned sequence number; (source, seq) deduplicates
  /// relayed broadcasts arriving over multiple paths.
  std::uint16_t seq = 0;
  /// This frame exists only to carry the beacon tag (an explicit head
  /// beacon). Relays forward it per-link lazily: a relay whose own tagged
  /// data-plane sends were NOT silent since the previous probe drops it —
  /// its data frames already delivered the tag to every neighbour.
  bool beacon_probe = false;
  /// Head-beacon piggy-back (stamped by the router from its latest tag).
  BeaconTag beacon;
  std::vector<std::uint8_t> payload;
};

class Router {
 public:
  Router(Mac& mac, Topology& topology);

  NodeId id() const { return mac_.id(); }

  /// Send a datagram toward `destination` (multi-hop unicast or a
  /// broadcast). Fails fast when no route exists.
  util::Status send(NodeId destination, std::uint8_t type,
                    std::vector<std::uint8_t> payload);
  /// Broadcast an explicit beacon probe: a frame whose only job is carrying
  /// the beacon tag. Relays with recent tagged data-plane traffic suppress
  /// its re-broadcast (see Datagram::beacon_probe).
  util::Status send_beacon(std::uint8_t type, std::vector<std::uint8_t> payload);

  void set_receive_handler(std::function<void(const Datagram&)> handler) {
    receive_handler_ = std::move(handler);
  }

  /// Scoped dissemination: re-broadcast incoming broadcasts (once per
  /// (source, seq), while TTL lasts) only when this node is an interior
  /// node of the shared tree (`cache` must outlive the router). Off by
  /// default: the Fig. 5 full mesh is single-hop and relaying there would
  /// only burn slots and energy.
  void enable_tree_dissemination(const DisseminationTreeCache* cache) {
    tree_cache_ = cache;
  }
  /// True when this node takes part in the broadcast dissemination
  /// structure (always, except for nodes outside an enabled tree).
  /// Out-of-tree pure relays neither receive the beacon plane reliably nor
  /// hold replicas, so head-liveness supervision skips them.
  bool participates_in_dissemination() const;
  /// TTL stamped on originated datagrams. Multi-hop worlds raise it to
  /// cover the longest relay path (TopologyAnalysis::relay_ttl()).
  void set_default_ttl(std::uint8_t ttl) { default_ttl_ = ttl; }

  /// Install the freshest head-beacon tag; stamped onto every datagram this
  /// router subsequently originates or relays (data-plane piggy-backing).
  void set_beacon_tag(BeaconTag tag) { beacon_tag_ = tag; }
  const BeaconTag& beacon_tag() const { return beacon_tag_; }
  /// Fires for every received routed frame carrying a tag — before dedup,
  /// because liveness gossip must not depend on which copy won the race.
  void set_beacon_observer(std::function<void(const BeaconTag&)> observer) {
    beacon_observer_ = std::move(observer);
  }

  std::size_t forwarded_count() const { return forwarded_; }
  /// Broadcast datagrams this node originated.
  std::size_t broadcasts_originated() const { return broadcasts_originated_; }
  /// Broadcast re-transmissions this node performed as a tree relay.
  /// Summed across nodes (plus originations) this is the per-run slot cost
  /// of the broadcast plane.
  std::size_t broadcast_relays() const { return broadcast_relays_; }
  /// Broadcast transmissions that carried a beacon tag (the piggy-back
  /// channel the head watches to decide whether an explicit beacon is due).
  std::size_t tagged_broadcast_sends() const { return tagged_broadcast_sends_; }
  /// Beacon-probe relays this node skipped because its own tagged data
  /// frames already covered the link since the previous probe — reclaimed
  /// RT-Link slots.
  std::size_t beacon_relays_suppressed() const { return beacon_relays_suppressed_; }

  /// Opt-in event tracing (nullptr disables): "bcast.origin" and
  /// "bcast.relay" instants on this node's track. `sim` supplies the
  /// timestamps (the router holds no simulator reference of its own).
  /// Recording never perturbs routing decisions.
  void set_trace(obs::TraceRecorder* trace, sim::Simulator* sim) {
    trace_ = trace;
    trace_sim_ = sim;
  }

  static std::vector<std::uint8_t> encode(const Datagram& d);
  static bool decode(std::span<const std::uint8_t> bytes, Datagram& out);

 private:
  void on_packet(const Packet& packet);
  util::Status forward(Datagram d);
  /// Record (source, seq); false when it was already seen recently.
  bool remember(NodeId source, std::uint16_t seq);
  bool should_relay_broadcast() const;

  Mac& mac_;
  Topology& topology_;
  obs::TraceRecorder* trace_ = nullptr;
  sim::Simulator* trace_sim_ = nullptr;
  std::function<void(const Datagram&)> receive_handler_;
  std::function<void(const BeaconTag&)> beacon_observer_;
  std::size_t forwarded_ = 0;
  std::size_t broadcasts_originated_ = 0;
  std::size_t broadcast_relays_ = 0;
  std::size_t tagged_broadcast_sends_ = 0;
  std::size_t beacon_relays_suppressed_ = 0;
  /// Snapshot of tagged_broadcast_sends_ after the last beacon probe this
  /// node relayed (or suppressed); unchanged counter = silent link.
  std::size_t tagged_sends_at_last_probe_ = 0;
  /// Null until enable_tree_dissemination: no relaying.
  const DisseminationTreeCache* tree_cache_ = nullptr;
  BeaconTag beacon_tag_;
  std::uint8_t default_ttl_ = 8;
  std::uint16_t next_seq_ = 0;
  /// Recently seen broadcast seqs per source (bounded sliding window).
  std::map<NodeId, std::deque<std::uint16_t>> seen_;
};

}  // namespace evm::net
