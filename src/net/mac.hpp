// Abstract medium-access-control interface. RT-Link (the EVM's transport)
// and the B-MAC / S-MAC baselines all implement this, so the lifetime and
// latency benches can sweep protocols over identical offered traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/packet.hpp"
#include "net/radio.hpp"
#include "util/ring_buffer.hpp"
#include "util/status.hpp"

namespace evm::net {

struct MacStats {
  std::size_t enqueued = 0;
  std::size_t sent = 0;
  std::size_t received = 0;
  std::size_t queue_drops = 0;
};

class Mac {
 public:
  Mac(sim::Simulator& sim, Radio& radio, std::size_t queue_capacity = 32);
  virtual ~Mac() = default;

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;

  NodeId id() const { return radio_.id(); }
  Radio& radio() { return radio_; }

  /// Begin protocol operation (wake/sleep schedule, sync acquisition, ...).
  virtual void start() = 0;
  virtual void stop() = 0;

  /// Queue a packet for transmission under the protocol's schedule.
  virtual util::Status send(Packet packet);

  void set_receive_handler(std::function<void(const Packet&)> handler) {
    receive_handler_ = std::move(handler);
  }

  /// Control-plane priority lane: when enabled, unicast packets (fault
  /// reports, mode commands — the low-rate control plane) drain ahead of
  /// queued broadcasts; each lane stays FIFO. The testbed builder enables
  /// it on every node of a multi-hop world, where the shared FIFO would
  /// make every control hop wait out the standing relay traffic, turning a
  /// 33-hop command into minutes of transit. Off by default: single-hop
  /// EVM protocols rely on one FIFO, and with the lane on
  /// ServiceFixture.GracefulDegradationChain records 11 failovers instead
  /// of 2 while FunctionMigrationMovesStateAndMode and
  /// ReplicationKeepsSourceActive never reach kActive.
  void set_unicast_priority(bool on) { unicast_priority_ = on; }

  const MacStats& stats() const { return stats_; }
  std::size_t queue_depth() const {
    return queue_.size() + priority_queue_.size();
  }

 protected:
  /// Deliver a packet to the upper layer, filtering self-addressed echoes.
  void deliver_up(const Packet& packet);

  /// Next packet to transmit: the priority lane first, then the bulk queue.
  /// All protocol implementations must dequeue through this (not queue_
  /// directly) so the priority lane applies uniformly.
  std::optional<Packet> dequeue();
  bool tx_pending() const { return !queue_.empty() || !priority_queue_.empty(); }

  sim::Simulator& sim_;
  Radio& radio_;
  util::RingBuffer<Packet> queue_;
  util::RingBuffer<Packet> priority_queue_;
  bool unicast_priority_ = false;
  MacStats stats_;
  std::function<void(const Packet&)> receive_handler_;
  bool running_ = false;
  std::uint16_t next_seq_ = 1;
};

}  // namespace evm::net
