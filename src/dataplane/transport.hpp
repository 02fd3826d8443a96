#pragma once

// Simulated message transport between cluster nodes.
//
// Wraps the NetworkModel in the event loop: send() delivers the payload's
// callback after the modelled one-way latency. Flows between distinct node
// pairs do not contend (switched full-duplex fabric); per-message costs are
// captured by the NetworkModel's base latency.
//
// Endpoints are pre-resolved NodeId handles (interned once at client/service
// construction), so a per-frame send costs an integer compare, one multiply
// and an event insertion — no strings.
//
// Every message carries a key (messageKey), and under a loss window its drop
// draw is a pure function of (fault seed, key): one rule for every sender,
// independent of lane, shard count and every other message.
//
// Sharded runs: one SimTransport serves every shard of its ShardedSim (one
// shard on the solo path). All mutable state — counters and the fault
// window — lives in per-shard cache-line-sized lanes indexed by
// ShardedSim::currentShard(), so concurrent shard workers never touch the
// same bytes. send() schedules on the calling shard's own Simulator and is
// therefore only correct for same-shard deliveries (the Coral-Pie app and
// the serverless baseline use it). TpuClient's frame hops use sendRouted()
// (model + account, no scheduling) and post the delivery through
// ShardedSim::postToShard: a plain schedule on the same shard, a mailbox
// append across shards.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/network.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/simulator.hpp"
#include "util/event_fn.hpp"
#include "util/intern.hpp"
#include "util/rng.hpp"

namespace microedge {

class SimTransport {
 public:
  SimTransport(ShardedSim& sharded, const NetworkModel& network)
      : sharded_(sharded), network_(network), lanes_(sharded.shardCount()) {}

  // Stable per-message identity for fault decisions: a splitMix64 chain over
  // (sender token, message id, tag). Each sender on a transport needs its
  // own token (DataPlane::newStreamToken hands out sequential ones), so two
  // senders' keys differ; the id and tag tell one sender's messages apart.
  static constexpr std::uint64_t messageKey(std::uint64_t token,
                                            std::uint64_t id,
                                            std::uint64_t tag) {
    return splitMix64(splitMix64(token ^ splitMix64(id)) ^ tag);
  }

  // Delivers `onDelivered` after the transfer latency of `bytes` from
  // `fromNode` to `toNode`. Returns the modelled transfer latency (for
  // breakdowns). EventFn keeps inline-sized completion closures off the heap
  // all the way into the event slot. Sharded runs: delivery is scheduled on
  // the calling shard's Simulator, so both endpoints must live on that shard.
  SimDuration send(NodeId fromNode, NodeId toNode, std::size_t bytes,
                   std::uint64_t msgKey, EventFn onDelivered);

  // Models and accounts a message WITHOUT scheduling its delivery: returns
  // the (fault-adjusted) transfer latency and sets *dropped when the fault
  // window eats the message. The caller owns delivery, e.g. through
  // ShardedSim::postToShard, which may hand it to another shard's mailbox.
  SimDuration sendRouted(NodeId fromNode, NodeId toNode, std::size_t bytes,
                         bool* dropped, std::uint64_t msgKey);

  const NetworkModel& network() const { return network_; }

  // Fault window on the CALLING shard's lane (the fault injector arms one
  // edge pair per shard, each touching only its own lane): every message is
  // dropped with `lossProbability` (its delivery callback never fires — the
  // frame's deadline timer is what notices), and surviving deliveries take
  // `latencyMultiplier` times the modelled latency. A message's drop is
  // decided from (seed, key) alone, so loss replays identically at any
  // shard count. Steady-state cost with no fault active: one branch per
  // send.
  void setFault(double lossProbability, double latencyMultiplier,
                std::uint64_t seed);
  void clearFault();
  bool faultActive() const;
  std::size_t droppedMessages() const;

  std::size_t messagesSent() const;
  std::size_t bytesSent() const;

 private:
  // One lane per shard: all counters and fault state a shard worker mutates
  // on its send path, padded to a cache line so lanes never false-share.
  struct alignas(64) Lane {
    std::size_t messages = 0;
    std::size_t bytes = 0;
    std::size_t dropped = 0;
    bool faultActive = false;
    double lossProbability = 0.0;
    double latencyMultiplier = 1.0;
    std::uint64_t faultSeed = 0;  // same on every lane: keys replay at any
                                  // shard count
  };

  Lane& lane() { return lanes_[ShardedSim::currentShard()]; }
  // Accounts the message on `lane` and returns its fault-adjusted latency;
  // sets *dropped when the fault window eats it, decided from
  // (lane.faultSeed, msgKey).
  SimDuration modelMessage(Lane& lane, NodeId fromNode, NodeId toNode,
                           std::size_t bytes, bool* dropped,
                           std::uint64_t msgKey);

  ShardedSim& sharded_;
  const NetworkModel& network_;
  std::vector<Lane> lanes_;
};

}  // namespace microedge
