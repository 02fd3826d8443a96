#pragma once

// Simulated message transport between cluster nodes.
//
// Wraps the NetworkModel in the event loop: send() delivers the payload's
// callback after the modelled one-way latency. Flows between distinct node
// pairs do not contend (switched full-duplex fabric); per-message costs are
// captured by the NetworkModel's base latency.
//
// Hot path: endpoints are pre-resolved NodeId handles (interned once at
// client/service construction), so a per-frame send costs an integer
// compare, one multiply and an event insertion — no strings. The string
// overload interns on entry and is kept for control-plane and test callers.
//
// `departAfter` models sender-side work (e.g. the client's preprocess stage)
// that delays the message's departure without occupying the wire: the
// callback fires at now + departAfter + latency, and only the latency is
// returned/attributed to transmission. Folding that stage into the delivery
// event halves the client pipeline's event count without changing any
// timestamp.
//
// Sharded runs: one SimTransport serves every shard of its ShardRouter (a
// SoloRouter is one shard). All mutable state — counters and the fault
// window's RNG — lives in per-shard cache-line-sized lanes indexed by
// ShardRouter::currentShard(), so concurrent shard workers never touch the
// same bytes. send() schedules on the calling shard's own Simulator and is
// therefore only correct for same-shard deliveries; a cross-shard hop uses
// sendRouted() (model + account, no scheduling) and posts the delivery
// through the router's mailbox itself.

#include <cstddef>
#include <cstdint>
#include <string>
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
  SimTransport(ShardRouter& router, const NetworkModel& network)
      : router_(router), network_(network), lanes_(router.shardCount()) {}

  // Stable per-message identity for fault decisions. A keyed message's drop
  // draw under a loss window is a pure function of (fault seed, key) —
  // independent of lane, shard count, and every other message — so loss
  // outcomes replay identically at any shard count. Key 0 means "unkeyed":
  // the message draws from the lane's sequential RNG (control-plane and
  // test traffic that predates keying). Frame traffic derives its key from
  // (stream token, frame id, attempt, hop) in TpuClient.
  static constexpr std::uint64_t kUnkeyed = 0;

  // Delivers `onDelivered` after the transfer latency of `bytes` from
  // `fromNode` to `toNode` (plus `departAfter` of sender-side delay).
  // Returns the modelled transfer latency (for breakdowns). EventFn keeps
  // inline-sized completion closures off the heap all the way into the
  // event slot. Sharded runs: delivery is scheduled on the calling shard's
  // Simulator, so both endpoints must live on that shard.
  SimDuration send(NodeId fromNode, NodeId toNode, std::size_t bytes,
                   EventFn onDelivered,
                   SimDuration departAfter = SimDuration::zero(),
                   std::uint64_t msgKey = kUnkeyed);

  // String wrapper: interns both endpoints, then takes the path above.
  SimDuration send(const std::string& fromNode, const std::string& toNode,
                   std::size_t bytes, EventFn onDelivered,
                   SimDuration departAfter = SimDuration::zero());

  // Models and accounts a message WITHOUT scheduling its delivery: returns
  // the (fault-adjusted) transfer latency and sets *dropped when the fault
  // window eats the message. The caller owns delivery — this is the
  // cross-shard path, where the delivery event must travel through the
  // router's mailbox rather than the local event loop.
  SimDuration sendRouted(NodeId fromNode, NodeId toNode, std::size_t bytes,
                         bool* dropped, std::uint64_t msgKey = kUnkeyed);

  // Coalesced burst delivery: models and accounts each of the `count`
  // messages individually — counters, keyed loss draws and the per-message
  // latencies written to `latencyOut` are exactly what `count` send() calls
  // would produce (all messages share endpoints and size, so all survivors
  // share one latency; a dropped message's latency skips the fault
  // multiplier, same as send()) — but schedules ONE delivery event for the
  // whole group instead of one per message. The caller fans surviving
  // messages out on arrival: `droppedOut[i]` is set per message, and the
  // event is skipped entirely when the fault window ate the whole group
  // (matching send(), whose delivery never fires for a dropped message).
  // Same-shard only, like send(). Returns true iff the delivery event was
  // scheduled.
  bool sendCoalesced(NodeId fromNode, NodeId toNode, std::size_t bytesEach,
                     const std::uint64_t* keys, std::size_t count,
                     std::uint8_t* droppedOut, SimDuration* latencyOut,
                     EventFn onDelivered,
                     SimDuration departAfter = SimDuration::zero());

  const NetworkModel& network() const { return network_; }

  // Fault window (driven by the fault injector): every message is dropped
  // with `lossProbability` (its delivery callback never fires — the frame's
  // deadline timer is what notices), and surviving deliveries take
  // `latencyMultiplier` times the modelled latency. Draws come from a
  // dedicated seeded Pcg32 so a replayed plan drops identical messages.
  // Sharded runs seed lane s with `seed + s`: each shard's drop sequence is
  // a pure function of (seed, shard, its own send order), so replays remain
  // deterministic at any shard count. Steady-state cost with no fault
  // active: one branch per send.
  void setFault(double lossProbability, double latencyMultiplier,
                std::uint64_t seed);
  void clearFault();
  // Single-lane variants for sharded runs: a fault window that starts or
  // ends mid-run must be armed as one event per shard, each touching only
  // its own lane (the whole-transport setters above write every lane and
  // are only safe while no shard worker is sending). Lane s draws from
  // Pcg32{seed + s}, matching setFault's seeding.
  void setFaultOnLane(unsigned shard, double lossProbability,
                      double latencyMultiplier, std::uint64_t seed);
  void clearFaultOnLane(unsigned shard);
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
    Pcg32 faultRng{0};                // unkeyed draws: sequential, per-lane
    std::uint64_t faultSeed = 0;      // keyed draws: base seed, lane-invariant
  };

  Lane& lane() { return lanes_[ShardRouter::currentShard()]; }
  // Accounts the message on `lane` and returns its fault-adjusted latency;
  // sets *dropped when the fault window eats it. Keyed messages (msgKey !=
  // kUnkeyed) decide the drop from (lane.faultSeed, msgKey) without touching
  // the lane RNG; unkeyed messages draw sequentially from it.
  SimDuration modelMessage(Lane& lane, NodeId fromNode, NodeId toNode,
                           std::size_t bytes, bool* dropped,
                           std::uint64_t msgKey);

  ShardRouter& router_;
  const NetworkModel& network_;
  std::vector<Lane> lanes_;
};

}  // namespace microedge
