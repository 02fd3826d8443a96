#include "dataplane/transport.hpp"

namespace microedge {

namespace {

// Keyed drop decision: a uniform in [0,1) that is a pure function of
// (fault seed, message key). splitMix64's finalizer gives full avalanche, so
// adjacent frame keys decorrelate; >>11 keeps the top 53 bits — the same
// mantissa construction Pcg32::nextDouble uses — so keyed and unkeyed draws
// compare against `p` with identical granularity.
bool keyedBernoulli(std::uint64_t seed, std::uint64_t key, double p) {
  std::uint64_t bits = splitMix64(seed ^ splitMix64(key));
  double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return u < p;
}

}  // namespace

SimDuration SimTransport::modelMessage(Lane& lane, NodeId fromNode,
                                       NodeId toNode, std::size_t bytes,
                                       bool* dropped, std::uint64_t msgKey) {
  SimDuration latency = network_.transferLatency(fromNode, toNode, bytes);
  ++lane.messages;
  lane.bytes += bytes;
  *dropped = false;
  if (lane.faultActive) {
    if (lane.lossProbability > 0.0) {
      bool drop = msgKey != kUnkeyed
                      ? keyedBernoulli(lane.faultSeed, msgKey,
                                       lane.lossProbability)
                      : lane.faultRng.bernoulli(lane.lossProbability);
      if (drop) {
        // Dropped on the wire: the delivery callback never fires. The sender
        // still paid the modelled latency (returned for the breakdown); the
        // loss surfaces as a frame that never comes back.
        ++lane.dropped;
        *dropped = true;
        return latency;
      }
    }
    if (lane.latencyMultiplier != 1.0) {
      latency = SimDuration{static_cast<SimDuration::rep>(
          static_cast<double>(latency.count()) * lane.latencyMultiplier)};
    }
  }
  return latency;
}

SimDuration SimTransport::send(NodeId fromNode, NodeId toNode,
                               std::size_t bytes, EventFn onDelivered,
                               SimDuration departAfter, std::uint64_t msgKey) {
  bool dropped = false;
  SimDuration latency =
      modelMessage(lane(), fromNode, toNode, bytes, &dropped, msgKey);
  if (dropped) return latency;
  router_.currentSim().scheduleAfter(departAfter + latency,
                                     std::move(onDelivered));
  return latency;
}

SimDuration SimTransport::send(const std::string& fromNode,
                               const std::string& toNode, std::size_t bytes,
                               EventFn onDelivered, SimDuration departAfter) {
  return send(internNode(fromNode), internNode(toNode), bytes,
              std::move(onDelivered), departAfter);
}

SimDuration SimTransport::sendRouted(NodeId fromNode, NodeId toNode,
                                     std::size_t bytes, bool* dropped,
                                     std::uint64_t msgKey) {
  return modelMessage(lane(), fromNode, toNode, bytes, dropped, msgKey);
}

bool SimTransport::sendCoalesced(NodeId fromNode, NodeId toNode,
                                 std::size_t bytesEach,
                                 const std::uint64_t* keys, std::size_t count,
                                 std::uint8_t* droppedOut,
                                 SimDuration* latencyOut, EventFn onDelivered,
                                 SimDuration departAfter) {
  Lane& l = lane();
  SimDuration survivorLatency = SimDuration::zero();
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // Endpoints and size are shared, so every surviving message models to
    // the same latency; the per-message calls are kept so counters, loss
    // draws and per-message latencies stay exactly what `count` send()
    // calls would have produced.
    bool dropped = false;
    latencyOut[i] = modelMessage(l, fromNode, toNode, bytesEach, &dropped,
                                 keys != nullptr ? keys[i] : kUnkeyed);
    droppedOut[i] = dropped ? 1 : 0;
    if (!dropped) {
      survivorLatency = latencyOut[i];
      ++survivors;
    }
  }
  if (survivors == 0) return false;
  router_.currentSim().scheduleAfter(departAfter + survivorLatency,
                                     std::move(onDelivered));
  return true;
}

void SimTransport::setFault(double lossProbability, double latencyMultiplier,
                            std::uint64_t seed) {
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    lanes_[s].faultActive = true;
    lanes_[s].lossProbability = lossProbability;
    lanes_[s].latencyMultiplier = latencyMultiplier;
    lanes_[s].faultRng = Pcg32{seed + s};
    lanes_[s].faultSeed = seed;  // lane-invariant: keyed draws replay at any
                                 // shard count
  }
}

void SimTransport::clearFault() {
  for (Lane& lane : lanes_) lane.faultActive = false;
}

void SimTransport::setFaultOnLane(unsigned shard, double lossProbability,
                                  double latencyMultiplier,
                                  std::uint64_t seed) {
  Lane& lane = lanes_[shard];
  lane.faultActive = true;
  lane.lossProbability = lossProbability;
  lane.latencyMultiplier = latencyMultiplier;
  lane.faultRng = Pcg32{seed + shard};
  lane.faultSeed = seed;
}

void SimTransport::clearFaultOnLane(unsigned shard) {
  lanes_[shard].faultActive = false;
}

bool SimTransport::faultActive() const {
  for (const Lane& lane : lanes_) {
    if (lane.faultActive) return true;
  }
  return false;
}

std::size_t SimTransport::droppedMessages() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.dropped;
  return n;
}

std::size_t SimTransport::messagesSent() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.messages;
  return n;
}

std::size_t SimTransport::bytesSent() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.bytes;
  return n;
}

}  // namespace microedge
