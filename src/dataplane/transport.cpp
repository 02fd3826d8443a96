#include "dataplane/transport.hpp"

namespace microedge {

namespace {

// Drop decision: a uniform in [0,1) that is a pure function of (fault seed,
// message key). splitMix64's finalizer gives full avalanche, so adjacent
// frame keys decorrelate; >>11 keeps the top 53 bits, the mantissa
// construction Pcg32::nextDouble uses.
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
    if (lane.lossProbability > 0.0 &&
        keyedBernoulli(lane.faultSeed, msgKey, lane.lossProbability)) {
      // Dropped on the wire: the delivery callback never fires. The sender
      // still paid the modelled latency (returned for the breakdown); the
      // loss surfaces as a frame that never comes back.
      ++lane.dropped;
      *dropped = true;
      return latency;
    }
    if (lane.latencyMultiplier != 1.0) {
      latency = SimDuration{static_cast<SimDuration::rep>(
          static_cast<double>(latency.count()) * lane.latencyMultiplier)};
    }
  }
  return latency;
}

SimDuration SimTransport::send(NodeId fromNode, NodeId toNode,
                               std::size_t bytes, std::uint64_t msgKey,
                               EventFn onDelivered) {
  bool dropped = false;
  SimDuration latency =
      modelMessage(lane(), fromNode, toNode, bytes, &dropped, msgKey);
  if (dropped) return latency;
  sharded_.currentSim().scheduleAfter(latency, std::move(onDelivered));
  return latency;
}

SimDuration SimTransport::sendRouted(NodeId fromNode, NodeId toNode,
                                     std::size_t bytes, bool* dropped,
                                     std::uint64_t msgKey) {
  return modelMessage(lane(), fromNode, toNode, bytes, dropped, msgKey);
}

void SimTransport::setFault(double lossProbability, double latencyMultiplier,
                            std::uint64_t seed) {
  Lane& current = lane();
  current.faultActive = true;
  current.lossProbability = lossProbability;
  current.latencyMultiplier = latencyMultiplier;
  current.faultSeed = seed;
}

void SimTransport::clearFault() { lane().faultActive = false; }

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
