#pragma once

// Cluster interconnect model.
//
// MicroEdge's RPis hang off two 16-port gigabit switches; each RPi has a
// 1 GbE NIC. The evaluation's only network-sensitive quantity is the
// TPU Client -> TPU Service frame transmission (~8 ms for a 300x300x3 frame,
// Fig. 7b). A line-rate 1 GbE transfer of 270 KB takes ~2.2 ms; the paper's
// 8 ms reflects what an RPi actually sustains end-to-end (TCP + serialization
// + kernel overhead on a Cortex-A72), so the model uses an *effective*
// application-level bandwidth plus a fixed per-message latency, calibrated to
// reproduce the 8 ms figure. Switched full-duplex fabric => flows between
// distinct node pairs do not contend; same-node communication takes the
// loopback fast path.
//
// Endpoints are dense interned NodeId handles (util/intern.hpp), so
// resolving a latency is an integer compare plus one multiply — no
// string-pair probe per frame.

#include <cstddef>

#include "util/intern.hpp"
#include "util/time.hpp"

namespace microedge {

struct NetworkConfig {
  // Effective application-level throughput between two RPis (out of the
  // 125 MB/s line rate; see header comment).
  double effectiveBandwidthMBps = 36.0;
  // Fixed per-message cost: connection handling, syscalls, switching delay.
  SimDuration baseLatency = microseconds(500);
  // Loopback (same node) per-message cost; bandwidth is not a factor at the
  // message sizes involved.
  SimDuration loopbackLatency = microseconds(60);
};

class NetworkModel {
 public:
  explicit NetworkModel(NetworkConfig config = {})
      : config_(config),
        secondsPerByte_(1.0 / (config.effectiveBandwidthMBps * 1e6)) {}

  const NetworkConfig& config() const { return config_; }

  // One-way latency for `bytes` between two nodes.
  SimDuration transferLatency(NodeId fromNode, NodeId toNode,
                              std::size_t bytes) const {
    if (fromNode == toNode) return config_.loopbackLatency;
    return config_.baseLatency +
           secondsF(static_cast<double>(bytes) * secondsPerByte_);
  }

  // Latency of a small control message (invoke response metadata, load acks).
  SimDuration controlLatency(NodeId fromNode, NodeId toNode) const {
    return fromNode == toNode ? config_.loopbackLatency : config_.baseLatency;
  }

 private:
  NetworkConfig config_;
  double secondsPerByte_;
};

}  // namespace microedge
