#pragma once

// Raspberry Pi node model.
//
// MicroEdge's hardware pool is split into vRPis (vanilla) and tRPis (TPU
// endowed). A node carries CPU millicores and memory (scheduled by the
// default K3s-like scheduler in src/orch) plus zero or more attached TPU
// devices (scheduled by the extended scheduler in src/core). The BodyPix
// bare-metal baseline attaches *two* TPUs to one RPi, so attachment is a
// list, not a flag.

#include <memory>
#include <string>
#include <vector>

#include "cluster/tpu_device.hpp"

namespace microedge {

struct NodeResources {
  // RPi 4 Model B: quad-core Cortex-A72 @1.5 GHz, 8 GB LPDDR4.
  long cpuMillicores = 4000;
  long memoryMb = 8192;
};

class RpiNode {
 public:
  RpiNode(std::string name, int rack) : name_(std::move(name)), rack_(rack) {}

  const std::string& name() const { return name_; }
  // The rack ClusterTopology placed the node in (0 in a flat cluster): what
  // the sharded simulation partitions by, and which rack's control plane
  // owns the node's TPUs.
  int rack() const { return rack_; }
  const NodeResources& resources() const { return resources_; }

  bool isTRpi() const { return !tpus_.empty(); }
  void attachTpu(TpuDevice* tpu) { tpus_.push_back(tpu); }
  const std::vector<TpuDevice*>& tpus() const { return tpus_; }

 private:
  std::string name_;
  int rack_;
  NodeResources resources_{};
  std::vector<TpuDevice*> tpus_;  // owned by ClusterTopology
};

}  // namespace microedge
