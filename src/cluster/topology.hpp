#pragma once

// Cluster topology: owns the simulated nodes and TPU devices and knows which
// TPU lives on which node. The paper's reference deployment is 25 RPi 4s, 6
// of them with one Coral TPU each (19 vRPis + 6 tRPis), interconnected by
// gigabit switches.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/network.hpp"
#include "cluster/node.hpp"
#include "cluster/tpu_device.hpp"
#include "models/registry.hpp"
#include "sim/sharded_sim.hpp"

namespace microedge {

struct TopologySpec {
  int vRpiCount = 19;
  int tRpiCount = 6;
  int tpusPerTRpi = 1;
  // racks > 1 switches to rack-structured names ("r<k>-trpi-03",
  // "r<k>-vrpi-07", "r<k>-tpu-01"): nodes distribute round-robin (node i ->
  // rack i % racks) and every TPU inherits its host tRPi's rack. The rack
  // prefix is what the sharded simulation's ShardMap partitions by; racks
  // <= 1 keeps the legacy flat names bit for bit.
  int racks = 1;
  NodeResources nodeResources{};
  TpuHardwareConfig tpuConfig{};
  NetworkConfig networkConfig{};
};

class ClusterTopology {
 public:
  // Records each node's shard in `sharded`'s map as it builds the node
  // (each tRPi before its TPUs, then the vRPis; set the rack mapping first)
  // and runs each TPU on its host's shard Simulator. `registry` must
  // outlive the topology.
  ClusterTopology(ShardedSim& sharded, const ModelRegistry& registry,
                  TopologySpec spec);

  ClusterTopology(const ClusterTopology&) = delete;
  ClusterTopology& operator=(const ClusterTopology&) = delete;

  const TopologySpec& spec() const { return spec_; }
  const NetworkModel& network() const { return network_; }

  const std::vector<std::unique_ptr<RpiNode>>& nodes() const { return nodes_; }
  std::vector<RpiNode*> vRpis() const;
  std::vector<RpiNode*> tRpis() const;
  RpiNode* findNode(const std::string& name) const;

  const std::vector<std::unique_ptr<TpuDevice>>& tpus() const { return tpus_; }
  TpuDevice* findTpu(const std::string& tpuId) const;
  // Node hosting a TPU (every TPU is attached to exactly one tRPi).
  const std::string& nodeOfTpu(const std::string& tpuId) const;

  // The paper's reference cluster: 19 vRPis + 6 tRPis with 1 TPU each.
  static TopologySpec microEdgeDefault();

 private:
  TopologySpec spec_;
  NetworkModel network_;
  std::vector<std::unique_ptr<RpiNode>> nodes_;
  std::vector<std::unique_ptr<TpuDevice>> tpus_;
  std::map<std::string, RpiNode*> nodeByName_;
  std::map<std::string, TpuDevice*> tpuById_;
  std::map<std::string, std::string> tpuHost_;
};

}  // namespace microedge
