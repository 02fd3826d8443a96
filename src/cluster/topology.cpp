#include "cluster/topology.hpp"

#include <cassert>

#include "util/strings.hpp"

namespace microedge {

namespace {
std::string indexName(const char* prefix, int i) {
  return strCat(prefix, i < 10 ? "0" : "", i);
}
// racks <= 1 keeps the legacy flat name; otherwise the rack prefix carries
// the shard-mapping information (ShardMap::rackOfName parses it back).
std::string rackedName(int racks, int rack, const char* prefix, int i) {
  return racks > 1 ? strCat("r", rack, "-", indexName(prefix, i))
                   : indexName(prefix, i);
}
}  // namespace

ClusterTopology::ClusterTopology(ShardedSim& sharded,
                                 const ModelRegistry& registry,
                                 TopologySpec spec)
    : spec_(spec), network_(spec.networkConfig) {
  ShardMap& map = sharded.shardMap();
  const int racks = spec_.racks < 1 ? 1 : spec_.racks;
  int tpuIndex = 0;
  for (int i = 0; i < spec_.tRpiCount; ++i) {
    const int rack = i % racks;
    auto node = std::make_unique<RpiNode>(rackedName(racks, rack, "trpi-", i),
                                          spec_.nodeResources);
    Simulator& host = sharded.shardSim(map.assignByName(node->name()));
    for (int t = 0; t < spec_.tpusPerTRpi; ++t) {
      auto tpu = std::make_unique<TpuDevice>(
          host, registry, rackedName(racks, rack, "tpu-", tpuIndex++),
          spec_.tpuConfig);
      node->attachTpu(tpu.get());
      tpuById_[tpu->id()] = tpu.get();
      tpuHost_[tpu->id()] = node->name();
      tpus_.push_back(std::move(tpu));
    }
    nodeByName_[node->name()] = node.get();
    nodes_.push_back(std::move(node));
  }
  for (int i = 0; i < spec_.vRpiCount; ++i) {
    const int rack = i % racks;
    auto node = std::make_unique<RpiNode>(rackedName(racks, rack, "vrpi-", i),
                                          spec_.nodeResources);
    map.assignByName(node->name());
    nodeByName_[node->name()] = node.get();
    nodes_.push_back(std::move(node));
  }
}

std::vector<RpiNode*> ClusterTopology::vRpis() const {
  std::vector<RpiNode*> out;
  for (const auto& n : nodes_) {
    if (!n->isTRpi()) out.push_back(n.get());
  }
  return out;
}

std::vector<RpiNode*> ClusterTopology::tRpis() const {
  std::vector<RpiNode*> out;
  for (const auto& n : nodes_) {
    if (n->isTRpi()) out.push_back(n.get());
  }
  return out;
}

RpiNode* ClusterTopology::findNode(const std::string& name) const {
  auto it = nodeByName_.find(name);
  return it == nodeByName_.end() ? nullptr : it->second;
}

TpuDevice* ClusterTopology::findTpu(const std::string& tpuId) const {
  auto it = tpuById_.find(tpuId);
  return it == tpuById_.end() ? nullptr : it->second;
}

const std::string& ClusterTopology::nodeOfTpu(const std::string& tpuId) const {
  auto it = tpuHost_.find(tpuId);
  assert(it != tpuHost_.end() && "unknown TPU id");
  return it->second;
}

TopologySpec ClusterTopology::microEdgeDefault() {
  return TopologySpec{};  // 19 vRPis + 6 tRPis, 1 TPU each
}

}  // namespace microedge
