#include "cluster/topology.hpp"

#include "util/strings.hpp"

namespace microedge {

namespace {
std::string indexName(const char* prefix, int i) {
  return strCat(prefix, i < 10 ? "0" : "", i);
}
// racks <= 1 keeps the flat name; otherwise the name carries its rack.
std::string rackedName(int racks, int rack, const char* prefix, int i) {
  return racks > 1 ? strCat("r", rack, "-", indexName(prefix, i))
                   : indexName(prefix, i);
}
}  // namespace

ClusterTopology::ClusterTopology(ShardedSim& sharded,
                                 const ModelRegistry& registry,
                                 TopologySpec spec)
    : spec_(spec) {
  ShardMap& map = sharded.shardMap();
  const int racks = spec_.racks < 1 ? 1 : spec_.racks;
  int tpuIndex = 0;
  // Interns the node and records its rack's shard.
  const auto place = [&map](const RpiNode& node) {
    const unsigned shard = map.shardOfRack(node.rack());
    map.assign(internNode(node.name()), shard);
    return shard;
  };
  for (int i = 0; i < spec_.tRpiCount; ++i) {
    const int rack = i % racks;
    auto node =
        std::make_unique<RpiNode>(rackedName(racks, rack, "trpi-", i), rack);
    Simulator& host = sharded.shardSim(place(*node));
    for (int t = 0; t < spec_.tpusPerTRpi; ++t) {
      auto tpu = std::make_unique<TpuDevice>(
          host, registry, rackedName(racks, rack, "tpu-", tpuIndex++),
          spec_.tpuConfig);
      node->attachTpu(tpu.get());
      tpuById_[tpu->id()] = TpuEntry{tpu.get(), node.get()};
      tpus_.push_back(std::move(tpu));
    }
    nodeByName_[node->name()] = node.get();
    nodes_.push_back(std::move(node));
  }
  for (int i = 0; i < spec_.vRpiCount; ++i) {
    const int rack = i % racks;
    auto node =
        std::make_unique<RpiNode>(rackedName(racks, rack, "vrpi-", i), rack);
    place(*node);
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
  return it == tpuById_.end() ? nullptr : it->second.device;
}

RpiNode* ClusterTopology::hostOf(const std::string& tpuId) const {
  auto it = tpuById_.find(tpuId);
  return it == tpuById_.end() ? nullptr : it->second.host;
}

TopologySpec ClusterTopology::microEdgeDefault() {
  return TopologySpec{};  // 19 vRPis + 6 tRPis, 1 TPU each
}

}  // namespace microedge
