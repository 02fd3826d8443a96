// Network model and topology/cost substrate tests.

#include <gtest/gtest.h>

#include "cluster/cost.hpp"
#include "cluster/network.hpp"
#include "cluster/topology.hpp"
#include "models/zoo.hpp"
#include "util/strings.hpp"

namespace microedge {
namespace {

TEST(NetworkModelTest, RemoteTransferScalesWithBytes) {
  NetworkModel net;
  const NodeId a = internNode("a"), b = internNode("b");
  SimDuration small = net.transferLatency(a, b, 1000);
  SimDuration large = net.transferLatency(a, b, 1000000);
  EXPECT_GT(large, small);
  EXPECT_GE(small, net.config().baseLatency);
}

TEST(NetworkModelTest, FrameTransmissionCalibratedToPaper) {
  // Fig. 7b: shipping a 300x300x3 pre-processed frame between RPis costs
  // about 8 ms.
  NetworkModel net;
  SimDuration latency =
      net.transferLatency(internNode("vrpi-00"), internNode("trpi-00"), 270000);
  EXPECT_NEAR(toMilliseconds(latency), 8.0, 0.5);
}

TEST(NetworkModelTest, LoopbackIsFast) {
  NetworkModel net;
  const NodeId a = internNode("a");
  SimDuration loop = net.transferLatency(a, a, 270000);
  EXPECT_LT(loop, milliseconds(1));
  EXPECT_EQ(loop, net.config().loopbackLatency);
}

TEST(NetworkModelTest, ControlMessages) {
  NetworkModel net;
  const NodeId a = internNode("a"), b = internNode("b");
  EXPECT_EQ(net.controlLatency(a, b), net.config().baseLatency);
  EXPECT_EQ(net.controlLatency(a, a), net.config().loopbackLatency);
}

class TopologyTest : public ::testing::Test {
 protected:
  TopologyTest()
      : zoo_(zoo::standardZoo()),
        topo_(sharded_, zoo_, ClusterTopology::microEdgeDefault()) {}

  ShardedSim sharded_{1, NetworkConfig{}.baseLatency};
  ModelRegistry zoo_;
  ClusterTopology topo_;
};

TEST_F(TopologyTest, PaperReferenceClusterShape) {
  // 25 RPis, 6 of them with a TPU (19 vRPis + 6 tRPis).
  EXPECT_EQ(topo_.nodes().size(), 25u);
  EXPECT_EQ(topo_.vRpis().size(), 19u);
  EXPECT_EQ(topo_.tRpis().size(), 6u);
  EXPECT_EQ(topo_.tpus().size(), 6u);
}

TEST_F(TopologyTest, TpuToNodeMapping) {
  for (const auto& tpu : topo_.tpus()) {
    RpiNode* node = topo_.hostOf(tpu->id());
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(topo_.findNode(node->name()), node);
    EXPECT_TRUE(node->isTRpi());
    bool attached = false;
    for (TpuDevice* attachedTpu : node->tpus()) {
      if (attachedTpu == tpu.get()) attached = true;
    }
    EXPECT_TRUE(attached);
  }
}

TEST_F(TopologyTest, Lookups) {
  EXPECT_NE(topo_.findTpu("tpu-00"), nullptr);
  EXPECT_EQ(topo_.findTpu("tpu-99"), nullptr);
  EXPECT_EQ(topo_.hostOf("tpu-99"), nullptr);
  EXPECT_NE(topo_.findNode("vrpi-00"), nullptr);
  EXPECT_EQ(topo_.findNode("nope"), nullptr);
}

// The topology records every node's rack and shard as it builds it: node i
// of each kind is in rack i % racks, its name carries that rack, and each
// node, vRPis included, runs on its rack's shard under either rack mapping.
TEST(TopologyShardTest, EveryNodeRunsOnItsRacksShard) {
  ModelRegistry zoo = zoo::standardZoo();
  TopologySpec spec;
  spec.racks = 5;
  spec.tRpiCount = 10;
  spec.vRpiCount = 15;
  for (unsigned shards : {1u, 2u, 4u}) {
    for (RackMapping mapping :
         {RackMapping::kRoundRobin, RackMapping::kBlock}) {
      ShardedSim sharded(shards, NetworkConfig{}.baseLatency);
      sharded.shardMap().setRackMapping(mapping, spec.racks);
      ClusterTopology topo(sharded, zoo, spec);
      const ShardMap& map = sharded.shardMap();
      EXPECT_EQ(map.mappedCount(), topo.nodes().size());
      int tRpi = 0, vRpi = 0;  // nodes() lists the tRPis, then the vRPis
      for (const auto& node : topo.nodes()) {
        const int rack = node->rack();
        const int index = node->isTRpi() ? tRpi++ : vRpi++;
        EXPECT_EQ(rack, index % spec.racks) << node->name();
        EXPECT_EQ(node->name().rfind(strCat("r", rack, "-"), 0), 0u)
            << node->name();
        EXPECT_EQ(sharded.shardOfNode(internNode(node->name())),
                  map.shardOfRack(rack))
            << node->name() << " shards=" << shards;
      }
    }
  }
}

TEST(TopologyMultiTpuTest, BodyPixBaselineAttachesTwoTpusPerNode) {
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  ModelRegistry zoo = zoo::standardZoo();
  TopologySpec spec;
  spec.tRpiCount = 3;
  spec.tpusPerTRpi = 2;
  spec.vRpiCount = 4;
  ClusterTopology topo(sharded, zoo, spec);
  EXPECT_EQ(topo.tpus().size(), 6u);
  for (RpiNode* node : topo.tRpis()) {
    EXPECT_EQ(node->tpus().size(), 2u);
  }
}

TEST(CostModelTest, Table1Totals) {
  // Solving the paper's Table 1: 17 RPis + 17 TPUs = $2550 and
  // 17 RPis + 6 TPUs = $1725.
  CostModel cost;
  EXPECT_DOUBLE_EQ(cost.clusterCost(17, 17), 2550.0);
  EXPECT_DOUBLE_EQ(cost.clusterCost(17, 6), 1725.0);
}

}  // namespace
}  // namespace microedge
