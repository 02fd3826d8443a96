// Bursts of frames submitted at one instant, as k invoke() calls: a burst
// larger than the free slab run must grow the client's context pool, and a
// burst against fully masked targets must give every frame exactly one
// terminal outcome.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

struct Cluster {
  Cluster()
      : zoo(zoo::standardZoo()),
        topo(sim, zoo, spec()),
        dataPlane(sim, topo, zoo) {}

  static TopologySpec spec() {
    TopologySpec s;
    s.vRpiCount = 2;
    s.tRpiCount = 2;
    return s;
  }

  void loadAll(const std::string& model) {
    for (const char* tpu : {"tpu-00", "tpu-01"}) {
      ASSERT_TRUE(dataPlane.executeLoad(LoadCommand{tpu, {model}, {}}).isOk());
    }
    sim.run();
  }

  Simulator sim;
  ModelRegistry zoo;
  ClusterTopology topo;
  DataPlane dataPlane;
};

TEST(BurstIngestTest, BurstLargerThanFreeSlabRunGrowsThePool) {
  // A burst far larger than any slab chunk: the pool must grow mid-burst,
  // every frame must reach a terminal outcome, and every slot must come
  // back.
  Cluster cluster;
  cluster.loadAll(zoo::kMobileNetV1);
  auto client = cluster.dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100},
                                          LbWeight{internTpu("tpu-01"), 100}}})
                  .isOk());
  constexpr std::size_t kBig = 1500;
  std::size_t done = 0;
  for (std::size_t i = 0; i < kBig; ++i) {
    ASSERT_TRUE(
        client->invoke([&done](const FrameBreakdown&) { ++done; }).isOk());
  }
  EXPECT_EQ(client->submittedCount(), kBig);
  EXPECT_EQ(client->contextsInFlight(), kBig);
  cluster.sim.run();
  EXPECT_EQ(done, kBig);
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kCompleted), kBig);
  EXPECT_EQ(client->contextsInFlight(), 0u);
}

TEST(BurstIngestTest, AllTargetsMaskedEveryFrameGetsExactlyOneOutcome) {
  // Both services are gone before the burst: every frame must terminate
  // kDroppedDeadTarget with its callback fired exactly once, synchronously,
  // inside its invoke().
  Cluster cluster;
  cluster.loadAll(zoo::kMobileNetV1);
  auto client = cluster.dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100},
                                          LbWeight{internTpu("tpu-01"), 100}}})
                  .isOk());
  cluster.dataPlane.removeService("tpu-00");
  cluster.dataPlane.removeService("tpu-01");

  constexpr std::size_t kFrames = 5;
  std::vector<int> fired(kFrames, 0);
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client
                    ->invoke([&fired, i](const FrameBreakdown& b) {
                      ++fired[i];
                      EXPECT_EQ(b.outcome, FrameOutcome::kDroppedDeadTarget);
                    })
                    .isOk());
    EXPECT_EQ(fired[i], 1) << "frame " << i;
  }
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(fired[i], 1) << "frame " << i;
  }
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kDroppedDeadTarget), kFrames);
  EXPECT_EQ(client->contextsInFlight(), 0u);
  EXPECT_EQ(cluster.sim.pendingCount(), 0u);
}

}  // namespace
}  // namespace microedge
