// Differential check for the allocation-free fast path: the client pipeline
// (3 fused events) must produce bit-for-bit identical FrameBreakdown timings
// to the literal five-stage formulation, one event per stage, built from
// SimTransport::send and TpuService::invoke. SimTime is integer nanoseconds,
// so "identical" means EXPECT_EQ on every field — no tolerance.

#include <gtest/gtest.h>

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
        topo(sharded, zoo, spec()),
        dataPlane(sharded, topo, zoo) {}

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

  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ModelRegistry zoo;
  ClusterTopology topo;
  DataPlane dataPlane;
};

// The reference pipeline: five separate events per frame. It resolves the
// names it is given itself.
class FiveStageDriver {
 public:
  FiveStageDriver(Cluster& cluster, const std::string& clientNode,
                  const std::string& model)
      : cluster_(cluster), clientNode_(internNode(clientNode)),
        info_(cluster_.zoo.at(model)) {
    results_.reserve(256);  // pointers into results_ must stay stable
  }

  void invoke(const std::string& tpuId) {
    results_.emplace_back();
    FrameBreakdown* b = &results_.back();
    b->frameId = results_.size();
    b->submitted = cluster_.sim.now();
    b->preprocess = info_.preprocessLatency;
    TpuService* service = cluster_.dataPlane.service(tpuId);
    ASSERT_NE(service, nullptr);
    b->servedBy = service->tpu();
    const NodeId serviceNode = internNode(service->node());
    const ModelId model = lookupModel(info_.name);
    // Stage 1: preprocess as its own event.
    cluster_.sim.scheduleAfter(info_.preprocessLatency, [=, this] {
      // Stage 2: request hop.
      b->requestTransmit = cluster_.dataPlane.transport().send(
          clientNode_, serviceNode, info_.inputBytes(), b->frameId, [=, this] {
            // Stage 3: inference.
            Status s = service->invoke(
                model, [=, this](const TpuDevice::InvokeStats& stats) {
                  b->queueDelay = stats.queueDelay;
                  b->inference = stats.serviceTime;
                  // Stage 4: response hop.
                  b->responseTransmit = cluster_.dataPlane.transport().send(
                      serviceNode, clientNode_, info_.outputBytes, b->frameId,
                      [=, this] {
                        // Stage 5: postprocess as its own event.
                        b->postprocess = info_.postprocessLatency;
                        cluster_.sim.scheduleAfter(
                            info_.postprocessLatency,
                            [=, this] { b->completed = cluster_.sim.now(); });
                      });
                });
            ASSERT_TRUE(s.isOk());
          });
    });
  }

  const std::vector<FrameBreakdown>& results() const { return results_; }

 private:
  Cluster& cluster_;
  NodeId clientNode_;
  ModelInfo info_;
  std::vector<FrameBreakdown> results_;
};

void expectIdentical(const FrameBreakdown& fast, const FrameBreakdown& ref) {
  EXPECT_EQ(fast.servedBy.value, ref.servedBy.value);
  EXPECT_EQ(fast.submitted, ref.submitted);
  EXPECT_EQ(fast.completed, ref.completed);
  EXPECT_EQ(fast.preprocess, ref.preprocess);
  EXPECT_EQ(fast.requestTransmit, ref.requestTransmit);
  EXPECT_EQ(fast.queueDelay, ref.queueDelay);
  EXPECT_EQ(fast.inference, ref.inference);
  EXPECT_EQ(fast.responseTransmit, ref.responseTransmit);
  EXPECT_EQ(fast.postprocess, ref.postprocess);
  EXPECT_EQ(fast.endToEnd(), ref.endToEnd());
}

TEST(DataplaneDifferentialTest, FusedPipelineMatchesFiveStageReference) {
  // Two separate simulations over identical topologies: one driven by the
  // TpuClient, one by the literal five-stage formulation.
  Cluster fast;
  Cluster ref;
  fast.loadAll(zoo::kSsdMobileNetV2);
  ref.loadAll(zoo::kSsdMobileNetV2);

  auto client = fast.dataPlane.makeClient("vrpi-00", zoo::kSsdMobileNetV2);
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 200},
                                          LbWeight{internTpu("tpu-01"), 100}}})
                  .isOk());
  FiveStageDriver driver(ref, "vrpi-00", zoo::kSsdMobileNetV2);

  // Drive both with the same arrival pattern and the same routing sequence
  // (the smooth-WRR 2:1 order is deterministic; mirror it on the reference).
  std::vector<FrameBreakdown> fastResults;
  fastResults.reserve(64);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client
                    ->invoke([&](const FrameBreakdown& b) {
                      fastResults.push_back(b);
                    })
                    .isOk());
    fast.sim.run();
  }
  ASSERT_EQ(fastResults.size(), 30u);
  for (int i = 0; i < 30; ++i) {
    driver.invoke(fastResults[i].servedByName());
    ref.sim.run();
  }

  for (int i = 0; i < 30; ++i) {
    SCOPED_TRACE(i);
    expectIdentical(fastResults[i], driver.results()[i]);
  }
}

TEST(DataplaneDifferentialTest, QueueContentionMatchesBitForBit) {
  // Four frames submitted at the same instant against one serial device:
  // fused events must reproduce the exact queue delays of the five-stage
  // form, not just the sums.
  Cluster fast;
  Cluster ref;
  fast.loadAll(zoo::kEfficientNetLite0);
  ref.loadAll(zoo::kEfficientNetLite0);

  auto client = fast.dataPlane.makeClient("vrpi-00", zoo::kEfficientNetLite0);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  std::vector<FrameBreakdown> fastResults;
  fastResults.reserve(8);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    ->invoke([&](const FrameBreakdown& b) {
                      fastResults.push_back(b);
                    })
                    .isOk());
  }
  fast.sim.run();
  ASSERT_EQ(fastResults.size(), 4u);

  FiveStageDriver driver(ref, "vrpi-00", zoo::kEfficientNetLite0);
  for (int i = 0; i < 4; ++i) driver.invoke("tpu-00");
  ref.sim.run();

  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    expectIdentical(fastResults[i], driver.results()[i]);
  }
}

}  // namespace
}  // namespace microedge
