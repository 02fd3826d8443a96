// Simulated data plane: transport, TPU Service, LB Service and the full
// TpuClient invoke path with its latency breakdown.

#include <gtest/gtest.h>

#include <algorithm>

#include "dataplane/dataplane.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class DataPlaneTest : public ::testing::Test {
 protected:
  DataPlaneTest()
      : zoo_(zoo::standardZoo()),
        topo_(sharded_, zoo_, smallTopology()),
        dataPlane_(sharded_, topo_, zoo_) {}

  static TopologySpec smallTopology() {
    TopologySpec spec;
    spec.vRpiCount = 2;
    spec.tRpiCount = 2;
    return spec;
  }

  LoadCommand loadCommand(const std::string& tpuId,
                          std::vector<std::string> models) {
    return LoadCommand{tpuId, std::move(models), {}};
  }

  ShardedSim sharded_{1, NetworkConfig{}.baseLatency};
  Simulator& sim_ = sharded_.shardSim(0);
  ModelRegistry zoo_;
  ClusterTopology topo_;
  DataPlane dataPlane_;
};

TEST_F(DataPlaneTest, OneServicePerTpu) {
  EXPECT_EQ(dataPlane_.serviceCount(), 2u);
  TpuService* service = dataPlane_.service("tpu-00");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->tpuId(), "tpu-00");
  EXPECT_EQ(service->node(), topo_.hostOf("tpu-00")->name());
  EXPECT_EQ(dataPlane_.service("tpu-77"), nullptr);
}

TEST_F(DataPlaneTest, ExecuteLoadInstallsComposite) {
  ASSERT_TRUE(dataPlane_
                  .executeLoad(loadCommand("tpu-00", {zoo::kMobileNetV1,
                                                      zoo::kUNetV2}))
                  .isOk());
  sim_.run();
  EXPECT_TRUE(
      topo_.findTpu("tpu-00")->isResident(lookupModel(zoo::kMobileNetV1)));
  EXPECT_TRUE(topo_.findTpu("tpu-00")->isResident(lookupModel(zoo::kUNetV2)));
  EXPECT_EQ(dataPlane_.service("tpu-00")->loadCount(), 1u);
}

TEST_F(DataPlaneTest, ExecuteLoadOnMissingServiceFails) {
  EXPECT_EQ(dataPlane_.executeLoad(loadCommand("tpu-77", {zoo::kUNetV2}))
                .code(),
            StatusCode::kUnavailable);
}

TEST_F(DataPlaneTest, SimTransportDeliversAfterLatency) {
  SimTransport& transport = dataPlane_.transport();
  bool delivered = false;
  SimDuration latency =
      transport.send(internNode("vrpi-00"), internNode("trpi-00"), 270000,
                     /*msgKey=*/1, [&] { delivered = true; });
  EXPECT_NEAR(toMilliseconds(latency), 8.0, 0.5);
  EXPECT_FALSE(delivered);
  sim_.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(sim_.now() - kSimEpoch, latency);
  EXPECT_EQ(transport.messagesSent(), 1u);
  EXPECT_EQ(transport.bytesSent(), 270000u);
}

TEST_F(DataPlaneTest, ClientEndToEndBreakdown) {
  ASSERT_TRUE(
      dataPlane_.executeLoad(loadCommand("tpu-00", {zoo::kSsdMobileNetV2}))
          .isOk());
  sim_.run();
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kSsdMobileNetV2);
  LbConfig lb{{LbWeight{internTpu("tpu-00"), 350}}};
  ASSERT_TRUE(client->configureLb(lb).isOk());

  FrameBreakdown seen;
  int completions = 0;
  ASSERT_TRUE(client
                  ->invoke([&](const FrameBreakdown& b) {
                    seen = b;
                    ++completions;
                  })
                  .isOk());
  sim_.run();
  ASSERT_EQ(completions, 1);
  EXPECT_EQ(seen.servedByName(), "tpu-00");
  const ModelInfo& model = zoo_.at(zoo::kSsdMobileNetV2);
  EXPECT_EQ(seen.preprocess, model.preprocessLatency);
  EXPECT_EQ(seen.inference, model.inferenceLatency);
  EXPECT_EQ(seen.queueDelay, SimDuration::zero());
  EXPECT_NEAR(toMilliseconds(seen.requestTransmit), 8.0, 0.5);
  EXPECT_LT(seen.responseTransmit, milliseconds(1));
  // End-to-end equals the sum of the stages.
  SimDuration sum = seen.preprocess + seen.requestTransmit + seen.queueDelay +
                    seen.inference + seen.responseTransmit + seen.postprocess;
  EXPECT_EQ(seen.endToEnd(), sum);
  EXPECT_EQ(client->completedCount(), 1u);
  EXPECT_EQ(client->outstanding(), 0u);
}

TEST_F(DataPlaneTest, ClientFansOutPerLbWeights) {
  for (const char* tpu : {"tpu-00", "tpu-01"}) {
    ASSERT_TRUE(
        dataPlane_.executeLoad(loadCommand(tpu, {zoo::kMobileNetV1})).isOk());
  }
  sim_.run();
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kMobileNetV1);
  // 2:1 split, the §4.3 example.
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 400},
                                          LbWeight{internTpu("tpu-01"), 200}}})
                  .isOk());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  EXPECT_EQ(dataPlane_.service("tpu-00")->invokeCount(), 20u);
  EXPECT_EQ(dataPlane_.service("tpu-01")->invokeCount(), 10u);
  EXPECT_EQ(client->lbService().routedCountTo(internTpu("tpu-00")), 20u);
}

TEST_F(DataPlaneTest, ClientRequiresConfiguration) {
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kMobileNetV1);
  EXPECT_EQ(client->invoke(nullptr).code(), StatusCode::kFailedPrecondition);
}

TEST_F(DataPlaneTest, StoppedClientRefusesNewFrames) {
  ASSERT_TRUE(
      dataPlane_.executeLoad(loadCommand("tpu-00", {zoo::kMobileNetV1}))
          .isOk());
  sim_.run();
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  ASSERT_TRUE(client->invoke(nullptr).isOk());
  client->stop();
  EXPECT_FALSE(client->invoke(nullptr).isOk());
  sim_.run();
  // The in-flight frame drains.
  EXPECT_EQ(client->completedCount(), 1u);
}

TEST_F(DataPlaneTest, PartitionedClientFailsOverWhenOneTargetDies) {
  for (const char* tpu : {"tpu-00", "tpu-01"}) {
    ASSERT_TRUE(
        dataPlane_.executeLoad(LoadCommand{tpu, {zoo::kMobileNetV1}, {}})
            .isOk());
  }
  sim_.run();
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 500},
                                          LbWeight{internTpu("tpu-01"), 500}}})
                  .isOk());
  // tpu-00 dies before recovery reconfigures the weights: the client's own
  // failover keeps frames flowing through tpu-01.
  dataPlane_.removeService("tpu-00");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  EXPECT_EQ(client->completedCount(), 10u);
  EXPECT_EQ(client->failedCount(), 0u);
  EXPECT_EQ(dataPlane_.service("tpu-01")->invokeCount(), 10u);
}

TEST_F(DataPlaneTest, RemovedServiceDropsFrames) {
  ASSERT_TRUE(
      dataPlane_.executeLoad(loadCommand("tpu-00", {zoo::kMobileNetV1}))
          .isOk());
  sim_.run();
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  dataPlane_.removeService("tpu-00");  // node failure
  ASSERT_TRUE(client->invoke(nullptr).isOk());
  sim_.run();
  EXPECT_EQ(client->completedCount(), 0u);
  EXPECT_EQ(client->failedCount(), 1u);
}

TEST_F(DataPlaneTest, QueueDelayVisibleUnderContention) {
  ASSERT_TRUE(
      dataPlane_.executeLoad(loadCommand("tpu-00", {zoo::kEfficientNetLite0}))
          .isOk());
  sim_.run();
  auto a = dataPlane_.makeClient("vrpi-00", zoo::kEfficientNetLite0);
  auto c = dataPlane_.makeClient("vrpi-01", zoo::kEfficientNetLite0);
  LbConfig lb{{LbWeight{internTpu("tpu-00"), 100}}};
  ASSERT_TRUE(a->configureLb(lb).isOk());
  ASSERT_TRUE(c->configureLb(lb).isOk());
  std::vector<SimDuration> queueDelays;
  auto record = [&](const FrameBreakdown& b) {
    queueDelays.push_back(b.queueDelay);
  };
  ASSERT_TRUE(a->invoke(record).isOk());
  ASSERT_TRUE(c->invoke(record).isOk());
  sim_.run();
  ASSERT_EQ(queueDelays.size(), 2u);
  // Same arrival instant, serial device: one of the two waited ~69 ms.
  SimDuration maxDelay = std::max(queueDelays[0], queueDelays[1]);
  EXPECT_EQ(maxDelay, zoo_.at(zoo::kEfficientNetLite0).inferenceLatency);
}

TEST_F(DataPlaneTest, BaselineCollocatedClientSkipsNetwork) {
  ASSERT_TRUE(
      dataPlane_.executeLoad(loadCommand("tpu-00", {zoo::kSsdMobileNetV2}))
          .isOk());
  sim_.run();
  // Client on the TPU's own node: loopback transport.
  auto client =
      dataPlane_.makeClient(topo_.hostOf("tpu-00")->name(),
                            zoo::kSsdMobileNetV2);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 350}}})
          .isOk());
  FrameBreakdown seen;
  ASSERT_TRUE(client->invoke([&](const FrameBreakdown& b) { seen = b; }).isOk());
  sim_.run();
  EXPECT_LT(seen.requestTransmit, milliseconds(1));
}

}  // namespace
}  // namespace microedge
