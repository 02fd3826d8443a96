// Multi-model cascade pipeline: duty-cycle math, gating behaviour, chained
// latency accounting, and full-stack deployment through the testbed.

#include <gtest/gtest.h>

#include "apps/cascade.hpp"
#include "testbed/testbed.hpp"

namespace microedge {
namespace {

TEST(CascadeUnitsTest, DutyCycleMath) {
  ModelRegistry zoo = zoo::standardZoo();
  const ModelInfo& gate = zoo.at(zoo::kMobileNetV1);
  const ModelInfo& expert = zoo.at(zoo::kSsdMobileNetV2);
  // Gate runs every frame: 4.5 ms * 15 = 0.0675 units.
  EXPECT_NEAR(CascadeApp::gateUnits(gate, 15.0), 0.0675, 1e-4);
  // Expert at a 40% hit rate: 23.3 ms * 15 * 0.4 = 0.14 units — an order of
  // magnitude below a dedicated-TPU reservation.
  EXPECT_NEAR(CascadeApp::expertUnits(expert, 15.0, 0.4), 0.1398, 1e-3);
}

class CascadeFixture : public ::testing::Test {
 protected:
  CascadeFixture()
      : zoo_(zoo::standardZoo()), topo_(sharded_, zoo_, smallTopology()),
        dataPlane_(sharded_, topo_, zoo_) {}

  static TopologySpec smallTopology() {
    TopologySpec spec;
    spec.vRpiCount = 3;
    spec.tRpiCount = 2;
    return spec;
  }

  std::unique_ptr<TpuClient> readyClient(const std::string& model,
                                         const std::string& tpuId) {
    Status loaded = dataPlane_.executeLoad(
        LoadCommand{tpuId, {zoo::kMobileNetV1, zoo::kUNetV2}, {}});
    EXPECT_TRUE(loaded.isOk());
    sim_.run();
    auto client = dataPlane_.makeClient("vrpi-00", model);
    EXPECT_TRUE(
        client->configureLb(LbConfig{{LbWeight{internTpu(tpuId), 500}}})
            .isOk());
    return client;
  }

  ShardedSim sharded_{1, NetworkConfig{}.baseLatency};
  Simulator& sim_ = sharded_.shardSim(0);
  ModelRegistry zoo_;
  ClusterTopology topo_;
  DataPlane dataPlane_;
};

TEST_F(CascadeFixture, GateSeesEveryFrameExpertOnlyEscalated) {
  CascadeApp::Config config;
  config.name = "cascade";
  config.fps = 15.0;
  config.maxFrames = 450;  // 30 s
  config.slo.targetFps = 15.0;
  CascadeApp app(sim_, readyClient(zoo::kMobileNetV1, "tpu-00"),
                 readyClient(zoo::kUNetV2, "tpu-01"), config, Pcg32(5));
  app.start();
  sim_.run();

  EXPECT_EQ(app.gateFrames(), 450u);
  EXPECT_GT(app.expertFrames(), 0u);
  EXPECT_LT(app.expertFrames(), app.gateFrames());
  EXPECT_NEAR(app.escalationRate(),
              static_cast<double>(app.expertFrames()) / 450.0, 1e-9);
  // Every frame completes (gate-only or full cascade).
  EXPECT_EQ(app.slo().completed(), 450u);
  EXPECT_TRUE(app.slo().sloMet());
}

TEST_F(CascadeFixture, CascadeLatencyCoversBothStages) {
  CascadeApp::Config config;
  config.name = "cascade";
  config.fps = 15.0;
  config.maxFrames = 300;
  config.scene.meanQuietGap = milliseconds(1);  // (almost) always active
  config.scene.meanActivityDwell = seconds(1000);
  config.slo.targetFps = 15.0;
  CascadeApp app(sim_, readyClient(zoo::kMobileNetV1, "tpu-00"),
                 readyClient(zoo::kUNetV2, "tpu-01"), config, Pcg32(6));
  app.start();
  sim_.run();

  // Nearly everything escalates.
  EXPECT_GT(app.escalationRate(), 0.95);
  ASSERT_GT(app.cascadeLatency().count(), 0u);
  // Chained latency exceeds the sum of both models' raw service times.
  double minMs = toMilliseconds(zoo_.at(zoo::kMobileNetV1).inferenceLatency) +
                 toMilliseconds(zoo_.at(zoo::kUNetV2).inferenceLatency);
  EXPECT_GT(app.cascadeLatency().meanMs(), minMs);
  // Gate-only frames are far cheaper than full-cascade frames.
  if (app.gateOnly().count() > 0) {
    EXPECT_LT(app.gateOnly().endToEnd().meanMs(),
              app.fullCascade().endToEnd().meanMs());
  }
}

TEST(CascadeTestbedTest, DeploysTwoPodsWithDistinctDutyCycles) {
  Testbed testbed;
  CascadeDeployment deployment;
  deployment.name = "noscope";
  deployment.gateModel = zoo::kMobileNetV1;
  deployment.expertModel = zoo::kUNetV2;
  deployment.expectedHitRate = 0.5;
  auto app = testbed.deployCascade(deployment);
  ASSERT_TRUE(app.isOk()) << app.status();

  const Pod* gate = testbed.api().findPodByName("noscope-gate");
  const Pod* expert = testbed.api().findPodByName("noscope-expert");
  ASSERT_NE(gate, nullptr);
  ASSERT_NE(expert, nullptr);
  EXPECT_NEAR(gate->spec.tpu->tpuUnits, 0.0675, 1e-3);
  EXPECT_NEAR(expert->spec.tpu->tpuUnits, 0.825 * 0.5, 1e-2);
  // Both duty cycles fit a single TPU together (and co-compile: 4.2 + 2.5
  // MB <= 6.9 MB).
  EXPECT_EQ(testbed.pool().usedTpuCount(), 1u);

  testbed.run(seconds(20));
  EXPECT_GT((*app)->gateFrames(), 290u);
  EXPECT_TRUE((*app)->slo().sloMet());

  ASSERT_TRUE(testbed.removeCascade("noscope").isOk());
  testbed.run(seconds(5));
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 0);
  EXPECT_EQ(testbed.api().liveCount(), 0u);
}

TEST(CascadeTestbedTest, HitRateProfilingTradesDensityForSloRisk) {
  // The cascade's expert duty cycle is *content dependent*: reserving for
  // an optimistic hit rate packs more pipelines but risks transient
  // overload during long active phases; a conservative (worst-case) profile
  // keeps every SLO. This is why the paper's profiling service exists.
  auto runFleet = [](double expectedHitRate, int* admitted) {
    Testbed testbed;
    *admitted = 0;
    for (int i = 0; i < 16; ++i) {
      CascadeDeployment deployment;
      deployment.name = "cascade-" + std::to_string(i);
      deployment.gateModel = zoo::kMobileNetV1;
      deployment.expertModel = zoo::kUNetV2;
      deployment.expectedHitRate = expectedHitRate;
      if (!testbed.deployCascade(deployment).isOk()) break;
      ++*admitted;
    }
    testbed.run(seconds(10));
    return testbed.sloReport();
  };

  int optimisticAdmitted = 0;
  SloReport optimistic = runFleet(0.5, &optimisticAdmitted);
  int conservativeAdmitted = 0;
  SloReport conservative = runFleet(1.0, &conservativeAdmitted);

  // Optimistic profile: much denser packing (dedicated design would need 2
  // whole TPUs per cascade)...
  EXPECT_GE(optimisticAdmitted, 12);
  // ...but content bursts can exceed the reservation and dent some SLOs.
  EXPECT_GE(optimistic.streamsMeetingSlo * 4, optimistic.streams * 2);
  // Conservative (worst-case) profile: fewer pipelines, all SLOs hold.
  EXPECT_GE(conservativeAdmitted, 6);
  EXPECT_LT(conservativeAdmitted, optimisticAdmitted);
  EXPECT_EQ(conservative.streamsMeetingSlo, conservative.streams);
}

TEST(CascadeTestbedTest, PartialDeploymentRollsBack) {
  // Expert cannot fit => the already-created gate pod must not leak.
  TopologySpec topo;
  topo.tRpiCount = 1;
  topo.vRpiCount = 3;
  TestbedConfig config;
  config.topology = topo;
  Testbed testbed(config);
  // Occupy most of the single TPU.
  CameraDeployment filler;
  filler.name = "filler";
  filler.model = zoo::kMobileNetV1;
  filler.tpuUnits = 0.9;
  ASSERT_TRUE(testbed.deployCamera(filler).isOk());

  CascadeDeployment deployment;
  deployment.name = "wont-fit";
  deployment.gateModel = zoo::kMobileNetV1;
  deployment.expertModel = zoo::kUNetV2;
  deployment.expectedHitRate = 1.0;  // 0.825 units: cannot fit
  auto app = testbed.deployCascade(deployment);
  EXPECT_FALSE(app.isOk());
  EXPECT_EQ(testbed.api().findPodByName("wont-fit-gate"), nullptr);
  EXPECT_EQ(testbed.api().findPodByName("wont-fit-expert"), nullptr);
  // Only the filler's units remain.
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 900);
}

}  // namespace
}  // namespace microedge
