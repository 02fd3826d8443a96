// Full-stack integration through the Testbed harness: YAML-equivalent
// deployments -> K3s-surface admission -> extended scheduler -> data plane
// -> metrics, plus teardown/reclamation and failure injection.

#include <gtest/gtest.h>

#include "testbed/testbed.hpp"

namespace microedge {
namespace {

CameraDeployment coralPieCamera(const std::string& name) {
  CameraDeployment deployment;
  deployment.name = name;
  deployment.model = zoo::kSsdMobileNetV2;
  deployment.fps = 15.0;
  return deployment;
}

TEST(TestbedTest, BootsPaperReferenceCluster) {
  Testbed testbed;
  EXPECT_EQ(testbed.topology().nodes().size(), 25u);
  EXPECT_EQ(testbed.pool().size(), 6u);
  EXPECT_EQ(testbed.dataPlane().serviceCount(), 6u);
  // Profiling service: Coral-Pie's model needs 0.35 units at 15 FPS.
  EXPECT_NEAR(testbed.profiledUnits(zoo::kSsdMobileNetV2, 15.0), 0.35, 0.005);
}

TEST(TestbedTest, DeploysCameraEndToEnd) {
  Testbed testbed;
  auto camera = testbed.deployCamera(coralPieCamera("cam-0"));
  ASSERT_TRUE(camera.isOk()) << camera.status();
  EXPECT_EQ(testbed.liveCameraCount(), 1u);
  // The pod landed on a vRPi (the TPU Service reservation steers it away
  // from tRPis) and its client transmits over the network.
  const Pod* pod = testbed.api().findPodByName("cam-0");
  ASSERT_NE(pod, nullptr);
  EXPECT_EQ(testbed.nodeRegistry().find(pod->nodeName)->labels.at("tpu"),
            "false");

  testbed.run(seconds(10));
  const CameraPipeline* pipeline = *camera;
  EXPECT_GT(pipeline->slo().completed(), 100u);
  EXPECT_TRUE(pipeline->slo().sloMet());
  EXPECT_NEAR(pipeline->breakdown().requestTransmit().meanMs(), 8.0, 1.0);
}

TEST(TestbedTest, SloHeldAtFullWpCapacity) {
  // 17 Coral-Pie cameras on 6 TPUs: the paper's headline operating point.
  Testbed testbed;
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(testbed.deployCamera(coralPieCamera("cam-" + std::to_string(i)))
                    .isOk())
        << i;
  }
  EXPECT_FALSE(testbed.deployCamera(coralPieCamera("cam-17")).isOk());
  testbed.run(seconds(30));
  SloReport report = testbed.sloReport();
  EXPECT_EQ(report.streams, 17u);
  EXPECT_TRUE(report.allMet()) << "min fps " << report.minAchievedFps;
  // Near-full utilization (17 * 0.35 / 6 = 0.99).
  EXPECT_GT(testbed.meanTpuUtilization(), 0.9);
}

TEST(TestbedTest, RemoveCameraReclaimsUnitsViaPoller) {
  Testbed testbed;
  ASSERT_TRUE(testbed.deployCamera(coralPieCamera("cam-0")).isOk());
  TpuUnit loadBefore = testbed.pool().totalLoad();
  EXPECT_EQ(loadBefore.milli(), 350);
  testbed.run(seconds(2));
  ASSERT_TRUE(testbed.removeCamera("cam-0").isOk());
  // Units are reclaimed by the periodic poller, not synchronously.
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 350);
  testbed.run(seconds(5));
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 0);
  EXPECT_EQ(testbed.liveCameraCount(), 0u);
  EXPECT_EQ(testbed.reclamation().reclaimedCount(), 1u);
}

TEST(TestbedTest, PodCrashReclaimedToo) {
  Testbed testbed;
  auto camera = testbed.deployCamera(coralPieCamera("cam-0"));
  ASSERT_TRUE(camera.isOk());
  testbed.run(seconds(1));
  // Failure injection: the pod dies without a graceful delete.
  const Pod* pod = testbed.api().findPodByName("cam-0");
  ASSERT_NE(pod, nullptr);
  ASSERT_TRUE(testbed.api().failPod(pod->uid).isOk());
  (*camera)->stop();
  testbed.run(seconds(5));
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 0);
}

TEST(TestbedTest, CapacityReusableAfterChurn) {
  Testbed testbed;
  for (int round = 0; round < 3; ++round) {
    std::string name = "cam-" + std::to_string(round);
    auto camera = testbed.deployCamera(coralPieCamera(name));
    ASSERT_TRUE(camera.isOk()) << "round " << round;
    testbed.run(seconds(3));
    ASSERT_TRUE(testbed.removeCamera(name).isOk());
    testbed.run(seconds(5));  // poller reclaims
  }
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 0);
}

TEST(TestbedTest, BaselineModeDedicatesAndCollocates) {
  TestbedConfig config;
  config.mode = SchedulingMode::kBaselineDedicated;
  Testbed testbed(config);
  int admitted = 0;
  for (int i = 0; i < 8; ++i) {
    if (testbed.deployCamera(coralPieCamera("cam-" + std::to_string(i)))
            .isOk()) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 6);  // one whole TPU each
  testbed.run(seconds(10));
  // Dedicated duty cycle 0.35 -> ~35% utilization (the paper's ~33% bar).
  EXPECT_NEAR(testbed.meanTpuUtilization(), 0.35, 0.03);
  // Collocated client: no 8 ms transmission.
  for (CameraPipeline* camera : testbed.liveCameras()) {
    EXPECT_LT(camera->breakdown().requestTransmit().meanMs(), 1.0);
  }
  EXPECT_TRUE(testbed.sloReport().allMet());
}

TEST(TestbedTest, NoWpModeFitsTwoPerTpu) {
  TestbedConfig config;
  config.mode = SchedulingMode::kMicroEdgeNoWp;
  Testbed testbed(config);
  int admitted = 0;
  for (int i = 0; i < 20; ++i) {
    if (testbed.deployCamera(coralPieCamera("cam-" + std::to_string(i)))
            .isOk()) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 12);
  testbed.run(seconds(10));
  EXPECT_NEAR(testbed.meanTpuUtilization(), 0.70, 0.05);
  EXPECT_TRUE(testbed.sloReport().allMet());
}

TEST(TestbedTest, BodyPixPartitionsAcrossTwoTpus) {
  Testbed testbed;
  CameraDeployment deployment;
  deployment.name = "seg-0";
  deployment.model = zoo::kBodyPixMobileNetV1;
  auto app = testbed.deployBodyPix(deployment);
  ASSERT_TRUE(app.isOk()) << app.status();
  const Allocation* allocation = testbed.reclamation().allocationOf(
      testbed.api().findPodByName("seg-0")->uid);
  ASSERT_NE(allocation, nullptr);
  EXPECT_EQ(lbConfigFromAllocation(*allocation).weights.size(), 2u);
  testbed.run(seconds(10));
  // 1.2 units split across two TPUs sustains 15 FPS.
  EXPECT_TRUE((*app)->pipeline().slo().throughputMet());
  EXPECT_GT((*app)->occupancy().count(), 100u);
}

TEST(TestbedTest, CoralPieAppDeploysDetectionAndReidPods) {
  Testbed testbed;
  CameraDeployment deployment = coralPieCamera("cp-0");
  deployment.useDiffDetector = true;
  auto app = testbed.deployCoralPie(deployment);
  ASSERT_TRUE(app.isOk()) << app.status();
  EXPECT_NE(testbed.api().findPodByName("cp-0"), nullptr);
  EXPECT_NE(testbed.api().findPodByName("cp-0-reid"), nullptr);
  testbed.run(seconds(20));
  EXPECT_GT((*app)->detection().slo().completed(), 0u);
  ASSERT_TRUE(testbed.removeCoralPie("cp-0").isOk());
  testbed.run(seconds(5));
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 0);
  EXPECT_EQ(testbed.api().liveCount(), 0u);
}

TEST(TestbedTest, RejectionsDoNotLeakAnything) {
  TopologySpec topo;
  topo.tRpiCount = 1;
  topo.vRpiCount = 4;
  TestbedConfig config;
  config.topology = topo;
  Testbed testbed(config);
  ASSERT_TRUE(testbed.deployCamera(coralPieCamera("a")).isOk());
  ASSERT_TRUE(testbed.deployCamera(coralPieCamera("b")).isOk());
  // Third camera: 1.05 units > 1 TPU -> rejected.
  auto rejected = testbed.deployCamera(coralPieCamera("c"));
  EXPECT_FALSE(rejected.isOk());
  EXPECT_EQ(testbed.api().liveCount(), 2u);
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 700);
  EXPECT_EQ(testbed.liveCameraCount(), 2u);
}

TEST(TestbedTest, DuplicateCameraNameRejected) {
  Testbed testbed;
  ASSERT_TRUE(testbed.deployCamera(coralPieCamera("cam")).isOk());
  EXPECT_EQ(testbed.deployCamera(coralPieCamera("cam")).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(testbed.removeCamera("ghost").code(), StatusCode::kNotFound);
}

// A model the zoo does not hold has no profile to size the request from:
// every deploy path refuses it before admission and leaves nothing behind.
TEST(TestbedTest, DeployUnknownModelIsNotFound) {
  Testbed testbed;
  CameraDeployment deployment = coralPieCamera("ghost");
  deployment.model = "no-such-model";
  EXPECT_EQ(testbed.deployCamera(deployment).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(testbed.deployCoralPie(deployment).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(testbed.deployBodyPix(deployment).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(testbed.api().liveCount(), 0u);
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 0);
}

// Coral-Pie's re-id hops are keyed: under a loss window, which of app A's
// messages drop depends on A's messages alone, so a second app sending on
// the same transport lane moves none of them. B's 0.7 units do not fit
// beside A's 0.35, so the two share no TPU and only the lane differs.
TEST(TestbedTest, CoralPieReIdLossIgnoresOtherSendersOnTheLane) {
  auto deployment = [](const std::string& name) {
    CameraDeployment d = coralPieCamera(name);
    d.useDiffDetector = true;
    d.diffConfig.meanQuietGap = seconds(1);
    d.diffConfig.meanActivityDwell = seconds(1);
    return d;
  };
  TestbedConfig config;
  config.frameDeadline = milliseconds(500);  // lost frames time out
  // A's delivered re-id messages, sampled every simulated second.
  auto runA = [&](bool withB) {
    Testbed testbed(config);
    auto a = testbed.deployCoralPie(deployment("cp-a"));
    EXPECT_TRUE(a.isOk()) << a.status();
    if (withB) {
      CameraDeployment b = deployment("cp-b");
      b.tpuUnits = 0.7;
      EXPECT_TRUE(testbed.deployCoralPie(b).isOk());
      auto tpuOf = [&](const char* pod) {
        const LbConfig lb = lbConfigFromAllocation(
            *testbed.reclamation().allocationOf(
                testbed.api().findPodByName(pod)->uid));
        EXPECT_EQ(lb.weights.size(), 1u);
        return lb.weights[0].tpu;
      };
      EXPECT_NE(tpuOf("cp-a"), tpuOf("cp-b"));
    }
    FaultPlan plan;
    plan.events.push_back(FaultEvent{SimDuration::zero(),
                                     FaultKind::kTransportLoss, "",
                                     seconds(120), 0.5});
    testbed.armFaults(plan);
    std::vector<std::uint64_t> delivered;
    for (int s = 0; s < 120; ++s) {
      testbed.run(seconds(1));
      delivered.push_back((*a)->reid().newTrackCount() +
                          (*a)->reid().reIdentifiedCount());
    }
    EXPECT_GT((*a)->vehiclesReported(), delivered.back());  // some dropped
    EXPECT_GT(delivered.back(), 0u);
    return delivered;
  };
  EXPECT_EQ(runA(false), runA(true));
}

// One fault plan per testbed, checked in every build: replacing the
// injector would free it while the first plan's events are still pending.
TEST(TestbedDeathTest, SecondFaultPlanAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Testbed testbed;
  ASSERT_TRUE(testbed.deployCamera(coralPieCamera("cam-0")).isOk());
  FaultPlan hang;
  hang.events.push_back(
      {seconds(1), FaultKind::kTpuHang, "tpu-00", milliseconds(500), 0.0});
  testbed.armFaults(hang);
  EXPECT_DEATH(testbed.armFaults(FaultPlan{}), "a fault plan is already armed");
}

}  // namespace
}  // namespace microedge
