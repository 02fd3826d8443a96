// Cross-module end-to-end scenarios: YAML -> admission, scalability drivers,
// the trace study machinery, the serverless comparator and the co-compile
// ablation on the data plane.

#include <gtest/gtest.h>

#include "orch/spec.hpp"
#include "testbed/scenarios.hpp"
#include "testbed/serverless_baseline.hpp"
#include "testbed/testbed.hpp"

namespace microedge {
namespace {

TEST(YamlToAdmissionTest, SpecDrivesTheFullControlPlane) {
  Testbed testbed;
  auto spec = podSpecFromYaml(
      "name: yaml-cam\n"
      "image: coral-pie:1.4\n"
      "fps: 15\n"
      "resources:\n"
      "  cpu: 1000m\n"
      "  memory: 512Mi\n"
      "  tpu-units: 0.35\n"
      "  model: ssd-mobilenet-v2\n");
  ASSERT_TRUE(spec.isOk()) << spec.status();
  auto uid = testbed.api().createPod(*spec);
  ASSERT_TRUE(uid.isOk()) << uid.status();
  EXPECT_EQ(testbed.pool().totalLoad().milli(), 350);
  const Allocation* allocation = testbed.reclamation().allocationOf(*uid);
  ASSERT_NE(allocation, nullptr);
  const LbConfig lb = lbConfigFromAllocation(*allocation);
  EXPECT_EQ(lb.weights[0].weight, 350u);
  // The model was pushed to the TPU Service by the Load command.
  testbed.sim().run();
  EXPECT_TRUE(testbed.topology()
                  .findTpu(tpuName(lb.weights[0].tpu))
                  ->isResident(lookupModel(zoo::kSsdMobileNetV2)));
}

TEST(ScenarioTest, AdmissionCapacitiesMatchPaperMath) {
  ScalabilityScenario scenario;
  scenario.deployment.name = "cam";
  scenario.deployment.model = zoo::kSsdMobileNetV2;

  scenario.mode = SchedulingMode::kBaselineDedicated;
  EXPECT_EQ(admissionCapacity(scenario, 6), 6);
  scenario.mode = SchedulingMode::kMicroEdgeNoWp;
  EXPECT_EQ(admissionCapacity(scenario, 6), 12);
  scenario.mode = SchedulingMode::kMicroEdgeWp;
  EXPECT_EQ(admissionCapacity(scenario, 6), 17);  // 2.8x the baseline
}

TEST(ScenarioTest, ScalabilityPointMeasuresUtilization) {
  ScalabilityScenario scenario;
  scenario.deployment.model = zoo::kSsdMobileNetV2;
  scenario.mode = SchedulingMode::kMicroEdgeWp;
  scenario.horizon = seconds(15);
  ScalabilityPoint point = runScalabilityPoint(scenario, 2);
  EXPECT_EQ(point.tpuCount, 2);
  EXPECT_EQ(point.camerasSupported, 5);  // floor(2 / 0.35)
  EXPECT_GT(point.meanUtilization, 0.8);
  EXPECT_TRUE(point.sloMet);
}

TEST(ScenarioTest, CostToSupportMatchesTable1Shape) {
  CameraDeployment deployment;
  deployment.model = zoo::kSsdMobileNetV2;
  CostPoint baseline =
      costToSupport(SchedulingMode::kBaselineDedicated, deployment, 17);
  CostPoint noWp = costToSupport(SchedulingMode::kMicroEdgeNoWp, deployment, 17);
  CostPoint wp = costToSupport(SchedulingMode::kMicroEdgeWp, deployment, 17);
  EXPECT_EQ(baseline.tpus, 17);
  EXPECT_EQ(noWp.tpus, 9);  // ceil(17 / 2); the paper lists 8 (see
                            // EXPERIMENTS.md on this delta)
  EXPECT_EQ(wp.tpus, 6);    // ceil(17 * 0.35)
  EXPECT_DOUBLE_EQ(baseline.totalCost, 2550.0);
  EXPECT_DOUBLE_EQ(wp.totalCost, 1725.0);
  EXPECT_LT(wp.totalCost, noWp.totalCost);
  EXPECT_LT(noWp.totalCost, baseline.totalCost);
}

TEST(ScenarioTest, TraceScenarioRunsAndServesStreams) {
  TraceScenarioConfig config;
  config.trace.horizon = minutes(6);
  config.trace.seed = 21;
  config.capacityUnits = 7.0;
  config.sampleWindow = minutes(1);
  TraceRunResult result = runTraceScenario(config);
  EXPECT_GT(result.attempted, 5u);
  EXPECT_GT(result.accepted, 0u);
  EXPECT_EQ(result.attempted, result.accepted + result.rejected);
  EXPECT_EQ(result.utilizationPerWindow.size(), 6u);
  EXPECT_EQ(result.activePerWindow.size(), 6u);
  for (double u : result.utilizationPerWindow) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(ScenarioTest, FullFeatureConfigAcceptsAtLeastAsManyAsRestricted) {
  auto runWith = [](bool wp, bool cc) {
    TraceScenarioConfig config;
    config.trace.horizon = minutes(6);
    config.trace.seed = 33;
    config.capacityUnits = 7.0;
    config.testbed.mode =
        wp ? SchedulingMode::kMicroEdgeWp : SchedulingMode::kMicroEdgeNoWp;
    config.testbed.enableCoCompile = cc;
    return runTraceScenario(config);
  };
  TraceRunResult full = runWith(true, true);
  TraceRunResult none = runWith(false, false);
  EXPECT_GE(full.accepted, none.accepted);
}

TEST(ServerlessTest, PerRequestSchedulingCostsMoreLatency) {
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ModelRegistry zoo = zoo::standardZoo();
  TopologySpec topoSpec;
  topoSpec.vRpiCount = 4;
  topoSpec.tRpiCount = 2;
  ClusterTopology topo(sharded, zoo, topoSpec);
  DataPlane dataPlane(sharded, topo, zoo);
  for (const char* tpu : {"tpu-00", "tpu-01"}) {
    ASSERT_TRUE(
        dataPlane.executeLoad(LoadCommand{tpu, {zoo::kSsdMobileNetV2}, {}})
            .isOk());
  }
  sim.run();

  // MicroEdge path: direct client -> TPU Service.
  auto client = dataPlane.makeClient("vrpi-00", zoo::kSsdMobileNetV2);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 350}}})
          .isOk());
  SimDuration directLatency{};
  ASSERT_TRUE(client
                  ->invoke([&](const FrameBreakdown& b) {
                    directLatency = b.endToEnd();
                  })
                  .isOk());
  sim.run();

  // Serverless path: client -> shared queue on vrpi-03 -> runtime pick.
  ServerlessDispatcher::Config config;
  config.dispatcherNode = "vrpi-03";
  ServerlessDispatcher dispatcher(sim, dataPlane, topo, zoo, config);
  SimDuration serverlessLatency{};
  ASSERT_TRUE(dispatcher
                  .invoke("vrpi-00", zoo::kSsdMobileNetV2,
                          [&](const FrameBreakdown& b) {
                            serverlessLatency = b.endToEnd();
                          })
                  .isOk());
  sim.run();

  EXPECT_GT(directLatency, SimDuration::zero());
  EXPECT_GT(serverlessLatency, SimDuration::zero());
  // The extra frame hop (~8 ms) plus the runtime decision must show up.
  EXPECT_GT(serverlessLatency, directLatency + milliseconds(8));
  EXPECT_EQ(dispatcher.dispatchedCount(), 1u);
}

TEST(CoCompileAblationTest, SwapSharingCollapsesThroughputOnTheDataPlane) {
  // Why the Model Size Rule exists: force two different-model tenants onto
  // one TPU *without* co-compiling and watch swaps destroy service times.
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ModelRegistry zoo = zoo::standardZoo();
  TopologySpec topoSpec;
  topoSpec.vRpiCount = 2;
  topoSpec.tRpiCount = 1;
  ClusterTopology topo(sharded, zoo, topoSpec);
  DataPlane dataPlane(sharded, topo, zoo);
  ASSERT_TRUE(dataPlane
                  .executeLoad(LoadCommand{"tpu-00", {zoo::kMobileNetV1}, {}})
                  .isOk());
  sim.run();

  auto a = dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  auto b = dataPlane.makeClient("vrpi-01", zoo::kUNetV2);
  ASSERT_TRUE(
      a->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  ASSERT_TRUE(
      b->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());

  DurationSummary serviceTimes;
  for (int i = 0; i < 20; ++i) {
    auto record = [&](const FrameBreakdown& frame) {
      serviceTimes.add(frame.inference);
    };
    ASSERT_TRUE(a->invoke(record).isOk());
    sim.run();
    ASSERT_TRUE(b->invoke(record).isOk());
    sim.run();
  }
  TpuDevice* device = topo.findTpu("tpu-00");
  // Interleaved different-model requests swap on (nearly) every invoke.
  EXPECT_GT(device->swapCount(), 30u);
  // Mean service time well above the mean of the raw model latencies.
  double rawMeanMs =
      (toMilliseconds(zoo.at(zoo::kUNetV2).inferenceLatency) +
       toMilliseconds(zoo.at(zoo::kMobileNetV1).inferenceLatency)) /
      2.0;
  EXPECT_GT(serviceTimes.meanMs(), rawMeanMs + 10.0);

  // Same tenancy WITH a co-compiled composite: switches become cheap.
  ASSERT_TRUE(dataPlane
                  .executeLoad(LoadCommand{
                      "tpu-00", {zoo::kMobileNetV1, zoo::kUNetV2}, {}})
                  .isOk());
  sim.run();
  std::size_t swapsBefore = device->swapCount();
  DurationSummary coCompiled;
  for (int i = 0; i < 20; ++i) {
    auto record = [&](const FrameBreakdown& frame) {
      coCompiled.add(frame.inference);
    };
    ASSERT_TRUE(a->invoke(record).isOk());
    sim.run();
    ASSERT_TRUE(b->invoke(record).isOk());
    sim.run();
  }
  EXPECT_EQ(device->swapCount(), swapsBefore);  // zero new swaps
  EXPECT_LT(coCompiled.meanMs(), serviceTimes.meanMs());
}

}  // namespace
}  // namespace microedge
