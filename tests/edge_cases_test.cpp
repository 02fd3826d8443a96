// Edge-case and failure-path coverage across modules: the situations a
// production deployment hits that the happy-path suites do not.

#include <gtest/gtest.h>

#include "dataplane/dataplane.hpp"
#include "orch/api_server.hpp"
#include "orch/spec.hpp"
#include "testbed/testbed.hpp"
#include "trace/maf.hpp"

namespace microedge {
namespace {

// ---- Simulator ---------------------------------------------------------

TEST(SimulatorEdgeTest, RunForZeroHorizonOnlyFiresDueEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(sim.now(), [&] { ++fired; });
  sim.scheduleAfter(milliseconds(1), [&] { ++fired; });
  sim.runFor(SimDuration::zero());
  EXPECT_EQ(fired, 1);  // the due event fires; the future one stays pending
  EXPECT_EQ(sim.pendingCount(), 1u);
}

TEST(SimulatorEdgeTest, CancelledEventsDoNotCountAsPending) {
  Simulator sim;
  EventId a = sim.scheduleAfter(milliseconds(1), [] {});
  sim.scheduleAfter(milliseconds(2), [] {});
  sim.cancel(a);
  EXPECT_EQ(sim.pendingCount(), 1u);
  EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorEdgeTest, CancelAfterFireIsHarmless) {
  Simulator sim;
  EventId id = sim.scheduleAfter(milliseconds(1), [] {});
  sim.run();
  sim.cancel(id);  // stale id: must not poison future events
  bool fired = false;
  sim.scheduleAfter(milliseconds(1), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

// ---- YAML / specs -------------------------------------------------------

TEST(YamlEdgeTest, SequenceDirectlyUnderValueKeyFails) {
  // "key: value" followed by deeper content is inconsistent.
  auto doc = parseYaml("a: 1\n  b: 2\n");
  EXPECT_FALSE(doc.isOk());
}

TEST(YamlEdgeTest, EmptySequenceItemIsNull) {
  auto doc = parseYaml("list:\n  -\n  - x\n");
  ASSERT_TRUE(doc.isOk()) << doc.status();
  const YamlNode* list = doc->find("list");
  ASSERT_TRUE(list->isSequence());
  ASSERT_EQ(list->items().size(), 2u);
  EXPECT_TRUE(list->items()[0].isNull());
  EXPECT_EQ(list->items()[1].scalar(), "x");
}

TEST(YamlEdgeTest, QuotedKeys) {
  auto doc = parseYaml("\"key with: colon\": value\n");
  ASSERT_TRUE(doc.isOk()) << doc.status();
  EXPECT_EQ(doc->find("key with: colon")->scalar(), "value");
}

TEST(SpecEdgeTest, WhitespaceOnlySpecFails) {
  EXPECT_FALSE(podSpecFromYaml("   \n\n").isOk());
}

TEST(SpecEdgeTest, HugeButValidNumbersParse) {
  auto spec = podSpecFromYaml(
      "name: big\nresources:\n  cpu: 128\n  memory: 64Gi\n");
  ASSERT_TRUE(spec.isOk());
  EXPECT_EQ(spec->resources.cpuMillicores, 128000);
  EXPECT_EQ(spec->resources.memoryMb, 65536);
}

// ---- Orchestrator -------------------------------------------------------

TEST(OrchEdgeTest, DistinctAntiAffinityKeysCoexist) {
  NodeRegistry reg;
  ASSERT_TRUE(reg.addNode("n1", 4000, 8192).isOk());
  PodSpec a;
  a.name = "a";
  a.resources = {100, 100};
  a.antiAffinityKey = "camera";
  PodSpec b = a;
  b.name = "b";
  b.antiAffinityKey = "reid";
  EXPECT_TRUE(reg.allocate("n1", a).isOk());
  EXPECT_TRUE(reg.allocate("n1", b).isOk());
}

TEST(OrchEdgeTest, FailUnknownPodErrors) {
  NodeRegistry reg;
  ASSERT_TRUE(reg.addNode("n1", 4000, 8192).isOk());
  ApiServer api(reg);
  EXPECT_EQ(api.failPod(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(api.deletePod(42).code(), StatusCode::kNotFound);
}

TEST(OrchEdgeTest, TerminationHistoryAccumulates) {
  NodeRegistry reg;
  ASSERT_TRUE(reg.addNode("n1", 4000, 8192).isOk());
  ApiServer api(reg);
  for (int i = 0; i < 5; ++i) {
    PodSpec spec;
    spec.name = "p" + std::to_string(i);
    spec.resources = {100, 100};
    auto uid = api.createPod(spec);
    ASSERT_TRUE(uid.isOk());
    ASSERT_TRUE(api.deletePod(*uid).isOk());
  }
  EXPECT_EQ(api.terminatedPods().size(), 5u);
  EXPECT_EQ(api.liveCount(), 0u);
}

TEST(OrchEdgeTest, NotReadyNodeFilteredBeforeExtension) {
  NodeRegistry reg;
  ASSERT_TRUE(reg.addNode("n1", 4000, 8192).isOk());
  ASSERT_TRUE(reg.addNode("n2", 4000, 8192).isOk());
  ApiServer api(reg);
  ASSERT_TRUE(reg.setReady("n1", false).isOk());
  PodSpec spec;
  spec.name = "p";
  spec.resources = {100, 100};
  auto uid = api.createPod(spec);
  ASSERT_TRUE(uid.isOk());
  EXPECT_EQ(api.getPod(*uid)->nodeName, "n2");
}

// ---- Device & data plane -------------------------------------------------

TEST(DeviceEdgeTest, InvokeBeforeAnyLoadPaysSwap) {
  Simulator sim;
  ModelRegistry zoo = zoo::standardZoo();
  TpuDevice tpu(sim, zoo, "tpu-00");
  TpuDevice::InvokeStats seen;
  ASSERT_TRUE(tpu.invoke(lookupModel(zoo::kMobileNetV1),
                         [&](const TpuDevice::InvokeStats& s) { seen = s; })
                  .isOk());
  sim.run();
  EXPECT_TRUE(seen.paidSwap);
  EXPECT_TRUE(tpu.isResident(lookupModel(zoo::kMobileNetV1)));
}

TEST(DeviceEdgeTest, QueuedInvokesSurviveMidStreamLoad) {
  Simulator sim;
  ModelRegistry zoo = zoo::standardZoo();
  TpuDevice tpu(sim, zoo, "tpu-00");
  ASSERT_TRUE(tpu.loadModels({zoo::kMobileNetV1}).isOk());
  sim.run();
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tpu.invoke(lookupModel(zoo::kMobileNetV1),
                           [&](const TpuDevice::InvokeStats&) { ++completions; })
                    .isOk());
  }
  // Load lands behind the queued invokes (FIFO); they still complete with
  // the old composite.
  ASSERT_TRUE(tpu.loadModels({zoo::kUNetV2}).isOk());
  sim.run();
  EXPECT_EQ(completions, 3);
  EXPECT_TRUE(tpu.isResident(lookupModel(zoo::kUNetV2)));
  EXPECT_FALSE(tpu.isResident(lookupModel(zoo::kMobileNetV1)));
}

TEST(DataPlaneEdgeTest, LbReconfigureMidStreamShiftsRouting) {
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ModelRegistry zoo = zoo::standardZoo();
  TopologySpec topoSpec;
  topoSpec.vRpiCount = 2;
  topoSpec.tRpiCount = 2;
  ClusterTopology topo(sharded, zoo, topoSpec);
  DataPlane dataPlane(sharded, topo, zoo);
  for (const char* tpu : {"tpu-00", "tpu-01"}) {
    ASSERT_TRUE(
        dataPlane.executeLoad(LoadCommand{tpu, {zoo::kMobileNetV1}, {}})
            .isOk());
  }
  sim.run();
  auto client = dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim.run();
  }
  // Failure recovery / defrag path: weights move to the other TPU.
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-01"), 100}}})
          .isOk());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim.run();
  }
  EXPECT_EQ(dataPlane.service("tpu-00")->invokeCount(), 5u);
  EXPECT_EQ(dataPlane.service("tpu-01")->invokeCount(), 5u);
}

// ---- Admission edge cases -------------------------------------------------

TEST(AdmissionEdgeTest, DoubleReleaseIsRejected) {
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  ASSERT_TRUE(pool.addTpu("tpu-0", 6.9).isOk());
  AdmissionController admission(pool, zoo, {});
  auto result = admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.4));
  ASSERT_TRUE(result.isOk());
  ASSERT_TRUE(admission.release(result->allocation).isOk());
  EXPECT_FALSE(admission.release(result->allocation).isOk());
  EXPECT_TRUE(pool.totalLoad().isZero());
}

TEST(AdmissionEdgeTest, ExactRemainderPartition) {
  // Partition where the last share is exactly the last TPU's free space.
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
  }
  AdmissionController admission(pool, zoo, {});
  ASSERT_TRUE(
      admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.7)).isOk());
  ASSERT_TRUE(
      admission.admit(2, zoo::kMobileNetV1, TpuUnit::fromDouble(0.7)).isOk());
  // 0.6 = 0.3 + 0.3: consumes both TPUs to exactly 1.0.
  auto split = admission.admit(3, zoo::kMobileNetV1, TpuUnit::fromDouble(0.6));
  ASSERT_TRUE(split.isOk());
  EXPECT_EQ(pool.find(lookupTpu("tpu-0"))->currentLoad(), TpuUnit::full());
  EXPECT_EQ(pool.find(lookupTpu("tpu-1"))->currentLoad(), TpuUnit::full());
  // The pool is now airtight.
  EXPECT_FALSE(
      admission.admit(4, zoo::kMobileNetV1, TpuUnit::fromMilli(1)).isOk());
}

TEST(AdmissionEdgeTest, ThreeModelTetris) {
  // MobileNet V1 (4.2 MB) + UNet (2.5 MB) co-reside; Inception (6.4 MB)
  // must open a new TPU; a second UNet tenant reuses the resident copy.
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
  }
  AdmissionController admission(pool, zoo, {});
  auto a = admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.2));
  auto b = admission.admit(2, zoo::kUNetV2, TpuUnit::fromDouble(0.2));
  auto c = admission.admit(3, zoo::kInceptionV1, TpuUnit::fromDouble(0.2));
  auto d = admission.admit(4, zoo::kUNetV2, TpuUnit::fromDouble(0.2));
  ASSERT_TRUE(a.isOk());
  ASSERT_TRUE(b.isOk());
  ASSERT_TRUE(c.isOk());
  ASSERT_TRUE(d.isOk());
  EXPECT_EQ(a->allocation.shares[0].tpu, internTpu("tpu-0"));
  EXPECT_EQ(b->allocation.shares[0].tpu, internTpu("tpu-0"));
  EXPECT_EQ(c->allocation.shares[0].tpu, internTpu("tpu-1"));
  EXPECT_EQ(d->allocation.shares[0].tpu, internTpu("tpu-0"));
  EXPECT_TRUE(d->loads.empty());  // UNet already resident
}

// ---- Trace -----------------------------------------------------------------

TEST(TraceEdgeTest, ZeroCapacityDropsEverything) {
  ModelRegistry zoo = zoo::standardZoo();
  MafTraceConfig config = MafTraceGenerator::paperDefaults();
  config.horizon = minutes(5);
  auto events = MafTraceGenerator(config).generate(zoo);
  EXPECT_TRUE(downsizeToCapacity(events, 0.0, config.horizon).empty());
}

TEST(TraceEdgeTest, GenerousCapacityKeepsEverything) {
  ModelRegistry zoo = zoo::standardZoo();
  MafTraceConfig config = MafTraceGenerator::paperDefaults();
  config.horizon = minutes(5);
  auto events = MafTraceGenerator(config).generate(zoo);
  EXPECT_EQ(downsizeToCapacity(events, 1e9, config.horizon).size(),
            events.size());
}

// ---- Testbed guard rails -----------------------------------------------

TEST(TestbedEdgeTest, FailUnknownTpuIsNoop) {
  Testbed testbed;
  auto report = testbed.failTpu("tpu-99");
  EXPECT_EQ(report.affectedPods, 0u);
  EXPECT_EQ(testbed.pool().size(), 6u);
}

TEST(TestbedEdgeTest, DoubleTpuFailureHandled) {
  Testbed testbed;
  CameraDeployment deployment;
  deployment.name = "cam";
  deployment.model = zoo::kSsdMobileNetV2;
  ASSERT_TRUE(testbed.deployCamera(deployment).isOk());
  testbed.run(seconds(1));
  auto first = testbed.failTpu("tpu-00");
  auto second = testbed.failTpu("tpu-00");  // already dead
  EXPECT_EQ(second.affectedPods, 0u);
  EXPECT_EQ(testbed.pool().size(), 5u);
  (void)first;
}

TEST(TestbedEdgeTest, AllTpusDeadEvictsEveryStream) {
  TopologySpec topo;
  topo.tRpiCount = 2;
  topo.vRpiCount = 4;
  TestbedConfig config;
  config.topology = topo;
  Testbed testbed(config);
  for (int i = 0; i < 3; ++i) {
    CameraDeployment deployment;
    deployment.name = "cam-" + std::to_string(i);
    deployment.model = zoo::kSsdMobileNetV2;
    ASSERT_TRUE(testbed.deployCamera(deployment).isOk());
  }
  testbed.run(seconds(1));
  (void)testbed.failTpu("tpu-00");
  (void)testbed.failTpu("tpu-01");
  EXPECT_EQ(testbed.liveCameraCount(), 0u);
  EXPECT_EQ(testbed.pool().size(), 0u);
  // New deployments are cleanly rejected, not crashed.
  CameraDeployment late;
  late.name = "late";
  late.model = zoo::kSsdMobileNetV2;
  EXPECT_FALSE(testbed.deployCamera(late).isOk());
}

}  // namespace
}  // namespace microedge
