// Cross-cutting property tests: determinism of the full stack, capacity
// laws across parameter sweeps, device-level conservation properties, and
// spec round-trips under randomized inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "orch/spec.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"

namespace microedge {
namespace {

// ---- Full-stack determinism -------------------------------------------------

struct StackFingerprint {
  std::uint64_t completedFrames = 0;
  double meanUtilization = 0.0;
  double meanLatencyMs = 0.0;
  std::uint64_t invokesPerTpu[6] = {0, 0, 0, 0, 0, 0};

  bool operator==(const StackFingerprint& other) const {
    if (completedFrames != other.completedFrames) return false;
    if (meanUtilization != other.meanUtilization) return false;
    if (meanLatencyMs != other.meanLatencyMs) return false;
    for (int i = 0; i < 6; ++i) {
      if (invokesPerTpu[i] != other.invokesPerTpu[i]) return false;
    }
    return true;
  }
};

StackFingerprint runStack(std::uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  Testbed testbed(config);
  for (int i = 0; i < 9; ++i) {
    CameraDeployment deployment;
    deployment.name = "cam-" + std::to_string(i);
    deployment.model = zoo::kSsdMobileNetV2;
    deployment.useDiffDetector = (i % 3 == 0);
    EXPECT_TRUE(testbed.deployCamera(deployment).isOk());
  }
  testbed.run(seconds(20));
  StackFingerprint fp;
  Summary latency;
  for (CameraPipeline* camera : testbed.liveCameras()) {
    fp.completedFrames += camera->slo().completed();
    latency.merge(camera->breakdown().endToEnd().raw());
  }
  fp.meanUtilization = testbed.meanTpuUtilization();
  fp.meanLatencyMs = latency.mean();
  int i = 0;
  for (TpuService* service : testbed.dataPlane().services()) {
    fp.invokesPerTpu[i++] = service->invokeCount();
  }
  return fp;
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalRuns) {
  StackFingerprint a = runStack(77);
  StackFingerprint b = runStack(77);
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.completedFrames, 0u);
}

TEST(DeterminismTest, DifferentSeedsDifferInStochasticParts) {
  // Diff-detector scene processes are seeded: frame counts must differ.
  StackFingerprint a = runStack(1);
  StackFingerprint b = runStack(2);
  EXPECT_NE(a.completedFrames, b.completedFrames);
}

// ---- Capacity laws across sweeps --------------------------------------------

// model, fps, tpus. The model is a std::string, not a const char*: gtest
// prints a char pointer's address into the test name, which changes from
// build to build.
using CapacityParam = std::tuple<std::string, double, int>;

class CapacityLawTest : public ::testing::TestWithParam<CapacityParam> {};

TEST_P(CapacityLawTest, WpCapacityIsFloorOfPoolOverUnits) {
  const auto [model, fps, tpus] = GetParam();
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  for (int i = 0; i < tpus; ++i) {
    ASSERT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
  }
  AdmissionController admission(pool, zoo, {});
  TpuUnit units = TpuUnit::fromDouble(zoo.at(model).tpuUnitsAt(fps));
  ASSERT_TRUE(units.isPositive());

  int admitted = 0;
  for (std::uint64_t uid = 1; uid <= 256; ++uid) {
    if (!admission.admit(uid, model, units).isOk()) break;
    ++admitted;
  }
  // With workload partitioning and a single model, capacity is exactly
  // floor(total milli-units / per-pod milli-units).
  int expected = static_cast<int>((1000LL * tpus) / units.milli());
  EXPECT_EQ(admitted, expected)
      << model << " @" << fps << " fps on " << tpus << " TPUs";
  // And the leftover is smaller than one more pod.
  EXPECT_LT((TpuUnit::fromMilli(1000 * tpus) - pool.totalLoad()).milli(),
            units.milli());
}

TEST_P(CapacityLawTest, NoWpNeverBeatsWp) {
  const auto [model, fps, tpus] = GetParam();
  ModelRegistry zoo = zoo::standardZoo();
  TpuUnit units = TpuUnit::fromDouble(zoo.at(model).tpuUnitsAt(fps));
  auto capacity = [&](bool wp) {
    TpuPool pool;
    for (int i = 0; i < tpus; ++i) {
      EXPECT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    AdmissionConfig config;
    config.enableWorkloadPartitioning = wp;
    AdmissionController admission(pool, zoo, config);
    int admitted = 0;
    for (std::uint64_t uid = 1; uid <= 256; ++uid) {
      if (!admission.admit(uid, model, units).isOk()) break;
      ++admitted;
    }
    return admitted;
  };
  EXPECT_GE(capacity(true), capacity(false));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CapacityLawTest,
    ::testing::Values(
        CapacityParam{zoo::kSsdMobileNetV2, 15.0, 1},
        CapacityParam{zoo::kSsdMobileNetV2, 15.0, 6},
        CapacityParam{zoo::kSsdMobileNetV2, 10.0, 6},
        CapacityParam{zoo::kSsdMobileNetV2, 30.0, 6},
        CapacityParam{zoo::kMobileNetV1, 15.0, 2},
        CapacityParam{zoo::kBodyPixMobileNetV1, 15.0, 6},
        CapacityParam{zoo::kBodyPixMobileNetV1, 15.0, 3},
        CapacityParam{zoo::kEfficientNetLite0, 15.0, 4}));

// ---- Device-level conservation ----------------------------------------------

TEST(DeviceConservationTest, BusyTimeEqualsSumOfServiceTimes) {
  Simulator sim;
  ModelRegistry zoo = zoo::standardZoo();
  TpuDevice tpu(sim, zoo, "tpu-00");
  ASSERT_TRUE(tpu.loadModels({zoo::kMobileNetV1, zoo::kUNetV2}).isOk());
  sim.run();
  SimDuration base = tpu.busyTime();

  Pcg32 rng(31);
  SimDuration serviceSum{};
  std::vector<std::uint64_t> completionOrder;
  std::uint64_t id = 0;
  const std::vector<ModelId> models = {lookupModel(zoo::kMobileNetV1),
                                       lookupModel(zoo::kUNetV2)};
  for (int i = 0; i < 200; ++i) {
    // Random arrival gaps, random model choice.
    sim.runFor(millisecondsF(rng.uniform(0.0, 20.0)));
    std::uint64_t thisId = id++;
    ASSERT_TRUE(tpu.invoke(models[rng.nextBounded(2)],
                           [&, thisId](const TpuDevice::InvokeStats& stats) {
                             serviceSum += stats.serviceTime;
                             completionOrder.push_back(thisId);
                           })
                    .isOk());
  }
  sim.run();
  EXPECT_EQ(tpu.busyTime() - base, serviceSum);
  // Run-to-completion FIFO: completions in submission order.
  ASSERT_EQ(completionOrder.size(), 200u);
  EXPECT_TRUE(std::is_sorted(completionOrder.begin(), completionOrder.end()));
  EXPECT_EQ(tpu.invocations(), 200u);
}

TEST(NetworkMonotonicityTest, LatencyIsMonotoneInBytes) {
  NetworkModel net;
  const NodeId a = internNode("a"), b = internNode("b");
  SimDuration prev{};
  for (std::size_t bytes = 0; bytes <= 1 << 20; bytes += 64 * 1024) {
    SimDuration latency = net.transferLatency(a, b, bytes);
    EXPECT_GE(latency, prev);
    prev = latency;
  }
}

// ---- Spec round-trips under randomized inputs -------------------------------

TEST(SpecRoundTripTest, RandomSpecsSurviveYamlRoundTrip) {
  Pcg32 rng(404);
  for (int trial = 0; trial < 50; ++trial) {
    PodSpec spec;
    spec.name = "pod-" + std::to_string(trial);
    spec.image = "registry.local/app:v" + std::to_string(rng.nextBounded(100));
    spec.fps = 1.0 + rng.nextBounded(60);
    spec.resources.cpuMillicores = 100 + rng.nextBounded(3900);
    spec.resources.memoryMb = 64 + rng.nextBounded(4096);
    if (rng.bernoulli(0.7)) {
      spec.tpu = TpuRequest{"model-" + std::to_string(rng.nextBounded(8)),
                            0.001 * (1 + rng.nextBounded(2500))};
    }
    if (rng.bernoulli(0.5)) spec.labels["app"] = "camera";
    if (rng.bernoulli(0.3)) spec.nodeSelector["tpu"] = "true";
    if (rng.bernoulli(0.4)) spec.antiAffinityKey = "zone-a";

    auto reparsed = podSpecFromYaml(podSpecToYaml(spec));
    ASSERT_TRUE(reparsed.isOk()) << reparsed.status() << "\n"
                                 << podSpecToYaml(spec);
    EXPECT_EQ(reparsed->name, spec.name);
    EXPECT_EQ(reparsed->image, spec.image);
    EXPECT_DOUBLE_EQ(reparsed->fps, spec.fps);
    EXPECT_EQ(reparsed->resources.cpuMillicores, spec.resources.cpuMillicores);
    EXPECT_EQ(reparsed->resources.memoryMb, spec.resources.memoryMb);
    EXPECT_EQ(reparsed->tpu.has_value(), spec.tpu.has_value());
    if (spec.tpu.has_value()) {
      EXPECT_EQ(reparsed->tpu->model, spec.tpu->model);
      EXPECT_NEAR(reparsed->tpu->tpuUnits, spec.tpu->tpuUnits, 1e-4);
    }
    EXPECT_EQ(reparsed->labels, spec.labels);
    EXPECT_EQ(reparsed->nodeSelector, spec.nodeSelector);
    EXPECT_EQ(reparsed->antiAffinityKey, spec.antiAffinityKey);
  }
}

// ---- Utilization conservation across the harness ----------------------------

TEST(UtilizationConservationTest, MeasuredMatchesAdmittedDutyCycle) {
  // N identical always-on streams: measured mean utilization must approach
  // N * units / TPUs once the run is long enough.
  for (int cameras : {3, 8, 14}) {
    Testbed testbed;
    for (int i = 0; i < cameras; ++i) {
      CameraDeployment deployment;
      deployment.name = "cam-" + std::to_string(i);
      deployment.model = zoo::kSsdMobileNetV2;
      ASSERT_TRUE(testbed.deployCamera(deployment).isOk());
    }
    testbed.run(seconds(30));
    double expected = cameras * 0.35 / 6.0;
    EXPECT_NEAR(testbed.meanTpuUtilization(), expected, 0.02)
        << cameras << " cameras";
  }
}

}  // namespace
}  // namespace microedge
