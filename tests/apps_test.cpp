// Application layer: camera cadence, the NoScope-style difference detector,
// the generic pipeline, and the Coral-Pie / BodyPix exemplars.

#include <gtest/gtest.h>

#include "apps/bodypix.hpp"
#include "apps/coral_pie.hpp"
#include "dataplane/dataplane.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

TEST(CameraStreamTest, EmitsAtConfiguredFps) {
  Simulator sim;
  int frames = 0;
  CameraStream camera(sim, CameraStream::Config{10.0, 0},
                      [&](std::uint64_t) { ++frames; });
  camera.start();
  sim.runUntil(kSimEpoch + seconds(2));
  EXPECT_EQ(frames, 20);
  camera.stop();
  sim.runUntil(kSimEpoch + seconds(3));
  EXPECT_EQ(frames, 20);
}

TEST(CameraStreamTest, MaxFramesStopsStream) {
  Simulator sim;
  std::vector<std::uint64_t> ids;
  CameraStream camera(sim, CameraStream::Config{15.0, 5},
                      [&](std::uint64_t id) { ids.push_back(id); });
  camera.start();
  sim.run();
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids.front(), 1u);
  EXPECT_EQ(ids.back(), 5u);
  EXPECT_FALSE(camera.running());
}

TEST(DiffDetectorTest, ForwardsEverythingDuringActivity) {
  DiffDetector::Config config;
  config.quietPassRate = 0.0;
  DiffDetector diff(config, Pcg32(42));
  // Find an active phase and verify every frame inside it forwards.
  SimTime t = kSimEpoch;
  while (!diff.activeAt(t)) t += milliseconds(50);
  int forwarded = 0;
  for (int i = 0; i < 5; ++i) {
    SimTime probe = t + milliseconds(i * 10);
    if (!diff.activeAt(probe)) break;
    if (diff.shouldForward(probe)) ++forwarded;
  }
  EXPECT_GE(forwarded, 1);
}

TEST(DiffDetectorTest, SuppressesMostQuietFrames) {
  DiffDetector::Config config;
  config.meanQuietGap = seconds(1000);  // effectively always quiet
  config.meanActivityDwell = milliseconds(1);
  config.quietPassRate = 0.05;
  DiffDetector diff(config, Pcg32(7));
  for (int i = 0; i < 2000; ++i) {
    diff.shouldForward(kSimEpoch + milliseconds(static_cast<std::int64_t>(i)));
  }
  double passRate = static_cast<double>(diff.forwardedCount()) /
                    static_cast<double>(diff.forwardedCount() +
                                        diff.suppressedCount());
  EXPECT_LT(passRate, 0.15);
  EXPECT_GT(diff.suppressedCount(), 1500u);
}

TEST(DiffDetectorTest, DeterministicPerSeed) {
  DiffDetector::Config config;
  DiffDetector a(config, Pcg32(5));
  DiffDetector b(config, Pcg32(5));
  for (int i = 0; i < 500; ++i) {
    SimTime t = kSimEpoch + milliseconds(static_cast<std::int64_t>(i * 66));
    EXPECT_EQ(a.shouldForward(t), b.shouldForward(t)) << i;
  }
  EXPECT_EQ(a.activePhaseCount(), b.activePhaseCount());
}

class AppsFixture : public ::testing::Test {
 protected:
  AppsFixture()
      : zoo_(zoo::standardZoo()), topo_(sharded_, zoo_, smallTopology()),
        dataPlane_(sharded_, topo_, zoo_) {}

  static TopologySpec smallTopology() {
    TopologySpec spec;
    spec.vRpiCount = 4;
    spec.tRpiCount = 2;
    return spec;
  }

  std::unique_ptr<TpuClient> readyClient(const std::string& model,
                                         const std::string& tpuId,
                                         std::uint32_t weight) {
    Status loaded = dataPlane_.executeLoad(LoadCommand{tpuId, {model}, {}});
    EXPECT_TRUE(loaded.isOk());
    sim_.run();
    auto client = dataPlane_.makeClient("vrpi-00", model);
    EXPECT_TRUE(
        client->configureLb(LbConfig{{LbWeight{internTpu(tpuId), weight}}})
            .isOk());
    return client;
  }

  ShardedSim sharded_{1, NetworkConfig{}.baseLatency};
  Simulator& sim_ = sharded_.shardSim(0);
  ModelRegistry zoo_;
  ClusterTopology topo_;
  DataPlane dataPlane_;
};

TEST_F(AppsFixture, PipelineSustains15FpsOnDedicatedTpu) {
  CameraPipeline::Config config;
  config.name = "cam";
  config.fps = 15.0;
  config.maxFrames = 60;
  config.slo.targetFps = 15.0;
  CameraPipeline pipeline(sim_,
                          readyClient(zoo::kSsdMobileNetV2, "tpu-00", 350),
                          config, Pcg32(1));
  pipeline.start();
  sim_.run();
  EXPECT_EQ(pipeline.slo().submitted(), 60u);
  EXPECT_EQ(pipeline.slo().completed(), 60u);
  EXPECT_TRUE(pipeline.slo().sloMet());
  EXPECT_NEAR(pipeline.slo().achievedFps(), 15.0, 0.5);
  EXPECT_EQ(pipeline.breakdown().count(), 60u);
}

TEST_F(AppsFixture, OversubscribedTpuViolatesSlo) {
  // EfficientNet-Lite0 needs ~1.04 units at 15 FPS: a single TPU cannot keep
  // up and the queue grows — exactly what admission control prevents.
  CameraPipeline::Config config;
  config.name = "cam";
  config.fps = 15.0;
  config.maxFrames = 120;
  config.slo.targetFps = 15.0;
  // Tight tolerance: the 3.5% duty-cycle overload is exactly what must trip.
  config.slo.fpsTolerance = 0.01;
  CameraPipeline pipeline(
      sim_, readyClient(zoo::kEfficientNetLite0, "tpu-00", 1000), config,
      Pcg32(1));
  pipeline.start();
  sim_.run();
  EXPECT_LT(pipeline.slo().achievedFps(), 14.9);
  EXPECT_FALSE(pipeline.slo().sloMet());
}

TEST_F(AppsFixture, PipelineWithDiffDetectorSubmitsFewerFrames) {
  CameraPipeline::Config config;
  config.name = "cam";
  config.fps = 15.0;
  config.maxFrames = 300;
  config.diffDetector = DiffDetector::Config{};
  config.slo.targetFps = 0.0;  // content-dependent rate
  CameraPipeline pipeline(sim_,
                          readyClient(zoo::kSsdMobileNetV2, "tpu-00", 350),
                          config, Pcg32(3));
  pipeline.start();
  sim_.run();
  ASSERT_NE(pipeline.diffDetector(), nullptr);
  EXPECT_LT(pipeline.slo().submitted(), 300u);
  EXPECT_EQ(pipeline.slo().submitted(), pipeline.diffDetector()->forwardedCount());
  EXPECT_TRUE(pipeline.slo().sloMet());
}

TEST_F(AppsFixture, CoralPieTracksVehiclesAcrossCameras) {
  CoralPieApp::Config upstreamConfig;
  upstreamConfig.name = "cam-up";
  upstreamConfig.fps = 15.0;
  upstreamConfig.maxFrames = 600;  // 40 s of video
  upstreamConfig.reid.node = "vrpi-01";
  upstreamConfig.slo.targetFps = 0.0;
  CoralPieApp::Config downstreamConfig = upstreamConfig;
  downstreamConfig.name = "cam-down";
  downstreamConfig.reid.node = "vrpi-02";

  // Same rng seed => both cameras observe the same vehicle schedule (the
  // paper's time-shifted dataset trick) and share the id space.
  CoralPieApp upstream(sim_, readyClient(zoo::kSsdMobileNetV2, "tpu-00", 350),
                       dataPlane_.transport(), upstreamConfig, Pcg32(99));
  CoralPieApp downstream(sim_,
                         readyClient(zoo::kSsdMobileNetV2, "tpu-01", 350),
                         dataPlane_.transport(), downstreamConfig, Pcg32(99));
  upstream.linkDownstream(&downstream);
  upstream.start();
  downstream.start();
  sim_.run();

  EXPECT_GT(upstream.vehiclesReported(), 0u);
  // The downstream camera re-identifies vehicles announced by upstream.
  EXPECT_GT(downstream.reid().reIdentifiedCount(), 0u);
  // The upstream camera has no upstream of its own: all tracks are new.
  EXPECT_EQ(upstream.reid().reIdentifiedCount(), 0u);
  EXPECT_GT(upstream.reid().newTrackCount(), 0u);
}

TEST_F(AppsFixture, BodyPixDerivesOccupancy) {
  BodyPixApp::Config config;
  config.name = "seg";
  config.fps = 15.0;
  config.maxFrames = 30;
  config.slo.targetFps = 0.0;  // single TPU can't do 15 FPS BodyPix; not
                               // under test here
  BodyPixApp app(sim_, readyClient(zoo::kBodyPixMobileNetV1, "tpu-00", 1000),
                 config, Pcg32(11));
  app.start();
  sim_.run();
  EXPECT_EQ(app.occupancy().count(), 30u);
  EXPECT_GT(app.framesWithPeople(), 0u);
  EXPECT_GE(app.occupancy().min(), 0.0);
  EXPECT_LE(app.occupancy().max(), 1.0);
}

}  // namespace
}  // namespace microedge
