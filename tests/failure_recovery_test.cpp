// Failure recovery: replanning pods off a dead TPU, eviction when the
// surviving pool cannot hold them, and full-stack failover via the testbed.

#include <gtest/gtest.h>

#include "core/failure_recovery.hpp"
#include "models/zoo.hpp"
#include "testbed/testbed.hpp"

namespace microedge {
namespace {

class FailureRecoveryUnitTest : public ::testing::Test {
 protected:
  FailureRecoveryUnitTest() : zoo_(zoo::standardZoo()) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(pool_.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    admission_ = std::make_unique<AdmissionController>(pool_, zoo_,
                                                       AdmissionConfig{});
    reclamation_ = std::make_unique<Reclamation>(*admission_);
  }

  FailureRecovery makeRecovery(FailureRecovery::Callbacks callbacks = {}) {
    return FailureRecovery(*admission_, *reclamation_, std::move(callbacks));
  }

  void admitAndTrack(std::uint64_t uid, const std::string& model,
                     double units) {
    auto result = admission_->admit(uid, model, TpuUnit::fromDouble(units));
    ASSERT_TRUE(result.isOk()) << result.status();
    reclamation_->track(uid, result->allocation);
  }

  void killTpu(const std::string& id) {
    ASSERT_TRUE(pool_.removeTpu(id).isOk());
  }

  ModelRegistry zoo_;
  TpuPool pool_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<Reclamation> reclamation_;
};

TEST_F(FailureRecoveryUnitTest, UnaffectedPodsUntouched) {
  admitAndTrack(1, zoo::kMobileNetV1, 0.5);  // lands on tpu-0
  killTpu("tpu-2");
  FailureRecovery recovery = makeRecovery();
  auto report = recovery.onTpuFailure("tpu-2");
  EXPECT_EQ(report.affectedPods, 0u);
  EXPECT_EQ(pool_.totalLoad().milli(), 500);
  EXPECT_TRUE(reclamation_->isTracked(1));
}

TEST_F(FailureRecoveryUnitTest, AffectedPodMovesToSurvivor) {
  admitAndTrack(1, zoo::kMobileNetV1, 0.5);  // tpu-0
  std::vector<std::pair<std::uint64_t, LbConfig>> reconfigs;
  std::vector<LoadCommand> loads;
  FailureRecovery::Callbacks callbacks;
  callbacks.loadModel = [&](const LoadCommand& cmd) {
    loads.push_back(cmd);
    return Status::ok();
  };
  callbacks.reconfigureLb = [&](std::uint64_t uid, const LbConfig& config) {
    reconfigs.emplace_back(uid, config);
  };
  FailureRecovery recovery = makeRecovery(std::move(callbacks));

  killTpu("tpu-0");
  auto report = recovery.onTpuFailure("tpu-0");
  EXPECT_EQ(report.affectedPods, 1u);
  EXPECT_EQ(report.recoveredPods, 1u);
  EXPECT_EQ(report.evictedPods, 0u);

  const Allocation* allocation = reclamation_->allocationOf(1);
  ASSERT_NE(allocation, nullptr);
  ASSERT_EQ(allocation->shares.size(), 1u);
  EXPECT_EQ(allocation->shares[0].tpu, internTpu("tpu-1"));
  EXPECT_EQ(pool_.find(lookupTpu("tpu-1"))->currentLoad().milli(), 500);
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0].tpuId, "tpu-1");
  ASSERT_EQ(reconfigs.size(), 1u);
  EXPECT_EQ(reconfigs[0].second.weights[0].tpu, internTpu("tpu-1"));
}

TEST_F(FailureRecoveryUnitTest, PartitionedPodLosesOneShareAndReplans) {
  // Fill tpu-0/1/2 to 0.6 each, then a 0.9 pod splits across them.
  admitAndTrack(1, zoo::kMobileNetV1, 0.6);
  admitAndTrack(2, zoo::kMobileNetV1, 0.6);
  admitAndTrack(3, zoo::kMobileNetV1, 0.6);
  admitAndTrack(4, zoo::kMobileNetV1, 0.9);  // 0.4 + 0.4 + 0.1
  ASSERT_TRUE(reclamation_->allocationOf(4)->partitioned());

  killTpu("tpu-2");
  FailureRecovery recovery = makeRecovery();
  auto report = recovery.onTpuFailure("tpu-2");
  // Pods 3 (whole) and 4 (one share) were affected: 1.5 units must fit the
  // 0.8 units of residual on tpu-0/1 — impossible for both, so the larger
  // (0.9) pod is tried first and wins part of it... it needs 0.9 > 0.8
  // available: evicted; then 0.6 fits.
  EXPECT_EQ(report.affectedPods, 2u);
  EXPECT_EQ(report.recoveredPods + report.evictedPods, 2u);
  // Whatever the split, the surviving pool is never oversubscribed.
  for (const TpuState& tpu : pool_.tpus()) {
    EXPECT_LE(tpu.currentLoad(), TpuUnit::full());
  }
}

TEST_F(FailureRecoveryUnitTest, EvictsWhenNothingFits) {
  admitAndTrack(1, zoo::kMobileNetV1, 1.0);
  admitAndTrack(2, zoo::kMobileNetV1, 1.0);
  admitAndTrack(3, zoo::kMobileNetV1, 1.0);
  std::vector<std::uint64_t> evicted;
  FailureRecovery::Callbacks callbacks;
  callbacks.evictPod = [&](std::uint64_t uid, const Status& reason) {
    evicted.push_back(uid);
    EXPECT_FALSE(reason.isOk());
  };
  FailureRecovery recovery = makeRecovery(std::move(callbacks));
  killTpu("tpu-1");
  auto report = recovery.onTpuFailure("tpu-1");
  EXPECT_EQ(report.affectedPods, 1u);
  EXPECT_EQ(report.evictedPods, 1u);
  EXPECT_EQ(evicted, std::vector<std::uint64_t>{2});
  EXPECT_FALSE(reclamation_->isTracked(2));
  // Untouched pods keep their placements.
  EXPECT_TRUE(reclamation_->isTracked(1));
  EXPECT_TRUE(reclamation_->isTracked(3));
}

TEST_F(FailureRecoveryUnitTest, LoadFailureDuringRecoveryEvicts) {
  admitAndTrack(1, zoo::kMobileNetV1, 0.5);
  FailureRecovery::Callbacks callbacks;
  callbacks.loadModel = [](const LoadCommand&) {
    return unavailable("survivor also unreachable");
  };
  int evictions = 0;
  callbacks.evictPod = [&](std::uint64_t, const Status&) { ++evictions; };
  FailureRecovery recovery = makeRecovery(std::move(callbacks));
  killTpu("tpu-0");
  auto report = recovery.onTpuFailure("tpu-0");
  EXPECT_EQ(report.evictedPods, 1u);
  EXPECT_EQ(evictions, 1);
  EXPECT_TRUE(pool_.totalLoad().isZero());
}

// ---- Ordering contract -----------------------------------------------------
// failTpu / failNode promise: (1) remove the TPU from the pool BEFORE
// onTpuFailure, (2) reclaim dead pods BEFORE replanning TPU tenants. These
// tests pin down what happens when a caller gets the order wrong: the
// outcome may be suboptimal (avoidable evictions, replans onto the doomed
// TPU) but it is always *safe* — conservation and no-oversubscription hold.

TEST_F(FailureRecoveryUnitTest, RecoveryWithoutPoolRemovalIsSafe) {
  admitAndTrack(1, zoo::kMobileNetV1, 0.5);  // tpu-0
  FailureRecovery recovery = makeRecovery();
  // Wrong order: the "failed" TPU is still in the pool, so the replan may
  // legally land right back on it — which is exactly why failTpu removes
  // the TPU first. The operation must still be internally consistent.
  auto report = recovery.onTpuFailure("tpu-0");
  EXPECT_EQ(report.affectedPods, 1u);
  EXPECT_EQ(report.recoveredPods + report.evictedPods, 1u);
  std::int64_t tracked = 0;
  for (const auto& [uid, allocation] : reclamation_->trackedAllocations()) {
    tracked += allocation.totalUnits().milli();
  }
  EXPECT_EQ(tracked, pool_.totalLoad().milli());
  for (const TpuState& tpu : pool_.tpus()) {
    EXPECT_LE(tpu.currentLoad(), TpuUnit::full());
  }
}

TEST_F(FailureRecoveryUnitTest, EvictedPodNeedsNoLaterReclamation) {
  admitAndTrack(1, zoo::kMobileNetV1, 1.0);
  admitAndTrack(2, zoo::kMobileNetV1, 1.0);
  admitAndTrack(3, zoo::kMobileNetV1, 1.0);
  FailureRecovery recovery = makeRecovery();
  killTpu("tpu-1");
  auto report = recovery.onTpuFailure("tpu-1");
  ASSERT_EQ(report.evictedPods, 1u);
  std::int64_t loadAfterRecovery = pool_.totalLoad().milli();

  // The evicted pod was already released + untracked by recovery; a later
  // reclamation poll that sees it dead must not double-release its units.
  std::size_t reclaimed = reclamation_->pollOnce(
      [](std::uint64_t uid) { return uid != 2; });
  EXPECT_EQ(reclaimed, 0u);
  EXPECT_EQ(pool_.totalLoad().milli(), loadAfterRecovery);
}

TEST_F(FailureRecoveryUnitTest, RecoveryBeforeReclamationIsSafeButWasteful) {
  admitAndTrack(1, zoo::kMobileNetV1, 1.0);  // tpu-0; pod already dead
  admitAndTrack(2, zoo::kMobileNetV1, 1.0);  // tpu-1
  admitAndTrack(3, zoo::kMobileNetV1, 0.5);  // tpu-2
  FailureRecovery recovery = makeRecovery();
  killTpu("tpu-2");
  // Wrong order: replanning before the dead pod 1 was reclaimed. Pod 3's
  // 0.5 units find no residual (the dead pod's stale units block tpu-0), so
  // it is evicted — avoidable, but never an oversubscription.
  auto report = recovery.onTpuFailure("tpu-2");
  EXPECT_EQ(report.affectedPods, 1u);
  EXPECT_EQ(report.evictedPods, 1u);
  for (const TpuState& tpu : pool_.tpus()) {
    EXPECT_LE(tpu.currentLoad(), TpuUnit::full());
  }
  // The late reclamation still converges to a consistent state.
  EXPECT_EQ(reclamation_->pollOnce([](std::uint64_t uid) { return uid != 1; }),
            1u);
  std::int64_t tracked = 0;
  for (const auto& [uid, allocation] : reclamation_->trackedAllocations()) {
    tracked += allocation.totalUnits().milli();
  }
  EXPECT_EQ(tracked, pool_.totalLoad().milli());
}

TEST_F(FailureRecoveryUnitTest, ReclamationBeforeRecoveryAvoidsEviction) {
  admitAndTrack(1, zoo::kMobileNetV1, 1.0);  // tpu-0; pod already dead
  admitAndTrack(2, zoo::kMobileNetV1, 1.0);  // tpu-1
  admitAndTrack(3, zoo::kMobileNetV1, 0.5);  // tpu-2
  FailureRecovery recovery = makeRecovery();
  killTpu("tpu-2");
  // Right order (what failNode does): reclaim first, then replan — the dead
  // pod's units are free capacity and pod 3 survives.
  EXPECT_EQ(reclamation_->pollOnce([](std::uint64_t uid) { return uid != 1; }),
            1u);
  auto report = recovery.onTpuFailure("tpu-2");
  EXPECT_EQ(report.affectedPods, 1u);
  EXPECT_EQ(report.recoveredPods, 1u);
  EXPECT_EQ(report.evictedPods, 0u);
  EXPECT_TRUE(reclamation_->isTracked(3));
}

TEST_F(FailureRecoveryUnitTest, SecondRecoveryForSameTpuIsNoop) {
  admitAndTrack(1, zoo::kMobileNetV1, 0.5);
  FailureRecovery recovery = makeRecovery();
  killTpu("tpu-0");
  auto first = recovery.onTpuFailure("tpu-0");
  EXPECT_EQ(first.recoveredPods, 1u);
  std::int64_t loadAfter = pool_.totalLoad().milli();
  // Re-announcing the same failure (e.g. data-plane and control-plane edges
  // of the fault injector both funnel here) finds nothing left to do.
  auto second = recovery.onTpuFailure("tpu-0");
  EXPECT_EQ(second.affectedPods, 0u);
  EXPECT_EQ(pool_.totalLoad().milli(), loadAfter);
  EXPECT_TRUE(reclamation_->isTracked(1));
}

// ---- Full-stack failover through the testbed -------------------------------

TEST(FailoverIntegrationTest, StreamsKeepFlowingAfterTpuLoss) {
  Testbed testbed;
  // 8 cameras at 0.35 units: 2.8 units on 6 TPUs — ample slack to absorb
  // one TPU failure.
  for (int i = 0; i < 8; ++i) {
    CameraDeployment deployment;
    deployment.name = "cam-" + std::to_string(i);
    deployment.model = zoo::kSsdMobileNetV2;
    ASSERT_TRUE(testbed.deployCamera(deployment).isOk());
  }
  testbed.run(seconds(5));

  auto report = testbed.failTpu("tpu-00");
  EXPECT_GT(report.affectedPods, 0u);
  EXPECT_EQ(report.evictedPods, 0u);
  EXPECT_EQ(report.recoveredPods, report.affectedPods);
  EXPECT_EQ(testbed.liveCameraCount(), 8u);

  // Nothing routes to the dead TPU anymore; frames keep completing.
  std::vector<std::uint64_t> before;
  for (CameraPipeline* camera : testbed.liveCameras()) {
    before.push_back(camera->slo().completed());
  }
  testbed.run(seconds(10));
  std::size_t i = 0;
  for (CameraPipeline* camera : testbed.liveCameras()) {
    EXPECT_GT(camera->slo().completed(), before[i] + 100) << camera->name();
    ++i;
  }
  // The surviving 5 TPUs absorb 2.8 units.
  for (const TpuState& tpu : testbed.pool().tpus()) {
    EXPECT_LE(tpu.currentLoad(), TpuUnit::full());
  }
  EXPECT_EQ(testbed.pool().size(), 5u);
}

TEST(FailoverIntegrationTest, OverloadedClusterShedsLoadExplicitly) {
  Testbed testbed;
  // Fill to the paper's 17-camera capacity, then kill a TPU: 17 * 0.35 =
  // 5.95 units cannot fit 5 TPUs, so some pods must be evicted — never
  // silently oversubscribed.
  for (int i = 0; i < 17; ++i) {
    CameraDeployment deployment;
    deployment.name = "cam-" + std::to_string(i);
    deployment.model = zoo::kSsdMobileNetV2;
    ASSERT_TRUE(testbed.deployCamera(deployment).isOk());
  }
  testbed.run(seconds(3));
  auto report = testbed.failTpu("tpu-03");
  EXPECT_GT(report.evictedPods, 0u);
  EXPECT_EQ(testbed.liveCameraCount(), 17u - report.evictedPods);
  // Survivors: Σ units ≤ 1 per TPU and ≤ 5.0 total.
  EXPECT_LE(testbed.pool().totalLoad(), TpuUnit::fromDouble(5.0));
  for (const TpuState& tpu : testbed.pool().tpus()) {
    EXPECT_LE(tpu.currentLoad(), TpuUnit::full());
  }
  // Evicted pods are gone from the API server too.
  EXPECT_EQ(testbed.api().liveCount(), testbed.liveCameraCount());
  testbed.run(seconds(5));
  SloReport slo = testbed.sloReport();
  // Surviving streams keep their SLO.
  EXPECT_GE(slo.streamsMeetingSlo + report.evictedPods, 17u);
}

TEST(NodeFailureTest, DeadNodeTakesPodsAndTpuWithIt) {
  Testbed testbed;
  // Put cameras across the cluster, plus force one pod onto a tRPi by
  // exhausting vRPis... simpler: deploy and find a pod on the node we kill.
  for (int i = 0; i < 10; ++i) {
    CameraDeployment deployment;
    deployment.name = "cam-" + std::to_string(i);
    deployment.model = zoo::kSsdMobileNetV2;
    ASSERT_TRUE(testbed.deployCamera(deployment).isOk());
  }
  testbed.run(seconds(3));

  const std::string victim = testbed.topology().hostOf("tpu-01")->name();
  auto report = testbed.failNode(victim);
  EXPECT_EQ(report.tpusLost, 1u);
  // Pods that held shares on tpu-01 were replanned or evicted explicitly.
  EXPECT_EQ(report.recovery.affectedPods,
            report.recovery.recoveredPods + report.recovery.evictedPods);
  // 10 * 0.35 = 3.5 units on 5 surviving TPUs: everything fits.
  EXPECT_EQ(report.recovery.evictedPods, 0u);

  // The node is unschedulable now.
  CameraDeployment extra;
  extra.name = "late";
  extra.model = zoo::kSsdMobileNetV2;
  auto late = testbed.deployCamera(extra);
  ASSERT_TRUE(late.isOk());
  EXPECT_NE(testbed.api().findPodByName("late")->nodeName, victim);

  // Remaining streams keep flowing.
  testbed.run(seconds(10));
  for (CameraPipeline* camera : testbed.liveCameras()) {
    EXPECT_GT(camera->slo().completed(), 0u);
  }
  for (const TpuState& tpu : testbed.pool().tpus()) {
    EXPECT_LE(tpu.currentLoad(), TpuUnit::full());
  }
}

TEST(NodeFailureTest, VRpiFailureKillsOnlyItsPods) {
  Testbed testbed;
  for (int i = 0; i < 6; ++i) {
    CameraDeployment deployment;
    deployment.name = "cam-" + std::to_string(i);
    deployment.model = zoo::kSsdMobileNetV2;
    ASSERT_TRUE(testbed.deployCamera(deployment).isOk());
  }
  testbed.run(seconds(2));
  // Find a vRPi hosting at least one camera pod.
  std::string victim;
  for (const Pod* pod : testbed.api().livePods()) {
    if (testbed.nodeRegistry().find(pod->nodeName)->labels.at("tpu") ==
        "false") {
      victim = pod->nodeName;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::size_t liveBefore = testbed.liveCameraCount();
  auto report = testbed.failNode(victim);
  EXPECT_EQ(report.tpusLost, 0u);
  EXPECT_GT(report.podsLost, 0u);
  EXPECT_EQ(testbed.liveCameraCount(), liveBefore - report.podsLost);
  // No TPU lost => the pool shrank only by the dead pods' units.
  testbed.run(seconds(5));
  EXPECT_EQ(testbed.pool().size(), 6u);
  EXPECT_EQ(testbed.pool().totalLoad().milli(),
            static_cast<std::int64_t>(testbed.liveCameraCount()) * 350);
}

TEST(NodeFailureTest, UnknownNodeIsNoop) {
  Testbed testbed;
  auto report = testbed.failNode("nope");
  EXPECT_EQ(report.podsLost, 0u);
  EXPECT_EQ(report.tpusLost, 0u);
}

}  // namespace
}  // namespace microedge
