// Defragmenter: consolidation of partitioned pods and full FFD replans,
// with transactional rollback when a replan is infeasible.

#include <gtest/gtest.h>

#include "core/defragmenter.hpp"
#include "models/zoo.hpp"
#include "testbed/testbed.hpp"

namespace microedge {
namespace {

class DefragmenterTest : public ::testing::Test {
 protected:
  DefragmenterTest() : zoo_(zoo::standardZoo()) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(pool_.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    admission_ = std::make_unique<AdmissionController>(pool_, zoo_,
                                                       AdmissionConfig{});
    reclamation_ = std::make_unique<Reclamation>(*admission_);
    defrag_ = std::make_unique<Defragmenter>(*admission_, *reclamation_,
                                             Defragmenter::Callbacks{});
  }

  Allocation admitAndTrack(std::uint64_t uid, const std::string& model,
                           double units) {
    auto result = admission_->admit(uid, model, TpuUnit::fromDouble(units));
    EXPECT_TRUE(result.isOk()) << result.status();
    reclamation_->track(uid, result->allocation);
    return result->allocation;
  }

  void release(std::uint64_t uid) {
    ASSERT_TRUE(reclamation_->releaseNow(uid).isOk());
  }

  ModelRegistry zoo_;
  TpuPool pool_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<Reclamation> reclamation_;
  std::unique_ptr<Defragmenter> defrag_;
};

TEST_F(DefragmenterTest, EmptyPoolIsTrivial) {
  auto report = defrag_->replanAll();
  EXPECT_TRUE(report.applied);
  EXPECT_EQ(report.podsReplanned, 0u);
  EXPECT_EQ(report.reason, Defragmenter::Reason::kNone);
}

TEST_F(DefragmenterTest, ConsolidateCollapsesPartitionedPod) {
  // Fragment on purpose: fill 0.6 everywhere, partition a 0.9 pod, then
  // drain the fillers — the 0.9 pod is left scattered 0.4/0.4/0.1 across
  // three now-mostly-empty TPUs.
  admitAndTrack(1, zoo::kMobileNetV1, 0.6);
  admitAndTrack(2, zoo::kMobileNetV1, 0.6);
  admitAndTrack(3, zoo::kMobileNetV1, 0.6);
  admitAndTrack(4, zoo::kMobileNetV1, 0.6);
  Allocation scattered = admitAndTrack(5, zoo::kMobileNetV1, 0.9);
  ASSERT_EQ(scattered.shares.size(), 3u);
  release(1);
  release(2);
  release(3);
  release(4);

  auto report = defrag_->consolidate();
  EXPECT_TRUE(report.applied);
  EXPECT_EQ(report.podsReplanned, 1u);
  const Allocation* after = reclamation_->allocationOf(5);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->shares.size(), 1u);  // one TPU now fits the whole 0.9
  EXPECT_EQ(after->totalUnits().milli(), 900);
  EXPECT_EQ(pool_.totalLoad().milli(), 900);
}

TEST_F(DefragmenterTest, ConsolidateKeepsPlacementWhenNoImprovement) {
  admitAndTrack(1, zoo::kMobileNetV1, 0.8);
  admitAndTrack(2, zoo::kMobileNetV1, 0.8);
  admitAndTrack(3, zoo::kMobileNetV1, 0.8);
  admitAndTrack(4, zoo::kMobileNetV1, 0.8);
  // 1.2-unit pod cannot fit any single TPU: must stay partitioned.
  Allocation split = admitAndTrack(5, zoo::kMobileNetV1, 0.6);
  ASSERT_GT(split.shares.size(), 1u);
  auto report = defrag_->consolidate();
  EXPECT_EQ(report.podsReplanned, 0u);
  EXPECT_EQ(report.reason, Defragmenter::Reason::kNoImprovement);
  EXPECT_EQ(reclamation_->allocationOf(5)->shares.size(),
            split.shares.size());
  EXPECT_EQ(pool_.totalLoad().milli(), 3800);
}

TEST_F(DefragmenterTest, ReplanAllCompactsLoadOntoFewerTpus) {
  // Churn pattern: admit small pods everywhere, release alternating ones so
  // load is smeared thin across all four TPUs.
  for (std::uint64_t uid = 1; uid <= 8; ++uid) {
    admitAndTrack(uid, zoo::kMobileNetV1, 0.25);
  }
  for (std::uint64_t uid = 1; uid <= 8; uid += 2) release(uid);
  // 4 x 0.25 = 1.0 unit spread over several TPUs.
  std::size_t usedBefore = pool_.usedTpuCount();
  auto report = defrag_->replanAll();
  EXPECT_TRUE(report.applied);
  EXPECT_LE(report.usedTpusAfter, usedBefore);
  EXPECT_EQ(report.usedTpusAfter, 1u);  // 1.0 unit fits one TPU exactly
  EXPECT_EQ(pool_.totalLoad().milli(), 1000);
  // Every pod still tracked with its full request.
  for (std::uint64_t uid = 2; uid <= 8; uid += 2) {
    ASSERT_TRUE(reclamation_->isTracked(uid));
    EXPECT_EQ(reclamation_->allocationOf(uid)->totalUnits().milli(), 250);
  }
}

TEST_F(DefragmenterTest, ReplanEmitsLoadAndLbCallbacks) {
  std::vector<LoadCommand> loads;
  std::vector<std::uint64_t> reconfigured;
  Defragmenter::Callbacks callbacks;
  callbacks.loadModel = [&](const LoadCommand& cmd) {
    loads.push_back(cmd);
    return Status::ok();
  };
  callbacks.reconfigureLb = [&](std::uint64_t uid, const LbConfig& config) {
    reconfigured.push_back(uid);
    EXPECT_FALSE(config.empty());
  };
  Defragmenter defrag(*admission_, *reclamation_, std::move(callbacks));

  for (std::uint64_t uid = 1; uid <= 4; ++uid) {
    admitAndTrack(uid, zoo::kMobileNetV1, 0.6);
  }
  Allocation split = admitAndTrack(5, zoo::kMobileNetV1, 0.9);
  ASSERT_GT(split.shares.size(), 1u);
  release(1);
  release(2);
  auto report = defrag.consolidate();
  EXPECT_EQ(report.podsReplanned, 1u);
  EXPECT_EQ(reconfigured, std::vector<std::uint64_t>{5});
}

TEST_F(DefragmenterTest, CapacityRecoveredAfterDefrag) {
  // The motivating scenario: fragmentation blocks a large request that the
  // total free capacity could serve on one TPU.
  admitAndTrack(1, zoo::kMobileNetV1, 0.6);
  admitAndTrack(2, zoo::kMobileNetV1, 0.6);
  admitAndTrack(3, zoo::kMobileNetV1, 0.6);
  admitAndTrack(4, zoo::kMobileNetV1, 0.6);
  admitAndTrack(5, zoo::kMobileNetV1, 0.9);  // scattered over residuals
  release(1);
  release(3);
  // ResNet-50 (25 MB params) needs an *empty* TPU; fragmentation denies it.
  auto blocked = admission_->admit(6, zoo::kResNet50, TpuUnit::fromDouble(0.5));
  ASSERT_FALSE(blocked.isOk());

  auto report = defrag_->replanAll();
  ASSERT_TRUE(report.applied);
  EXPECT_LT(report.usedTpusAfter, report.usedTpusBefore);

  auto unblocked =
      admission_->admit(6, zoo::kResNet50, TpuUnit::fromDouble(0.5));
  EXPECT_TRUE(unblocked.isOk()) << unblocked.status();
}

// ---- Through the testbed ---------------------------------------------------

// Forces the replanAll rollback path and checks the snapshot-restore left
// the pool — including its incremental packing indexes — exactly where it
// was. The infeasibility is a param-capacity trap: FFD re-places the
// largest pod onto the roomy TPU first, which strands a model pair whose
// combined parameter data exceeds the small TPU.
TEST(DefragRollbackTest, InfeasibleReplanRestoresPackingIndexes) {
  ModelRegistry zoo = zoo::standardZoo();
  auto addModel = [&zoo](const char* name) {
    ModelInfo info;
    info.name = name;
    info.inferenceLatency = millisecondsF(5.0);
    info.paramSizeMb = 4.0;
    info.inputWidth = 224;
    info.inputHeight = 224;
    ASSERT_TRUE(zoo.add(info).isOk());
  };
  addModel("defrag-a");
  addModel("defrag-b");
  addModel("defrag-c");

  TpuPool pool;
  ASSERT_TRUE(pool.addTpu("tpu-big", 9.0).isOk());    // fits two models
  ASSERT_TRUE(pool.addTpu("tpu-small", 4.5).isOk());  // fits one model
  AdmissionController admission(pool, zoo, AdmissionConfig{});
  Reclamation reclamation(admission);
  Defragmenter defrag(admission, reclamation, Defragmenter::Callbacks{});

  // Feasible hand placement: a(0.4) + b(0.6) share tpu-big (8 MB <= 9),
  // c(1.0) fills tpu-small.
  auto admitAndTrack = [&](std::uint64_t uid, const char* model,
                           double units) {
    auto result = admission.admit(uid, model, TpuUnit::fromDouble(units));
    ASSERT_TRUE(result.isOk()) << result.status();
    reclamation.track(uid, result->allocation);
  };
  admitAndTrack(1, "defrag-a", 0.4);
  admitAndTrack(2, "defrag-b", 0.6);
  admitAndTrack(3, "defrag-c", 1.0);

  // Reference state before the replan attempt.
  const TpuPool before = pool;
  const Allocation allocA = *reclamation.allocationOf(1);
  const Allocation allocB = *reclamation.allocationOf(2);
  const Allocation allocC = *reclamation.allocationOf(3);

  // FFD order is c(1.0), b(0.6), a(0.4): c grabs tpu-big, b falls to
  // tpu-small, and a has units on tpu-small but 4+4 MB params do not fit —
  // infeasible, roll back.
  auto report = defrag.replanAll();
  EXPECT_FALSE(report.applied);
  EXPECT_EQ(report.reason, Defragmenter::Reason::kInfeasiblePlacement);
  EXPECT_EQ(report.podsReplanned, 0u);

  // Placements and tracked allocations restored exactly.
  auto expectSameAllocation = [](const Allocation& got,
                                 const Allocation& want) {
    ASSERT_EQ(got.shares.size(), want.shares.size());
    for (std::size_t i = 0; i < got.shares.size(); ++i) {
      EXPECT_EQ(got.shares[i].tpu, want.shares[i].tpu);
      EXPECT_EQ(got.shares[i].units.milli(), want.shares[i].units.milli());
    }
  };
  expectSameAllocation(*reclamation.allocationOf(1), allocA);
  expectSameAllocation(*reclamation.allocationOf(2), allocB);
  expectSameAllocation(*reclamation.allocationOf(3), allocC);
  ASSERT_EQ(pool.size(), before.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const TpuState& got = pool.tpus()[i];
    const TpuState& want = before.tpus()[i];
    EXPECT_EQ(got.id(), want.id());
    EXPECT_EQ(got.currentLoad().milli(), want.currentLoad().milli());
    EXPECT_EQ(got.liveModelCount(), want.liveModelCount());
    EXPECT_EQ(got.residentOrder(), want.residentOrder());
  }

  // The restored pool offers admission the same candidates as before the
  // replan for every strategy and probe size.
  const PackingStrategy strategies[] = {
      PackingStrategy::kFirstFit, PackingStrategy::kNextFit,
      PackingStrategy::kBestFit, PackingStrategy::kWorstFit};
  for (PackingStrategy strategy : strategies) {
    for (int probeMilli : {1, 200, 400, 600, 1000}) {
      const TpuUnit probe = TpuUnit::fromMilli(probeMilli);
      SCOPED_TRACE(std::string(toString(strategy)) + " probe " +
                   std::to_string(probeMilli));
      EXPECT_EQ(pool.scan(strategy, probe, 0), before.scan(strategy, probe, 0));
    }
  }
}

TEST(DefragTestbedTest, LiveStreamsSurviveDefrag) {
  Testbed testbed;
  // Create fragmentation with real churn.
  for (int i = 0; i < 12; ++i) {
    CameraDeployment deployment;
    deployment.name = "cam-" + std::to_string(i);
    deployment.model = zoo::kSsdMobileNetV2;
    ASSERT_TRUE(testbed.deployCamera(deployment).isOk());
  }
  testbed.run(seconds(3));
  for (int i = 0; i < 12; i += 2) {
    ASSERT_TRUE(testbed.removeCamera("cam-" + std::to_string(i)).isOk());
  }
  testbed.run(seconds(5));  // reclamation poller returns the units

  auto report = testbed.defragment(/*full=*/true);
  EXPECT_TRUE(report.applied);
  EXPECT_LE(report.usedTpusAfter, report.usedTpusBefore);

  // Remaining streams keep flowing at 15 FPS after the replan.
  std::vector<std::uint64_t> before;
  for (CameraPipeline* camera : testbed.liveCameras()) {
    before.push_back(camera->slo().completed());
  }
  testbed.run(seconds(10));
  std::size_t i = 0;
  for (CameraPipeline* camera : testbed.liveCameras()) {
    EXPECT_GT(camera->slo().completed(), before[i] + 130) << camera->name();
    EXPECT_TRUE(camera->slo().sloMet()) << camera->name();
    ++i;
  }
}

// A replan's Loads race with hung-but-alive TPU Services, exactly like
// failure recovery's: a Load refused by a hang retries on the data plane's
// backoff instead of leaving the new composite unloaded.
TEST(DefragTestbedTest, LoadsOnHungServicesRetry) {
  Testbed testbed;
  const char* models[] = {zoo::kSsdMobileNetV2, zoo::kMobileNetV1};
  for (int i = 0; i < 10; ++i) {
    CameraDeployment deployment;
    deployment.name = "cam-" + std::to_string(i);
    deployment.model = models[i % 2];
    ASSERT_TRUE(testbed.deployCamera(deployment).isOk());
  }
  testbed.run(seconds(1));
  for (int i : {0, 3, 4, 7}) {
    ASSERT_TRUE(testbed.removeCamera("cam-" + std::to_string(i)).isOk());
  }
  testbed.run(seconds(3));  // reclamation poller returns the units

  // Every service hangs through the replan and answers again 25 ms later,
  // inside the retry budget (retries at 10 and 30 ms).
  std::vector<TpuService*> services = testbed.dataPlane().services();
  for (TpuService* service : services) service->setHung(true);
  testbed.sim().scheduleAfter(milliseconds(25), [&services] {
    for (TpuService* service : services) service->setHung(false);
  });
  const Defragmenter::Report report = testbed.defragment(/*full=*/true);
  ASSERT_TRUE(report.applied);
  ASSERT_GT(report.podsReplanned, 0u);
  testbed.run(seconds(1));

  EXPECT_GT(testbed.dataPlane().loadRetries(), 0u);
  for (const auto& [uid, allocation] :
       testbed.reclamation().trackedAllocations()) {
    for (const TpuShare& share : allocation.shares) {
      const std::string& tpu = tpuName(share.tpu);
      EXPECT_TRUE(testbed.topology().findTpu(tpu)->isResident(
          lookupModel(allocation.model)))
          << allocation.model << " not resident on " << tpu;
    }
  }
}

TEST(DefragTestbedTest, BaselineModeIsNoop) {
  TestbedConfig config;
  config.mode = SchedulingMode::kBaselineDedicated;
  Testbed testbed(config);
  auto report = testbed.defragment();
  EXPECT_FALSE(report.applied);
}

}  // namespace
}  // namespace microedge
