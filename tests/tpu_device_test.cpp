// Simulated Edge TPU device: serial run-to-completion execution, co-compiled
// residency, swap and partial-caching penalties, busy-time accounting.

#include <gtest/gtest.h>

#include "cluster/tpu_device.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class TpuDeviceTest : public ::testing::Test {
 protected:
  TpuDeviceTest() : zoo_(zoo::standardZoo()), tpu_(sim_, zoo_, "tpu-00") {}

  void loadAndSettle(const std::vector<std::string>& models) {
    ASSERT_TRUE(tpu_.loadModels(models).isOk());
    sim_.run();
  }

  Simulator sim_;
  ModelRegistry zoo_;
  TpuDevice tpu_;
};

TEST_F(TpuDeviceTest, LoadInstallsResidentSet) {
  loadAndSettle({zoo::kMobileNetV1, zoo::kUNetV2});
  EXPECT_TRUE(tpu_.isResident(lookupModel(zoo::kMobileNetV1)));
  EXPECT_TRUE(tpu_.isResident(lookupModel(zoo::kUNetV2)));
  EXPECT_FALSE(tpu_.isResident(lookupModel(zoo::kResNet50)));
  EXPECT_NEAR(tpu_.residentParamMb(), 4.2 + 2.5, 1e-9);
  EXPECT_DOUBLE_EQ(tpu_.cachedFraction(lookupModel(zoo::kMobileNetV1)), 1.0);
}

TEST_F(TpuDeviceTest, LoadRejectsUnknownModel) {
  EXPECT_FALSE(tpu_.loadModels({"no-such-model"}).isOk());
  EXPECT_FALSE(tpu_.loadModels({}).isOk());
}

TEST_F(TpuDeviceTest, InvokeTakesInferenceLatencyWhenResident) {
  loadAndSettle({zoo::kMobileNetV1});
  SimTime start = sim_.now();
  TpuDevice::InvokeStats seen;
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kMobileNetV1),
                          [&](const TpuDevice::InvokeStats& s) { seen = s; })
                  .isOk());
  sim_.run();
  EXPECT_EQ(seen.serviceTime, zoo_.at(zoo::kMobileNetV1).inferenceLatency);
  EXPECT_FALSE(seen.paidSwap);
  EXPECT_FALSE(seen.paidResidentSwitch);
  EXPECT_EQ(seen.finishTime - start,
            zoo_.at(zoo::kMobileNetV1).inferenceLatency);
}

TEST_F(TpuDeviceTest, SerialRunToCompletion) {
  loadAndSettle({zoo::kMobileNetV1});
  // Two invokes enqueued back to back: the second waits for the first.
  std::vector<TpuDevice::InvokeStats> stats;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kMobileNetV1),
                            [&](const TpuDevice::InvokeStats& s) {
                              stats.push_back(s);
                            })
                    .isOk());
  }
  EXPECT_EQ(tpu_.queueDepth(), 2u);
  sim_.run();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].queueDelay, SimDuration::zero());
  EXPECT_EQ(stats[1].queueDelay, stats[0].serviceTime);
  EXPECT_EQ(stats[1].startTime, stats[0].finishTime);
}

TEST_F(TpuDeviceTest, NonResidentModelPaysSwapAndReplacesResidentSet) {
  loadAndSettle({zoo::kMobileNetV1});
  TpuDevice::InvokeStats seen;
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kUNetV2),
                          [&](const TpuDevice::InvokeStats& s) { seen = s; })
                  .isOk());
  sim_.run();
  EXPECT_TRUE(seen.paidSwap);
  EXPECT_GT(seen.serviceTime, zoo_.at(zoo::kUNetV2).inferenceLatency);
  EXPECT_EQ(tpu_.swapCount(), 1u);
  EXPECT_TRUE(tpu_.isResident(lookupModel(zoo::kUNetV2)));
  EXPECT_FALSE(tpu_.isResident(lookupModel(zoo::kMobileNetV1)));  // evicted
}

TEST_F(TpuDeviceTest, CoCompiledSwitchIsCheap) {
  loadAndSettle({zoo::kMobileNetV1, zoo::kUNetV2});
  TpuDevice::InvokeStats first, second;
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kMobileNetV1),
                          [&](const TpuDevice::InvokeStats& s) { first = s; })
                  .isOk());
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kUNetV2),
                          [&](const TpuDevice::InvokeStats& s) { second = s; })
                  .isOk());
  sim_.run();
  EXPECT_TRUE(second.paidResidentSwitch);
  EXPECT_FALSE(second.paidSwap);
  SimDuration penalty =
      second.serviceTime - zoo_.at(zoo::kUNetV2).inferenceLatency;
  EXPECT_EQ(penalty, tpu_.config().residentSwitchPenalty);
  // The co-compiled switch penalty is orders of magnitude below a swap.
  EXPECT_LT(penalty, milliseconds(1));
}

TEST_F(TpuDeviceTest, BackToBackSameModelPaysNoSwitch) {
  loadAndSettle({zoo::kMobileNetV1, zoo::kUNetV2});
  std::vector<TpuDevice::InvokeStats> stats;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kMobileNetV1),
                            [&](const TpuDevice::InvokeStats& s) {
                              stats.push_back(s);
                            })
                    .isOk());
  }
  sim_.run();
  EXPECT_FALSE(stats[1].paidResidentSwitch);
  EXPECT_FALSE(stats[2].paidResidentSwitch);
  EXPECT_EQ(stats[1].serviceTime, zoo_.at(zoo::kMobileNetV1).inferenceLatency);
}

TEST_F(TpuDeviceTest, PartialCachingStreamsUncachedRemainder) {
  // ResNet-50 (25 MB) cannot fully cache in 6.9 MB: every inference streams
  // the remainder.
  loadAndSettle({zoo::kResNet50});
  EXPECT_LT(tpu_.cachedFraction(lookupModel(zoo::kResNet50)), 1.0);
  TpuDevice::InvokeStats seen;
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kResNet50),
                          [&](const TpuDevice::InvokeStats& s) { seen = s; })
                  .isOk());
  sim_.run();
  EXPECT_GT(seen.serviceTime, zoo_.at(zoo::kResNet50).inferenceLatency);
  // Second invoke pays the streaming penalty again (it recurs per request).
  TpuDevice::InvokeStats again;
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kResNet50),
                          [&](const TpuDevice::InvokeStats& s) { again = s; })
                  .isOk());
  sim_.run();
  EXPECT_EQ(again.serviceTime, seen.serviceTime);
  EXPECT_GT(again.serviceTime, zoo_.at(zoo::kResNet50).inferenceLatency);
}

TEST_F(TpuDeviceTest, OverflowingCompositePartiallyCachesLowestPriority) {
  // 6.2 + 4.2 = 10.4 MB > 6.9 MB: the second (lower priority) model is
  // partially cached, the first stays fully cached.
  loadAndSettle({zoo::kSsdMobileNetV2, zoo::kMobileNetV1});
  EXPECT_DOUBLE_EQ(tpu_.cachedFraction(lookupModel(zoo::kSsdMobileNetV2)), 1.0);
  EXPECT_LT(tpu_.cachedFraction(lookupModel(zoo::kMobileNetV1)), 1.0);
  EXPECT_GT(tpu_.cachedFraction(lookupModel(zoo::kMobileNetV1)), 0.0);
}

TEST_F(TpuDeviceTest, InvokeUnknownModelRejected) {
  EXPECT_EQ(tpu_.invoke(lookupModel("bogus"), nullptr).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(tpu_.invocations(), 0u);
}

TEST_F(TpuDeviceTest, BusyTimeIntegratesOccupancy) {
  loadAndSettle({zoo::kMobileNetV1});
  SimDuration busyAfterLoad = tpu_.busyTime();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kMobileNetV1), nullptr).isOk());
  }
  sim_.run();
  SimDuration expected = zoo_.at(zoo::kMobileNetV1).inferenceLatency * 4;
  EXPECT_EQ(tpu_.busyTime() - busyAfterLoad, expected);
}

TEST_F(TpuDeviceTest, BusyTimeCountsPartialInFlightWork) {
  loadAndSettle({zoo::kEfficientNetLite0});
  SimDuration base = tpu_.busyTime();
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kEfficientNetLite0),
                          nullptr).isOk());
  sim_.runUntil(sim_.now() + milliseconds(10));
  EXPECT_EQ(tpu_.busyTime() - base, milliseconds(10));
}

TEST_F(TpuDeviceTest, UtilizationSince) {
  loadAndSettle({zoo::kMobileNetV1});
  SimTime windowStart = sim_.now();
  SimDuration busyStart = tpu_.busyTime();
  // 4.5 ms of work in a 45 ms window -> 10%.
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kMobileNetV1), nullptr).isOk());
  sim_.runUntil(windowStart + millisecondsF(45.0));
  EXPECT_NEAR(tpu_.utilizationSince(busyStart, windowStart), 0.1, 1e-6);
}

TEST_F(TpuDeviceTest, LoadQueuesBehindInFlightInference) {
  loadAndSettle({zoo::kEfficientNetLite0});
  bool inferenceDone = false;
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kEfficientNetLite0),
                          [&](const TpuDevice::InvokeStats&) {
                            inferenceDone = true;
                          })
                  .isOk());
  // Load issued mid-inference must not preempt it.
  ASSERT_TRUE(tpu_.loadModels({zoo::kMobileNetV1}).isOk());
  EXPECT_FALSE(inferenceDone);
  sim_.run();
  EXPECT_TRUE(inferenceDone);
  EXPECT_TRUE(tpu_.isResident(lookupModel(zoo::kMobileNetV1)));
  EXPECT_FALSE(tpu_.isResident(lookupModel(zoo::kEfficientNetLite0)));
}

TEST_F(TpuDeviceTest, QueuedEmitterJobTaintsInFlightCompletion) {
  sim_.setEmitterTracking(true);
  loadAndSettle({zoo::kMobileNetV1});
  const SimTime start = sim_.now();
  const SimTime firstDone = start + zoo_.at(zoo::kMobileNetV1).inferenceLatency;
  // Untagged in-flight inference: its completion is not an emitter.
  ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kMobileNetV1), nullptr).isOk());
  EXPECT_EQ(sim_.nextEmitterTime(), SimTime::max());
  // From a tagged cascade, queue a second job behind it. The queued job has
  // no event of its own yet, so the device must retroactively taint the
  // in-flight completion — otherwise the emitter bound would miss the whole
  // FIFO chain (the deferred-work hazard, DESIGN.md §12).
  bool doneWasEmitter = false;
  sim_.schedule(
      start + microseconds(1),
      [&] {
        ASSERT_TRUE(tpu_.invoke(lookupModel(zoo::kMobileNetV1),
                                [&](const TpuDevice::InvokeStats&) {
                                  doneWasEmitter = sim_.firingEmitter();
                                })
                        .isOk());
      },
      /*emitter=*/true);
  sim_.runUntil(start + microseconds(2));
  // The (tainted) in-flight completion is now the earliest emitter.
  EXPECT_EQ(sim_.nextEmitterTime(), firstDone);
  sim_.run();
  // The queued job's completion inherited the tag through the cascade.
  EXPECT_TRUE(doneWasEmitter);
}

}  // namespace
}  // namespace microedge
