// The bare-metal baseline: integral TPU dedication and the fragmentation it
// causes (the paper's comparison point).

#include <gtest/gtest.h>

#include "core/dedicated_allocator.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class DedicatedAllocatorTest : public ::testing::Test {
 protected:
  DedicatedAllocatorTest() : zoo_(zoo::standardZoo()) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(pool_.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
  }

  ModelRegistry zoo_;
  TpuPool pool_;
};

TEST_F(DedicatedAllocatorTest, CoralPieTakesOneWholeTpu) {
  DedicatedAllocator allocator(pool_, zoo_);
  auto result =
      allocator.admit(1, zoo::kSsdMobileNetV2, TpuUnit::fromDouble(0.35));
  ASSERT_TRUE(result.isOk());
  ASSERT_EQ(result->allocation.shares.size(), 1u);
  // Pool bookkeeping shows the TPU fully taken even though the duty cycle is
  // 0.35 — that gap IS the internal fragmentation.
  EXPECT_EQ(pool_.find(lookupTpu("tpu-0"))->currentLoad(), TpuUnit::full());
}

TEST_F(DedicatedAllocatorTest, BodyPixTakesTwoTpusAlternatingFrames) {
  DedicatedAllocator allocator(pool_, zoo_);
  auto result =
      allocator.admit(1, zoo::kBodyPixMobileNetV1, TpuUnit::fromDouble(1.2));
  ASSERT_TRUE(result.isOk());
  ASSERT_EQ(result->allocation.shares.size(), 2u);
  // Equal weights -> the LBS alternates frames between the two TPUs.
  EXPECT_EQ(result->allocation.shares[0].units,
            result->allocation.shares[1].units);
  EXPECT_EQ(pool_.find(lookupTpu("tpu-0"))->currentLoad(), TpuUnit::full());
  EXPECT_EQ(pool_.find(lookupTpu("tpu-1"))->currentLoad(), TpuUnit::full());
}

TEST_F(DedicatedAllocatorTest, CapacityIsIntegral) {
  DedicatedAllocator allocator(pool_, zoo_);
  // 6 TPUs -> 6 Coral-Pie cameras, no matter how small the duty cycle.
  int admitted = 0;
  for (std::uint64_t pod = 1; pod <= 10; ++pod) {
    if (allocator.admit(pod, zoo::kSsdMobileNetV2, TpuUnit::fromDouble(0.35))
            .isOk()) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 6);
  EXPECT_EQ(allocator.rejectedCount(), 4u);
}

TEST_F(DedicatedAllocatorTest, BodyPixCapacityIsThree) {
  DedicatedAllocator allocator(pool_, zoo_);
  int admitted = 0;
  for (std::uint64_t pod = 1; pod <= 6; ++pod) {
    if (allocator
            .admit(pod, zoo::kBodyPixMobileNetV1, TpuUnit::fromDouble(1.2))
            .isOk()) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 3);  // 2 TPUs each
}

TEST_F(DedicatedAllocatorTest, ReleaseFreesWholeTpus) {
  DedicatedAllocator allocator(pool_, zoo_);
  auto result =
      allocator.admit(1, zoo::kBodyPixMobileNetV1, TpuUnit::fromDouble(1.2));
  ASSERT_TRUE(result.isOk());
  ASSERT_TRUE(allocator.release(result->allocation).isOk());
  EXPECT_TRUE(pool_.totalLoad().isZero());
  // Freed TPUs are reusable, including their model memory.
  auto again =
      allocator.admit(2, zoo::kSsdMobileNetV2, TpuUnit::fromDouble(0.35));
  EXPECT_TRUE(again.isOk());
}

TEST_F(DedicatedAllocatorTest, RejectsBadInputs) {
  DedicatedAllocator allocator(pool_, zoo_);
  EXPECT_FALSE(allocator.admit(1, "bogus", TpuUnit::fromDouble(0.5)).isOk());
  EXPECT_FALSE(allocator.admit(2, zoo::kMobileNetV1, TpuUnit::zero()).isOk());
}

TEST_F(DedicatedAllocatorTest, EmitsLoadCommandPerTpu) {
  DedicatedAllocator allocator(pool_, zoo_);
  auto result =
      allocator.admit(1, zoo::kBodyPixMobileNetV1, TpuUnit::fromDouble(1.2));
  ASSERT_TRUE(result.isOk());
  ASSERT_EQ(result->loads.size(), 2u);
  for (const auto& load : result->loads) {
    EXPECT_EQ(load.composite,
              std::vector<std::string>{zoo::kBodyPixMobileNetV1});
  }
}

}  // namespace
}  // namespace microedge
