// Threaded in-process data plane: the same control-plane artifacts driving
// real worker threads with run-to-completion semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/admission.hpp"
#include "inproc_runtime.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

InprocTpuService::Config fastConfig(const std::string& id) {
  InprocTpuService::Config config;
  config.tpuId = id;
  config.timeScale = 0.005;  // 200x faster than real time
  return config;
}

TEST(InprocTpuServiceTest, ServesLoadedModel) {
  ModelRegistry zoo = zoo::standardZoo();
  InprocTpuService service(zoo, fastConfig("tpu-00"));
  service.load({zoo::kMobileNetV1});
  auto result = service.invoke(zoo::kMobileNetV1);
  ASSERT_TRUE(result.isOk());
  EXPECT_FALSE(result->paidSwap);
  EXPECT_GT(result->serviceTime.count(), 0);
  EXPECT_EQ(service.servedCount(), 1u);
}

TEST(InprocTpuServiceTest, UnknownModelRejected) {
  ModelRegistry zoo = zoo::standardZoo();
  InprocTpuService service(zoo, fastConfig("tpu-00"));
  EXPECT_FALSE(service.invoke("bogus").isOk());
}

TEST(InprocTpuServiceTest, NonResidentModelSwaps) {
  ModelRegistry zoo = zoo::standardZoo();
  InprocTpuService service(zoo, fastConfig("tpu-00"));
  service.load({zoo::kMobileNetV1});
  auto result = service.invoke(zoo::kUNetV2);
  ASSERT_TRUE(result.isOk());
  EXPECT_TRUE(result->paidSwap);
  EXPECT_EQ(service.swapCount(), 1u);
  // Now resident: the next invoke is swap-free.
  auto again = service.invoke(zoo::kUNetV2);
  ASSERT_TRUE(again.isOk());
  EXPECT_FALSE(again->paidSwap);
}

TEST(InprocTpuServiceTest, ConcurrentClientsSerialized) {
  ModelRegistry zoo = zoo::standardZoo();
  InprocTpuService service(zoo, fastConfig("tpu-00"));
  service.load({zoo::kMobileNetV1});
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 5; ++j) {
        auto result = service.invoke(zoo::kMobileNetV1);
        if (result.isOk()) ++done;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(done.load(), 40);
  EXPECT_EQ(service.servedCount(), 40u);
  EXPECT_EQ(service.swapCount(), 0u);
}

TEST(InprocClientTest, RoutesPerAdmissionWeights) {
  // Drive the threaded runtime with an allocation computed by the real
  // admission controller — the integration the runtime exists to prove.
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  ASSERT_TRUE(pool.addTpu("tpu-00", 6.9).isOk());
  ASSERT_TRUE(pool.addTpu("tpu-01", 6.9).isOk());
  AdmissionController admission(pool, zoo, {});
  // Pre-load tpu-00 to 0.6 and tpu-01 to 0.8 so a 0.6-unit pod has no
  // single-TPU home and splits 0.4 / 0.2.
  ASSERT_TRUE(
      admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.6)).isOk());
  ASSERT_TRUE(
      admission.admit(2, zoo::kMobileNetV1, TpuUnit::fromDouble(0.8)).isOk());
  auto result = admission.admit(3, zoo::kMobileNetV1, TpuUnit::fromDouble(0.6));
  ASSERT_TRUE(result.isOk());
  ASSERT_EQ(result->allocation.shares.size(), 2u);

  InprocTpuService s0(zoo, fastConfig("tpu-00"));
  InprocTpuService s1(zoo, fastConfig("tpu-01"));
  s0.load({zoo::kMobileNetV1});
  s1.load({zoo::kMobileNetV1});

  InprocClient client(zoo, zoo::kMobileNetV1);
  LbConfig lb = ExtendedScheduler::lbConfigFromAllocation(result->allocation);
  ASSERT_TRUE(
      client.configure(lb, {{"tpu-00", &s0}, {"tpu-01", &s1}}).isOk());

  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client.invoke().isOk());
  }
  // 0.4 : 0.2 -> exactly 20 : 10 over 30 picks.
  EXPECT_EQ(s0.servedCount(), 20u);
  EXPECT_EQ(s1.servedCount(), 10u);
}

TEST(InprocClientTest, ConfigureRequiresKnownServices) {
  ModelRegistry zoo = zoo::standardZoo();
  InprocClient client(zoo, zoo::kMobileNetV1);
  LbConfig lb{{LbWeight{internTpu("tpu-99"), 100}}};
  EXPECT_FALSE(client.configure(lb, {}).isOk());
  EXPECT_FALSE(client.invoke().isOk());
}

}  // namespace
}  // namespace microedge
