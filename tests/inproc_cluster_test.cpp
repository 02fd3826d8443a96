// Threaded mini-cluster integration: the complete control-plane pipeline
// (admission -> co-compiled composites -> LBS weights) driving a *real*
// concurrent data plane — several TPU worker threads, several client
// threads — under mixed multi-tenant workloads. Validates that MicroEdge's
// deployment-time artifacts are sufficient to run the data plane with no
// runtime scheduler in the loop, which is the paper's §2 design argument.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "inproc_runtime.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class InprocClusterTest : public ::testing::Test {
 protected:
  static constexpr int kTpus = 3;

  InprocClusterTest() : zoo_(zoo::standardZoo()) {
    for (int i = 0; i < kTpus; ++i) {
      std::string id = "tpu-0" + std::to_string(i);
      EXPECT_TRUE(pool_.addTpu(id, 6.9).isOk());
      InprocTpuService::Config config;
      config.tpuId = id;
      config.timeScale = 0.002;  // 500x faster than real time
      services_.emplace(id,
                        std::make_unique<InprocTpuService>(zoo_, config));
      directory_[id] = services_.at(id).get();
    }
    admission_ = std::make_unique<AdmissionController>(pool_, zoo_,
                                                       AdmissionConfig{});
  }

  // Admission + Load execution on the threaded services + client wiring:
  // the whole §3.1 control-plane workflow against real threads.
  std::unique_ptr<InprocClient> deploy(std::uint64_t uid,
                                       const std::string& model,
                                       double units) {
    auto result = admission_->admit(uid, model, TpuUnit::fromDouble(units));
    if (!result.isOk()) return nullptr;
    for (const LoadCommand& load : result->loads) {
      directory_.at(load.tpuId)->load(load.composite);
    }
    auto client = std::make_unique<InprocClient>(zoo_, model);
    LbConfig lb = lbConfigFromAllocation(result->allocation);
    EXPECT_TRUE(client->configure(lb, directory_).isOk());
    allocations_[uid] = result->allocation;
    return client;
  }

  ModelRegistry zoo_;
  TpuPool pool_;
  std::map<std::string, std::unique_ptr<InprocTpuService>> services_;
  std::map<std::string, InprocTpuService*> directory_;
  std::unique_ptr<AdmissionController> admission_;
  std::map<std::uint64_t, Allocation> allocations_;
};

TEST_F(InprocClusterTest, MixedTenantsNoSwapsAfterCoCompile) {
  // Two tenants with different models co-compiled on one TPU: interleaved
  // concurrent invokes must never swap.
  auto a = deploy(1, zoo::kMobileNetV1, 0.3);
  auto b = deploy(2, zoo::kUNetV2, 0.4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  std::atomic<int> failures{0};
  auto hammer = [&failures](InprocClient* client, int n) {
    for (int i = 0; i < n; ++i) {
      auto result = client->invoke();
      if (!result.isOk() || result->paidSwap) ++failures;
    }
  };
  std::thread ta(hammer, a.get(), 40);
  std::thread tb(hammer, b.get(), 40);
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);
  std::uint64_t swaps = 0;
  for (auto& [id, service] : services_) swaps += service->swapCount();
  EXPECT_EQ(swaps, 0u);
}

TEST_F(InprocClusterTest, PartitionedTenantSpreadsAcrossWorkerThreads) {
  // Partially load every TPU so the next pod must partition.
  auto filler0 = deploy(1, zoo::kMobileNetV1, 0.8);
  auto filler1 = deploy(2, zoo::kMobileNetV1, 0.7);
  auto filler2 = deploy(3, zoo::kMobileNetV1, 0.7);
  ASSERT_NE(filler0, nullptr);
  ASSERT_NE(filler1, nullptr);
  ASSERT_NE(filler2, nullptr);
  auto split = deploy(4, zoo::kMobileNetV1, 0.6);  // 0.2 + 0.3 + 0.1
  ASSERT_NE(split, nullptr);
  ASSERT_GT(allocations_.at(4).shares.size(), 1u);

  std::uint64_t before[kTpus];
  int i = 0;
  for (auto& [id, service] : services_) before[i++] = service->servedCount();
  const int kInvokes = 60;
  for (int n = 0; n < kInvokes; ++n) {
    ASSERT_TRUE(split->invoke().isOk());
  }
  // Each share's TPU served its proportional slice (exact: smooth WRR).
  std::uint64_t total = 0;
  i = 0;
  std::map<std::string, std::uint64_t> served;
  for (auto& [id, service] : services_) {
    served[id] = service->servedCount() - before[i++];
    total += served[id];
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kInvokes));
  TpuUnit splitTotal = allocations_.at(4).totalUnits();
  for (const TpuShare& share : allocations_.at(4).shares) {
    double expected = static_cast<double>(kInvokes) *
                      static_cast<double>(share.units.milli()) /
                      static_cast<double>(splitTotal.milli());
    const std::string& tpu = tpuName(share.tpu);
    EXPECT_NEAR(static_cast<double>(served[tpu]), expected, 1.01) << tpu;
  }
}

TEST_F(InprocClusterTest, ConcurrentMixedFleetCompletesEverything) {
  // 6 tenants, 3 models, concurrent client threads; every invoke completes
  // and total served equals total submitted (run-to-completion, no loss).
  struct Tenant {
    std::unique_ptr<InprocClient> client;
    int invokes = 25;
  };
  std::vector<Tenant> tenants;
  const std::vector<std::pair<const char*, double>> mix = {
      {zoo::kMobileNetV1, 0.2}, {zoo::kUNetV2, 0.4},
      {zoo::kMobileNetV1, 0.3}, {zoo::kMobileNetV2, 0.2},
      {zoo::kUNetV2, 0.5},      {zoo::kMobileNetV2, 0.3}};
  std::uint64_t uid = 10;
  for (const auto& [model, units] : mix) {
    Tenant tenant;
    tenant.client = deploy(uid++, model, units);
    ASSERT_NE(tenant.client, nullptr) << model;
    tenants.push_back(std::move(tenant));
  }

  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (Tenant& tenant : tenants) {
    threads.emplace_back([&tenant, &completed] {
      for (int i = 0; i < tenant.invokes; ++i) {
        if (tenant.client->invoke().isOk()) ++completed;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), 150);
  std::uint64_t served = 0;
  for (auto& [id, service] : services_) served += service->servedCount();
  EXPECT_EQ(served, 150u);
}

TEST_F(InprocClusterTest, AdmissionRejectsBeyondThreadedCapacityToo) {
  // The control plane protects the threaded data plane identically.
  ASSERT_NE(deploy(1, zoo::kMobileNetV1, 1.0), nullptr);
  ASSERT_NE(deploy(2, zoo::kMobileNetV1, 1.0), nullptr);
  ASSERT_NE(deploy(3, zoo::kMobileNetV1, 1.0), nullptr);
  EXPECT_EQ(deploy(4, zoo::kMobileNetV1, 0.1), nullptr);
}

}  // namespace
}  // namespace microedge
