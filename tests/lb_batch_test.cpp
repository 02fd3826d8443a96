// LbService batched routing: routeBatch / routeHealthyBatch are loops over
// k single calls — the differential tests here hold them to byte-identical
// pick sequences and counter states, including with health events (trips,
// probes) landing between batches.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/lb_service.hpp"
#include "util/intern.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace microedge {
namespace {

LbConfig makeConfig(const std::vector<std::uint32_t>& weights) {
  LbConfig config;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    LbWeight w;
    w.tpuId = strCat("tpu", i);
    w.weight = weights[i];
    config.weights.push_back(w);
  }
  return config;
}

void expectSameCounters(const LbService& a, const LbService& b) {
  EXPECT_EQ(a.routedCount(), b.routedCount());
  for (const LbWeight& w : a.config().weights) {
    EXPECT_EQ(a.routedCountTo(w.tpuId), b.routedCountTo(w.tpuId)) << w.tpuId;
  }
}

class LbBatchTest : public ::testing::TestWithParam<LbSpread> {};

TEST_P(LbBatchTest, BatchMatchesSingleRoutes) {
  InternScope scope;
  LbService single(GetParam());
  LbService batched(GetParam());
  LbConfig config = makeConfig({400, 200, 100});
  ASSERT_TRUE(single.configure(config).isOk());
  ASSERT_TRUE(batched.configure(config).isOk());

  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> want;
  for (std::size_t k : {std::size_t{1}, std::size_t{0}, std::size_t{4},
                        std::size_t{16}, std::size_t{7}}) {
    batched.routeBatch(k, got);
    for (std::size_t j = 0; j < k; ++j) {
      want.push_back(static_cast<std::uint32_t>(single.routeIndex()));
    }
  }
  EXPECT_EQ(got, want);
  expectSameCounters(single, batched);
}

TEST_P(LbBatchTest, HealthyBatchMatchesSingleRoutesAllHealthy) {
  InternScope scope;
  LbService single(GetParam());
  LbService batched(GetParam());
  LbConfig config = makeConfig({350, 350, 300});
  ASSERT_TRUE(single.configure(config).isOk());
  ASSERT_TRUE(batched.configure(config).isOk());

  SimTime now{};
  std::vector<std::uint32_t> got;
  std::size_t routed = batched.routeHealthyBatch(now, 30, got);
  EXPECT_EQ(routed, 30u);
  for (std::size_t j = 0; j < 30; ++j) {
    EXPECT_EQ(got[j], static_cast<std::uint32_t>(single.routeHealthyIndex(now)))
        << j;
  }
  expectSameCounters(single, batched);
}

INSTANTIATE_TEST_SUITE_P(Spreads, LbBatchTest,
                         ::testing::Values(LbSpread::kSmooth,
                                           LbSpread::kBurst));

TEST(LbBatchHealthTest, BatchMatchesSinglesWithHealthEventsBetweenBatches) {
  // Drive both services through identical (route, feedback) histories where
  // feedback lands between batches: trip target 1, route around it, let the
  // mask window lapse, probe, restore. Every batch must equal the k singles.
  InternScope scope;
  LbService single;
  LbService batched;
  LbConfig config = makeConfig({200, 200, 200});
  ASSERT_TRUE(single.configure(config).isOk());
  ASSERT_TRUE(batched.configure(config).isOk());

  auto routeBoth = [&](SimTime now, std::size_t k) {
    std::vector<std::uint32_t> got;
    std::size_t routed = batched.routeHealthyBatch(now, k, got);
    std::vector<std::uint32_t> want;
    for (std::size_t j = 0; j < k; ++j) {
      std::size_t index = single.routeHealthyIndex(now);
      if (index == LbService::kNoTarget) break;
      want.push_back(static_cast<std::uint32_t>(index));
    }
    EXPECT_EQ(routed, want.size());
    got.resize(routed);
    EXPECT_EQ(got, want);
    return got;
  };
  auto failBoth = [&](std::size_t index, SimTime now) {
    single.recordFailure(index, now);
    batched.recordFailure(index, now);
  };
  auto succeedBoth = [&](std::size_t index) {
    single.recordSuccess(index);
    batched.recordSuccess(index);
  };

  SimTime t0{};
  routeBoth(t0, 6);
  // Trip target 1 (default threshold: 3 consecutive failures).
  failBoth(1, t0);
  failBoth(1, t0);
  failBoth(1, t0);
  ASSERT_EQ(single.targetHealth(1), TargetHealth::kMasked);
  ASSERT_EQ(batched.targetHealth(1), TargetHealth::kMasked);

  // Batches inside the mask window route around target 1.
  for (std::uint32_t index : routeBoth(t0 + milliseconds(10), 9)) {
    EXPECT_NE(index, 1u);
  }

  // Window lapsed: the next draw of target 1 is the half-open probe.
  SimTime later = t0 + milliseconds(600);
  routeBoth(later, 9);
  EXPECT_EQ(single.targetHealth(1), TargetHealth::kProbing);
  EXPECT_EQ(batched.targetHealth(1), TargetHealth::kProbing);
  succeedBoth(1);
  EXPECT_EQ(batched.targetHealth(1), TargetHealth::kHealthy);

  routeBoth(later + milliseconds(1), 12);
  expectSameCounters(single, batched);
}

TEST(LbBatchHealthTest, AllMaskedBatchRoutesNothing) {
  InternScope scope;
  LbService lb;
  ASSERT_TRUE(lb.configure(makeConfig({100, 100})).isOk());
  SimTime t0{};
  for (std::size_t target : {std::size_t{0}, std::size_t{1}}) {
    for (int j = 0; j < 3; ++j) lb.recordFailure(target, t0);
  }
  ASSERT_EQ(lb.maskedCount(), 2u);
  std::vector<std::uint32_t> got;
  EXPECT_EQ(lb.routeHealthyBatch(t0 + milliseconds(1), 5, got), 0u);
  EXPECT_TRUE(got.empty());
}

}  // namespace
}  // namespace microedge
