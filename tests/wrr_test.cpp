// Weighted round-robin schedulers: proportionality, smoothness (the WFQ
// spread property) and the burst variant's contrasting behaviour. Includes
// parameterized property sweeps over weight mixes.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "dataplane/lb_service.hpp"
#include "dataplane/wrr.hpp"
#include "util/strings.hpp"

namespace microedge {
namespace {

std::vector<LbWeight> makeTargets(const std::vector<std::uint32_t>& weights) {
  std::vector<LbWeight> out;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out.push_back(LbWeight{internTpu(strCat("t", i)), weights[i]});
  }
  return out;
}

TEST(SmoothWrrTest, RejectsBadTargets) {
  SmoothWrr wrr;
  EXPECT_FALSE(wrr.setTargets({}).isOk());
  EXPECT_FALSE(wrr.setTargets(makeTargets({0})).isOk());
  EXPECT_FALSE(wrr.setTargets(makeTargets({1, 0})).isOk());
}

TEST(SmoothWrrTest, SingleTargetAlwaysPicked) {
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets(makeTargets({350})).isOk());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(wrr.pickIndex(), 0u);
}

TEST(SmoothWrrTest, TwoToOneInterleavesSmoothly) {
  // The paper's §4.3 example: 0.4 vs 0.2 units -> 66% / 33% split. Smooth
  // WRR must not emit the heavy target more than twice in a row.
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets(makeTargets({400, 200})).isOk());
  int maxRun = 0, run = 0;
  std::size_t prev = 2;
  std::uint64_t counts[2] = {0, 0};
  for (int i = 0; i < 300; ++i) {
    std::size_t pick = wrr.pickIndex();
    ASSERT_LT(pick, 2u);
    ++counts[pick];
    run = (pick == prev) ? run + 1 : 1;
    maxRun = std::max(maxRun, run);
    prev = pick;
  }
  EXPECT_EQ(counts[0], 200u);
  EXPECT_EQ(counts[1], 100u);
  EXPECT_LE(maxRun, 2);
}

TEST(BurstWrrTest, SameProportionsWorstSpread) {
  BurstWrr wrr;
  ASSERT_TRUE(wrr.setTargets(makeTargets({400, 200})).isOk());
  // gcd reduction -> bursts of 2 and 1.
  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(wrr.pickIndex());
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 0, 1, 0, 0, 1}));
}

// Property sweep: exact proportionality over one full period, and the
// smoothness bound (over any window of n picks, each target is picked
// within +-1 of its proportional share).
class WrrPropertyTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(WrrPropertyTest, ExactProportionsOverOnePeriod) {
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets(makeTargets(GetParam())).isOk());
  std::uint64_t period = wrr.totalWeight();
  std::map<std::size_t, std::uint64_t> counts;
  for (std::uint64_t i = 0; i < period; ++i) counts[wrr.pickIndex()]++;
  for (std::size_t i = 0; i < wrr.targets().size(); ++i) {
    EXPECT_EQ(counts[i], wrr.targets()[i].weight) << "target " << i;
  }
}

TEST_P(WrrPropertyTest, SmoothnessBoundOverSlidingWindows) {
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets(makeTargets(GetParam())).isOk());
  std::uint64_t period = wrr.totalWeight();
  std::vector<std::size_t> picks;
  for (std::uint64_t i = 0; i < period * 3; ++i) {
    picks.push_back(wrr.pickIndex());
  }

  // For each target and each window of length w, the count must stay within
  // +-1 of w * weight / total (smooth WRR's defining spread property).
  for (std::size_t target = 0; target < wrr.targets().size(); ++target) {
    double share = static_cast<double>(wrr.targets()[target].weight) /
                   static_cast<double>(period);
    for (std::size_t w : {period / 2 + 1, period}) {
      if (w == 0 || w > picks.size()) continue;
      std::size_t count = 0;
      for (std::size_t i = 0; i < w; ++i) {
        if (picks[i] == target) ++count;
      }
      for (std::size_t start = 0;; ++start) {
        double expected = share * static_cast<double>(w);
        // Prefix deviation of smooth WRR is < 1; a sliding window is the
        // difference of two prefixes, so its deviation stays < 2.
        EXPECT_LE(std::abs(static_cast<double>(count) - expected), 2.0)
            << "target " << target << " window [" << start << ", "
            << start + w << ")";
        if (start + w >= picks.size()) break;
        count -= picks[start] == target ? 1 : 0;
        count += picks[start + w] == target ? 1 : 0;
      }
    }
  }
}

TEST_P(WrrPropertyTest, BurstMatchesProportionsOverOnePeriod) {
  BurstWrr wrr;
  auto targets = makeTargets(GetParam());
  ASSERT_TRUE(wrr.setTargets(targets).isOk());
  std::uint64_t total = 0;
  std::uint32_t g = 0;
  for (auto& t : targets) g = std::gcd(g, t.weight);
  for (auto& t : targets) total += t.weight / g;
  std::map<std::size_t, std::uint64_t> counts;
  for (std::uint64_t i = 0; i < total; ++i) counts[wrr.pickIndex()]++;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(counts[i], targets[i].weight / g) << "target " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightMixes, WrrPropertyTest,
    ::testing::Values(std::vector<std::uint32_t>{1, 1},
                      std::vector<std::uint32_t>{400, 200},
                      std::vector<std::uint32_t>{350, 350, 300},
                      std::vector<std::uint32_t>{5, 1},
                      std::vector<std::uint32_t>{7, 3, 2},
                      std::vector<std::uint32_t>{650, 350},
                      std::vector<std::uint32_t>{1000, 200, 150, 100}));

TEST(SmoothWrrBatchTest, DegeneratePeriodFallsBackAndStillMatches) {
  // Coprime weights with a long reduced period (4099 + 2): the picks must
  // be the smooth-WRR argmax, checked against a step-by-step reference.
  std::vector<LbWeight> targets = makeTargets({4099, 2});
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets(targets).isOk());

  // Reference: add each weight to its credit, pick the first maximum, take
  // the total weight off the winner.
  std::vector<std::int64_t> credit(targets.size(), 0);
  const std::int64_t total = 4099 + 2;
  for (std::size_t j = 0; j < 5000; ++j) {
    std::size_t best = 0;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      credit[t] += targets[t].weight;
      if (credit[t] > credit[best]) best = t;
    }
    credit[best] -= total;
    ASSERT_EQ(wrr.pickIndex(), best) << j;
  }
}

TEST(SmoothWrrBatchTest, SetTargetsResetsTheSchedule) {
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets(makeTargets({2, 1})).isOk());
  std::vector<std::size_t> first;
  for (int j = 0; j < 5; ++j) first.push_back(wrr.pickIndex());
  ASSERT_TRUE(wrr.setTargets(makeTargets({2, 1})).isOk());
  std::vector<std::size_t> second;
  for (int j = 0; j < 5; ++j) second.push_back(wrr.pickIndex());
  EXPECT_EQ(first, second);  // reconfigure restarts from the schedule start
}

// LbService keeps its own per-target array but runs the same pick step as
// the stand-alone schedulers: with every target healthy it must route the
// exact sequence they pick.
template <typename Wrr>
void expectLbServiceMatches(LbSpread spread,
                            const std::vector<std::uint32_t>& weights) {
  const std::vector<LbWeight> targets = makeTargets(weights);
  Wrr reference;
  ASSERT_TRUE(reference.setTargets(targets).isOk());
  LbService lb(spread);
  ASSERT_TRUE(lb.configure(LbConfig{targets}).isOk());
  ASSERT_EQ(lb.targetCount(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(lb.target(i), targets[i].tpu);
  }
  for (int pick = 0; pick < 1000; ++pick) {
    ASSERT_EQ(lb.routeHealthyIndex(SimTime{}), reference.pickIndex())
        << "pick " << pick << " of " << targets.size() << " targets";
  }
  EXPECT_EQ(lb.routedCount(), 1000u);
}

TEST(LbServiceWrrTest, SmoothSpreadPicksLikeSmoothWrr) {
  for (const auto& weights : {std::vector<std::uint32_t>{350},
                              std::vector<std::uint32_t>{400, 200},
                              std::vector<std::uint32_t>{400, 200, 100}}) {
    expectLbServiceMatches<SmoothWrr>(LbSpread::kSmooth, weights);
  }
}

TEST(LbServiceWrrTest, BurstSpreadPicksLikeBurstWrr) {
  for (const auto& weights : {std::vector<std::uint32_t>{350},
                              std::vector<std::uint32_t>{400, 200},
                              std::vector<std::uint32_t>{400, 200, 100}}) {
    expectLbServiceMatches<BurstWrr>(LbSpread::kBurst, weights);
  }
}

// Routed counts, masking and half-open probes across reconfigures from
// three targets to one to two: every configure resets the counters and the
// breakers, feedback for an index the new set lacks is ignored, and the
// breaker runs the same way on the reshaped set.
TEST(LbServiceWrrTest, CountsAndBreakersAcrossReconfigures) {
  // The breaker's constants: 3 failures trip, 500 ms mask, backoff cap 4.
  LbService lb(LbSpread::kSmooth);
  const TpuId a = internTpu("t0");
  const TpuId b = internTpu("t1");
  const TpuId c = internTpu("t2");
  const SimTime t0{};

  ASSERT_TRUE(lb.configure(LbConfig{{LbWeight{a, 400}, LbWeight{b, 200},
                                     LbWeight{c, 100}}})
                  .isOk());
  for (int i = 0; i < 700; ++i) lb.routeHealthyIndex(t0);
  EXPECT_EQ(lb.routedCountTo(a), 400u);
  EXPECT_EQ(lb.routedCountTo(b), 200u);
  EXPECT_EQ(lb.routedCountTo(c), 100u);
  EXPECT_EQ(lb.routedCount(), 700u);
  // Masking target 1 sends its share to the others while the window runs.
  for (int i = 0; i < 3; ++i) lb.recordFailure(1, t0);
  EXPECT_EQ(lb.targetHealth(1), TargetHealth::kMasked);
  EXPECT_EQ(lb.maskedCount(), 1u);
  EXPECT_EQ(lb.maskEvents(), 1u);
  for (int i = 0; i < 70; ++i) {
    EXPECT_NE(lb.routeHealthyIndex(t0 + milliseconds(1)), 1u);
  }
  EXPECT_EQ(lb.routedCountTo(b), 200u);
  EXPECT_EQ(lb.routedCount(), 770u);

  // Three targets -> one.
  ASSERT_TRUE(lb.configure(LbConfig{{LbWeight{c, 350}}}).isOk());
  EXPECT_EQ(lb.routedCount(), 0u);
  EXPECT_EQ(lb.routedCountTo(a), 0u);
  EXPECT_EQ(lb.maskedCount(), 0u);
  EXPECT_EQ(lb.maskEvents(), 0u);
  lb.recordFailure(2, t0);  // stale index from the old set: ignored
  EXPECT_EQ(lb.targetHealth(2), TargetHealth::kHealthy);
  EXPECT_EQ(lb.routeHealthyIndex(t0), 0u);
  EXPECT_EQ(lb.routedCountTo(c), 1u);
  // Trip the only target: nothing routes until the window ends, then the
  // next frame probes it half-open and a success restores it.
  for (int i = 0; i < 3; ++i) lb.recordFailure(0, t0);
  EXPECT_EQ(lb.routeHealthyIndex(t0 + milliseconds(499)), LbService::kNoTarget);
  EXPECT_EQ(lb.routeHealthyIndex(t0 + milliseconds(500)), 0u);
  EXPECT_EQ(lb.targetHealth(0), TargetHealth::kProbing);
  lb.recordSuccess(0);
  EXPECT_EQ(lb.targetHealth(0), TargetHealth::kHealthy);
  EXPECT_EQ(lb.routedCountTo(c), 2u);

  // One target -> two.
  ASSERT_TRUE(
      lb.configure(LbConfig{{LbWeight{b, 400}, LbWeight{a, 200}}}).isOk());
  EXPECT_EQ(lb.routedCount(), 0u);
  EXPECT_EQ(lb.maskEvents(), 0u);
  for (int i = 0; i < 300; ++i) lb.routeHealthyIndex(t0);
  EXPECT_EQ(lb.routedCountTo(b), 200u);
  EXPECT_EQ(lb.routedCountTo(a), 100u);
  EXPECT_EQ(lb.routedCountTo(c), 0u);
  // A failed probe re-masks with twice the window.
  for (int i = 0; i < 3; ++i) lb.recordFailure(1, t0);
  SimTime now = t0 + milliseconds(500);
  std::size_t index = LbService::kNoTarget;
  while (index != 1u) index = lb.routeHealthyIndex(now);
  EXPECT_EQ(lb.targetHealth(1), TargetHealth::kProbing);
  lb.recordFailure(1, now);
  EXPECT_EQ(lb.targetHealth(1), TargetHealth::kMasked);
  EXPECT_EQ(lb.maskEvents(), 2u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(lb.routeHealthyIndex(now + milliseconds(999)), 0u);
  }
  index = LbService::kNoTarget;
  while (index != 1u) index = lb.routeHealthyIndex(now + milliseconds(1000));
  EXPECT_EQ(lb.targetHealth(1), TargetHealth::kProbing);
}

}  // namespace
}  // namespace microedge
