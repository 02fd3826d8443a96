// Seeded fault injection: replayable plans, detection-window split between
// data-plane and control-plane edges, hang/transport windows, and the
// applied-fault log that witnesses replay determinism.

#include <gtest/gtest.h>

#include <algorithm>

#include "dataplane/dataplane.hpp"
#include "fault_plans.hpp"
#include "models/zoo.hpp"
#include "sim/fault_injector.hpp"

namespace microedge {
namespace {

RandomFaultPlanConfig smallRandomConfig() {
  RandomFaultPlanConfig config;
  config.tpus = {"tpu-00", "tpu-01", "tpu-02"};
  config.nodes = {"trpi-00", "trpi-01"};
  config.maxNodeDeaths = 1;
  return config;
}

TEST(FaultPlanTest, RandomIsDeterministicPerSeed) {
  RandomFaultPlanConfig config = smallRandomConfig();
  FaultPlan a = randomFaultPlan(42, config);
  FaultPlan b = randomFaultPlan(42, config);
  EXPECT_EQ(faultPlanJson(a), faultPlanJson(b));

  // Different seeds diverge (checked across a few, not guaranteed per pair).
  bool anyDifferent = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    if (faultPlanJson(randomFaultPlan(seed, config)) != faultPlanJson(a)) {
      anyDifferent = true;
    }
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(FaultPlanTest, RandomRespectsBoundsAndOrdering) {
  RandomFaultPlanConfig config = smallRandomConfig();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlan plan = randomFaultPlan(seed, config);
    std::size_t crashes = 0;
    SimDuration prev = SimDuration::zero();
    for (const FaultEvent& e : plan.events) {
      EXPECT_GE(e.at, config.earliest) << "seed " << seed;
      EXPECT_LE(e.at, config.horizon + config.maxWindow) << "seed " << seed;
      EXPECT_GE(e.at, prev) << "seed " << seed << ": events must be sorted";
      prev = e.at;
      switch (e.kind) {
        case FaultKind::kTpuCrash:
          ++crashes;
          EXPECT_TRUE(std::find(config.tpus.begin(), config.tpus.end(),
                                e.target) != config.tpus.end());
          break;
        case FaultKind::kTpuHang:
          EXPECT_GE(e.duration, config.minWindow);
          EXPECT_LE(e.duration, config.maxWindow);
          break;
        case FaultKind::kNodeDeath:
          EXPECT_TRUE(std::find(config.nodes.begin(), config.nodes.end(),
                                e.target) != config.nodes.end());
          break;
        case FaultKind::kTransportLoss:
          EXPECT_GT(e.magnitude, 0.0);
          EXPECT_LE(e.magnitude, config.maxLossProbability);
          break;
        case FaultKind::kLatencySpike:
          EXPECT_GT(e.magnitude, 1.0);
          EXPECT_LE(e.magnitude, config.maxLatencyMultiplier);
          break;
      }
    }
    EXPECT_LE(crashes, config.maxTpuCrashes);
  }
}

TEST(FaultPlanTest, JsonCarriesSeedKindsAndTargets) {
  FaultPlan plan;
  plan.seed = 77;
  plan.events.push_back(
      FaultEvent{seconds(1), FaultKind::kTpuCrash, "tpu-01", {}, 0.0});
  plan.events.push_back(FaultEvent{seconds(2), FaultKind::kTransportLoss, "",
                                   milliseconds(500), 0.25});
  std::string json = faultPlanJson(plan);
  EXPECT_NE(json.find("\"seed\":77"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"tpu-crash\""), std::string::npos);
  EXPECT_NE(json.find("\"target\":\"tpu-01\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"transport-loss\""), std::string::npos);
  EXPECT_NE(json.find("0.25"), std::string::npos);
}

TEST(FaultInjectorTest, CrashSplitsAcrossDetectionWindow) {
  ShardedSim sharded(1, microseconds(500));
  Simulator& sim = sharded.shardSim(0);
  std::vector<std::pair<std::string, SimDuration>> calls;
  FaultInjector::Hooks hooks;
  hooks.tpuFailDataPlane = [&](const std::string& tpu) {
    calls.emplace_back("data:" + tpu, sim.now() - kSimEpoch);
  };
  hooks.tpuFailControlPlane = [&](const std::string& tpu) {
    calls.emplace_back("ctrl:" + tpu, sim.now() - kSimEpoch);
  };
  FaultInjector injector(sharded, std::move(hooks));

  FaultPlan plan;
  plan.detectionDelay = milliseconds(750);
  plan.events.push_back(
      FaultEvent{seconds(2), FaultKind::kTpuCrash, "tpu-03", {}, 0.0});
  injector.arm(plan);
  EXPECT_EQ(injector.scheduledCount(), 2u);
  sim.run();

  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].first, "data:tpu-03");
  EXPECT_EQ(calls[0].second, seconds(2));
  EXPECT_EQ(calls[1].first, "ctrl:tpu-03");
  EXPECT_EQ(calls[1].second, seconds(2) + milliseconds(750));

  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_TRUE(injector.log()[0].begin);
  EXPECT_FALSE(injector.log()[1].begin);
}

TEST(FaultInjectorTest, HangAndTransportWindowsHaveBothEdges) {
  ShardedSim sharded(1, microseconds(500));
  Simulator& sim = sharded.shardSim(0);
  std::vector<std::string> calls;
  FaultInjector::Hooks hooks;
  hooks.setTpuHung = [&](const std::string& tpu, bool hung) {
    calls.push_back((hung ? "hang:" : "unhang:") + tpu);
  };
  hooks.setTransportFault = [&](double loss, double mult, std::uint64_t) {
    calls.push_back("fault:" + std::to_string(loss) + ":" +
                    std::to_string(mult));
  };
  hooks.clearTransportFault = [&] { calls.push_back("clear"); };
  FaultInjector injector(sharded, std::move(hooks));

  FaultPlan plan;
  plan.events.push_back(FaultEvent{milliseconds(100), FaultKind::kTpuHang,
                                   "tpu-00", milliseconds(300), 0.0});
  plan.events.push_back(FaultEvent{milliseconds(600),
                                   FaultKind::kLatencySpike, "",
                                   milliseconds(200), 4.0});
  injector.arm(plan);
  sim.run();

  ASSERT_EQ(calls.size(), 4u);
  EXPECT_EQ(calls[0], "hang:tpu-00");
  EXPECT_EQ(calls[1], "unhang:tpu-00");
  EXPECT_EQ(calls[2], "fault:0.000000:4.000000");
  EXPECT_EQ(calls[3], "clear");
}

TEST(FaultInjectorTest, ReplayProducesIdenticalAppliedLog) {
  FaultPlan plan = randomFaultPlan(1234, smallRandomConfig());
  ASSERT_FALSE(plan.events.empty());

  auto runOnce = [&plan] {
    ShardedSim sharded(1, microseconds(500));
    Simulator& sim = sharded.shardSim(0);
    FaultInjector injector(sharded, FaultInjector::Hooks{});  // hooks optional
    injector.arm(plan);
    sim.run();
    return injector.log();
  };
  std::vector<FaultInjector::Applied> first = runOnce();
  std::vector<FaultInjector::Applied> second = runOnce();
  EXPECT_EQ(first.size(), plan.events.size() * 2);
  EXPECT_TRUE(first == second);
}

TEST(FaultInjectorTest, TransportLossWindowDropsThenHeals) {
  ShardedSim sharded(1, NetworkConfig{}.baseLatency);
  Simulator& sim = sharded.shardSim(0);
  ModelRegistry zoo = zoo::standardZoo();
  TopologySpec spec;
  spec.vRpiCount = 1;
  spec.tRpiCount = 1;
  ClusterTopology topo(sharded, zoo, spec);
  DataPlane dataPlane(sharded, topo, zoo);
  SimTransport& transport = dataPlane.transport();

  FaultPlan plan;
  plan.events.push_back(FaultEvent{milliseconds(100),
                                   FaultKind::kTransportLoss, "",
                                   milliseconds(200), 1.0});  // drop all
  dataPlane.armFaults(plan);

  int delivered = 0;
  const NodeId from = internNode("vrpi-00"), to = internNode("trpi-00");
  // In-window message: dropped. (Send scheduled inside the window.)
  sim.schedule(kSimEpoch + milliseconds(150), [&] {
    transport.send(from, to, 1000, /*msgKey=*/1, [&] { ++delivered; });
  });
  // Post-window message: delivered.
  sim.schedule(kSimEpoch + milliseconds(400), [&] {
    transport.send(from, to, 1000, /*msgKey=*/2, [&] { ++delivered; });
  });
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(transport.droppedMessages(), 1u);
  EXPECT_FALSE(transport.faultActive());
}

// One plan per injector, checked in every build (Release included): a
// second plan would arm on top of the first.
TEST(FaultInjectorDeathTest, SecondArmAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedSim sharded(1, microseconds(500));
  FaultInjector injector(sharded, FaultInjector::Hooks{});
  FaultPlan hang;
  hang.events.push_back(
      {seconds(1), FaultKind::kTpuHang, "tpu-00", milliseconds(500), 0.0});
  injector.arm(hang);
  EXPECT_DEATH(injector.arm(FaultPlan{}), "a fault plan is already armed");
}

}  // namespace
}  // namespace microedge
