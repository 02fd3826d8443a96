// The sharded-simulation acceptance proof: the SAME city-slice workload run
// at shard counts {1, 2, 8} produces byte-identical results — per-stream
// FrameBreakdown digests (every timing component of every frame), outcome
// counters, and the serialized metrics dump — on a healthy cluster AND
// under a chaos plan (TPU crash with delayed detection + recovery/eviction,
// hang window, transport loss, latency spike).
//
// What keeps the witness exact (see testbed/sharded_cluster.hpp):
//  * camera phases are staggered so no two events share a timestamp;
//  * the healthy cross-rack pipeline reproduces solo timestamps exactly;
//  * chaos plans run with rack-local streams only, because failure NACKs
//    legitimately resolve later cross-shard than solo;
//  * transport LOSS is on the differential path: the harness keys every
//    client with its stream uid, so each message's drop decision is a pure
//    function of (plan seed, uid, frame seq, attempt, hop) — no per-lane
//    draw order — and the loss pattern is shard-count invariant.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/fault_injector.hpp"
#include "testbed/sharded_cluster.hpp"

namespace microedge {
namespace {

ShardedClusterConfig baseConfig(unsigned shards) {
  ShardedClusterConfig config;
  config.shards = shards;
  config.racks = 8;
  config.tRpisPerRack = 1;
  config.vRpisPerRack = 2;
  config.tpusPerTRpi = 1;
  config.fps = 15.0;
  config.frameDeadline = milliseconds(60);
  return config;
}

TEST(ShardedDifferential, HealthyClusterWithCrossRackStreams) {
  std::string reference;
  std::uint64_t referenceDigest = 0;
  for (unsigned shards : {1u, 2u, 8u}) {
    ShardedClusterConfig config = baseConfig(shards);
    config.crossRackStride = 3;  // every 3rd camera targets the next rack
    ShardedCluster cluster(config);
    ASSERT_TRUE(cluster.setupStatus().isOk())
        << cluster.setupStatus().toString();
    cluster.run(seconds(2));

    // The workload is live and the cross-shard path is actually exercised.
    EXPECT_GT(cluster.totalCompleted(), 400u) << "shards=" << shards;
    bool crossSawTraffic = false;
    for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
      ShardedCluster::StreamStats stats = cluster.streamStats(i);
      if (stats.crossRack && stats.completed > 0) crossSawTraffic = true;
    }
    EXPECT_TRUE(crossSawTraffic) << "shards=" << shards;

    const std::string metrics = cluster.metricsJson();
    if (shards == 1) {
      reference = metrics;
      referenceDigest = cluster.digest();
      continue;
    }
    // Byte-for-byte: every per-frame timing digest, counter and total.
    EXPECT_EQ(metrics, reference) << "shards=" << shards;
    EXPECT_EQ(cluster.digest(), referenceDigest) << "shards=" << shards;
  }
}

TEST(ShardedDifferential, ChaosPlanCrashHangLossAndLatencySpike) {
  // Build the plan once against a probe instance's topology (TPU names are
  // identical at every shard count — same topology spec).
  std::vector<std::string> tpuIds;
  {
    ShardedCluster probe(baseConfig(1));
    ASSERT_TRUE(probe.setupStatus().isOk());
    for (const auto& tpu : probe.topology().tpus()) {
      tpuIds.push_back(tpu->id());
    }
  }
  ASSERT_EQ(tpuIds.size(), 8u);

  FaultPlan plan;
  plan.seed = 42;
  plan.detectionDelay = milliseconds(300);
  // Rack 0 has exactly one TPU: the crash leaves its two streams without a
  // target (dead-target drops), recovery finds an empty rack pool and
  // EVICTS both pods — the full control-plane path under the differential.
  plan.events.push_back(
      {milliseconds(500), FaultKind::kTpuCrash, tpuIds[0], {}, 0.0});
  plan.events.push_back({milliseconds(800), FaultKind::kTpuHang, tpuIds[3],
                         milliseconds(400), 0.0});
  // Keyed loss (clients carry streamToken = uid): which frames drop depends
  // only on (seed, uid, frame seq), so the exclusion that once kept LOSS off
  // the differential is lifted.
  plan.events.push_back({milliseconds(1000), FaultKind::kTransportLoss,
                         std::string(), milliseconds(600), 0.15});
  plan.events.push_back({milliseconds(1200), FaultKind::kLatencySpike,
                         std::string(), milliseconds(300), 3.0});

  std::string reference;
  for (unsigned shards : {1u, 2u, 8u}) {
    ShardedClusterConfig config = baseConfig(shards);
    config.crossRackStride = 0;  // chaos differential: rack-local only
    ShardedCluster cluster(config);
    ASSERT_TRUE(cluster.setupStatus().isOk());
    cluster.armFaults(plan);
    cluster.run(milliseconds(2500));

    // The faults visibly happened: frames died at the dead target, the loss
    // window timed frames out on the wire, and the cluster still made
    // forward progress everywhere else.
    EXPECT_GT(cluster.outcomeTotal(FrameOutcome::kDroppedDeadTarget), 0u)
        << "shards=" << shards;
    EXPECT_GT(cluster.outcomeTotal(FrameOutcome::kTimedOut), 0u)
        << "shards=" << shards;
    EXPECT_GT(cluster.totalCompleted(), 300u) << "shards=" << shards;

    const std::string metrics = cluster.metricsJson();
    if (shards == 1) {
      reference = metrics;
      continue;
    }
    EXPECT_EQ(metrics, reference) << "shards=" << shards;
  }
}

TEST(ShardedDifferential, RepeatedRunsAreByteIdentical) {
  auto runOnce = [] {
    ShardedClusterConfig config = baseConfig(2);
    config.crossRackStride = 4;
    ShardedCluster cluster(config);
    EXPECT_TRUE(cluster.setupStatus().isOk());
    cluster.run(seconds(1));
    return cluster.metricsJson();
  };
  const std::string first = runOnce();
  const std::string second = runOnce();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// A cluster with no shard or no rack is a configuration error, reported by
// setupStatus() rather than silently run as one shard or one rack.
TEST(ShardedClusterSetupTest, ZeroShardsOrRacksIsInvalidArgument) {
  ShardedClusterConfig noShards = baseConfig(1);
  noShards.shards = 0;
  ShardedClusterConfig noRacks = baseConfig(1);
  noRacks.racks = 0;
  ShardedClusterConfig negativeRacks = baseConfig(2);
  negativeRacks.racks = -3;
  for (const ShardedClusterConfig& config :
       {noShards, noRacks, negativeRacks}) {
    ShardedCluster cluster(config);
    EXPECT_EQ(cluster.setupStatus().code(), StatusCode::kInvalidArgument)
        << "shards=" << config.shards << " racks=" << config.racks << ": "
        << cluster.setupStatus().toString();
    EXPECT_EQ(cluster.streamCount(), 0u);
  }
}

// One fault plan per instance, checked in every build: a second plan must
// not arm on top of the first.
TEST(ShardedClusterDeathTest, SecondFaultPlanAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedCluster cluster(baseConfig(1));
  ASSERT_TRUE(cluster.setupStatus().isOk());
  FaultPlan hang;
  hang.events.push_back({milliseconds(500), FaultKind::kTpuHang,
                         cluster.topology().tpus().front()->id(),
                         milliseconds(300), 0.0});
  cluster.armFaults(hang);
  EXPECT_DEATH(cluster.armFaults(FaultPlan{}), "a fault plan is already armed");
}

}  // namespace
}  // namespace microedge
