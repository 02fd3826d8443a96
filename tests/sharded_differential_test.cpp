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

#include <limits>
#include <map>
#include <string>
#include <utility>
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

// ---- Camera order over more racks than phase blocks ------------------------

// A 40-rack slice of the 100k city preset: ten 1 fps streams on every RPi,
// every 5th stream of the host-major order cross-rack, block placement.
// With more racks than phase blocks the camera order is not the host-major
// one, so this is where the dealt order meets the differential.
ShardedClusterConfig dealtSliceConfig(unsigned shards,
                                      ShardedSim::WindowBound bound) {
  ShardedClusterConfig config;
  config.shards = shards;
  config.racks = 40;
  config.tRpisPerRack = 2;
  config.vRpisPerRack = 8;
  config.tpusPerTRpi = 1;
  config.streamsPerVRpi = 10;
  config.streamsPerTRpi = 10;
  config.fps = 1.0;
  config.tpuUnits = 0.01;
  config.crossRackStride = 5;
  config.windowBound = bound;
  config.rackMapping = RackMapping::kBlock;
  return config;
}

// Every shard count and window bound computes one dump and one digest, every
// host keeps the two cross-rack streams of its host-major positions, and
// each adaptive window holds work for every shard: the share of windowed
// events its busiest shard fires stays near 1/shards. (Numbered host by
// host, one 40-rack sweep per 100 ms, the busiest shard fires 0.748 of them
// at 2 shards and 0.578 at 4.)
TEST(ShardedDifferential, DealtCameraOrderOnFortyRacks) {
  std::string reference;
  std::uint64_t referenceDigest = 0;
  for (auto bound :
       {ShardedSim::WindowBound::kFixed, ShardedSim::WindowBound::kAdaptive}) {
    for (unsigned shards : {1u, 2u, 4u, 8u}) {
      ShardedCluster cluster(dealtSliceConfig(shards, bound));
      ASSERT_TRUE(cluster.setupStatus().isOk())
          << cluster.setupStatus().toString();
      ASSERT_EQ(cluster.streamCount(), 4000u);
      const std::size_t events =
          cluster.shardedSim().runFor(milliseconds(2500));
      EXPECT_GT(cluster.totalCompleted(), 8000u) << "shards=" << shards;

      const std::string metrics = cluster.metricsJson();
      if (reference.empty()) {
        reference = metrics;
        referenceDigest = cluster.digest();
        std::map<std::string, std::pair<int, int>> perHost;  // streams, cross
        for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
          const ShardedCluster::StreamStats stats = cluster.streamStats(i);
          ++perHost[stats.camera].first;
          perHost[stats.camera].second += stats.crossRack ? 1 : 0;
        }
        EXPECT_EQ(perHost.size(), 400u);
        for (const auto& [host, counts] : perHost) {
          EXPECT_EQ(counts.first, 10) << host;
          EXPECT_EQ(counts.second, 2) << host;
        }
        continue;
      }
      const char* mode =
          bound == ShardedSim::WindowBound::kAdaptive ? "adaptive" : "fixed";
      EXPECT_EQ(metrics, reference) << mode << " shards=" << shards;
      EXPECT_EQ(cluster.digest(), referenceDigest)
          << mode << " shards=" << shards;

      if (bound != ShardedSim::WindowBound::kAdaptive ||
          (shards != 2 && shards != 4)) {
        continue;
      }
      const double busiestShare =
          static_cast<double>(cluster.shardedSim().busiestShardEvents()) /
          static_cast<double>(events);
      EXPECT_LE(busiestShare, shards == 2 ? 0.60 : 0.36)
          << "shards=" << shards;
    }
  }
}

// The 1k preset's shape (100 racks, one 15 fps stream per vRPi, every 5th
// stream cross-rack, block placement): the dealt order keeps its cross-rack
// streams on the hosts the host-major order gave them, none of which
// crosses a block boundary at 2 or 4 shards, so the adaptive bound still
// covers the run in one window after the first and no message crosses.
TEST(ShardedDifferential, DealtCameraOrderKeepsOneKPresetShardLocal) {
  std::uint64_t soloDigest = 0;
  for (unsigned shards : {1u, 2u, 4u}) {
    ShardedClusterConfig config;
    config.shards = shards;
    config.racks = 100;
    config.tRpisPerRack = 2;
    config.vRpisPerRack = 8;
    config.tpusPerTRpi = 1;
    config.fps = 15.0;
    config.frameDeadline = milliseconds(60);
    config.crossRackStride = 5;
    config.windowBound = ShardedSim::WindowBound::kAdaptive;
    config.rackMapping = RackMapping::kBlock;
    ShardedCluster cluster(config);
    ASSERT_TRUE(cluster.setupStatus().isOk())
        << cluster.setupStatus().toString();
    cluster.run(seconds(1));
    EXPECT_GT(cluster.totalCompleted(), 10000u) << "shards=" << shards;
    if (shards == 1) {
      soloDigest = cluster.digest();
      continue;
    }
    EXPECT_EQ(cluster.digest(), soloDigest) << "shards=" << shards;
    EXPECT_EQ(cluster.shardedSim().windowCount(), 2u) << "shards=" << shards;
    EXPECT_EQ(cluster.shardedSim().crossShardMessages(), 0u)
        << "shards=" << shards;
  }
}

// ---- Fault plans through the one interpreter (FaultInjector) ---------------

ShardedClusterConfig faultConfig(unsigned shards) {
  ShardedClusterConfig config;
  config.shards = shards;
  config.racks = 2;
  config.tRpisPerRack = 2;
  config.vRpisPerRack = 2;
  config.fps = 15.0;
  config.frameDeadline = milliseconds(60);
  return config;
}

FaultPlan nodeDeathPlan(const std::string& node) {
  FaultPlan plan;
  plan.detectionDelay = milliseconds(300);
  plan.events.push_back(
      {milliseconds(500), FaultKind::kNodeDeath, node, {}, 0.0});
  return plan;
}

// A dead tRPi takes the camera streams it hosts with it: from detection on
// they submit nothing, their units go back to their target rack (another
// rack here: the first tRPi stream is cross-rack), and the run stays
// byte-identical at every shard count.
TEST(ShardedClusterFaults, NodeDeathStopsHostedStreams) {
  std::string reference;
  for (unsigned shards : {1u, 2u, 4u}) {
    ShardedClusterConfig config = faultConfig(shards);
    config.streamsPerTRpi = 1;
    config.crossRackStride = 4;
    ShardedCluster cluster(config);
    ASSERT_TRUE(cluster.setupStatus().isOk())
        << cluster.setupStatus().toString();
    const std::string dead = cluster.topology().tRpis().front()->name();
    const FaultPlan plan = nodeDeathPlan(dead);
    cluster.armFaults(plan);
    cluster.run(plan.events[0].at + plan.detectionDelay +
                cluster.shardedSim().lookahead());

    std::vector<std::size_t> hosted;
    std::vector<std::uint64_t> submitted(cluster.streamCount());
    for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
      const ShardedCluster::StreamStats stats = cluster.streamStats(i);
      submitted[i] = stats.submitted;
      if (stats.camera == dead) hosted.push_back(i);
    }
    ASSERT_EQ(hosted.size(), 1u);
    EXPECT_TRUE(cluster.streamStats(hosted[0]).crossRack);
    EXPECT_GT(submitted[hosted[0]], 0u) << "shards=" << shards;

    cluster.run(seconds(1));
    for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
      const std::uint64_t now = cluster.streamStats(i).submitted;
      if (i == hosted[0]) {
        EXPECT_EQ(now, submitted[i])
            << "shards=" << shards << ": stream on dead " << dead
            << " kept submitting";
      } else {
        EXPECT_GT(now, submitted[i]) << "shards=" << shards << " stream " << i;
      }
    }

    const std::string metrics = cluster.metricsJson();
    if (reference.empty()) {
      reference = metrics;
    } else {
      EXPECT_EQ(metrics, reference) << "shards=" << shards;
    }
  }
}

// A node death is one event per edge; with no tRPi-hosted streams it must
// act exactly like crashing each of the node's TPUs at the same instant.
TEST(ShardedClusterFaults, NodeDeathMatchesCrashingEachTpu) {
  std::string reference;
  for (unsigned shards : {1u, 2u}) {
    for (bool asNode : {true, false}) {
      ShardedClusterConfig config = faultConfig(shards);
      config.tpusPerTRpi = 2;
      ShardedCluster cluster(config);
      ASSERT_TRUE(cluster.setupStatus().isOk());
      const RpiNode* node = cluster.topology().tRpis().front();
      FaultPlan plan = nodeDeathPlan(node->name());
      if (!asNode) {
        plan.events.clear();
        for (const TpuDevice* tpu : node->tpus()) {
          plan.events.push_back(
              {milliseconds(500), FaultKind::kTpuCrash, tpu->id(), {}, 0.0});
        }
        ASSERT_EQ(plan.events.size(), 2u);
      }
      cluster.armFaults(plan);
      cluster.run(seconds(2));
      std::uint64_t hit =
          cluster.outcomeTotal(FrameOutcome::kDroppedDeadTarget);
      for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
        hit += cluster.streamStats(i).failovers;
      }
      EXPECT_GT(hit, 0u) << "shards=" << shards
                         << ": the death must hit live traffic";

      const std::string metrics = cluster.metricsJson();
      if (reference.empty()) {
        reference = metrics;
      } else {
        EXPECT_EQ(metrics, reference)
            << "shards=" << shards << (asNode ? " node death" : " crashes");
      }
    }
  }
}

// The applied-fault log lists every plan edge once, in (time, arm order),
// whichever shard worker ran it — so it is the same at every shard count.
TEST(ShardedClusterFaults, AppliedFaultLogIsShardCountInvariant) {
  std::vector<FaultInjector::Applied> reference;
  for (unsigned shards : {1u, 2u, 4u}) {
    ShardedClusterConfig config = faultConfig(shards);
    config.racks = 4;
    ShardedCluster cluster(config);
    ASSERT_TRUE(cluster.setupStatus().isOk());
    const auto& tpus = cluster.topology().tpus();
    FaultPlan plan;
    plan.seed = 5;
    plan.detectionDelay = milliseconds(300);
    plan.events.push_back(
        {milliseconds(400), FaultKind::kTpuCrash, tpus[1]->id(), {}, 0.0});
    plan.events.push_back({milliseconds(500), FaultKind::kTpuHang,
                           tpus[2]->id(), milliseconds(200), 0.0});
    plan.events.push_back({milliseconds(600), FaultKind::kNodeDeath,
                           cluster.topology().tRpis()[3]->name(), {}, 0.0});
    plan.events.push_back({milliseconds(700), FaultKind::kTransportLoss,
                           std::string(), milliseconds(300), 0.2});
    FaultInjector& injector = cluster.armFaults(plan);
    cluster.run(seconds(2));

    const std::vector<FaultInjector::Applied> log = injector.log();
    ASSERT_EQ(log.size(), 2 * plan.events.size()) << "shards=" << shards;
    EXPECT_EQ(injector.scheduledCount(), log.size());
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_LE(log[i - 1].at, log[i].at) << "shards=" << shards;
    }
    if (shards == 1) {
      reference = log;
    } else {
      EXPECT_TRUE(log == reference) << "shards=" << shards;
    }
  }
}

// A plan may name hardware the cluster lacks: a TPU on a rack past the
// cluster's, a flat name in this racked (2-rack) cluster, a TPU the rack
// lacks, and a tRPi in either form. Each logs both edges and changes nothing
// else: the run is the run without the plan.
TEST(ShardedClusterFaults, TargetOutsideTheClusterChangesNothing) {
  const std::pair<FaultKind, std::string> targets[] = {
      {FaultKind::kTpuCrash, "r9-tpu-00"},
      {FaultKind::kTpuCrash, "tpu-00"},
      {FaultKind::kTpuCrash, "r0-tpu-99"},
      {FaultKind::kNodeDeath, "r9-trpi-00"},
      {FaultKind::kNodeDeath, "trpi-00"}};
  for (unsigned shards : {1u, 2u}) {
    ShardedClusterConfig config;
    config.shards = shards;
    ShardedCluster healthy(config);
    ASSERT_TRUE(healthy.setupStatus().isOk());
    healthy.run(seconds(2));

    for (const auto& [kind, target] : targets) {
      ShardedCluster cluster(config);
      ASSERT_TRUE(cluster.setupStatus().isOk());
      FaultPlan plan;
      plan.events.push_back({milliseconds(300), kind, target, {}, 0.0});
      FaultInjector& injector = cluster.armFaults(plan);
      cluster.run(seconds(2));

      const std::vector<FaultInjector::Applied> log = injector.log();
      ASSERT_EQ(log.size(), 2u) << target << " shards=" << shards;
      EXPECT_TRUE(log[0].begin) << target;
      EXPECT_FALSE(log[1].begin) << target;
      EXPECT_GT(cluster.totalCompleted(), 0u) << target;
      EXPECT_EQ(cluster.digest(), healthy.digest())
          << target << " shards=" << shards;
    }
  }
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

// An fps whose frame period is under 1 ns or past SimDuration is refused
// before anything converts it.
TEST(ShardedClusterSetupTest, FpsOutsideAFramePeriodIsInvalidArgument) {
  for (double fps : {0.0, std::numeric_limits<double>::quiet_NaN(), 1e-300,
                     1e300}) {
    ShardedClusterConfig config = baseConfig(1);
    config.fps = fps;
    ShardedCluster cluster(config);
    EXPECT_EQ(cluster.setupStatus().code(), StatusCode::kInvalidArgument)
        << "fps=" << fps << ": " << cluster.setupStatus().toString();
    EXPECT_NE(cluster.setupStatus().message().find("fps"), std::string::npos)
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

// stopStreams() belongs between runs, checked in every build and at every
// shard count: called from an event callback it aborts instead of stopping
// the cameras mid-run.
TEST(ShardedClusterDeathTest, StopStreamsInsideARunAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedCluster cluster(baseConfig(1));
  ASSERT_TRUE(cluster.setupStatus().isOk());
  Simulator& sim = cluster.shardedSim().shardSim(0);
  sim.schedule(sim.now() + milliseconds(10),
               [&cluster] { cluster.stopStreams(); });
  EXPECT_DEATH(cluster.run(milliseconds(20)),
               "stopStreams: called inside a run on shard 0");
}

}  // namespace
}  // namespace microedge
