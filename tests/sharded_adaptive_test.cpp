// Adaptive window widening (ECSB) for the sharded simulation.
//
// The contract under test: the window-bound mode is PURE SCHEDULING — at
// any shard count, kAdaptive produces byte-identical results to kFixed
// (window partitioning never reorders events), while advancing far fewer,
// far fatter windows whenever the emitter-tagged event set is sparse.
//
// Layers covered:
//  * Simulator emitter taint: explicit tags, cascade closure (children of
//    a tagged event are tagged), periodic rearm inheritance, the lazy
//    min-heap behind nextEmitterTime(), and the tracking-off fallback.
//  * Raw ShardedSim: the all-quiet jump (no tagged events anywhere =>
//    one window straight to the stop time), a cross-shard send armed
//    exactly at the window edge, and mailbox-delivery re-tagging.
//  * Harness differentials: healthy + cross-rack, chaos (crash/hang/
//    keyed LOSS), block placement, and a downscaled 100k-style city slice
//    (tRPi-hosted streams, shared TPUs, deadline-free) — each bit-for-bit
//    fixed vs adaptive.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "sim/fault_injector.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/simulator.hpp"
#include "testbed/sharded_cluster.hpp"

namespace microedge {
namespace {

// --- Simulator emitter taint -------------------------------------------------

TEST(EmitterTaint, ExplicitTagAndCascadeClosure) {
  Simulator sim;
  sim.setEmitterTracking(true);

  // Untagged events are invisible to the emitter bound.
  sim.schedule(sim.now() + milliseconds(1), [] {});
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
  EXPECT_EQ(sim.nextEventTime(), sim.now() + milliseconds(1));

  // A tagged event surfaces; children it schedules inherit the taint even
  // when scheduled without an explicit tag (closure under cascades).
  SimTime childSeen = SimTime::max();
  sim.schedule(
      sim.now() + milliseconds(5),
      [&] {
        sim.scheduleAfter(milliseconds(3), [&] { childSeen = sim.now(); });
      },
      /*emitter=*/true);
  EXPECT_EQ(sim.nextEmitterTime(), sim.now() + milliseconds(5));

  sim.runFor(milliseconds(6));
  // The untagged root and the tagged root fired; the tagged child is now
  // the emitter floor.
  EXPECT_EQ(sim.nextEmitterTime(), sim.now() + milliseconds(2));
  sim.runFor(milliseconds(10));
  EXPECT_NE(childSeen, SimTime::max());
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
}

TEST(EmitterTaint, UntaggedCascadeStaysUntagged) {
  Simulator sim;
  sim.setEmitterTracking(true);
  bool fired = false;
  sim.schedule(sim.now() + milliseconds(1), [&] {
    sim.scheduleAfter(milliseconds(1), [&] { fired = true; });
  });
  sim.runFor(milliseconds(1));
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
  sim.runFor(milliseconds(5));
  EXPECT_TRUE(fired);
}

TEST(EmitterTaint, PeriodicRearmInheritsTag) {
  Simulator sim;
  sim.setEmitterTracking(true);
  int fires = 0;
  PeriodicTask task(sim, milliseconds(10), [&] { ++fires; },
                    /*emitter=*/true);
  task.startAt(sim.now() + milliseconds(10));
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(sim.nextEmitterTime(), sim.now() + milliseconds(10));
    sim.runFor(milliseconds(10));
    EXPECT_EQ(fires, i);
  }
  task.stop();
  sim.runFor(milliseconds(10));
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
}

TEST(EmitterTaint, CanceledEventPurgedLazily) {
  Simulator sim;
  sim.setEmitterTracking(true);
  EventId h =
      sim.schedule(sim.now() + milliseconds(2), [] {}, /*emitter=*/true);
  sim.schedule(sim.now() + milliseconds(7), [] {}, /*emitter=*/true);
  EXPECT_EQ(sim.nextEmitterTime(), sim.now() + milliseconds(2));
  sim.cancel(h);
  // The stale heap top is skipped, not reported.
  EXPECT_EQ(sim.nextEmitterTime(), sim.now() + milliseconds(7));
}

TEST(EmitterTaint, TrackingOffFallsBackToNextEvent) {
  Simulator sim;  // tracking NOT enabled
  sim.schedule(sim.now() + milliseconds(3), [] {});
  // Sound degradation: every event is a potential emitter.
  EXPECT_EQ(sim.nextEmitterTime(), sim.now() + milliseconds(3));
  EXPECT_EQ(sim.nextEmitterTime(), sim.nextEventTime());
}

// --- Raw ShardedSim ----------------------------------------------------------

// No tagged events anywhere: the adaptive leader sees ECSB = +inf on every
// shard and advances ONE window straight past the stop time, instead of
// ~duration/lookahead fixed hops.
TEST(ShardedAdaptive, AllQuietJumpsToStopTime) {
  const SimDuration lookahead = microseconds(500);
  // Traces are collected PER SHARD (each vector is only touched by its
  // owner worker; cross-shard interleaving is not part of the contract).
  std::array<std::vector<int>, 2> fired;
  for (auto mode :
       {ShardedSim::WindowBound::kFixed, ShardedSim::WindowBound::kAdaptive}) {
    ShardedSim sharded(2, lookahead, mode);
    std::array<std::vector<int>, 2> local;
    for (int i = 0; i < 40; ++i) {
      const unsigned shard = static_cast<unsigned>(i) % 2;
      Simulator& sim = sharded.shardSim(shard);
      sim.schedule(sim.now() + milliseconds(i + 1),
                   [&local, shard, i] { local[shard].push_back(i); });
    }
    sharded.runFor(milliseconds(100));
    if (mode == ShardedSim::WindowBound::kFixed) {
      fired = local;
      // The fixed bound hops next-event + lookahead: roughly a window per
      // pending event (events are 1ms apart, lookahead 500us).
      EXPECT_GT(sharded.windowCount(), 20u);
      EXPECT_EQ(sharded.adaptiveWindowCount(), 0u);
    } else {
      EXPECT_EQ(local, fired);
      // One window straight to the stop time (plus at most the final done
      // round).
      EXPECT_LE(sharded.windowCount(), 2u);
      EXPECT_GE(sharded.adaptiveWindowCount(), 1u);
    }
  }
}

// A tagged cross-shard send armed to deliver EXACTLY at the window edge:
// the bound must not admit it early, and both modes must deliver it at the
// same instant.
TEST(ShardedAdaptive, CrossShardSendAtWindowEdge) {
  const SimDuration lookahead = microseconds(500);
  std::vector<long long> deliveries;
  for (auto mode :
       {ShardedSim::WindowBound::kFixed, ShardedSim::WindowBound::kAdaptive}) {
    ShardedSim sharded(2, lookahead, mode);
    std::vector<long long> local;
    Simulator& shard0 = sharded.shardSim(0);
    Simulator& shard1 = sharded.shardSim(1);
    // Shard 1 keeps purely local, untagged work ticking.
    for (int i = 0; i < 20; ++i) {
      shard1.schedule(shard1.now() + milliseconds(i), [] {});
    }
    // The tagged root fires at t=10ms and sends cross-shard at the minimum
    // legal latency — deliverAt lands exactly on the next window bound.
    shard0.schedule(
        shard0.now() + milliseconds(10),
        [&] {
          sharded.postToShard(1, shard0.now() + lookahead,
                              [&sharded, &local] {
                                local.push_back(sharded.shardSim(1)
                                                    .now()
                                                    .time_since_epoch()
                                                    .count());
                              },
                              /*emitter=*/true);
        },
        /*emitter=*/true);
    sharded.runFor(milliseconds(50));
    ASSERT_EQ(local.size(), 1u);
    if (mode == ShardedSim::WindowBound::kFixed) {
      deliveries = local;
    } else {
      EXPECT_EQ(local, deliveries);
    }
  }
}

// Drained mailbox deliveries are re-tagged on the destination shard, so a
// chain of cross-shard hops stays visible to the bound at every hop.
TEST(ShardedAdaptive, CrossShardChainStaysOrdered) {
  const SimDuration lookahead = microseconds(500);
  std::vector<int> order;
  for (auto mode :
       {ShardedSim::WindowBound::kFixed, ShardedSim::WindowBound::kAdaptive}) {
    ShardedSim sharded(2, lookahead, mode);
    std::vector<int> local;
    // Ping-pong: shard 0 -> 1 -> 0 -> 1, each hop at +lookahead.
    std::function<void(unsigned, int)> hop = [&](unsigned dst, int depth) {
      local.push_back(depth);
      if (depth >= 4) return;
      Simulator& here = sharded.shardSim(1 - dst);
      sharded.postToShard(dst, here.now() + lookahead,
                          [&hop, dst, depth] { hop(1 - dst, depth + 1); },
                          /*emitter=*/true);
    };
    Simulator& shard0 = sharded.shardSim(0);
    shard0.schedule(shard0.now() + milliseconds(1),
                    [&hop] { hop(1, 0); }, /*emitter=*/true);
    sharded.runFor(milliseconds(20));
    ASSERT_EQ(local.size(), 5u);
    if (mode == ShardedSim::WindowBound::kFixed) {
      order = local;
    } else {
      EXPECT_EQ(local, order);
    }
  }
}

// --- Harness differentials ---------------------------------------------------

ShardedClusterConfig baseConfig(unsigned shards,
                                ShardedSim::WindowBound mode) {
  ShardedClusterConfig config;
  config.shards = shards;
  config.racks = 8;
  config.tRpisPerRack = 1;
  config.vRpisPerRack = 2;
  config.tpusPerTRpi = 1;
  config.fps = 15.0;
  config.frameDeadline = milliseconds(60);
  config.windowBound = mode;
  return config;
}

// Healthy cluster with cross-rack (hence cross-shard) streams: adaptive is
// bit-for-bit fixed at shards {1, 2, 8}, and actually widens windows.
TEST(ShardedAdaptive, HealthyDifferentialAcrossShardCounts) {
  std::string reference;
  for (unsigned shards : {1u, 2u, 8u}) {
    std::string fixedMetrics;
    std::size_t fixedWindows = 0;
    for (auto mode : {ShardedSim::WindowBound::kFixed,
                      ShardedSim::WindowBound::kAdaptive}) {
      ShardedClusterConfig config = baseConfig(shards, mode);
      config.crossRackStride = 3;
      ShardedCluster cluster(config);
      ASSERT_TRUE(cluster.setupStatus().isOk())
          << cluster.setupStatus().toString();
      cluster.run(seconds(2));
      EXPECT_GT(cluster.totalCompleted(), 400u);
      const std::string metrics = cluster.metricsJson();
      if (reference.empty()) reference = metrics;
      // One reference across the whole mode x shard grid.
      EXPECT_EQ(metrics, reference) << "shards=" << shards;
      if (mode == ShardedSim::WindowBound::kFixed) {
        fixedMetrics = metrics;
        fixedWindows = cluster.shardedSim().windowCount();
        EXPECT_EQ(cluster.shardedSim().adaptiveWindowCount(), 0u);
      } else if (shards > 1) {
        EXPECT_EQ(metrics, fixedMetrics);
        // The bound visibly widened windows. The shrink factor depends on
        // how dense non-emitter local work is between cross-shard sends (the
        // big wins show up at scale — see bench_micro_shardsim); here we only
        // require strictly fewer barriers than the fixed bound.
        EXPECT_LT(cluster.shardedSim().windowCount(), fixedWindows);
        EXPECT_GT(cluster.shardedSim().adaptiveWindowCount(), 0u);
      }
    }
  }
}

// Chaos plan (crash + delayed recovery, hang window, keyed LOSS) with
// cross-rack streams in the mix: window bounds never change traces at a
// FIXED shard count, so — unlike the shards-vs-solo differential — the
// fixed-vs-adaptive comparison runs the NACK-heavy cross-shard workload
// too.
TEST(ShardedAdaptive, ChaosDifferentialWithCrossRackNacks) {
  std::vector<std::string> tpuIds;
  {
    ShardedCluster probe(baseConfig(1, ShardedSim::WindowBound::kFixed));
    ASSERT_TRUE(probe.setupStatus().isOk());
    for (const auto& tpu : probe.topology().tpus()) tpuIds.push_back(tpu->id());
  }
  ASSERT_EQ(tpuIds.size(), 8u);

  FaultPlan plan;
  plan.seed = 77;
  plan.detectionDelay = milliseconds(300);
  plan.events.push_back(
      {milliseconds(400), FaultKind::kTpuCrash, tpuIds[1], {}, 0.0});
  plan.events.push_back({milliseconds(700), FaultKind::kTpuHang, tpuIds[5],
                         milliseconds(350), 0.0});
  plan.events.push_back({milliseconds(900), FaultKind::kTransportLoss,
                         std::string(), milliseconds(500), 0.2});

  for (unsigned shards : {2u, 8u}) {
    std::string fixedMetrics;
    for (auto mode : {ShardedSim::WindowBound::kFixed,
                      ShardedSim::WindowBound::kAdaptive}) {
      ShardedClusterConfig config = baseConfig(shards, mode);
      config.crossRackStride = 3;  // cross-shard NACK traffic mid-window
      ShardedCluster cluster(config);
      ASSERT_TRUE(cluster.setupStatus().isOk());
      cluster.armFaults(plan);
      cluster.run(milliseconds(2500));
      EXPECT_GT(cluster.totalCompleted(), 0u);
      const std::string metrics = cluster.metricsJson();
      if (mode == ShardedSim::WindowBound::kFixed) {
        fixedMetrics = metrics;
      } else {
        EXPECT_EQ(metrics, fixedMetrics) << "shards=" << shards;
      }
    }
  }
}

// Block placement is result-invariant too, and is the layout that gives
// adaptive its long emitter-free stretches (stride streams stay
// shard-local except at block boundaries).
TEST(ShardedAdaptive, BlockMappingInvariantAndWide) {
  std::string reference;
  for (auto mapping : {RackMapping::kRoundRobin, RackMapping::kBlock}) {
    for (auto mode : {ShardedSim::WindowBound::kFixed,
                      ShardedSim::WindowBound::kAdaptive}) {
      ShardedClusterConfig config = baseConfig(2, mode);
      config.crossRackStride = 3;
      config.rackMapping = mapping;
      ShardedCluster cluster(config);
      ASSERT_TRUE(cluster.setupStatus().isOk());
      cluster.run(seconds(1));
      const std::string metrics = cluster.metricsJson();
      if (reference.empty()) {
        reference = metrics;
      } else {
        EXPECT_EQ(metrics, reference);
      }
    }
  }
}

// Downscaled 100k-style city slice: streams on tRPis AND vRPis, ten per
// host, ~1 fps, shared TPUs (explicit per-stream units), deadline-free,
// block placement — the bench's scale-up preset in miniature, run
// fixed-vs-adaptive bit-for-bit.
TEST(ShardedAdaptive, CitySliceScaleUpDifferential) {
  std::string fixedMetrics;
  for (auto mode :
       {ShardedSim::WindowBound::kFixed, ShardedSim::WindowBound::kAdaptive}) {
    ShardedClusterConfig config;
    config.shards = 2;
    config.racks = 10;
    config.tRpisPerRack = 2;
    config.vRpisPerRack = 8;
    config.tpusPerTRpi = 1;
    config.streamsPerVRpi = 10;
    config.streamsPerTRpi = 10;
    config.fps = 1.0;
    config.tpuUnits = 0.01;
    config.frameDeadline = SimDuration::zero();
    config.crossRackStride = 5;
    config.windowBound = mode;
    config.rackMapping = RackMapping::kBlock;
    ShardedCluster cluster(config);
    ASSERT_TRUE(cluster.setupStatus().isOk())
        << cluster.setupStatus().toString();
    cluster.run(milliseconds(2500));
    EXPECT_EQ(cluster.streamCount(), 1000u);
    EXPECT_GT(cluster.totalCompleted(), 1000u);
    const std::string metrics = cluster.metricsJson();
    if (mode == ShardedSim::WindowBound::kFixed) {
      fixedMetrics = metrics;
    } else {
      EXPECT_EQ(metrics, fixedMetrics);
    }
  }
}

// metricsJson stays byte-stable by default; the opt-in sim section carries
// the new observability without leaking into the compared dump.
TEST(ShardedAdaptive, MetricsJsonSimSectionIsOptIn) {
  ShardedClusterConfig config =
      baseConfig(2, ShardedSim::WindowBound::kAdaptive);
  config.crossRackStride = 3;
  ShardedCluster cluster(config);
  ASSERT_TRUE(cluster.setupStatus().isOk());
  cluster.run(seconds(1));
  const std::string plain = cluster.metricsJson();
  EXPECT_EQ(plain.find("\"sim\""), std::string::npos);
  const std::string withSim = cluster.metricsJson(/*withSimStats=*/true);
  EXPECT_NE(withSim.find("\"sim\""), std::string::npos);
  EXPECT_NE(withSim.find("\"adaptiveWindows\""), std::string::npos);
  EXPECT_NE(withSim.find("\"eventsPerWindowHist\""), std::string::npos);
  EXPECT_NE(withSim.find("\"perShardStallNanos\""), std::string::npos);
  // The plain dump is a strict prefix-plus-suffix of the stats dump: the
  // stats never perturb the compared fields.
  EXPECT_EQ(withSim.rfind(plain.substr(0, plain.size() - 3), 0), 0u);

  // The histogram recorded fat windows and every recorded window landed in
  // some bucket.
  std::uint64_t total = 0;
  for (std::uint64_t b : cluster.shardedSim().eventsPerWindowHist()) {
    total += b;
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace microedge
