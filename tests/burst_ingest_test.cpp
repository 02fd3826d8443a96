// TpuClient::submitBurst(k frames) contract: it is k sequential invoke()
// calls at the same instant, so per-frame FrameBreakdown timings, outcomes,
// failover counts and client counters must equal those of the sequential
// calls. Two separate simulations over identical topologies are driven
// through each entry point and compared field by field (SimTime is integer
// nanoseconds: EXPECT_EQ, no tolerance), under queue contention, deadline
// shedding, circuit-breaker trips during routing, a service removal racing
// the frames' wire time, and an active transport loss + latency-spike
// window. Plus the edge cases: empty burst, burst larger than the free slab
// run, every target masked (exactly one terminal outcome per frame).

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

struct Cluster {
  Cluster()
      : zoo(zoo::standardZoo()),
        topo(sim, zoo, spec()),
        dataPlane(sim, topo, zoo) {}

  static TopologySpec spec() {
    TopologySpec s;
    s.vRpiCount = 2;
    s.tRpiCount = 2;
    return s;
  }

  void loadAll(const std::string& model) {
    for (const char* tpu : {"tpu-00", "tpu-01"}) {
      ASSERT_TRUE(dataPlane.executeLoad(LoadCommand{tpu, {model}, {}}).isOk());
    }
    sim.run();
  }

  Simulator sim;
  ModelRegistry zoo;
  ClusterTopology topo;
  DataPlane dataPlane;
};

void expectIdentical(const FrameBreakdown& burst, const FrameBreakdown& seq) {
  EXPECT_EQ(burst.frameId, seq.frameId);
  EXPECT_EQ(burst.servedBy.value, seq.servedBy.value);
  EXPECT_EQ(static_cast<int>(burst.outcome), static_cast<int>(seq.outcome));
  EXPECT_EQ(burst.failovers, seq.failovers);
  EXPECT_EQ(burst.submitted, seq.submitted);
  EXPECT_EQ(burst.completed, seq.completed);
  EXPECT_EQ(burst.preprocess, seq.preprocess);
  EXPECT_EQ(burst.requestTransmit, seq.requestTransmit);
  EXPECT_EQ(burst.queueDelay, seq.queueDelay);
  EXPECT_EQ(burst.inference, seq.inference);
  EXPECT_EQ(burst.responseTransmit, seq.responseTransmit);
  EXPECT_EQ(burst.postprocess, seq.postprocess);
}

// Submits `k` frames through `client` — as one burst or as k sequential
// invokes — recording every completion into `out`.
void submit(TpuClient& client, std::size_t k, bool burst,
            std::vector<FrameBreakdown>* out) {
  auto record = [out](const FrameBreakdown& b) { out->push_back(b); };
  if (burst) {
    std::vector<TpuClient::FrameSpec> frames(k);
    for (auto& f : frames) f.done = record;
    ASSERT_TRUE(client.submitBurst(frames).isOk());
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_TRUE(client.invoke(record).isOk());
    }
  }
}

void expectAllIdentical(const std::vector<FrameBreakdown>& burst,
                        const std::vector<FrameBreakdown>& seq) {
  ASSERT_EQ(burst.size(), seq.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    SCOPED_TRACE(i);
    expectIdentical(burst[i], seq[i]);
  }
}

void expectSameCounters(const TpuClient& burst, const TpuClient& seq) {
  EXPECT_EQ(burst.submittedCount(), seq.submittedCount());
  EXPECT_EQ(burst.completedCount(), seq.completedCount());
  EXPECT_EQ(burst.failedCount(), seq.failedCount());
  EXPECT_EQ(burst.failoverCount(), seq.failoverCount());
  for (std::size_t o = 0; o < kFrameOutcomeCount; ++o) {
    EXPECT_EQ(burst.outcomeCount(static_cast<FrameOutcome>(o)),
              seq.outcomeCount(static_cast<FrameOutcome>(o)))
        << toString(static_cast<FrameOutcome>(o));
  }
}

// --- Differential: healthy, contended, mixed loopback/non-loopback ----------

TEST(BurstIngestTest, HealthyBurstsMatchSequentialBitForBit) {
  // Client on trpi-00: routes to tpu-00 are loopback, tpu-01 non-loopback,
  // so every round exercises both latency classes plus queue contention on
  // the shared devices.
  Cluster a, b;
  a.loadAll(zoo::kSsdMobileNetV2);
  b.loadAll(zoo::kSsdMobileNetV2);
  const LbConfig lb{{LbWeight{"tpu-00", 200}, LbWeight{"tpu-01", 100}}};
  auto burstClient = a.dataPlane.makeClient("trpi-00", zoo::kSsdMobileNetV2);
  auto seqClient = b.dataPlane.makeClient("trpi-00", zoo::kSsdMobileNetV2);
  ASSERT_TRUE(burstClient->configureLb(lb).isOk());
  ASSERT_TRUE(seqClient->configureLb(lb).isOk());

  std::vector<FrameBreakdown> burstResults, seqResults;
  for (int round = 0; round < 4; ++round) {
    submit(*burstClient, 8, /*burst=*/true, &burstResults);
    submit(*seqClient, 8, /*burst=*/false, &seqResults);
    a.sim.run();
    b.sim.run();
  }
  ASSERT_EQ(burstResults.size(), 32u);
  expectAllIdentical(burstResults, seqResults);
  expectSameCounters(*burstClient, *seqClient);
  EXPECT_EQ(burstClient->outcomeCount(FrameOutcome::kCompleted), 32u);
}

// --- Differential: deadline shedding -----------------------------------------

TEST(BurstIngestTest, DeadlineSheddingMatchesSequential) {
  // One serial device, a burst deep enough that late arrivals' predicted
  // completion blows the deadline: the shed/timeout split must be identical
  // frame by frame, including deadline-timer behaviour (single splice vs k
  // appends).
  Cluster a, b;
  a.loadAll(zoo::kEfficientNetLite0);
  b.loadAll(zoo::kEfficientNetLite0);
  const LbConfig lb{{LbWeight{"tpu-00", 100}}};
  TpuClient::Config config;
  config.clientNode = "vrpi-00";
  config.model = zoo::kEfficientNetLite0;
  // ~69 ms inference per frame on one serial device: a 300 ms deadline lets
  // the first few frames through and sheds the deep tail at arrival.
  config.frameDeadline = milliseconds(300);
  auto burstClient = a.dataPlane.makeClient(config);
  auto seqClient = b.dataPlane.makeClient(config);
  ASSERT_TRUE(burstClient->configureLb(lb).isOk());
  ASSERT_TRUE(seqClient->configureLb(lb).isOk());

  std::vector<FrameBreakdown> burstResults, seqResults;
  submit(*burstClient, 24, /*burst=*/true, &burstResults);
  submit(*seqClient, 24, /*burst=*/false, &seqResults);
  a.sim.run();
  b.sim.run();

  ASSERT_EQ(burstResults.size(), 24u);
  expectAllIdentical(burstResults, seqResults);
  expectSameCounters(*burstClient, *seqClient);
  // The scenario actually sheds AND completes (not vacuous).
  EXPECT_GT(burstClient->outcomeCount(FrameOutcome::kShed), 0u);
  EXPECT_GT(burstClient->outcomeCount(FrameOutcome::kCompleted), 0u);
}

// --- Differential: breaker trips during burst routing -------------------------

TEST(BurstIngestTest, BreakerTripDuringRoutingMatchesSequential) {
  // tpu-00 is removed before the burst: its WRR draws feed the circuit
  // breaker until it masks the target mid-burst. The burst must replay the
  // same draw sequence — same breaker trip point, same serving targets.
  Cluster a, b;
  a.loadAll(zoo::kMobileNetV1);
  b.loadAll(zoo::kMobileNetV1);
  const LbConfig lb{{LbWeight{"tpu-00", 100}, LbWeight{"tpu-01", 100}}};
  auto burstClient = a.dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  auto seqClient = b.dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(burstClient->configureLb(lb).isOk());
  ASSERT_TRUE(seqClient->configureLb(lb).isOk());
  a.dataPlane.removeService("tpu-00");
  b.dataPlane.removeService("tpu-00");

  std::vector<FrameBreakdown> burstResults, seqResults;
  submit(*burstClient, 12, /*burst=*/true, &burstResults);
  submit(*seqClient, 12, /*burst=*/false, &seqResults);
  a.sim.run();
  b.sim.run();

  ASSERT_EQ(burstResults.size(), 12u);
  expectAllIdentical(burstResults, seqResults);
  expectSameCounters(*burstClient, *seqClient);
  EXPECT_EQ(burstClient->outcomeCount(FrameOutcome::kCompleted), 12u);
  // The breaker visibly engaged: tpu-00 (weight index 0) is masked.
  EXPECT_EQ(burstClient->lbService().targetHealth(0), TargetHealth::kMasked);
  EXPECT_EQ(seqClient->lbService().targetHealth(0), TargetHealth::kMasked);
}

// --- Differential: removal racing the burst's wire time -----------------------

TEST(BurstIngestTest, RemovalWhileBurstInFlightMatchesSequential) {
  // The burst is on the wire (delivery event scheduled, frames in flight)
  // when tpu-01 vanishes: its frames fail over immediately via the fail-fast
  // broadcast, leaving stale delivery events that the generation check must
  // skip.
  Cluster a, b;
  a.loadAll(zoo::kMobileNetV1);
  b.loadAll(zoo::kMobileNetV1);
  const LbConfig lb{{LbWeight{"tpu-00", 100}, LbWeight{"tpu-01", 100}}};
  auto burstClient = a.dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  auto seqClient = b.dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(burstClient->configureLb(lb).isOk());
  ASSERT_TRUE(seqClient->configureLb(lb).isOk());

  std::vector<FrameBreakdown> burstResults, seqResults;
  submit(*burstClient, 10, /*burst=*/true, &burstResults);
  submit(*seqClient, 10, /*burst=*/false, &seqResults);
  // Same instant, after submission, before any delivery: the broadcast
  // sweeps the in-flight frames in frameId order in both modes.
  a.dataPlane.removeService("tpu-01");
  b.dataPlane.removeService("tpu-01");
  a.sim.run();
  b.sim.run();

  ASSERT_EQ(burstResults.size(), 10u);
  expectAllIdentical(burstResults, seqResults);
  expectSameCounters(*burstClient, *seqClient);
  // Failovers actually happened (the race was real) and every frame still
  // terminated exactly once.
  EXPECT_GT(burstClient->failoverCount(), 0u);
  EXPECT_EQ(burstClient->outstanding(), 0u);
  EXPECT_EQ(burstClient->contextsInFlight(), 0u);
}

// --- Differential: active loss + latency-spike window (keyed clients) ---------

TEST(BurstIngestTest, FaultWindowActiveMidBurstMatchesSequential) {
  // A transport fault (30% loss, 2x latency) is live while the bursts ship.
  // Both clients carry the same stream token (DataPlane auto-assigns 1 to
  // its first client), so which frames the window eats is a pure function
  // of (seed, token, frameId, attempt, hop) — identical across modes. Lost
  // frames surface as deadline timeouts.
  Cluster a, b;
  a.loadAll(zoo::kMobileNetV1);
  b.loadAll(zoo::kMobileNetV1);
  const LbConfig lb{{LbWeight{"tpu-00", 100}, LbWeight{"tpu-01", 100}}};
  TpuClient::Config config;
  config.clientNode = "vrpi-00";
  config.model = zoo::kMobileNetV1;
  config.frameDeadline = milliseconds(50);
  auto burstClient = a.dataPlane.makeClient(config);
  auto seqClient = b.dataPlane.makeClient(config);
  ASSERT_EQ(burstClient->config().streamToken, seqClient->config().streamToken);
  ASSERT_NE(burstClient->config().streamToken, 0u);
  ASSERT_TRUE(burstClient->configureLb(lb).isOk());
  ASSERT_TRUE(seqClient->configureLb(lb).isOk());
  a.dataPlane.transport().setFault(0.3, 2.0, /*seed=*/7);
  b.dataPlane.transport().setFault(0.3, 2.0, /*seed=*/7);

  std::vector<FrameBreakdown> burstResults, seqResults;
  for (int round = 0; round < 3; ++round) {
    submit(*burstClient, 16, /*burst=*/true, &burstResults);
    submit(*seqClient, 16, /*burst=*/false, &seqResults);
    a.sim.run();
    b.sim.run();
  }

  ASSERT_EQ(burstResults.size(), 48u);
  expectAllIdentical(burstResults, seqResults);
  expectSameCounters(*burstClient, *seqClient);
  // Loss visibly hit the wire and the cluster still completed frames.
  EXPECT_GT(burstClient->outcomeCount(FrameOutcome::kTimedOut), 0u);
  EXPECT_GT(burstClient->outcomeCount(FrameOutcome::kCompleted), 0u);
}

// --- Edge cases ---------------------------------------------------------------

TEST(BurstIngestTest, EmptyBurstIsANoop) {
  Cluster cluster;
  cluster.loadAll(zoo::kMobileNetV1);
  auto client = cluster.dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{"tpu-00", 100}}}).isOk());
  std::vector<TpuClient::FrameSpec> none;
  EXPECT_TRUE(client->submitBurst(none).isOk());
  EXPECT_EQ(client->submittedCount(), 0u);
  EXPECT_EQ(client->contextsInFlight(), 0u);
  EXPECT_EQ(cluster.sim.pendingCount(), 0u);
}

TEST(BurstIngestTest, BurstLargerThanFreeSlabRunGrowsThePool) {
  // A burst far larger than any slab chunk: the pool must grow mid-burst,
  // every frame must reach a terminal outcome, and every slot must come
  // back.
  Cluster cluster;
  cluster.loadAll(zoo::kMobileNetV1);
  auto client = cluster.dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{"tpu-00", 100},
                                    LbWeight{"tpu-01", 100}}}).isOk());
  constexpr std::size_t kBig = 1500;
  std::size_t done = 0;
  std::vector<TpuClient::FrameSpec> frames(kBig);
  for (auto& f : frames) {
    f.done = [&done](const FrameBreakdown&) { ++done; };
  }
  ASSERT_TRUE(client->submitBurst(frames).isOk());
  EXPECT_EQ(client->submittedCount(), kBig);
  EXPECT_EQ(client->contextsInFlight(), kBig);
  cluster.sim.run();
  EXPECT_EQ(done, kBig);
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kCompleted), kBig);
  EXPECT_EQ(client->contextsInFlight(), 0u);
}

TEST(BurstIngestTest, AllTargetsMaskedEveryFrameGetsExactlyOneOutcome) {
  // Both services are gone before the burst: every frame must terminate
  // kDroppedDeadTarget with its callback fired exactly once, synchronously,
  // mid-loop.
  Cluster cluster;
  cluster.loadAll(zoo::kMobileNetV1);
  auto client = cluster.dataPlane.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{"tpu-00", 100},
                                    LbWeight{"tpu-01", 100}}}).isOk());
  cluster.dataPlane.removeService("tpu-00");
  cluster.dataPlane.removeService("tpu-01");

  constexpr std::size_t kFrames = 5;
  std::vector<int> fired(kFrames, 0);
  std::vector<TpuClient::FrameSpec> frames(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    frames[i].done = [&fired, i](const FrameBreakdown& b) {
      ++fired[i];
      EXPECT_EQ(b.outcome, FrameOutcome::kDroppedDeadTarget);
    };
  }
  ASSERT_TRUE(client->submitBurst(frames).isOk());
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(fired[i], 1) << "frame " << i;
  }
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kDroppedDeadTarget), kFrames);
  EXPECT_EQ(client->contextsInFlight(), 0u);
  EXPECT_EQ(cluster.sim.pendingCount(), 0u);
}

}  // namespace
}  // namespace microedge
