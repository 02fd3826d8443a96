// End-to-end data-plane reliability: per-frame deadlines, bounded failover,
// health-masked routing (per-target circuit breaker), deadline-based
// shedding, fail-fast on service removal, and Load retry with backoff.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/backoff.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/lb_service.hpp"
#include "models/zoo.hpp"
#include "util/intern.hpp"

namespace microedge {
namespace {

class ReliabilityTest : public ::testing::Test {
 protected:
  ReliabilityTest()
      : zoo_(zoo::standardZoo()),
        topo_(sharded_, zoo_, smallTopology()),
        dataPlane_(sharded_, topo_, zoo_) {}

  static TopologySpec smallTopology() {
    TopologySpec spec;
    spec.vRpiCount = 2;
    spec.tRpiCount = 3;
    return spec;
  }

  void loadEverywhere(const std::string& model) {
    for (const char* tpu : {"tpu-00", "tpu-01", "tpu-02"}) {
      ASSERT_TRUE(dataPlane_.executeLoad(LoadCommand{tpu, {model}, {}}).isOk());
    }
    sim_.run();
  }

  std::unique_ptr<TpuClient> makeClient(TpuClient::Config config) {
    return dataPlane_.makeClient(std::move(config));
  }

  TpuClient::Config baseConfig(const std::string& model) {
    TpuClient::Config config;
    config.clientNode = internNode("vrpi-00");
    config.model = internModel(model);
    return config;
  }

  // A 50/50 client over tpu-00 and tpu-01 whose breaker on tpu-00 was just
  // tripped by a hung service: each frame is rejected there and fails over
  // to tpu-01 until kFailureThreshold rejections mask tpu-00.
  std::unique_ptr<TpuClient> tripFirstTarget() {
    auto client = makeClient(baseConfig(zoo::kMobileNetV1));
    EXPECT_TRUE(
        client
            ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 500},
                                    LbWeight{internTpu("tpu-01"), 500}}})
            .isOk());
    dataPlane_.service("tpu-00")->setHung(true);
    for (std::uint32_t i = 0; i < LbService::kFailureThreshold; ++i) {
      EXPECT_TRUE(client->invoke(nullptr).isOk());
      sim_.run();
    }
    EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);
    return client;
  }

  ShardedSim sharded_{1, NetworkConfig{}.baseLatency};
  Simulator& sim_ = sharded_.shardSim(0);
  ModelRegistry zoo_;
  ClusterTopology topo_;
  DataPlane dataPlane_;
};

// ---- Deadlines -------------------------------------------------------------

TEST_F(ReliabilityTest, DeadlineFiresBeforeArrivalAndCountsTimedOut) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.frameDeadline = milliseconds(1);  // transit alone takes ~8 ms
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());

  FrameOutcome seen = FrameOutcome::kInFlight;
  SimTime firedAt{};
  const SimTime submitAt = sim_.now();
  ASSERT_TRUE(client
                  ->invoke([&](const FrameBreakdown& b) {
                    seen = b.outcome;
                    firedAt = sim_.now();
                  })
                  .isOk());
  sim_.run();
  EXPECT_EQ(seen, FrameOutcome::kTimedOut);
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kTimedOut), 1u);
  EXPECT_EQ(client->completedCount(), 0u);
  EXPECT_EQ(client->failedCount(), 1u);
  EXPECT_EQ(client->contextsInFlight(), 0u);
  // The deadline fired at exactly submit + 1 ms, not at frame arrival (the
  // stale request-arrival event still drains later).
  EXPECT_EQ(firedAt - submitAt, milliseconds(1));
  // The stale arrival lands past the deadline, so the shed predicate drops
  // it: a timed-out frame never reaches the device.
  EXPECT_EQ(dataPlane_.service("tpu-00")->invokeCount(), 0u);
}

TEST_F(ReliabilityTest, CompletionBeatsDeadlineWithoutTimeout) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.frameDeadline = seconds(1);  // generous: the frame wins the race
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());

  FrameBreakdown seen;
  ASSERT_TRUE(
      client->invoke([&](const FrameBreakdown& b) { seen = b; }).isOk());
  sim_.run();
  EXPECT_EQ(client->completedCount(), 1u);
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kTimedOut), 0u);
  // Completion did not wait on the deadline machinery: the frame finished
  // in transit+inference time. (The client-wide timer disarms lazily — one
  // pending no-op event may drain at +1 s, which costs nothing per frame.)
  EXPECT_LT(seen.endToEnd(), milliseconds(100));
}

TEST_F(ReliabilityTest, TimeoutAfterDeviceKeepsDeviceStats) {
  loadEverywhere(zoo::kMobileNetV1);
  auto healthy = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(
      healthy->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  FrameBreakdown done;
  ASSERT_TRUE(
      healthy->invoke([&](const FrameBreakdown& b) { done = b; }).isOk());
  sim_.run();
  ASSERT_EQ(done.outcome, FrameOutcome::kCompleted);

  // The deadline falls after the device finished, halfway through the
  // postprocess + response hop.
  const SimDuration deviceDone = done.preprocess + done.requestTransmit +
                                 done.queueDelay + done.inference;
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.frameDeadline =
      deviceDone + (done.postprocess + done.responseTransmit) / 2;
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  FrameBreakdown late;
  ASSERT_TRUE(client->invoke([&](const FrameBreakdown& b) { late = b; }).isOk());
  sim_.run();
  ASSERT_EQ(late.outcome, FrameOutcome::kTimedOut);
  // The device figures were written at device completion, so the timed-out
  // frame reports what a healthy one does.
  EXPECT_EQ(late.inference, done.inference);
  EXPECT_EQ(late.postprocess, done.postprocess);
  EXPECT_EQ(late.responseTransmit, done.responseTransmit);
  EXPECT_GT(late.inference, SimDuration::zero());
}

TEST_F(ReliabilityTest, RepeatedTimeoutsTripTheBreaker) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.frameDeadline = milliseconds(1);
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());

  // Timeouts end frames without a failover; each one is a breaker failure.
  for (std::uint32_t i = 0; i < LbService::kFailureThreshold; ++i) {
    EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kHealthy);
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kTimedOut),
            LbService::kFailureThreshold);
  EXPECT_EQ(client->failoverCount(), 0u);
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);
  EXPECT_EQ(client->lbService().maskEvents(), 1u);
}

// ---- Failover --------------------------------------------------------------

TEST_F(ReliabilityTest, MidFlightFailoverMovesFrameToSurvivor) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 500},
                                          LbWeight{internTpu("tpu-01"), 500}}})
                  .isOk());
  FrameBreakdown seen;
  ASSERT_TRUE(
      client->invoke([&](const FrameBreakdown& b) { seen = b; }).isOk());
  // The frame is in flight toward tpu-00 (first smooth-WRR pick); the
  // service dies before arrival. Fail-fast re-ships it to tpu-01.
  dataPlane_.removeService("tpu-00");
  sim_.run();
  EXPECT_EQ(seen.outcome, FrameOutcome::kCompleted);
  EXPECT_EQ(seen.failovers, 1);
  EXPECT_EQ(seen.servedByName(), "tpu-01");
  EXPECT_EQ(client->completedCount(), 1u);
  EXPECT_EQ(client->failoverCount(), 1u);
  EXPECT_EQ(dataPlane_.service("tpu-01")->invokeCount(), 1u);
}

TEST_F(ReliabilityTest, RemovalMidInferenceSendsNoStaleResponse) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 500},
                                          LbWeight{internTpu("tpu-01"), 500}}})
                  .isOk());
  const ModelInfo& info = zoo_.at(zoo::kMobileNetV1);
  const SimDuration arrival =
      info.preprocessLatency +
      topo_.network().transferLatency(internNode("vrpi-00"),
                                      dataPlane_.service("tpu-00")->nodeId(),
                                      info.inputBytes());
  const std::size_t messagesBefore = dataPlane_.transport().messagesSent();
  FrameBreakdown seen;
  ASSERT_TRUE(
      client->invoke([&](const FrameBreakdown& b) { seen = b; }).isOk());
  // tpu-00 (the first pick) dies halfway through the frame's inference:
  // the frame fails over to tpu-01 while tpu-00's device keeps running it.
  sim_.scheduleAfter(arrival + info.inferenceLatency / 2,
                     [&] { dataPlane_.removeService("tpu-00"); });
  sim_.run();
  EXPECT_EQ(seen.outcome, FrameOutcome::kCompleted);
  EXPECT_EQ(seen.servedByName(), "tpu-01");
  EXPECT_EQ(dataPlane_.service("tpu-01")->invokeCount(), 1u);
  EXPECT_EQ(client->completedCount(), 1u);
  // Two requests and one response: tpu-00's completion of the abandoned
  // attempt sends nothing.
  EXPECT_EQ(dataPlane_.transport().messagesSent() - messagesBefore, 3u);
}

TEST_F(ReliabilityTest, FailoverKeepsAbsoluteDeadline) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  // Tight enough that a failed-over frame (second ~8 ms transit) cannot
  // make it: the deadline is measured from the ORIGINAL submit.
  config.frameDeadline = milliseconds(12);
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 500},
                                          LbWeight{internTpu("tpu-01"), 500}}})
                  .isOk());
  FrameOutcome seen = FrameOutcome::kInFlight;
  ASSERT_TRUE(
      client->invoke([&](const FrameBreakdown& b) { seen = b.outcome; })
          .isOk());
  // The target dies 7 ms into the ~8 ms transit: the fail-fast broadcast
  // re-ships the frame, but only 5 ms of the original deadline remain —
  // not enough for the second wire hop plus the 4.5 ms inference.
  sim_.scheduleAfter(milliseconds(7), [&] {
    dataPlane_.removeService("tpu-00");
  });
  sim_.run();
  // The frame failed over but still timed out at the original deadline
  // (a per-attempt deadline would have granted the retry a fresh 12 ms).
  EXPECT_TRUE(seen == FrameOutcome::kTimedOut || seen == FrameOutcome::kShed)
      << toString(seen);
  EXPECT_EQ(client->failoverCount(), 1u);
  EXPECT_EQ(client->completedCount(), 0u);
  EXPECT_EQ(client->contextsInFlight(), 0u);
}

TEST_F(ReliabilityTest, FailoverBudgetBoundsReRoutes) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 400},
                                          LbWeight{internTpu("tpu-01"), 300},
                                          LbWeight{internTpu("tpu-02"), 300}}})
                  .isOk());
  FrameOutcome seen = FrameOutcome::kInFlight;
  ASSERT_TRUE(
      client->invoke([&](const FrameBreakdown& b) { seen = b.outcome; })
          .isOk());
  // First target dies mid-flight -> failover #1. The survivor it re-shipped
  // to dies too -> the budget (kMaxFailovers, 1) is spent: terminal, not a
  // second re-route.
  dataPlane_.removeService("tpu-00");
  dataPlane_.removeService("tpu-01");
  dataPlane_.removeService("tpu-02");
  sim_.run();
  EXPECT_EQ(seen, FrameOutcome::kDroppedDeadTarget);
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kDroppedDeadTarget), 1u);
  EXPECT_LE(client->failoverCount(), 1u);
  EXPECT_EQ(client->contextsInFlight(), 0u);
}

// ---- Fail-fast on service removal (satellites 1 + 2) -----------------------

TEST_F(ReliabilityTest, RemoveServiceFailsInFlightFramesImmediately) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());

  int completions = 0;
  FrameOutcome seen = FrameOutcome::kInFlight;
  ASSERT_TRUE(client
                  ->invoke([&](const FrameBreakdown& b) {
                    seen = b.outcome;
                    ++completions;
                  })
                  .isOk());
  EXPECT_EQ(client->contextsInFlight(), 1u);
  // The broadcast terminates the frame synchronously — no waiting for the
  // (now pointless) arrival event at the dead service.
  dataPlane_.removeService("tpu-00");
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(seen, FrameOutcome::kDroppedDeadTarget);
  EXPECT_EQ(client->contextsInFlight(), 0u);
  sim_.run();
  EXPECT_EQ(completions, 1);  // stale arrival event hit the generation check
  EXPECT_EQ(client->failedCount(), 1u);
}

TEST_F(ReliabilityTest, RemoveServiceNotifiesSurvivorsInCreationOrder) {
  loadEverywhere(zoo::kMobileNetV1);
  constexpr int kClients = 20;
  std::vector<std::unique_ptr<TpuClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(makeClient(baseConfig(zoo::kMobileNetV1)));
    ASSERT_TRUE(
        clients.back()
            ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
            .isOk());
  }
  // Destroy the first, the last and every odd one between: eleven of
  // twenty, so the registry also compacts and re-hooks its survivors
  // before the last destruction.
  std::vector<int> survivors;
  for (int i = 0; i < kClients; ++i) {
    if (i == 0 || i == kClients - 1 || i % 2 == 1) {
      clients[i].reset();
    } else {
      survivors.push_back(i);
    }
  }
  EXPECT_EQ(dataPlane_.clientCount(), survivors.size());
  // The broadcast fails each survivor's frame synchronously, so the
  // callback order is the order in which the plane notifies clients.
  std::vector<int> notified;
  for (int i : survivors) {
    ASSERT_TRUE(clients[i]
                    ->invoke([&notified, i](const FrameBreakdown& b) {
                      EXPECT_EQ(b.outcome, FrameOutcome::kDroppedDeadTarget);
                      notified.push_back(i);
                    })
                    .isOk());
  }
  dataPlane_.removeService("tpu-00");
  EXPECT_EQ(notified, survivors);
  sim_.run();
  EXPECT_EQ(notified, survivors);
}

TEST_F(ReliabilityTest, RemovalFailsOverOldestFrameFirst) {
  // The fail-fast sweep must re-ship a client's frames oldest first, not in
  // the order of their slots in the shard pool, where LIFO reuse can put a
  // newer frame in a lower slot than older ones on the same target. Weights
  // 2:1 route frames 1, 3, 4 to tpu-00 and frame 2 to tpu-01; frame 4 is
  // submitted from frame 1's completion and takes the slot frame 1 just
  // released, below frame 3's.
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 200},
                                          LbWeight{internTpu("tpu-01"), 100}}})
                  .isOk());
  std::vector<FrameBreakdown> failedOver;
  auto record = [&failedOver](const FrameBreakdown& b) {
    if (b.failovers > 0) failedOver.push_back(b);
  };
  auto first = [&](const FrameBreakdown& b) {
    ASSERT_EQ(b.frameId, 1u);
    ASSERT_EQ(b.servedByName(), "tpu-00");
    ASSERT_TRUE(client->invoke(record).isOk());  // frame 4 -> tpu-00
    sim_.scheduleAfter(SimDuration::zero(),
                       [&] { dataPlane_.removeService("tpu-00"); });
  };
  ASSERT_TRUE(client->invoke(first).isOk());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(client->invoke(record).isOk());
  sim_.run();

  ASSERT_EQ(failedOver.size(), 2u);
  EXPECT_EQ(failedOver[0].frameId, 3u);
  EXPECT_EQ(failedOver[1].frameId, 4u);
  for (const FrameBreakdown& b : failedOver) {
    EXPECT_EQ(b.outcome, FrameOutcome::kCompleted);
    EXPECT_EQ(b.servedByName(), "tpu-01");
  }
  EXPECT_LT(failedOver[0].completed, failedOver[1].completed);
}

TEST_F(ReliabilityTest, RemovalFromACompletionKeepsTheOuterSweepGoing) {
  // Frame 1's completion removes a second service, whose nested sweep ends
  // frames 2 and 4 — including the one the outer sweep was about to visit.
  // The outer sweep must pick up again at frame 3, and every frame must end
  // exactly once.
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  // Every frame first spends its one failover: all four ride tpu-02, whose
  // removal re-ships frames 1 and 3 to tpu-00 and frames 2 and 4 to tpu-01
  // (the weights pushed meanwhile keep tpu-02 first, so the failures its
  // removal records stay on its own entry). The removals below then find no
  // budget left and end each frame where it stands.
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-02"), 100}}})
          .isOk());
  std::vector<std::uint64_t> ended;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    ->invoke([&](const FrameBreakdown& b) {
                      EXPECT_EQ(b.outcome, FrameOutcome::kDroppedDeadTarget);
                      EXPECT_EQ(b.failovers, TpuClient::kMaxFailovers);
                      ended.push_back(b.frameId);
                      if (b.frameId == 1) dataPlane_.removeService("tpu-01");
                    })
                    .isOk());
  }
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-02"), 100},
                                          LbWeight{internTpu("tpu-00"), 100},
                                          LbWeight{internTpu("tpu-01"), 100}}})
                  .isOk());
  dataPlane_.removeService("tpu-02");
  ASSERT_EQ(client->failoverCount(), 4u);
  ASSERT_TRUE(ended.empty());
  dataPlane_.removeService("tpu-00");
  EXPECT_EQ(ended, (std::vector<std::uint64_t>{1, 2, 4, 3}));
  EXPECT_EQ(client->contextsInFlight(), 0u);
  EXPECT_EQ(dataPlane_.contextPool(0).inUse(), 0u);
  sim_.run();
  EXPECT_EQ(ended.size(), 4u);
  EXPECT_EQ(client->failedCount(), 4u);
}

TEST_F(ReliabilityTest, DataPlaneDestroyedFirstDetachesClientHooks) {
  ClusterTopology topo(sharded_, zoo_, smallTopology());
  auto plane = std::make_unique<DataPlane>(sharded_, topo, zoo_);
  std::vector<std::unique_ptr<TpuClient>> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(plane->makeClient("vrpi-00", zoo::kMobileNetV1));
  }
  // Clients held by value, as ShardedCluster's streams hold theirs (a deque
  // never moves its elements).
  std::deque<TpuClient> inPlace;
  for (int i = 0; i < 4; ++i) {
    inPlace.emplace_back(*plane, baseConfig(zoo::kMobileNetV1));
  }
  EXPECT_EQ(plane->clientCount(), 10u);
  // The fifth destruction compacts the registry and re-points the rest.
  clients[0].reset();
  inPlace.pop_front();
  clients[3].reset();
  inPlace.pop_back();
  clients[4].reset();
  EXPECT_EQ(plane->clientCount(), 5u);
  plane.reset();
  // No survivor may call back into the destroyed plane (ASan reports it if
  // one does).
  clients.clear();
  inPlace.clear();
}

TEST_F(ReliabilityTest, ByValueClientRegistersAndUnregistersWithItsOwner) {
  loadEverywhere(zoo::kMobileNetV1);
  // An owner that holds its client by value, as a city stream does.
  struct Owner {
    Owner(DataPlane& plane, const TpuClient::Config& config)
        : client(plane, config) {}
    TpuClient client;
  };
  auto owner =
      std::make_unique<Owner>(dataPlane_, baseConfig(zoo::kMobileNetV1));
  auto other = makeClient(baseConfig(zoo::kMobileNetV1));
  EXPECT_EQ(dataPlane_.clientCount(), 2u);
  EXPECT_EQ(owner->client.clientNode(), internNode("vrpi-00"));
  EXPECT_EQ(owner->client.model(), lookupModel(zoo::kMobileNetV1));
  // Registered: a removal fails its in-flight frame at once.
  ASSERT_TRUE(owner->client
                  .configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
                  .isOk());
  FrameOutcome seen = FrameOutcome::kInFlight;
  ASSERT_TRUE(owner->client
                  .invoke([&](const FrameBreakdown& b) { seen = b.outcome; })
                  .isOk());
  dataPlane_.removeService("tpu-00");
  EXPECT_EQ(seen, FrameOutcome::kDroppedDeadTarget);
  // Drain the frame's stale arrival event while the client lives (events
  // reference their client), then destroy the owner: that unregisters the
  // client, so the next broadcast reaches only the survivor (ASan reports a
  // visit to the freed client).
  sim_.run();
  owner.reset();
  EXPECT_EQ(dataPlane_.clientCount(), 1u);
  dataPlane_.removeService("tpu-01");
  sim_.run();
}

TEST_F(ReliabilityTest, SubmitAgainstDeadTargetIsExplicitNotSilent) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  dataPlane_.removeService("tpu-00");

  FrameOutcome seen = FrameOutcome::kInFlight;
  // invoke still returns Ok — the loss is reported through the frame's
  // terminal outcome so per-frame accounting never loses it.
  ASSERT_TRUE(
      client->invoke([&](const FrameBreakdown& b) { seen = b.outcome; })
          .isOk());
  EXPECT_EQ(seen, FrameOutcome::kDroppedDeadTarget);
  EXPECT_EQ(client->submittedCount(), 1u);
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kDroppedDeadTarget), 1u);
  EXPECT_EQ(client->outstanding(), 0u);
}

// ---- Health masking (per-target circuit breaker) ---------------------------

TEST_F(ReliabilityTest, HungTargetTripsMaskAndTrafficShiftsToSurvivor) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 500},
                                          LbWeight{internTpu("tpu-01"), 500}}})
                  .isOk());
  dataPlane_.service("tpu-00")->setHung(true);

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  // Each of the first three frames is rejected by tpu-00 and fails over to
  // tpu-01; the third rejection trips the breaker, and everything after
  // routes to tpu-01 while the 500 ms mask lasts.
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);
  EXPECT_EQ(client->lbService().maskedCount(), 1u);
  EXPECT_EQ(client->lbService().routedCountTo(internTpu("tpu-00")),
            LbService::kFailureThreshold);
  EXPECT_EQ(dataPlane_.service("tpu-01")->invokeCount(), 12u);
  EXPECT_EQ(client->failoverCount(), LbService::kFailureThreshold);
  EXPECT_EQ(client->completedCount(), 12u);
}

TEST_F(ReliabilityTest, HalfOpenProbeRestoresRecoveredTarget) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = tripFirstTarget();
  const std::uint64_t before = dataPlane_.service("tpu-00")->invokeCount();

  // The service recovers, but until the mask window ends no frame probes
  // it.
  dataPlane_.service("tpu-00")->setHung(false);
  sim_.runFor(LbService::kMaskDuration - milliseconds(100));
  ASSERT_TRUE(client->invoke(nullptr).isOk());
  sim_.run();
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);
  EXPECT_EQ(dataPlane_.service("tpu-00")->invokeCount(), before);

  // After the window the next pick probes it, and one success restores it.
  sim_.runFor(milliseconds(200));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kHealthy);
  EXPECT_EQ(dataPlane_.service("tpu-00")->invokeCount(), before + 1);
  EXPECT_EQ(client->lbService().maskEvents(), 1u);
}

TEST_F(ReliabilityTest, FailedProbeRemasksWithLongerBackoff) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = tripFirstTarget();  // and tpu-00 stays hung

  // A frame every 50 ms or so for 9 s. Each failed probe re-masks tpu-00
  // for twice the last window, capped at kMaxBackoffMultiplier (4) times
  // the 500 ms mask: 500 ms, then 1 s, 2 s, 2 s, 2 s. So the hung target
  // sees five probe frames, not half the load, and the gaps between probes
  // follow the windows.
  const TpuId hung = internTpu("tpu-00");
  std::uint64_t seen = client->lbService().routedCountTo(hung);
  std::vector<SimTime> probes;
  const SimTime end = sim_.now() + seconds(9);
  while (sim_.now() < end) {
    sim_.runFor(milliseconds(50));
    const SimTime submitAt = sim_.now();
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
    const std::uint64_t count = client->lbService().routedCountTo(hung);
    if (count != seen) probes.push_back(submitAt);
    seen = count;
  }
  const SimDuration capped =
      LbService::kMaxBackoffMultiplier * LbService::kMaskDuration;
  const SimDuration windows[] = {2 * LbService::kMaskDuration, capped,
                                 capped, capped};
  ASSERT_EQ(probes.size(), 5u);
  for (std::size_t k = 0; k < 4; ++k) {
    const SimDuration gap = probes[k + 1] - probes[k];
    EXPECT_GT(gap, windows[k]) << "probe " << k + 1;
    EXPECT_LT(gap, windows[k] + milliseconds(150)) << "probe " << k + 1;
  }
  EXPECT_EQ(client->lbService().maskEvents(), 1u + probes.size());
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);
}

// ---- Deadline-based shedding -----------------------------------------------

TEST_F(ReliabilityTest, ShedResolvesInTheArrivalEvent) {
  loadEverywhere(zoo::kMobileNetV1);
  const ModelInfo& info = zoo_.at(zoo::kMobileNetV1);
  const SimDuration arrival =
      info.preprocessLatency +
      topo_.network().transferLatency(internNode("vrpi-00"),
                                      dataPlane_.service("tpu-00")->nodeId(),
                                      info.inputBytes());
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  // Room for one inference after arrival, not for two.
  config.frameDeadline = arrival + info.inferenceLatency * 3 / 2;
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());

  const SimTime submitAt = sim_.now();
  std::vector<FrameBreakdown> seen;
  std::vector<SimTime> firedAt;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client
                    ->invoke([&](const FrameBreakdown& b) {
                      seen.push_back(b);
                      firedAt.push_back(sim_.now());
                    })
                    .isOk());
  }
  sim_.run();
  // Both frames arrive together; the second finds the first's inference
  // ahead of it and is shed. A same-shard NACK costs no event and no
  // latency: the callback fires in the arrival event itself.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].frameId, 2u);
  EXPECT_EQ(seen[0].outcome, FrameOutcome::kShed);
  EXPECT_EQ(firedAt[0] - submitAt, arrival);
  EXPECT_EQ(seen[1].frameId, 1u);
  EXPECT_EQ(seen[1].outcome, FrameOutcome::kCompleted);
}

TEST_F(ReliabilityTest, BacklogBeyondDeadlineShedsInsteadOfQueueing) {
  loadEverywhere(zoo::kEfficientNetLite0);  // 69 ms inference
  TpuClient::Config config = baseConfig(zoo::kEfficientNetLite0);
  config.frameDeadline = milliseconds(120);
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());

  // Burst of 5 frames at once: the first fits (8 + 69 < 120), later ones
  // find a backlog whose predicted completion blows the deadline.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(client->invoke(nullptr).isOk());
  sim_.run();
  EXPECT_GE(client->outcomeCount(FrameOutcome::kCompleted), 1u);
  EXPECT_GE(client->outcomeCount(FrameOutcome::kShed), 2u);
  // Shedding is load, not failure: the breaker never tripped.
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kHealthy);
  EXPECT_EQ(client->lbService().maskEvents(), 0u);
  // Every frame terminated exactly once.
  std::uint64_t terminal = 0;
  for (std::size_t i = 1; i < kFrameOutcomeCount; ++i) {
    terminal += client->outcomeCount(static_cast<FrameOutcome>(i));
  }
  EXPECT_EQ(terminal, 5u);
  EXPECT_EQ(client->contextsInFlight(), 0u);
}

// ---- Load retry with bounded exponential backoff ---------------------------
// The one control-plane replan policy (DataPlane::executeLoadOrRetry): try
// now; while the service exists, retry in the background on ExpBackoff{}
// (10, 20, 40, ... ms, 5 attempts) and report OK; a removed service is a
// permanent, synchronous error.

TEST_F(ReliabilityTest, LoadRetriesAfterTransientHangClears) {
  TpuService* service = dataPlane_.service("tpu-00");
  ASSERT_NE(service, nullptr);
  service->setHung(true);
  // Un-hang after 25 ms — within the retry budget (retries at 10, 30 ms).
  sim_.scheduleAfter(milliseconds(25), [&] { service->setHung(false); });

  Status s = dataPlane_.executeLoadOrRetry(
      LoadCommand{"tpu-00", {zoo::kMobileNetV1}, {}});
  EXPECT_TRUE(s.isOk()) << s.toString();  // retrying in the background
  sim_.run();
  EXPECT_GE(dataPlane_.loadRetries(), 1u);
  EXPECT_TRUE(
      topo_.findTpu("tpu-00")->isResident(lookupModel(zoo::kMobileNetV1)));
}

TEST_F(ReliabilityTest, LoadRetryStopsWhenBudgetExhausted) {
  dataPlane_.service("tpu-00")->setHung(true);  // forever
  EXPECT_TRUE(dataPlane_
                  .executeLoadOrRetry(
                      LoadCommand{"tpu-00", {zoo::kMobileNetV1}, {}})
                  .isOk());
  sim_.run();
  const ExpBackoff budget{};
  EXPECT_EQ(dataPlane_.loadRetries(), budget.maxAttempts);
  EXPECT_FALSE(
      topo_.findTpu("tpu-00")->isResident(lookupModel(zoo::kMobileNetV1)));
  // The last retry fired after the whole backoff schedule, then nothing.
  SimDuration schedule{};
  for (std::uint32_t a = 0; a < budget.maxAttempts; ++a) {
    schedule += budget.delay(a);
  }
  EXPECT_EQ(sim_.now(), kSimEpoch + schedule);
}

TEST_F(ReliabilityTest, LoadRetryOnRemovedServiceFailsPermanentlyAndFast) {
  dataPlane_.removeService("tpu-00");
  Status s = dataPlane_.executeLoadOrRetry(
      LoadCommand{"tpu-00", {zoo::kMobileNetV1}, {}});
  // Permanent failure: reported synchronously, no retry events scheduled.
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(dataPlane_.loadRetries(), 0u);
  sim_.run();
  EXPECT_EQ(sim_.now(), kSimEpoch);
}

TEST_F(ReliabilityTest, BackoffDelaysDoubleAndCap) {
  ExpBackoff backoff;
  backoff.base = milliseconds(10);
  backoff.cap = milliseconds(50);
  EXPECT_EQ(backoff.delay(0), milliseconds(10));
  EXPECT_EQ(backoff.delay(1), milliseconds(20));
  EXPECT_EQ(backoff.delay(2), milliseconds(40));
  EXPECT_EQ(backoff.delay(3), milliseconds(50));   // capped
  EXPECT_EQ(backoff.delay(30), milliseconds(50));  // no overflow
}

// The owner-shard rule of removeService holds in every build: run off its
// owner shard, a removal would null the wrong shard's view and notify the
// wrong shard's clients.
TEST(DataPlaneDeathTest, RemovalOffItsOwnerShardAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedSim sharded(2, NetworkConfig{}.baseLatency);
  ModelRegistry zoo = zoo::standardZoo();
  TopologySpec spec;
  spec.vRpiCount = 2;
  spec.tRpiCount = 2;
  spec.racks = 2;
  ClusterTopology topo(sharded, zoo, spec);
  DataPlane plane(sharded, topo, zoo);
  std::string remote;
  for (TpuService* service : plane.services()) {
    if (sharded.shardOfNode(service->nodeId()) == 1) {
      remote = tpuName(service->tpu());
    }
  }
  ASSERT_FALSE(remote.empty());
  // Setup code runs as shard 0.
  EXPECT_DEATH(plane.removeService(remote),
               "DataPlane::removeService: " + remote +
                   " is owned by shard 1 but the removal ran on shard 0");
}

TEST(LbBatchHealthTest, AllMaskedBatchRoutesNothing) {
  // Every target masked: each of a batch of frames routed at one instant
  // finds no target, and none of them counts as routed.
  InternScope scope;
  LbService lb;
  ASSERT_TRUE(lb.configure(LbConfig{{LbWeight{internTpu("tpu0"), 100},
                                      LbWeight{internTpu("tpu1"), 100}}})
                  .isOk());
  SimTime t0{};
  for (std::size_t target : {std::size_t{0}, std::size_t{1}}) {
    for (int j = 0; j < 3; ++j) lb.recordFailure(target, t0);
  }
  ASSERT_EQ(lb.maskedCount(), 2u);
  for (int frame = 0; frame < 5; ++frame) {
    EXPECT_EQ(lb.routeHealthyIndex(t0 + milliseconds(1)), LbService::kNoTarget)
        << "frame " << frame;
  }
  EXPECT_EQ(lb.routedCount(), 0u);
}

}  // namespace
}  // namespace microedge
