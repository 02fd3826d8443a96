// End-to-end data-plane reliability: per-frame deadlines, bounded failover,
// health-masked routing (per-target circuit breaker), deadline-based
// shedding, fail-fast on service removal, and Load retry with backoff.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class ReliabilityTest : public ::testing::Test {
 protected:
  ReliabilityTest()
      : zoo_(zoo::standardZoo()),
        topo_(sim_, zoo_, smallTopology()),
        dataPlane_(sim_, topo_, zoo_) {}

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
    config.clientNode = "vrpi-00";
    config.model = model;
    return config;
  }

  Simulator sim_;
  ModelRegistry zoo_;
  ClusterTopology topo_;
  DataPlane dataPlane_;
};

// ---- Deadlines -------------------------------------------------------------

TEST_F(ReliabilityTest, DeadlineFiresBeforeArrivalAndCountsTimedOut) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.frameDeadline = milliseconds(1);  // transit alone takes ~8 ms
  config.maxFailovers = 0;
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client->configureLb(LbConfig{{LbWeight{"tpu-00", 100}}}).isOk());

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
  // stale request-arrival event still drains later, but finds a retired
  // handle).
  EXPECT_EQ(firedAt - submitAt, milliseconds(1));
}

TEST_F(ReliabilityTest, CompletionBeatsDeadlineWithoutTimeout) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.frameDeadline = seconds(1);  // generous: the frame wins the race
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client->configureLb(LbConfig{{LbWeight{"tpu-00", 100}}}).isOk());

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

TEST_F(ReliabilityTest, RepeatedTimeoutsTripTheBreaker) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.frameDeadline = milliseconds(1);
  config.maxFailovers = 0;
  config.health.failureThreshold = 3;
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client->configureLb(LbConfig{{LbWeight{"tpu-00", 100}}}).isOk());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);
  EXPECT_EQ(client->lbService().maskEvents(), 1u);
}

// ---- Failover --------------------------------------------------------------

TEST_F(ReliabilityTest, MidFlightFailoverMovesFrameToSurvivor) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{"tpu-00", 500},
                                          LbWeight{"tpu-01", 500}}})
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

TEST_F(ReliabilityTest, FailoverKeepsAbsoluteDeadline) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  // Tight enough that a failed-over frame (second ~8 ms transit) cannot
  // make it: the deadline is measured from the ORIGINAL submit.
  config.frameDeadline = milliseconds(12);
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{"tpu-00", 500},
                                          LbWeight{"tpu-01", 500}}})
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
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.maxFailovers = 1;
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{"tpu-00", 400},
                                          LbWeight{"tpu-01", 300},
                                          LbWeight{"tpu-02", 300}}})
                  .isOk());
  FrameOutcome seen = FrameOutcome::kInFlight;
  ASSERT_TRUE(
      client->invoke([&](const FrameBreakdown& b) { seen = b.outcome; })
          .isOk());
  // First target dies mid-flight -> failover #1. The survivor it re-shipped
  // to dies too -> budget (1) is spent: terminal, not a second re-route.
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
  ASSERT_TRUE(client->configureLb(LbConfig{{LbWeight{"tpu-00", 100}}}).isOk());

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
    ASSERT_TRUE(clients.back()
                    ->configureLb(LbConfig{{LbWeight{"tpu-00", 100}}})
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

TEST_F(ReliabilityTest, DataPlaneDestroyedFirstDetachesClientHooks) {
  ClusterTopology topo(sim_, zoo_, smallTopology());
  auto plane = std::make_unique<DataPlane>(sim_, topo, zoo_);
  std::vector<std::unique_ptr<TpuClient>> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(plane->makeClient("vrpi-00", zoo::kMobileNetV1));
  }
  // The third destruction compacts the registry and re-hooks the rest.
  clients[0].reset();
  clients[3].reset();
  clients[4].reset();
  EXPECT_EQ(plane->clientCount(), 3u);
  plane.reset();
  // No survivor may call back into the destroyed plane (ASan reports it if
  // one does).
  clients.clear();
}

TEST_F(ReliabilityTest, SubmitAgainstDeadTargetIsExplicitNotSilent) {
  loadEverywhere(zoo::kMobileNetV1);
  auto client = makeClient(baseConfig(zoo::kMobileNetV1));
  ASSERT_TRUE(client->configureLb(LbConfig{{LbWeight{"tpu-00", 100}}}).isOk());
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
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.health.failureThreshold = 2;
  config.health.maskDuration = seconds(10);
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{"tpu-00", 500},
                                          LbWeight{"tpu-01", 500}}})
                  .isOk());
  dataPlane_.service("tpu-00")->setHung(true);

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  // Two rejections trip the breaker; everything after routes to tpu-01.
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);
  EXPECT_EQ(client->lbService().maskedCount(), 1u);
  EXPECT_GE(dataPlane_.service("tpu-01")->invokeCount(), 10u);
  EXPECT_EQ(client->completedCount() + client->failedCount(), 12u);
}

TEST_F(ReliabilityTest, HalfOpenProbeRestoresRecoveredTarget) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.health.failureThreshold = 1;
  config.health.maskDuration = milliseconds(100);
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{"tpu-00", 500},
                                          LbWeight{"tpu-01", 500}}})
                  .isOk());
  dataPlane_.service("tpu-00")->setHung(true);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  ASSERT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);

  // The service recovers; after the mask window the next pick probes it.
  dataPlane_.service("tpu-00")->setHung(false);
  sim_.runFor(milliseconds(200));
  std::uint64_t before = dataPlane_.service("tpu-00")->invokeCount();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kHealthy);
  EXPECT_GT(dataPlane_.service("tpu-00")->invokeCount(), before);
}

TEST_F(ReliabilityTest, FailedProbeRemasksWithLongerBackoff) {
  loadEverywhere(zoo::kMobileNetV1);
  TpuClient::Config config = baseConfig(zoo::kMobileNetV1);
  config.health.failureThreshold = 1;
  config.health.maskDuration = milliseconds(100);
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{"tpu-00", 500},
                                          LbWeight{"tpu-01", 500}}})
                  .isOk());
  dataPlane_.service("tpu-00")->setHung(true);  // and it stays hung
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  ASSERT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);

  // First probe after 100 ms fails -> re-masked for 200 ms, then 400 ms...
  // capped. Over 2 s of traffic the hung target sees only a handful of
  // probe frames, not half the load.
  std::uint64_t hungBefore = dataPlane_.service("tpu-00")->invokeCount();
  for (int i = 0; i < 40; ++i) {
    sim_.runFor(milliseconds(50));
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
  }
  std::uint64_t probes =
      dataPlane_.service("tpu-00")->invokeCount() - hungBefore;
  EXPECT_LE(probes, 8u);
  EXPECT_GE(client->lbService().maskEvents(), 2u);
  EXPECT_EQ(client->lbService().targetHealth(0), TargetHealth::kMasked);
}

// ---- Deadline-based shedding -----------------------------------------------

TEST_F(ReliabilityTest, BacklogBeyondDeadlineShedsInsteadOfQueueing) {
  loadEverywhere(zoo::kEfficientNetLite0);  // 69 ms inference
  TpuClient::Config config = baseConfig(zoo::kEfficientNetLite0);
  config.frameDeadline = milliseconds(120);
  auto client = makeClient(std::move(config));
  ASSERT_TRUE(client->configureLb(LbConfig{{LbWeight{"tpu-00", 100}}}).isOk());

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

TEST_F(ReliabilityTest, LoadRetriesAfterTransientHangClears) {
  TpuService* service = dataPlane_.service("tpu-00");
  ASSERT_NE(service, nullptr);
  service->setHung(true);
  // Un-hang after 25 ms — within the retry budget (10, 20, 40... ms).
  sim_.scheduleAfter(milliseconds(25), [&] { service->setHung(false); });

  Status final = internalError("never fired");
  ExpBackoff backoff;
  backoff.base = milliseconds(10);
  dataPlane_.executeLoadWithRetry(
      LoadCommand{"tpu-00", {zoo::kMobileNetV1}, {}}, backoff,
      [&](const Status& s) { final = s; });
  sim_.run();
  EXPECT_TRUE(final.isOk()) << final.toString();
  EXPECT_GE(dataPlane_.loadRetries(), 1u);
  EXPECT_TRUE(topo_.findTpu("tpu-00")->isResident(zoo::kMobileNetV1));
}

TEST_F(ReliabilityTest, LoadRetryStopsWhenBudgetExhausted) {
  dataPlane_.service("tpu-00")->setHung(true);  // forever
  Status final = Status::ok();
  ExpBackoff backoff;
  backoff.base = milliseconds(10);
  backoff.maxAttempts = 3;
  dataPlane_.executeLoadWithRetry(
      LoadCommand{"tpu-00", {zoo::kMobileNetV1}, {}}, backoff,
      [&](const Status& s) { final = s; });
  sim_.run();
  EXPECT_EQ(final.code(), StatusCode::kUnavailable);
  EXPECT_EQ(dataPlane_.loadRetries(), 3u);
}

TEST_F(ReliabilityTest, LoadRetryOnRemovedServiceFailsPermanentlyAndFast) {
  dataPlane_.removeService("tpu-00");
  Status final = Status::ok();
  dataPlane_.executeLoadWithRetry(
      LoadCommand{"tpu-00", {zoo::kMobileNetV1}, {}}, ExpBackoff{},
      [&](const Status& s) { final = s; });
  // Permanent failure: reported synchronously, no retry events scheduled.
  EXPECT_EQ(final.code(), StatusCode::kUnavailable);
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

}  // namespace
}  // namespace microedge
