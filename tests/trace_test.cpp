// MAF-like trace generation and replay: class statistics, determinism,
// downsizing, and event scheduling.

#include <gtest/gtest.h>

#include <map>

#include "models/zoo.hpp"
#include "trace/replay.hpp"

namespace microedge {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : zoo_(zoo::standardZoo()) {}

  MafTraceConfig config() const {
    MafTraceConfig config;
    config.horizon = minutes(20);
    config.seed = 42;
    return config;
  }

  ModelRegistry zoo_;
};

TEST_F(TraceTest, DeterministicForSeed) {
  MafTraceGenerator generator(config());
  auto a = generator.generate(zoo_);
  auto b = generator.generate(zoo_);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].createAt, b[i].createAt);
    EXPECT_EQ(a[i].instanceName, b[i].instanceName);
  }
}

TEST_F(TraceTest, SortedByCreateTime) {
  auto events = MafTraceGenerator(config()).generate(zoo_);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].createAt, events[i].createAt);
  }
}

TEST_F(TraceTest, AllThreeClassesPresentWithExpectedModels) {
  auto events = MafTraceGenerator(config()).generate(zoo_);
  std::map<InvocationClass, int> counts;
  for (const auto& ev : events) {
    counts[ev.cls]++;
    switch (ev.cls) {
      case InvocationClass::kContinuous:
        EXPECT_EQ(ev.model, zoo::kSsdMobileNetV2);
        EXPECT_EQ(ev.lifetime, SimDuration::zero());  // 24x7
        break;
      case InvocationClass::kSparse:
        EXPECT_EQ(ev.model, zoo::kMobileNetV1);
        EXPECT_GT(ev.lifetime, SimDuration::zero());
        break;
      case InvocationClass::kBursty:
        EXPECT_EQ(ev.model, zoo::kUNetV2);
        EXPECT_GT(ev.lifetime, SimDuration::zero());
        break;
    }
    EXPECT_NEAR(ev.tpuUnits, zoo_.at(ev.model).tpuUnitsAt(15.0), 1e-9);
  }
  EXPECT_EQ(counts[InvocationClass::kContinuous], 6);
  EXPECT_GT(counts[InvocationClass::kSparse], 5);
  EXPECT_GT(counts[InvocationClass::kBursty], 5);
}

TEST_F(TraceTest, BurstsArriveInClusters) {
  auto events = MafTraceGenerator(config()).generate(zoo_);
  // Count bursty instances landing within 3 s of another bursty instance;
  // by construction most should.
  std::vector<SimTime> burstTimes;
  for (const auto& ev : events) {
    if (ev.cls == InvocationClass::kBursty) burstTimes.push_back(ev.createAt);
  }
  ASSERT_GT(burstTimes.size(), 4u);
  int clustered = 0;
  for (std::size_t i = 1; i < burstTimes.size(); ++i) {
    if (burstTimes[i] - burstTimes[i - 1] <= seconds(3)) ++clustered;
  }
  EXPECT_GT(clustered, static_cast<int>(burstTimes.size()) / 2);
}

TEST_F(TraceTest, UniqueInstanceNames) {
  auto events = MafTraceGenerator(config()).generate(zoo_);
  std::set<std::string> names;
  for (const auto& ev : events) {
    EXPECT_TRUE(names.insert(ev.instanceName).second) << ev.instanceName;
  }
}

TEST_F(TraceTest, DownsizeRespectsCapacity) {
  auto events = MafTraceGenerator(config()).generate(zoo_);
  auto kept = downsizeToCapacity(events, 4.0, config().horizon);
  EXPECT_LE(kept.size(), events.size());
  // Recompute concurrency of the kept set: never above the cap.
  std::multimap<SimTime, double> endings;
  double concurrent = 0.0;
  for (const auto& ev : kept) {
    while (!endings.empty() && endings.begin()->first <= ev.createAt) {
      concurrent -= endings.begin()->second;
      endings.erase(endings.begin());
    }
    concurrent += ev.tpuUnits;
    EXPECT_LE(concurrent, 4.0 + 1e-9);
    SimTime endAt = ev.lifetime == SimDuration::zero()
                        ? kSimEpoch + config().horizon
                        : ev.createAt + ev.lifetime;
    endings.emplace(endAt, ev.tpuUnits);
  }
}

TEST_F(TraceTest, ReplayerDrivesCreateAndDelete) {
  Simulator sim;
  std::vector<TraceEvent> events;
  TraceEvent short1;
  short1.createAt = kSimEpoch + seconds(1);
  short1.lifetime = seconds(5);
  short1.instanceName = "a";
  TraceEvent forever;
  forever.createAt = kSimEpoch + seconds(2);
  forever.lifetime = SimDuration::zero();
  forever.instanceName = "b";
  TraceEvent rejectedEvent;
  rejectedEvent.createAt = kSimEpoch + seconds(3);
  rejectedEvent.lifetime = seconds(5);
  rejectedEvent.instanceName = "reject-me";
  events = {short1, forever, rejectedEvent};

  std::vector<std::string> log;
  TraceReplayer::Callbacks callbacks;
  callbacks.onCreate = [&](const TraceEvent& ev) {
    log.push_back("create:" + ev.instanceName);
    return ev.instanceName != "reject-me";
  };
  callbacks.onDelete = [&](const TraceEvent& ev) {
    log.push_back("delete:" + ev.instanceName);
  };
  TraceReplayer replayer(sim, events, callbacks);
  replayer.scheduleAll(seconds(30));
  sim.run();

  EXPECT_EQ(replayer.attempted(), 3u);
  EXPECT_EQ(replayer.accepted(), 2u);
  EXPECT_EQ(replayer.rejected(), 1u);
  EXPECT_EQ(replayer.activeCount(), 0u);
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[0], "create:a");
  EXPECT_EQ(log[3], "delete:a");      // t = 6 s
  EXPECT_EQ(log[4], "delete:b");      // horizon
}

}  // namespace
}  // namespace microedge
