// Discrete-event simulator: ordering, determinism, cancellation, periodic
// tasks and partial runs.

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace microedge {
namespace {

TEST(SimulatorTest, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(kSimEpoch + milliseconds(30), [&] { order.push_back(3); });
  sim.schedule(kSimEpoch + milliseconds(10), [&] { order.push_back(1); });
  sim.schedule(kSimEpoch + milliseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  SimTime t = kSimEpoch + milliseconds(5);
  for (int i = 0; i < 10; ++i) {
    sim.schedule(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  SimTime seen{};
  sim.scheduleAfter(milliseconds(42), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, kSimEpoch + milliseconds(42));
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(42));
}

TEST(SimulatorTest, ScheduleInPastClampsToNow) {
  Simulator sim;
  sim.scheduleAfter(milliseconds(10), [&] {
    // Attempt to schedule "before now": clamped, still fires.
    sim.schedule(kSimEpoch, [] {});
  });
  EXPECT_EQ(sim.run(), 2u);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.scheduleAfter(milliseconds(5), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.firedCount(), 0u);
}

TEST(SimulatorTest, CancelInvalidIdIsNoop) {
  Simulator sim;
  sim.cancel(EventId{});
  sim.cancel(EventId{9999});
  EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(milliseconds(10), [&] { ++fired; });
  sim.scheduleAfter(milliseconds(20), [&] { ++fired; });
  sim.scheduleAfter(milliseconds(30), [&] { ++fired; });
  EXPECT_EQ(sim.runUntil(kSimEpoch + milliseconds(20)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(20));
  EXPECT_EQ(sim.pendingCount(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesNowEvenWithoutEvents) {
  Simulator sim;
  sim.runUntil(kSimEpoch + seconds(9));
  EXPECT_EQ(sim.now(), kSimEpoch + seconds(9));
}

TEST(SimulatorTest, EventsScheduledDuringRunAreProcessed) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.scheduleAfter(milliseconds(1), chain);
  };
  sim.scheduleAfter(milliseconds(1), chain);
  sim.run();
  EXPECT_EQ(depth, 5);
}

TEST(SimulatorTest, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(milliseconds(1), [&] { ++fired; });
  sim.scheduleAfter(milliseconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(PeriodicTaskTest, FiresAtFixedInterval) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, milliseconds(100), [&] { fires.push_back(sim.now()); });
  task.start();
  sim.runUntil(kSimEpoch + milliseconds(350));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], kSimEpoch + milliseconds(100));
  EXPECT_EQ(fires[2], kSimEpoch + milliseconds(300));
}

TEST(PeriodicTaskTest, StopHalts) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, milliseconds(10), [&] { ++count; });
  task.start();
  sim.runUntil(kSimEpoch + milliseconds(35));
  task.stop();
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTaskTest, CallbackCanStopItself) {
  Simulator sim;
  int count = 0;
  PeriodicTask* handle = nullptr;
  PeriodicTask task(sim, milliseconds(10), [&] {
    if (++count == 2) handle->stop();
  });
  handle = &task;
  task.start();
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTaskTest, DestructorCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(sim, milliseconds(10), [&] { ++count; });
    task.start();
    sim.runUntil(kSimEpoch + milliseconds(15));
  }
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(SimulatorTest, CancelFiredIdKeepsPendingCountSane) {
  // Regression: the seed engine tombstoned cancels of already-fired ids,
  // which made pendingCount() (queue size minus tombstones) wrap and
  // empty() lie.
  Simulator sim;
  EventId id = sim.scheduleAfter(milliseconds(1), [] {});
  sim.scheduleAfter(milliseconds(2), [] {});
  ASSERT_TRUE(sim.step());  // fires `id`
  sim.cancel(id);           // stale id: must be a no-op
  sim.cancel(id);           // double-cancel: still a no-op
  EXPECT_EQ(sim.pendingCount(), 1u);
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.pendingCount(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, DoubleCancelDoesNotUnderflowPendingCount) {
  Simulator sim;
  EventId id = sim.scheduleAfter(milliseconds(1), [] {});
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.pendingCount(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, StaleIdOnRecycledSlotIsNoop) {
  Simulator sim;
  EventId a = sim.scheduleAfter(milliseconds(1), [] {});
  sim.run();
  // B re-uses A's slot; the stale A handle must not cancel it.
  bool bFired = false;
  sim.scheduleAfter(milliseconds(1), [&] { bFired = true; });
  sim.cancel(a);
  EXPECT_EQ(sim.pendingCount(), 1u);
  sim.run();
  EXPECT_TRUE(bFired);
}

TEST(SimulatorTest, RearmCurrentRepeatsTheFiringCallback) {
  Simulator sim;
  int count = 0;
  sim.scheduleAfter(milliseconds(1), [&] {
    if (++count < 3) sim.rearmCurrentAfter(milliseconds(1));
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(3));
}

TEST(SimulatorTest, CancellingRearmedIdStopsRepetition) {
  Simulator sim;
  int count = 0;
  sim.scheduleAfter(milliseconds(1), [&] {
    ++count;
    EventId next = sim.rearmCurrentAfter(milliseconds(1));
    if (count >= 2) sim.cancel(next);
  });
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(sim.empty());
}

TEST(PeriodicTaskTest, StopTwiceThenRestartIsSafe) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, milliseconds(10), [&] { ++count; });
  task.start();
  sim.runUntil(kSimEpoch + milliseconds(25));
  task.stop();
  task.stop();  // regression: re-stop must not re-cancel a stale id
  bool bystander = false;
  sim.scheduleAfter(milliseconds(1), [&] { bystander = true; });
  task.stop();  // nor after an unrelated event took over the seq space
  sim.run();
  EXPECT_TRUE(bystander);
  EXPECT_EQ(count, 2);
  task.start();
  sim.runFor(milliseconds(15));
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto runOnce = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(kSimEpoch + milliseconds(i % 7), [&order, i] {
        order.push_back(i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

// The engine's calling contract holds in every build: each violation
// aborts with its context instead of corrupting the run.
TEST(SimulatorDeathTest, RearmOutsideACallbackAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  EXPECT_DEATH(sim.rearmCurrentAfter(milliseconds(1)),
               "rearmCurrentAfter: called outside a firing callback");
}

TEST(SimulatorDeathTest, EmitterTrackingWithEventsPendingAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  sim.setEmitterTracking(true);  // nothing pending yet: allowed
  sim.setEmitterTracking(false);
  sim.scheduleAfter(milliseconds(1), [] {});
  sim.setEmitterTracking(false);  // turning it off is always allowed
  EXPECT_DEATH(sim.setEmitterTracking(true),
               "enabled with 1 events already pending");
}

TEST(SimulatorDeathTest, NextEmitterTimeInsideACallbackAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  sim.setEmitterTracking(true);
  sim.scheduleAfter(milliseconds(1), [&sim] { sim.nextEmitterTime(); });
  EXPECT_DEATH(sim.run(), "nextEmitterTime: called from inside a firing");
}

TEST(SimulatorDeathTest, RunBeforeOutsideNowAndBoundAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  sim.runFor(milliseconds(10));
  // Past the bound.
  EXPECT_DEATH(sim.runBefore(kSimEpoch + milliseconds(20),
                             kSimEpoch + milliseconds(21)),
               "runBefore: advanceTo=21000000 ns outside");
  // Before now.
  EXPECT_DEATH(sim.runBefore(kSimEpoch + milliseconds(20),
                             kSimEpoch + milliseconds(5)),
               "runBefore: advanceTo=5000000 ns outside");
  // The two ends of the range are allowed.
  sim.runBefore(kSimEpoch + milliseconds(20), kSimEpoch + milliseconds(10));
  sim.runBefore(kSimEpoch + milliseconds(20), kSimEpoch + milliseconds(20));
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(20));
}

}  // namespace
}  // namespace microedge
