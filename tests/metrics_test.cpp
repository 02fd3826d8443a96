// Metrics layer: utilization windows, SLO monitor logic, breakdown
// aggregation and report tables.

#include <gtest/gtest.h>

#include <set>

#include "metrics/breakdown.hpp"
#include "metrics/report.hpp"
#include "metrics/slo.hpp"
#include "metrics/utilization.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

TEST(UtilizationTrackerTest, MeasuresBusyFraction) {
  Simulator sim;
  ModelRegistry zoo = zoo::standardZoo();
  TpuDevice tpu(sim, zoo, "tpu-00");
  ASSERT_TRUE(tpu.loadModels({zoo::kMobileNetV1}).isOk());
  sim.run();

  UtilizationTracker tracker(sim, {&tpu}, seconds(1));
  tracker.start();
  // 45 ms of work per second for 5 seconds => ~4.5% utilization. The load
  // above already advanced the clock, so run relative to now().
  PeriodicTask driver(sim, milliseconds(100), [&] {
    // 4.5 ms each.
    Status s = tpu.invoke(lookupModel(zoo::kMobileNetV1), nullptr);
    (void)s;
  });
  driver.start();
  sim.runUntil(sim.now() + seconds(5) + milliseconds(1));
  driver.stop();
  tracker.stop();

  ASSERT_EQ(tracker.samples().size(), 5u);
  for (const auto& sample : tracker.samples()) {
    EXPECT_NEAR(sample.mean, 0.045, 0.01) << toString(sample.at);
  }
  EXPECT_NEAR(tracker.overallMean(), 0.045, 0.01);
  ASSERT_EQ(tracker.overallPerTpu().size(), 1u);
}

TEST(UtilizationTrackerTest, StartResetsBaseline) {
  Simulator sim;
  ModelRegistry zoo = zoo::standardZoo();
  TpuDevice tpu(sim, zoo, "tpu-00");
  ASSERT_TRUE(tpu.loadModels({zoo::kEfficientNetLite0}).isOk());
  // Burn 69 ms of busy time before tracking starts.
  ASSERT_TRUE(tpu.invoke(lookupModel(zoo::kEfficientNetLite0), nullptr).isOk());
  sim.run();

  UtilizationTracker tracker(sim, {&tpu}, seconds(1));
  tracker.start();
  sim.runUntil(sim.now() + seconds(2));
  // No work after start: utilization must be ~0 despite earlier busy time.
  EXPECT_NEAR(tracker.overallMean(), 0.0, 1e-9);
}

TEST(SloMonitorTest, ThroughputCheck) {
  SloMonitor monitor(SloMonitor::Config{15.0, 0.05, 8, {}});
  SimTime t = kSimEpoch;
  for (int i = 0; i < 150; ++i) {
    monitor.recordSubmitted(t);
    monitor.recordCompleted(t + milliseconds(30), milliseconds(30));
    t += framePeriod(15.0);
  }
  EXPECT_NEAR(monitor.achievedFps(), 15.0, 0.2);
  EXPECT_TRUE(monitor.throughputMet());
  EXPECT_TRUE(monitor.sloMet());
}

TEST(SloMonitorTest, SlowCompletionsFailThroughput) {
  SloMonitor monitor(SloMonitor::Config{15.0, 0.05, 8, {}});
  SimTime t = kSimEpoch;
  for (int i = 0; i < 100; ++i) {
    monitor.recordSubmitted(t);
    // Completions at only 10 FPS.
    monitor.recordCompleted(kSimEpoch + i * framePeriod(10.0),
                            milliseconds(50));
    t += framePeriod(15.0);
  }
  EXPECT_LT(monitor.achievedFps(), 11.0);
  EXPECT_FALSE(monitor.throughputMet());
}

TEST(SloMonitorTest, QueueStability) {
  SloMonitor monitor(SloMonitor::Config{0.0, 0.05, 4, {}});
  for (int i = 0; i < 10; ++i) monitor.recordSubmitted(kSimEpoch);
  for (int i = 0; i < 3; ++i) {
    monitor.recordCompleted(kSimEpoch + milliseconds(10), milliseconds(10));
  }
  EXPECT_EQ(monitor.outstanding(), 7u);
  EXPECT_FALSE(monitor.queueStable());
  EXPECT_FALSE(monitor.sloMet());
}

TEST(SloMonitorTest, LatencyBound) {
  SloMonitor::Config config{0.0, 0.05, 100, milliseconds(50)};
  SloMonitor monitor(config);
  monitor.recordSubmitted(kSimEpoch);
  monitor.recordCompleted(kSimEpoch + milliseconds(30), milliseconds(30));
  EXPECT_TRUE(monitor.latencyMet());
  monitor.recordSubmitted(kSimEpoch);
  monitor.recordCompleted(kSimEpoch + milliseconds(80), milliseconds(80));
  EXPECT_FALSE(monitor.latencyMet());
  EXPECT_FALSE(monitor.sloMet());
}

TEST(SloMonitorTest, IdleStreamMeetsSlo) {
  SloMonitor monitor(SloMonitor::Config{15.0, 0.05, 4, {}});
  EXPECT_TRUE(monitor.sloMet());  // never started => vacuously fine
}

TEST(SloReportTest, Summarizes) {
  SloMonitor good(SloMonitor::Config{0.0, 0.05, 8, {}});
  good.recordSubmitted(kSimEpoch);
  good.recordCompleted(kSimEpoch + milliseconds(20), milliseconds(20));
  SloMonitor bad(SloMonitor::Config{0.0, 0.05, 0, {}});
  bad.recordSubmitted(kSimEpoch);  // outstanding forever

  SloReport report = summarizeSlo({&good, &bad});
  EXPECT_EQ(report.streams, 2u);
  EXPECT_EQ(report.streamsMeetingSlo, 1u);
  EXPECT_FALSE(report.allMet());
}

TEST(BreakdownAggregatorTest, AggregatesComponents) {
  BreakdownAggregator agg;
  for (int i = 0; i < 10; ++i) {
    FrameBreakdown frame;
    frame.submitted = kSimEpoch;
    frame.preprocess = millisecondsF(2.5);
    frame.requestTransmit = milliseconds(8);
    frame.queueDelay = milliseconds(i);  // varies
    frame.inference = millisecondsF(23.3);
    frame.responseTransmit = microseconds(600);
    frame.postprocess = microseconds(800);
    frame.completed = kSimEpoch + frame.preprocess + frame.requestTransmit +
                      frame.queueDelay + frame.inference +
                      frame.responseTransmit + frame.postprocess;
    agg.add(frame);
  }
  EXPECT_EQ(agg.count(), 10u);
  EXPECT_NEAR(agg.preprocess().meanMs(), 2.5, 1e-9);
  EXPECT_NEAR(agg.inference().meanMs(), 23.3, 1e-9);
  EXPECT_NEAR(agg.queueDelay().meanMs(), 4.5, 1e-9);
  EXPECT_NEAR(agg.meanTransmissionMs(), 8.6, 1e-9);
  EXPECT_GT(agg.endToEnd().meanMs(), 35.0);
  std::string rendered = agg.render("coral-pie");
  EXPECT_NE(rendered.find("inference"), std::string::npos);
  EXPECT_NE(rendered.find("end-to-end"), std::string::npos);
  // No terminal outcome but completion: no outcome line.
  EXPECT_EQ(rendered.find("outcomes:"), std::string::npos);

  // One frame of each terminal outcome: the outcome line names every one,
  // so its counts add up to the terminal count.
  for (FrameOutcome outcome :
       {FrameOutcome::kCompleted, FrameOutcome::kTimedOut, FrameOutcome::kShed,
        FrameOutcome::kDroppedDeadTarget, FrameOutcome::kRejected,
        FrameOutcome::kAdmissionRejected}) {
    FrameBreakdown frame;
    frame.outcome = outcome;
    agg.add(frame);
  }
  EXPECT_EQ(agg.terminalCount(), 6u);
  rendered = agg.render("coral-pie");
  EXPECT_NE(rendered.find("  outcomes: completed 1, timed-out 1, shed 1, "
                          "dead-target 1, rejected 1, admission-rejected 1, "
                          "failed-over 0\n"),
            std::string::npos)
      << rendered;
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"config", "#TPUs", "cost"});
  table.addRow({"baseline", "17", "$2550"});
  table.addRow({"microedge", "6", "$1725"});
  std::string out = table.render();
  EXPECT_NE(out.find("config"), std::string::npos);
  EXPECT_NE(out.find("$1725"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.addRow({"only-one"});
  EXPECT_NO_THROW(table.render());
}

}  // namespace
}  // namespace microedge
