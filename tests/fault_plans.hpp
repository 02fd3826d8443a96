#pragma once

// Seeded random fault plans and their JSON dump: a test helper for
// fault_injector_test and the two chaos soaks, not part of the library.
// A soak draws one plan per seed and prints the failing seed's plan as
// its reproducer.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_injector.hpp"
#include "util/time.hpp"

namespace microedge {

struct RandomFaultPlanConfig {
  std::vector<std::string> tpus;   // crash/hang candidates
  std::vector<std::string> nodes;  // death candidates (tRPis)
  SimDuration earliest = seconds(1);  // fault window start
  SimDuration horizon = seconds(6);   // fault window end
  std::size_t maxTpuCrashes = 1;
  std::size_t maxTpuHangs = 2;
  std::size_t maxNodeDeaths = 0;
  std::size_t maxTransportFaults = 2;
  SimDuration minWindow = milliseconds(200);  // hang / transport windows
  SimDuration maxWindow = milliseconds(1500);
  double maxLossProbability = 0.5;
  double maxLatencyMultiplier = 6.0;
};

// Draws a plan from `seed`: distinct crash targets, hang/transport
// windows inside [earliest, horizon]. Same seed + config => same plan.
FaultPlan randomFaultPlan(std::uint64_t seed,
                          const RandomFaultPlanConfig& config);

// Machine-readable dump (reproducing a failing chaos seed starts here).
std::string faultPlanJson(const FaultPlan& plan);

}  // namespace microedge
