// Dynamic fleet: cameras that come and go (the §6.3 scenario).
//
// Replays a seeded MAF-style trace — 24x7 detection streams, sparse
// classification wake-ups, bursty segmentation events — against the full
// MicroEdge stack. Admission control accepts what fits, the reclamation
// poller returns TPU units when streams retire, and the pool's utilization
// breathes with the workload.

#include <iostream>

#include "metrics/report.hpp"
#include "testbed/scenarios.hpp"
#include "util/strings.hpp"

using namespace microedge;

int main() {
  TraceScenarioConfig config;
  config.trace.horizon = minutes(12);
  config.trace.seed = 7;
  config.capacityUnits = 7.0;
  config.sampleWindow = minutes(1);
  config.testbed.mode = SchedulingMode::kMicroEdgeWp;
  config.testbed.enableCoCompile = true;

  std::cout << "replaying a " << toSeconds(config.trace.horizon) / 60.0
            << "-minute trace (continuous="
            << MafTraceGenerator::kContinuousModel
            << ", sparse=" << MafTraceGenerator::kSparseModel
            << ", bursty=" << MafTraceGenerator::kBurstyModel << ")...\n";

  TraceRunResult result = runTraceScenario(config);

  std::cout << banner("fleet timeline");
  TextTable table({"minute", "cameras served", "mean TPU utilization"});
  for (std::size_t w = 0; w < result.activePerWindow.size(); ++w) {
    table.addRow({std::to_string(w + 1),
                  std::to_string(result.activePerWindow[w]),
                  w < result.utilizationPerWindow.size()
                      ? fmtDouble(result.utilizationPerWindow[w] * 100.0, 1) + "%"
                      : "-"});
  }
  std::cout << table.render();

  std::cout << "\nstream deployments: " << result.attempted << " attempted, "
            << result.accepted << " admitted, " << result.rejected
            << " rejected by admission control\n";
  std::cout << "streams meeting SLO: " << result.slo.streamsMeetingSlo << "/"
            << result.slo.streams << "\n";
  std::cout << "\nAdmission only accepts duty cycles the TPUs can absorb, so\n"
               "admitted streams (essentially all of them) keep their\n"
               "throughput SLO; rejected requests fail fast at deployment\n"
               "time instead of degrading everyone at runtime.\n";
  return 0;
}
