// Ablation — defragmentation after churn.
//
// Streams come and go (§2's need-basis allocation); departures leave load
// smeared across TPUs and multi-share pods scattered. This bench runs a
// churn phase, then measures (a) how many additional cameras fit before vs
// after a defrag pass, and (b) the share/TPU compaction the pass achieves.

#include <iostream>

#include "metrics/report.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace microedge;

namespace {

struct ChurnOutcome {
  Defragmenter::Report defrag;
  int extraBefore = 0;
  int extraAfter = 0;
};

int probeExtraCapacity(Testbed& testbed, const std::string& tag) {
  // How many 0.5-unit UNet streams fit right now? (Deployed then removed —
  // probing only.)
  int fit = 0;
  std::vector<std::string> deployed;
  for (int i = 0; i < 16; ++i) {
    CameraDeployment probe;
    probe.name = strCat("probe-", tag, "-", i);
    probe.model = zoo::kUNetV2;
    probe.tpuUnits = 0.5;
    if (!testbed.deployCamera(probe).isOk()) break;
    deployed.push_back(probe.name);
    ++fit;
  }
  for (const auto& name : deployed) {
    Status s = testbed.removeCamera(name);
    (void)s;
  }
  testbed.pollReclamationNow();
  return fit;
}

ChurnOutcome runChurn(std::uint64_t seed) {
  Testbed testbed;
  Pcg32 rng(seed);
  // Churn: admit a mix of duty cycles, remove ~half in random order.
  std::vector<std::string> live;
  for (int i = 0; i < 24; ++i) {
    CameraDeployment deployment;
    deployment.name = strCat("churn-", i);
    deployment.model = zoo::kSsdMobileNetV2;
    deployment.tpuUnits = 0.15 + 0.1 * static_cast<double>(rng.nextBounded(6));
    if (testbed.deployCamera(deployment).isOk()) {
      live.push_back(deployment.name);
    }
  }
  testbed.run(seconds(2));
  rng.shuffle(live);
  for (std::size_t i = 0; i < live.size() / 2; ++i) {
    Status s = testbed.removeCamera(live[i]);
    (void)s;
  }
  testbed.run(seconds(5));  // reclamation

  ChurnOutcome outcome;
  outcome.extraBefore = probeExtraCapacity(testbed, "before");
  outcome.defrag = testbed.defragment();
  outcome.extraAfter = probeExtraCapacity(testbed, "after");
  return outcome;
}

}  // namespace

int main() {
  std::cout << banner("Ablation — defragmentation after churn (6 TPUs)");
  TextTable table({"seed", "TPUs in use before", "after", "shares before",
                   "after", "0.5-unit streams that fit: before", "after"});
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    ChurnOutcome outcome = runChurn(seed);
    table.addRow({std::to_string(seed),
                  std::to_string(outcome.defrag.usedTpusBefore),
                  std::to_string(outcome.defrag.usedTpusAfter),
                  std::to_string(outcome.defrag.sharesBefore),
                  std::to_string(outcome.defrag.sharesAfter),
                  std::to_string(outcome.extraBefore),
                  std::to_string(outcome.extraAfter)});
  }
  std::cout << table.render();
  std::cout << "\nReading: a full First-Fit-Decreasing replan compacts the\n"
               "surviving load onto fewer TPUs. With workload partitioning,\n"
               "raw unit capacity is already fragmentation-free, so the\n"
               "visible gains are fewer shares per pod (less fan-out, less\n"
               "cross-TPU traffic) and whole-TPU holes for models that need\n"
               "an empty device (oversized or co-compile-incompatible).\n";
  return 0;
}
