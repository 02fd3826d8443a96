// Fig. 7a — One-time admission-control overhead.
//
// Compares the pod-launch latency of native K3s against MicroEdge's
// extended control plane, with and without co-compilation. Two ingredients:
//
//   1. the *actual* control-plane work is executed and timed in wall-clock
//      terms (default scheduler + Algorithm 1 + LBS configuration) on this
//      machine — it is microseconds, confirming the paper's point that the
//      scheduling extension itself is not what costs time. The measurement
//      goes to stderr: it is far below the table's 1 ms resolution, so the
//      launch model leaves it out and stdout stays byte-for-byte
//      reproducible (tests/golden/ holds it);
//   2. the launch pipeline components that exist only on real hardware are
//      drawn from calibrated distributions (K3s API/bind machinery and
//      container start on an RPi; co-compilation in a parallel process that
//      overlaps the container pull, adding variance but not mean).
//
// Prints mean +/- stddev and p99 for the three configurations; MicroEdge
// lands ~10% above native K3s, and the co-compile variant matches the
// MicroEdge mean with a wider spread — the Fig. 7a shape.

#include <chrono>
#include <iostream>

#include "metrics/report.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace microedge;

namespace {

// Calibrated launch components (ms) for an RPi-4-class node.
constexpr double kK3sControlMeanMs = 210.0;   // API + etcd + bind + kubelet
constexpr double kK3sControlStddevMs = 25.0;
constexpr double kContainerStartMeanMs = 1850.0;
constexpr double kContainerStartStddevMs = 140.0;
constexpr double kLbsConfigMeanMs = 36.0;     // LBS seeding RPC
constexpr double kModelPushMeanMs = 145.0;    // Load RPC to TPU Service
constexpr double kCoCompileMeanMs = 1400.0;   // parallel-process compile
constexpr double kCoCompileStddevMs = 500.0;

double measureExtensionWallClockMs() {
  // Run the real extended-scheduler admission path and time it.
  Testbed testbed;
  CameraDeployment deployment;
  deployment.model = zoo::kSsdMobileNetV2;
  auto start = std::chrono::steady_clock::now();
  constexpr int kPods = 17;
  for (int i = 0; i < kPods; ++i) {
    deployment.name = "timing-" + std::to_string(i);
    auto result = testbed.deployCamera(deployment);
    if (!result.isOk()) break;
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count() / kPods;
}

}  // namespace

int main() {
  double extensionMs = measureExtensionWallClockMs();

  Pcg32 rng(7701);
  constexpr int kTrials = 400;
  Summary k3s, microedge, microedgeCc;
  for (int i = 0; i < kTrials; ++i) {
    double control =
        std::max(50.0, rng.gaussian(kK3sControlMeanMs, kK3sControlStddevMs));
    double container = std::max(
        400.0, rng.gaussian(kContainerStartMeanMs, kContainerStartStddevMs));
    k3s.add(control + container);

    // MicroEdge: Load push + LBS config (the extension work itself is the
    // measured microseconds above).
    double extra = kModelPushMeanMs * rng.uniform(0.8, 1.2) +
                   kLbsConfigMeanMs * rng.uniform(0.8, 1.2);
    microedge.add(control + extra + container);

    // Co-compile runs in a separate process concurrently with the container
    // start: the launch waits for whichever finishes last.
    double compile =
        std::max(500.0, rng.gaussian(kCoCompileMeanMs, kCoCompileStddevMs));
    microedgeCc.add(control + extra + std::max(container, compile));
  }

  std::cerr << "measured extended-scheduler wall-clock per pod: "
            << fmtDouble(extensionMs, 3) << " ms (Algorithm 1 + bookkeeping)\n";
  std::cout << banner("Fig. 7a — admission control overhead (pod launch)");
  std::cout << "\n";
  TextTable table({"config", "mean (ms)", "stddev (ms)", "p99 (ms)",
                   "vs native"});
  auto addRow = [&](const char* label, const Summary& s, const Summary& base) {
    table.addRow({label, fmtDouble(s.mean(), 0), fmtDouble(s.stddev(), 0),
                  fmtDouble(s.p99(), 0),
                  strCat("+", fmtDouble((s.mean() / base.mean() - 1.0) * 100.0,
                                        1),
                         "%")});
  };
  addRow("native K3s", k3s, k3s);
  addRow("MicroEdge", microedge, k3s);
  addRow("MicroEdge + co-compile", microedgeCc, k3s);
  std::cout << table.render();

  std::cout << "\nPaper shape: ~10% launch overhead for MicroEdge; the\n"
               "co-compiling variant keeps roughly the same mean (compile\n"
               "overlaps the container start) but shows a larger variance.\n"
               "One-time cost, off the per-frame critical path.\n";
  return 0;
}
