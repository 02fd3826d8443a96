// Ablation — deployment-time allocation vs serverless per-request
// scheduling (§2's design argument, quantified per §6.4.2).
//
// The same camera fleet runs twice on the same simulated cluster:
//   direct     — MicroEdge's path: admission at deployment, LBS-pinned
//                TPU Services, one network hop;
//   serverless — every frame goes to a shared per-model queue on a
//                dispatcher node, a runtime decision picks the least-loaded
//                TPU, and the frame moves a second time. Runtime-chosen
//                TPUs also swap models whenever tenants with different
//                models interleave.
// Reports per-frame latency (mean/p99), queueing, swap counts and SLO
// compliance.

#include <iostream>
#include <memory>
#include <vector>

#include "apps/camera.hpp"
#include "metrics/breakdown.hpp"
#include "metrics/report.hpp"
#include "metrics/slo.hpp"
#include "models/zoo.hpp"
#include "testbed/serverless_baseline.hpp"
#include "util/strings.hpp"

using namespace microedge;

namespace {

struct FleetResult {
  BreakdownAggregator breakdown;
  // Aggregate over the 4-camera fleet: 4 x 15 FPS.
  SloMonitor slo{SloMonitor::Config{60.0, 0.05, 32, {}}};
  std::size_t swaps = 0;
};

struct StreamSpec {
  std::string model;
  std::string clientNode;
};

std::vector<StreamSpec> fleet() {
  // Two models, four cameras: enough interleave to expose swap churn in the
  // serverless path (MobileNet V1 + UNet V2 co-compile fine under
  // MicroEdge).
  return {{zoo::kMobileNetV1, "vrpi-00"},
          {zoo::kUNetV2, "vrpi-01"},
          {zoo::kMobileNetV1, "vrpi-02"},
          {zoo::kUNetV2, "vrpi-03"}};
}

FleetResult runDirect(SimDuration horizon) {
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ModelRegistry registry = zoo::standardZoo();
  TopologySpec topoSpec;
  topoSpec.vRpiCount = 6;
  topoSpec.tRpiCount = 2;
  ClusterTopology topo(sharded, registry, topoSpec);
  DataPlane dataPlane(sharded, topo, registry);
  // Deployment-time placement: both models co-compiled on both TPUs, each
  // camera pinned with unit weights (what admission control would emit).
  for (const char* tpu : {"tpu-00", "tpu-01"}) {
    Status s = dataPlane.executeLoad(
        LoadCommand{tpu, {zoo::kMobileNetV1, zoo::kUNetV2}, {}});
    (void)s;
  }
  sim.run();

  FleetResult result;
  std::vector<std::unique_ptr<TpuClient>> clients;
  std::vector<std::unique_ptr<CameraStream>> cameras;
  int index = 0;
  for (const StreamSpec& spec : fleet()) {
    auto client = dataPlane.makeClient(spec.clientNode, spec.model);
    // One MobileNet + one UNet stream per TPU (~0.89 units each), exactly
    // what Algorithm 1 would produce for this fleet.
    std::string tpu = index < 2 ? "tpu-00" : "tpu-01";
    Status s = client->configureLb(LbConfig{{LbWeight{internTpu(tpu), 500}}});
    (void)s;
    TpuClient* raw = client.get();
    clients.push_back(std::move(client));
    cameras.push_back(std::make_unique<CameraStream>(
        sim, CameraStream::Config{15.0, 0}, [&result, raw, &sim](std::uint64_t) {
          result.slo.recordSubmitted(sim.now());
          Status st = raw->invoke([&result](const FrameBreakdown& frame) {
            result.slo.recordCompleted(frame.completed, frame.endToEnd());
            result.breakdown.add(frame);
          });
          (void)st;
        }));
    cameras.back()->start();
    ++index;
  }
  sim.runUntil(kSimEpoch + horizon);
  for (auto& camera : cameras) camera->stop();
  sim.run();
  for (const auto& tpu : topo.tpus()) result.swaps += tpu->swapCount();
  return result;
}

FleetResult runServerless(SimDuration horizon) {
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ModelRegistry registry = zoo::standardZoo();
  TopologySpec topoSpec;
  topoSpec.vRpiCount = 6;
  topoSpec.tRpiCount = 2;
  ClusterTopology topo(sharded, registry, topoSpec);
  DataPlane dataPlane(sharded, topo, registry);
  // Serverless: no deployment-time model placement; first use loads.
  ServerlessDispatcher::Config dispatcherConfig;
  dispatcherConfig.dispatcherNode = "vrpi-05";
  ServerlessDispatcher dispatcher(sim, dataPlane, topo, registry, dispatcherConfig);

  FleetResult result;
  std::vector<std::unique_ptr<CameraStream>> cameras;
  for (const StreamSpec& spec : fleet()) {
    cameras.push_back(std::make_unique<CameraStream>(
        sim, CameraStream::Config{15.0, 0},
        [&result, &dispatcher, &sim, spec](std::uint64_t) {
          result.slo.recordSubmitted(sim.now());
          Status st = dispatcher.invoke(
              spec.clientNode, spec.model,
              [&result](const FrameBreakdown& frame) {
                result.slo.recordCompleted(frame.completed, frame.endToEnd());
                result.breakdown.add(frame);
              });
          (void)st;
        }));
    cameras.back()->start();
  }
  sim.runUntil(kSimEpoch + horizon);
  for (auto& camera : cameras) camera->stop();
  sim.run();
  for (const auto& tpu : topo.tpus()) result.swaps += tpu->swapCount();
  return result;
}

}  // namespace

int main() {
  const SimDuration kHorizon = seconds(30);
  FleetResult direct = runDirect(kHorizon);
  FleetResult serverless = runServerless(kHorizon);

  std::cout << banner(
      "Ablation — deployment-time allocation vs serverless per-request "
      "scheduling");
  TextTable table({"metric", "MicroEdge (direct)", "serverless"});
  auto addMs = [&](const char* label, double a, double b) {
    table.addRow({label, fmtDouble(a, 2), fmtDouble(b, 2)});
  };
  addMs("end-to-end mean (ms)", direct.breakdown.endToEnd().meanMs(),
        serverless.breakdown.endToEnd().meanMs());
  addMs("end-to-end p99 (ms)", direct.breakdown.endToEnd().p99Ms(),
        serverless.breakdown.endToEnd().p99Ms());
  addMs("transmission mean (ms)", direct.breakdown.meanTransmissionMs(),
        serverless.breakdown.meanTransmissionMs());
  addMs("queue delay mean (ms)", direct.breakdown.queueDelay().meanMs(),
        serverless.breakdown.queueDelay().meanMs());
  addMs("inference mean (ms)", direct.breakdown.inference().meanMs(),
        serverless.breakdown.inference().meanMs());
  table.addRow({"model swaps", std::to_string(direct.swaps),
                std::to_string(serverless.swaps)});
  table.addRow({"achieved FPS (4-cam fleet)",
                fmtDouble(direct.slo.achievedFps(), 1),
                fmtDouble(serverless.slo.achievedFps(), 1)});
  table.addRow({"throughput SLO", direct.slo.throughputMet() ? "met" : "MISSED",
                serverless.slo.throughputMet() ? "met" : "MISSED"});
  std::cout << table.render();

  std::cout << "\nReading: per-request scheduling moves every frame twice and\n"
               "lets runtime-chosen TPUs thrash between models; on RPi-class\n"
               "hardware that latency cannot be hidden — the reason\n"
               "MicroEdge allocates at deployment time (§2, §6.4.2).\n";
  return 0;
}
