// Ablation — LB Service spread discipline (§5.3's design choice).
//
// The paper's LBS uses Weighted Round Robin with a WFQ-like smooth spread.
// This bench compares it against naive burst WRR (weight_i consecutive
// picks per target) for a high-rate pod partitioned across THREE TPUs
// (weights 0.35/0.35/0.30) that also carry 0.5-unit background tenants.
// Long-run proportions are identical by construction; burst WRR routes
// trains of ~7 consecutive frames to one TPU, transiently oversubscribing
// it (45 FPS x 23.3 ms = 105% instantaneous + 50% background) while the
// other two idle — queueing-delay tails grow for everyone sharing the
// device. Smooth WRR interleaves, keeping instantaneous load near the mean.

#include <iostream>
#include <memory>

#include "apps/camera.hpp"
#include "metrics/breakdown.hpp"
#include "metrics/report.hpp"
#include "models/zoo.hpp"
#include "testbed/testbed.hpp"
#include "util/strings.hpp"

using namespace microedge;

namespace {

struct SpreadResult {
  BreakdownAggregator split;       // the partitioned pod
  BreakdownAggregator background;  // the co-tenants
};

SpreadResult runSpread(LbSpread spread) {
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ModelRegistry registry = zoo::standardZoo();
  TopologySpec topoSpec;
  topoSpec.vRpiCount = 6;
  topoSpec.tRpiCount = 3;
  ClusterTopology topo(sharded, registry, topoSpec);
  DataPlane dataPlane(sharded, topo, registry);
  const std::vector<std::string> tpus = {"tpu-00", "tpu-01", "tpu-02"};
  for (const auto& tpu : tpus) {
    Status s =
        dataPlane.executeLoad(LoadCommand{tpu, {zoo::kSsdMobileNetV2}, {}});
    (void)s;
  }
  sim.run();

  SpreadResult result;
  // The partitioned pod: 45 FPS of detection (1.05 units) split
  // 0.35/0.35/0.30 — what admission would hand a high-rate stream.
  auto splitClient =
      dataPlane.makeClient("vrpi-00", zoo::kSsdMobileNetV2, spread);
  Status s =
      splitClient->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 350},
                                         LbWeight{internTpu("tpu-01"), 350},
                                         LbWeight{internTpu("tpu-02"), 300}}});
  (void)s;
  CameraStream splitCam(sim, CameraStream::Config{45.0, 0}, [&](std::uint64_t) {
    Status st = splitClient->invoke([&](const FrameBreakdown& frame) {
      result.split.add(frame);
    });
    (void)st;
  });

  // A 0.5-unit background tenant per TPU (smooth spread; the discipline
  // under test is the split pod's).
  std::vector<std::unique_ptr<TpuClient>> bgClients;
  std::vector<std::unique_ptr<CameraStream>> bgCams;
  for (std::size_t i = 0; i < tpus.size(); ++i) {
    auto client = dataPlane.makeClient(strCat("vrpi-0", i + 1),
                                       zoo::kSsdMobileNetV2);
    Status st =
        client->configureLb(LbConfig{{LbWeight{internTpu(tpus[i]), 500}}});
    (void)st;
    TpuClient* raw = client.get();
    bgClients.push_back(std::move(client));
    // 0.5 units of SSD MobileNet V2 = 21.46 FPS.
    bgCams.push_back(std::make_unique<CameraStream>(
        sim, CameraStream::Config{21.46, 0}, [&result, raw](std::uint64_t) {
          Status st2 = raw->invoke([&result](const FrameBreakdown& frame) {
            result.background.add(frame);
          });
          (void)st2;
        }));
  }

  splitCam.start();
  for (auto& cam : bgCams) cam->start();
  sim.runUntil(kSimEpoch + seconds(60));
  splitCam.stop();
  for (auto& cam : bgCams) cam->stop();
  splitClient->stop();
  sim.run();
  return result;
}

}  // namespace

int main() {
  SpreadResult smooth = runSpread(LbSpread::kSmooth);
  SpreadResult burst = runSpread(LbSpread::kBurst);

  std::cout << banner(
      "Ablation — LBS spread: smooth WRR (WFQ-like) vs naive burst WRR");
  TextTable table({"metric", "smooth WRR", "burst WRR"});
  auto row = [&](const char* label, double a, double b) {
    table.addRow({label, fmtDouble(a, 2), fmtDouble(b, 2)});
  };
  row("split pod queue delay mean (ms)", smooth.split.queueDelay().meanMs(),
      burst.split.queueDelay().meanMs());
  row("split pod queue delay p99 (ms)", smooth.split.queueDelay().p99Ms(),
      burst.split.queueDelay().p99Ms());
  row("split pod e2e p99 (ms)", smooth.split.endToEnd().p99Ms(),
      burst.split.endToEnd().p99Ms());
  row("background queue delay p99 (ms)",
      smooth.background.queueDelay().p99Ms(),
      burst.background.queueDelay().p99Ms());
  row("background e2e p99 (ms)", smooth.background.endToEnd().p99Ms(),
      burst.background.endToEnd().p99Ms());
  std::cout << table.render();

  std::cout << "\nReading: identical long-run proportions, very different\n"
               "short-term arrival patterns. Burst WRR routes ~7-frame\n"
               "trains (45 FPS x 23.3 ms = 105% instantaneous demand) into a\n"
               "serial run-to-completion device, so both the split pod and\n"
               "its innocent co-tenants eat queueing-delay tails — why the\n"
               "paper's LBS spreads requests WFQ-style.\n";
  return 0;
}
