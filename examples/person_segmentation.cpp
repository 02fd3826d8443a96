// Person segmentation: BodyPix, the paper's "heavy model" application.
//
// BodyPix MobileNet V1 costs 1.2 TPU units at 15 FPS — more than one whole
// TPU — so no single device can serve a camera. MicroEdge's workload
// partitioning fans successive frames across two TPU Services with weights
// chosen by admission control; the bare-metal alternative burns two
// dedicated TPUs per camera. This example deploys three segmentation
// cameras onto the 6-TPU pool and shows the weight split, the per-TPU frame
// counts, occupancy analytics, and utilization.

#include <iostream>

#include "metrics/report.hpp"
#include "testbed/testbed.hpp"
#include "util/strings.hpp"

using namespace microedge;

int main() {
  Testbed testbed;
  std::cout << "BodyPix at 15 FPS needs "
            << fmtDouble(testbed.profiledUnits(zoo::kBodyPixMobileNetV1, 15.0), 2)
            << " TPU units -> every camera must span TPUs.\n\n";

  constexpr int kCameras = 3;
  std::vector<BodyPixApp*> apps;
  for (int i = 0; i < kCameras; ++i) {
    CameraDeployment deployment;
    deployment.name = "lobby-cam-" + std::to_string(i);
    deployment.model = zoo::kBodyPixMobileNetV1;
    deployment.fps = 15.0;
    auto app = testbed.deployBodyPix(deployment);
    if (!app.isOk()) {
      std::cerr << "deploy failed: " << app.status() << "\n";
      return 1;
    }
    apps.push_back(*app);
    const Pod* pod = testbed.api().findPodByName(deployment.name);
    std::cout << deployment.name << " partition:";
    for (const TpuShare& share :
         testbed.reclamation().allocationOf(pod->uid)->shares) {
      std::cout << " " << tpuName(share.tpu) << "="
                << fmtDouble(share.units.value(), 2);
    }
    std::cout << "\n";
  }

  std::cout << "\npool after admission: "
            << testbed.pool().totalLoad().toString() << " units on "
            << testbed.pool().usedTpuCount() << " TPUs\n"
            << "running 60 seconds...\n\n";
  testbed.run(seconds(60));

  TextTable table({"camera", "frames", "achieved FPS", "p99 latency (ms)",
                   "mean occupancy", "frames w/ people"});
  for (BodyPixApp* app : apps) {
    const SloMonitor& slo = app->pipeline().slo();
    table.addRow({app->name(), std::to_string(slo.completed()),
                  fmtDouble(slo.achievedFps(), 2),
                  fmtDouble(slo.latency().p99Ms(), 1),
                  fmtDouble(app->occupancy().mean(), 3),
                  std::to_string(app->framesWithPeople())});
  }
  std::cout << table.render();

  std::cout << "\nper-TPU frames served:\n";
  for (TpuService* service : testbed.dataPlane().services()) {
    if (service->invokeCount() == 0) continue;
    std::cout << "  " << service->tpuId() << ": " << service->invokeCount()
              << " invokes, utilization "
              << fmtDouble(toSeconds(service->device().busyTime()) /
                               toSeconds(testbed.sim().now() - kSimEpoch) *
                               100.0,
                           1)
              << "%\n";
  }
  std::cout << "\n3 cameras x 1.2 units = 3.6 TPUs of real demand on "
            << testbed.pool().size()
            << " TPUs; the baseline would already need "
            << kCameras * 2 << " dedicated TPUs.\n";
  return 0;
}
