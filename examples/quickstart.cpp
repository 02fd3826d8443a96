// Quickstart: deploy one camera application on a MicroEdge cluster and watch
// the SLO and latency breakdown.
//
// Walks the public API end to end:
//   1. boot the paper's reference cluster (25 RPis, 6 Coral TPUs);
//   2. submit a pod spec written in YAML, with the two MicroEdge extension
//      knobs (model + tpu-units);
//   3. let the extended scheduler admit it (fractional TPU allocation, model
//      load, LB weights);
//   4. stream 15 FPS camera frames through the shared TPU Service;
//   5. print throughput, per-frame latency components, and TPU utilization.

#include <iostream>

#include "metrics/report.hpp"
#include "orch/spec.hpp"
#include "testbed/testbed.hpp"
#include "util/strings.hpp"

using namespace microedge;

int main() {
  // 1. Boot the cluster.
  Testbed testbed;
  std::cout << "cluster: " << testbed.topology().nodes().size() << " RPis, "
            << testbed.pool().size() << " Coral TPUs\n";

  // 2. The client-facing YAML (the §4.1 interface). The tpu-units value
  //    comes from MicroEdge's offline profiling service:
  double units = testbed.profiledUnits(zoo::kSsdMobileNetV2, 15.0);
  std::string yaml = strCat(
      "name: quickstart-cam\n"
      "image: coral-pie:1.4\n"
      "fps: 15\n"
      "resources:\n"
      "  cpu: 1000m\n"
      "  memory: 512Mi\n"
      "  tpu-units: ", fmtDouble(units, 2), "\n"
      "  model: ", zoo::kSsdMobileNetV2, "\n");
  std::cout << "\nsubmitting pod spec:\n" << yaml << "\n";
  auto spec = podSpecFromYaml(yaml);
  if (!spec.isOk()) {
    std::cerr << "bad spec: " << spec.status() << "\n";
    return 1;
  }

  // 3+4. Deploy through the harness (createPod + client + frame source).
  CameraDeployment deployment;
  deployment.name = spec->name;
  deployment.model = spec->tpu->model;
  deployment.tpuUnits = spec->tpu->tpuUnits;
  deployment.fps = spec->fps;
  auto camera = testbed.deployCamera(deployment);
  if (!camera.isOk()) {
    std::cerr << "deployment rejected: " << camera.status() << "\n";
    return 1;
  }
  const Pod* pod = testbed.api().findPodByName(deployment.name);
  std::cout << "pod bound to " << pod->nodeName << "; TPU shares:";
  for (const LbWeight& w : testbed.scheduler().lbConfig(pod->uid)->weights) {
    std::cout << " " << tpuName(w.tpu) << "=" << w.weight << "m";
  }
  std::cout << "\n\nstreaming 30 seconds of 15 FPS video...\n";

  // 5. Run and report.
  testbed.run(seconds(30));
  const CameraPipeline& pipeline = **camera;
  std::cout << "\nframes completed: " << pipeline.slo().completed()
            << ", achieved FPS: " << fmtDouble(pipeline.slo().achievedFps(), 2)
            << ", SLO " << (pipeline.slo().sloMet() ? "met" : "MISSED") << "\n";
  std::cout << "\n" << pipeline.breakdown().render("per-frame latency");
  std::cout << "\nmean TPU utilization: "
            << fmtDouble(testbed.meanTpuUtilization() * 100.0, 1)
            << "% (one 0.35-unit tenant on a 6-TPU pool — room for "
            << "16 more cameras; see examples/vehicle_tracking)\n";
  return 0;
}
