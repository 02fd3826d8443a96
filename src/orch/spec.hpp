#pragma once

// PodSpec <-> YAML binding.
//
// Accepted document shape (the paper's §4.1 interface; quantities use the
// usual K3s suffixes):
//
//   name: camera-03
//   image: coral-pie:1.4
//   fps: 15
//   resources:
//     cpu: 500m          # or whole cores: "1"
//     memory: 256Mi      # Mi / Gi
//     tpu-units: 0.35    # MicroEdge extension
//     model: ssd-mobilenet-v2   # MicroEdge extension
//   labels:
//     app: coral-pie
//   nodeSelector:
//     tier: edge
//   antiAffinity: coral-pie-camera

#include <string>

#include "orch/pod.hpp"
#include "orch/yaml.hpp"
#include "util/status.hpp"

namespace microedge {

StatusOr<PodSpec> podSpecFromYaml(const std::string& yamlText);
StatusOr<PodSpec> podSpecFromYaml(const YamlNode& root);

// "500m" -> 500, "2" -> 2000. K3s CPU-unit syntax.
StatusOr<long> parseCpuMillicores(const std::string& text);
// "256Mi" -> 256, "2Gi" -> 2048, bare number -> MB.
StatusOr<long> parseMemoryMb(const std::string& text);

// A TPU-units request is positive and its milli-unit count fits int64, the
// domain of TpuUnit::fromDouble (false for NaN).
bool validTpuUnits(double units);

// Renders a spec back to YAML (round-trips through podSpecFromYaml).
std::string podSpecToYaml(const PodSpec& spec);

}  // namespace microedge
