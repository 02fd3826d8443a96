#pragma once

// Coral-Pie (Xu et al., Middleware'20): space-time vehicle tracking on a
// geo-distributed camera network — the paper's first exemplar application.
//
// Bare metal dedicates two RPis + one TPU per camera: RPi #1 runs the
// detection pipeline (this is the TPU workload the scalability study
// measures), RPi #2 re-identifies vehicles reported by upstream cameras and
// notifies downstream cameras to extend trajectories. The two RPis work
// independently in pipelined fashion, so the stages are modelled as the
// detection CameraPipeline plus a ReIdStage fed over the cluster network.

#include <memory>
#include <set>
#include <string>

#include "apps/pipeline.hpp"
#include "dataplane/transport.hpp"

namespace microedge {

// Re-identification stage on the second RPi. Matches locally detected
// vehicles against the set announced by upstream cameras and constructs
// space-time track segments.
class ReIdStage {
 public:
  struct Config {
    std::string node;  // RPi hosting this stage
    // Embedding comparison + track bookkeeping per detection.
    SimDuration matchLatency = millisecondsF(12.0);
  };

  ReIdStage(Simulator& sim, Config config)
      : sim_(sim), config_(config), node_(internNode(config_.node)) {}

  NodeId node() const { return node_; }

  // A vehicle id announced by an upstream camera (it should appear in this
  // camera's FOV shortly).
  void onUpstreamNotification(std::uint64_t vehicleId);

  // A local detection of `vehicleId`; after the match latency it is counted
  // as re-identified (upstream announced it) or as a new track head.
  void onLocalDetection(std::uint64_t vehicleId);

  std::uint64_t reIdentifiedCount() const { return reIdentified_; }
  std::uint64_t newTrackCount() const { return newTracks_; }

 private:
  Simulator& sim_;
  Config config_;
  NodeId node_{};
  std::set<std::uint64_t> expected_;
  std::set<std::uint64_t> matched_;
  std::uint64_t reIdentified_ = 0;
  std::uint64_t newTracks_ = 0;
};

class CoralPieApp {
 public:
  struct Config {
    std::string name;
    double fps = 15.0;
    std::uint64_t maxFrames = 0;
    bool useDiffDetector = true;
    DiffDetector::Config diffConfig{};
    ReIdStage::Config reid{};
    SloMonitor::Config slo{};
    // Global id space offset so every camera's vehicle phases are distinct
    // unless deliberately shared (the time-shifted dataset trick).
    std::uint64_t vehicleIdBase = 0;
  };

  CoralPieApp(Simulator& sim, std::unique_ptr<TpuClient> client,
              SimTransport& transport, Config config, Pcg32 rng);

  // Downstream camera to notify when a vehicle leaves this FOV.
  void linkDownstream(CoralPieApp* downstream) { downstream_ = downstream; }

  void start() { detection_.start(); }
  void stop() { detection_.stop(); }

  const std::string& name() const { return config_.name; }
  CameraPipeline& detection() { return detection_; }
  const CameraPipeline& detection() const { return detection_; }
  ReIdStage& reid() { return reid_; }
  const ReIdStage& reid() const { return reid_; }
  std::uint64_t vehiclesReported() const { return vehiclesReported_; }

 private:
  void onDetectionComplete(const FrameBreakdown& frame);

  Simulator& sim_;
  SimTransport& transport_;
  Config config_;
  CameraPipeline detection_;
  ReIdStage reid_;
  NodeId detectionNode_{};
  CoralPieApp* downstream_ = nullptr;
  std::uint64_t lastReportedVehicle_ = 0;
  std::uint64_t vehiclesReported_ = 0;
};

}  // namespace microedge
