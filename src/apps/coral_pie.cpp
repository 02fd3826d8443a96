#include "apps/coral_pie.hpp"

namespace microedge {

void ReIdStage::onUpstreamNotification(std::uint64_t vehicleId) {
  expected_.insert(vehicleId);
}

void ReIdStage::onLocalDetection(std::uint64_t vehicleId) {
  if (matched_.count(vehicleId) > 0) return;  // already tracked locally
  // The match itself costs embedding-comparison time on the second RPi; the
  // stage is pipelined with detection, so the cost is modelled as a delay on
  // the bookkeeping, not back-pressure on the camera. Matching compares the
  // local detection's embedding against the gallery announced by upstream
  // cameras: the oldest pending announcement wins (FIFO corridor traffic).
  sim_.scheduleAfter(config_.matchLatency, [this, vehicleId] {
    if (matched_.insert(vehicleId).second) {
      if (expected_.erase(vehicleId) > 0 ||
          (!expected_.empty() && [this] {
            expected_.erase(expected_.begin());
            return true;
          }())) {
        ++reIdentified_;
      } else {
        ++newTracks_;
      }
    }
  });
}

namespace {

CameraPipeline::Config detectionConfig(const CoralPieApp::Config& config) {
  CameraPipeline::Config out;
  out.name = config.name + "/detection";
  out.fps = config.fps;
  out.maxFrames = config.maxFrames;
  if (config.useDiffDetector) out.diffDetector = config.diffConfig;
  out.slo = config.slo;
  if (config.useDiffDetector) {
    // With the difference detector the inference rate is data dependent;
    // throughput is judged by queue stability + latency instead.
    out.slo.targetFps = 0.0;
  }
  return out;
}

}  // namespace

CoralPieApp::CoralPieApp(Simulator& sim, std::unique_ptr<TpuClient> client,
                         SimTransport& transport, Config config, Pcg32 rng)
    : sim_(sim), transport_(transport), config_(std::move(config)),
      detection_(sim, std::move(client), detectionConfig(config_), rng.split()),
      reid_(sim, config_.reid),
      detectionNode_(detection_.client().clientNode()) {
  detection_.setFrameHook(
      [this](const FrameBreakdown& frame) { onDetectionComplete(frame); });
}

void CoralPieApp::onDetectionComplete(const FrameBreakdown& frame) {
  (void)frame;
  DiffDetector* diff = detection_.diffDetector();
  // Without the difference detector the pipeline has no vehicle-identity
  // signal; every frame is inference-only and re-id is a no-op.
  if (diff == nullptr) return;
  if (!diff->activeAt(sim_.now())) return;
  std::uint64_t vehicleId = config_.vehicleIdBase + diff->activePhaseCount();
  if (vehicleId == lastReportedVehicle_) return;  // one report per crossing
  lastReportedVehicle_ = vehicleId;
  ++vehiclesReported_;

  // Ship the detection (thumbnail + embedding, ~24 KB) to the local re-id
  // RPi, then notify the downstream camera's re-id stage over the network.
  // Both hops key on the detection client's stream token, unique on the
  // transport, with the top tag bit set: frame keys tag (attempt << 1) | hop
  // and never reach it.
  constexpr std::uint64_t kReIdTag = std::uint64_t{1} << 63;
  const std::uint64_t token = detection_.client().streamToken();
  const std::uint64_t notifyKey =
      SimTransport::messageKey(token, vehicleId, kReIdTag | 1);
  transport_.send(
      detectionNode_, reid_.node(), 24 * 1024,
      SimTransport::messageKey(token, vehicleId, kReIdTag),
      [this, vehicleId, notifyKey] {
        reid_.onLocalDetection(vehicleId);
        if (downstream_ != nullptr) {
          transport_.send(reid_.node(), downstream_->reid().node(), 4 * 1024,
                          notifyKey, [app = downstream_, vehicleId] {
                            app->reid().onUpstreamNotification(vehicleId);
                          });
        }
      });
}

}  // namespace microedge
