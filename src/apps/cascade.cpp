#include "apps/cascade.hpp"

#include "util/logging.hpp"

namespace microedge {

CascadeApp::CascadeApp(Simulator& sim, std::unique_ptr<TpuClient> gateClient,
                       std::unique_ptr<TpuClient> expertClient, Config config,
                       Pcg32 rng)
    : sim_(sim), gate_(std::move(gateClient)), expert_(std::move(expertClient)),
      config_(std::move(config)), scene_(config_.scene, rng.split()),
      rng_(rng.split()), slo_(config_.slo),
      camera_(sim, CameraStream::Config{config_.fps, config_.maxFrames},
              [this](std::uint64_t id) { onFrame(id); }) {}

void CascadeApp::stop() {
  camera_.stop();
  gate_->stop();
  expert_->stop();
}

double CascadeApp::escalationRate() const {
  return gateFrames_ == 0
             ? 0.0
             : static_cast<double>(expertFrames_) /
                   static_cast<double>(gateFrames_);
}

void CascadeApp::onFrame(std::uint64_t frameId) {
  (void)frameId;
  // Stage 1: every frame runs the cheap gate model.
  slo_.recordSubmitted(sim_.now());
  ++gateFrames_;
  bool interesting = scene_.activeAt(sim_.now()) ||
                     rng_.bernoulli(config_.quietEscalationRate);
  Status s = gate_->invoke([this, interesting](const FrameBreakdown& gateFrame) {
    if (gateFrame.outcome != FrameOutcome::kCompleted) {
      gateOnly_.add(gateFrame);  // tallies the terminal outcome
      slo_.recordDropped();
      return;
    }
    if (!interesting) {
      gateOnly_.add(gateFrame);
      slo_.recordCompleted(gateFrame.completed, gateFrame.endToEnd());
      return;
    }
    // Stage 2: escalate to the expert model. The completion keeps only the
    // two gate timestamps it needs, so it rides the frame's context slot
    // instead of heap-allocating per escalated frame.
    ++expertFrames_;
    auto onExpert = [this, gateSubmitted = gateFrame.submitted,
                     gateCompleted = gateFrame.completed](
                        const FrameBreakdown& expertFrame) {
      if (expertFrame.outcome != FrameOutcome::kCompleted) {
        fullCascade_.add(expertFrame);  // tallies the terminal outcome
        // The gate stage did finish: fall back to gate-only accounting so
        // the stream's SLO reflects the partial result.
        slo_.recordCompleted(gateCompleted, gateCompleted - gateSubmitted);
        return;
      }
      fullCascade_.add(expertFrame);
      SimDuration total = expertFrame.completed - gateSubmitted;
      cascadeLatency_.add(total);
      slo_.recordCompleted(expertFrame.completed, total);
    };
    static_assert(
        TpuClient::CompletionCallback::fitsInline<decltype(onExpert)>(),
        "the expert completion must fit the completion's inline buffer");
    Status st = expert_->invoke(std::move(onExpert));
    if (!st.isOk()) {
      ME_LOG(kWarning) << "cascade " << config_.name
                       << ": expert invoke failed: " << st.toString();
      slo_.recordCompleted(gateFrame.completed, gateFrame.endToEnd());
    }
  });
  if (!s.isOk()) {
    ME_LOG(kWarning) << "cascade " << config_.name
                     << ": gate invoke failed: " << s.toString();
  }
}

}  // namespace microedge
