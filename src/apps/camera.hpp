#pragma once

// Camera frame source.
//
// Cameras produce frames at a fixed rate 24x7 (§2); the *application*
// decides which frames enter the inference pipeline. The source here emits
// a callback per frame at the configured FPS, optionally stopping after a
// fixed frame count (the paper's Coral-Pie dataset is a 1000-frame clip).

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"

namespace microedge {

class CameraStream {
 public:
  struct Config {
    double fps = 15.0;
    // 0 = run until stop(); otherwise emit exactly this many frames.
    std::uint64_t maxFrames = 0;
  };
  // Receives the frame sequence number (1-based).
  using FrameCallback = std::function<void(std::uint64_t frameId)>;

  CameraStream(Simulator& sim, Config config, FrameCallback onFrame);

  // First frame fires one period from now.
  void start();
  void stop() { task_.stop(); }
  bool running() const { return task_.running(); }

  const Config& config() const { return config_; }
  SimDuration framePeriodDuration() const { return task_.period(); }
  // The underlying frame clock, exposed so a rate controller
  // (testbed/rate_control.hpp) can retune the period at runtime.
  PeriodicTask& task() { return task_; }

 private:
  void emitFrame();

  Config config_;
  FrameCallback onFrame_;
  std::uint64_t frames_ = 0;
  PeriodicTask task_;
};

}  // namespace microedge
