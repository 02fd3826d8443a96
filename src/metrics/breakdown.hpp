#pragma once

// Per-frame latency breakdown aggregation (Fig. 7b).
//
// Collects FrameBreakdown records and summarizes each pipeline component:
// pre-processing, request transmission, TPU queueing, inference occupancy,
// response transmission and post-processing. Every record's terminal
// outcome is counted; the latency summaries only accumulate completed
// frames (a timed-out frame has no meaningful end-to-end figure).

#include <array>
#include <string>

#include "dataplane/tpu_client.hpp"
#include "util/histogram.hpp"

namespace microedge {

class BreakdownAggregator {
 public:
  void add(const FrameBreakdown& frame);

  std::size_t count() const { return preprocess_.count(); }
  std::uint64_t outcomeCount(FrameOutcome outcome) const {
    return outcomes_[static_cast<std::size_t>(outcome)];
  }
  // Every frame that reached a terminal state (completed or otherwise).
  std::uint64_t terminalCount() const;
  // Frames that re-routed at least once before terminating.
  const DurationSummary& preprocess() const { return preprocess_; }
  const DurationSummary& requestTransmit() const { return requestTransmit_; }
  const DurationSummary& queueDelay() const { return queueDelay_; }
  const DurationSummary& inference() const { return inference_; }
  const DurationSummary& responseTransmit() const { return responseTransmit_; }
  const DurationSummary& postprocess() const { return postprocess_; }
  const DurationSummary& endToEnd() const { return endToEnd_; }

  // Combined network share (request + response), the paper's "Transmission".
  double meanTransmissionMs() const {
    return requestTransmit_.meanMs() + responseTransmit_.meanMs();
  }

  // Multi-line component table for bench output.
  std::string render(const std::string& label) const;

 private:
  std::array<std::uint64_t, kFrameOutcomeCount> outcomes_{};
  std::uint64_t failedOver_ = 0;
  DurationSummary preprocess_;
  DurationSummary requestTransmit_;
  DurationSummary queueDelay_;
  DurationSummary inference_;
  DurationSummary responseTransmit_;
  DurationSummary postprocess_;
  DurationSummary endToEnd_;
};

}  // namespace microedge
