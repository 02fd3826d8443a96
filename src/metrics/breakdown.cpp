#include "metrics/breakdown.hpp"

#include "util/strings.hpp"

namespace microedge {

void BreakdownAggregator::add(const FrameBreakdown& frame) {
  ++outcomes_[static_cast<std::size_t>(frame.outcome)];
  if (frame.failovers > 0) ++failedOver_;
  // Component summaries describe completed frames only; a frame that timed
  // out or was shed has no end-to-end latency to speak of. Legacy callers
  // that hand-build breakdowns without an outcome (kInFlight) keep the old
  // behaviour.
  if (frame.outcome != FrameOutcome::kCompleted &&
      frame.outcome != FrameOutcome::kInFlight) {
    return;
  }
  preprocess_.add(frame.preprocess);
  requestTransmit_.add(frame.requestTransmit);
  queueDelay_.add(frame.queueDelay);
  inference_.add(frame.inference);
  responseTransmit_.add(frame.responseTransmit);
  postprocess_.add(frame.postprocess);
  endToEnd_.add(frame.endToEnd());
}

std::uint64_t BreakdownAggregator::terminalCount() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    if (i != static_cast<std::size_t>(FrameOutcome::kInFlight)) {
      total += outcomes_[i];
    }
  }
  return total;
}

std::string BreakdownAggregator::render(const std::string& label) const {
  auto row = [](const char* name, const DurationSummary& s) {
    return strCat("  ", padRight(name, 18), padLeft(fmtDouble(s.meanMs(), 2), 8),
                  " ms mean", padLeft(fmtDouble(s.p99Ms(), 2), 9), " ms p99\n");
  };
  std::string out = strCat(label, " (", count(), " frames)\n");
  out += row("pre-processing", preprocess_);
  out += row("request transmit", requestTransmit_);
  out += row("queue delay", queueDelay_);
  out += row("inference", inference_);
  out += row("response transmit", responseTransmit_);
  out += row("post-processing", postprocess_);
  out += row("end-to-end", endToEnd_);
  if (terminalCount() != outcomeCount(FrameOutcome::kCompleted)) {
    out += strCat("  outcomes: completed ",
                  outcomeCount(FrameOutcome::kCompleted), ", timed-out ",
                  outcomeCount(FrameOutcome::kTimedOut), ", shed ",
                  outcomeCount(FrameOutcome::kShed), ", dead-target ",
                  outcomeCount(FrameOutcome::kDroppedDeadTarget),
                  ", rejected ", outcomeCount(FrameOutcome::kRejected),
                  ", admission-rejected ",
                  outcomeCount(FrameOutcome::kAdmissionRejected),
                  ", failed-over ", failedOver_, "\n");
  }
  return out;
}

}  // namespace microedge
