#pragma once

// Serverless-style per-request scheduling comparator (§2 / §6.4.2).
//
// Cloud inference systems (Clipper, Clockwork, INFaaS, Triton) forward every
// request to a shared per-model queue and make scheduling decisions at
// runtime. The paper argues this design is wrong for a low-cost edge
// cluster: the extra data movement (frame -> dispatcher -> accelerator) and
// the per-request decision work add latency an RPi-class cluster cannot
// hide, and a runtime-chosen TPU frequently lacks the model in memory (swap
// on the critical path). This dispatcher implements exactly that design so
// the ablation bench can quantify the difference against MicroEdge's
// deployment-time allocation.

#include <cstdint>
#include <functional>
#include <string>

#include "dataplane/dataplane.hpp"
#include "metrics/breakdown.hpp"

namespace microedge {

class ServerlessDispatcher {
 public:
  struct Config {
    std::string dispatcherNode;  // host of the shared queue + scheduler
    // Runtime scheduling decision cost per request (queue ops, policy).
    SimDuration decisionCost = millisecondsF(1.5);
  };
  using CompletionCallback = std::function<void(const FrameBreakdown&)>;

  ServerlessDispatcher(Simulator& sim, DataPlane& dataPlane,
                       const ClusterTopology& topology,
                       const ModelRegistry& registry, Config config);

  // Full serverless invoke path: client pre-processes, ships the frame to
  // the dispatcher, the dispatcher picks the least-loaded TPU *at runtime*
  // and forwards the frame; the response returns directly to the client.
  Status invoke(const std::string& clientNode, const std::string& model,
                CompletionCallback done);

  std::uint64_t dispatchedCount() const { return dispatched_; }

 private:
  TpuService* pickLeastLoaded();

  Simulator& sim_;
  DataPlane& dataPlane_;
  const ClusterTopology& topology_;
  const ModelRegistry& registry_;
  Config config_;
  NodeId dispatcherNode_{};
  // Sender token for the keyed loss draws of this dispatcher's hops.
  std::uint64_t token_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t nextFrameId_ = 1;
};

}  // namespace microedge
