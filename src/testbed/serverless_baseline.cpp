#include "testbed/serverless_baseline.hpp"

#include <memory>

#include "util/logging.hpp"

namespace microedge {

ServerlessDispatcher::ServerlessDispatcher(Simulator& sim,
                                           DataPlane& dataPlane,
                                           const ClusterTopology& topology,
                                           const ModelRegistry& registry,
                                           Config config)
    : sim_(sim), dataPlane_(dataPlane), topology_(topology),
      registry_(registry), config_(std::move(config)),
      dispatcherNode_(internNode(config_.dispatcherNode)),
      token_(dataPlane.newStreamToken()) {}

TpuService* ServerlessDispatcher::pickLeastLoaded() {
  TpuService* best = nullptr;
  std::size_t bestDepth = 0;
  for (TpuService* service : dataPlane_.services()) {
    std::size_t depth = service->device().queueDepth();
    if (best == nullptr || depth < bestDepth) {
      best = service;
      bestDepth = depth;
    }
  }
  return best;
}

Status ServerlessDispatcher::invoke(const std::string& clientNode,
                                    const std::string& model,
                                    CompletionCallback done) {
  auto info = registry_.find(model);
  if (!info.isOk()) return info.status();
  const ModelInfo modelInfo = std::move(info).value();

  auto b = std::make_shared<FrameBreakdown>();
  b->frameId = nextFrameId_++;
  b->submitted = sim_.now();
  b->preprocess = modelInfo.preprocessLatency;
  SimTransport& transport = dataPlane_.transport();
  const NodeId client = internNode(clientNode);

  // Hop h of frame f keys on (token_, f, h).
  sim_.scheduleAfter(modelInfo.preprocessLatency, [this, b, modelInfo, client,
                                                   &transport,
                                                   done = std::move(done)]() mutable {
    // Hop 1: frame to the shared queue on the dispatcher node.
    SimDuration hop1 = transport.send(
        client, dispatcherNode_, modelInfo.inputBytes(),
        SimTransport::messageKey(token_, b->frameId, 0),
        [this, b, modelInfo, client, &transport,
         done = std::move(done)]() mutable {
          // Runtime scheduling decision.
          sim_.scheduleAfter(config_.decisionCost, [this, b, modelInfo, client,
                                                    &transport,
                                                    done = std::move(done)]() mutable {
            TpuService* service = pickLeastLoaded();
            if (service == nullptr) {
              ME_LOG(kWarning) << "serverless dispatch: no TPU services";
              return;
            }
            ++dispatched_;
            b->servedBy = service->tpu();
            const NodeId serviceNode = service->nodeId();
            // Hop 2: frame moves again, dispatcher -> chosen tRPi.
            SimDuration hop2 = transport.send(
                dispatcherNode_, serviceNode, modelInfo.inputBytes(),
                SimTransport::messageKey(token_, b->frameId, 1),
                [this, b, modelInfo, client, serviceNode, service,
                 &transport, done = std::move(done)]() mutable {
                  Status s = service->invoke(
                      modelInfo.id,
                      [this, b, modelInfo, client, serviceNode, &transport,
                       done = std::move(done)](
                          const TpuDevice::InvokeStats& stats) mutable {
                        b->queueDelay = stats.queueDelay;
                        b->inference = stats.serviceTime;
                        b->responseTransmit = transport.send(
                            serviceNode, client, modelInfo.outputBytes,
                            SimTransport::messageKey(token_, b->frameId, 2),
                            [this, b, modelInfo,
                             done = std::move(done)]() mutable {
                              b->postprocess = modelInfo.postprocessLatency;
                              sim_.scheduleAfter(
                                  modelInfo.postprocessLatency,
                                  [this, b, done = std::move(done)]() mutable {
                                    b->completed = sim_.now();
                                    b->outcome = FrameOutcome::kCompleted;
                                    if (done) done(*b);
                                  });
                            });
                      });
                  if (!s.isOk()) {
                    ME_LOG(kWarning) << "serverless invoke failed: "
                                     << s.toString();
                  }
                });
            b->requestTransmit += hop2;
          });
        });
    b->requestTransmit += hop1 + config_.decisionCost;
  });
  return Status::ok();
}

}  // namespace microedge
