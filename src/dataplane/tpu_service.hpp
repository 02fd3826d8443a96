#pragma once

// TPU Service (§5.1): the per-TPU server process on a tRPi.
//
// Instantiated at cluster boot for every physical TPU, it listens for two
// request kinds:
//   Load   — from the extended scheduler: install a (co-compiled) model
//            composite into TPU memory;
//   Invoke — from TPU Clients: run one inference, reply with the result.
//
// Time sharing falls out of the underlying device's serial FIFO; space
// sharing falls out of installing co-compiled composites.
//
// Hot path: Invoke takes a dense interned ModelId — no string-map probe per
// frame. The hosting node is interned at construction so clients address
// response hops by NodeId.

#include <cstdint>
#include <string>

#include "cluster/tpu_device.hpp"
#include "core/admission.hpp"
#include "util/intern.hpp"
#include "util/status.hpp"

namespace microedge {

class TpuService {
 public:
  // `node` is the hosting tRPi (the client needs it to route frames).
  TpuService(TpuDevice& device, std::string node)
      : device_(device), node_(std::move(node)), nodeId_(internNode(node_)) {}

  const std::string& tpuId() const { return device_.id(); }
  // Dense handle for this service's TPU (what LB weights route by).
  TpuId tpu() const { return device_.handle(); }
  const std::string& node() const { return node_; }
  // Pre-interned hosting node, resolved once at construction.
  NodeId nodeId() const { return nodeId_; }
  TpuDevice& device() { return device_; }
  const TpuDevice& device() const { return device_; }

  // Load primitive: installs the command's composite on the TPU. The
  // compile itself ran off-path in the Co-compiler service; this just pushes
  // the compiled parameters to the device.
  Status load(const LoadCommand& command);

  // Invoke primitive: one inference, completion via callback (the response
  // hop back to the client is the caller's concern — the client library
  // owns the connection).
  Status invoke(ModelId model, TpuDevice::InvokeCallback done);

  // Hang fault (USB stall, wedged runtime): the process is up but stops
  // answering — Load and Invoke return kUnavailable until the hang clears.
  // Distinct from removal: clients see rejects (breaker feedback) instead
  // of a missing service, and recovery can retry the Load with backoff.
  void setHung(bool hung) { hung_ = hung; }
  bool hung() const { return hung_; }

  std::uint64_t invokeCount() const { return invokes_; }
  std::uint64_t loadCount() const { return loads_; }

 private:
  TpuDevice& device_;
  std::string node_;
  NodeId nodeId_{};
  bool hung_ = false;
  std::uint64_t invokes_ = 0;
  std::uint64_t loads_ = 0;
};

}  // namespace microedge
