#pragma once

// Data-plane assembly: instantiates one TPU Service per physical TPU at
// cluster boot (as MicroEdge does at system initialization) and provides
// the glue the control plane needs — the Load every admission uses, the
// retrying Load every replan uses, fault-plan arming, and a client factory
// for application pods.
//
// Reliability glue: the DataPlane keeps a registry of the clients it
// created; removeService() broadcasts the removal so every in-flight frame
// addressed to the dead service fails over or terminates immediately
// (fail-fast) instead of waiting for its arrival event. Clients unregister
// themselves on destruction, so the registry never dangles regardless of
// which side dies first.
//
// Sharded runs: one DataPlane serves every shard. The string->service map
// is immutable after construction and service objects are never destroyed
// by removal (so a frame mid-invoke on another shard never chases a freed
// pointer); what changes is the per-shard dense view serviceViews_[shard]
// — "is this service alive, as observed by this shard?". removeService()
// must run on the failed TPU's owner shard: it nulls that shard's view and
// notifies that shard's clients synchronously (identical to solo), then
// posts the same removal notice to every other shard one lookahead later —
// exactly the failure-detection broadcast latency the conservative window
// already budgets for. Clients are bucketed per shard so the broadcast
// touches only shard-local client state. A one-shard ShardedSim is the
// solo path: every code path is shared and shard 0 is the only shard.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "dataplane/tpu_client.hpp"
#include "dataplane/tpu_service.hpp"
#include "dataplane/transport.hpp"
#include "sim/fault_injector.hpp"
#include "sim/sharded_sim.hpp"

namespace microedge {

class DataPlane {
 public:
  DataPlane(ShardedSim& sharded, const ClusterTopology& topology,
            const ModelRegistry& registry);
  ~DataPlane();

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  SimTransport& transport() { return transport_; }

  // Service lookups resolve against the CALLING shard's view: a service
  // removed on its owner shard stays visible to other shards for up to one
  // lookahead (the modelled detection delay), exactly as the window
  // discipline requires. Solo: there is one view and the behaviour is the
  // pre-sharding one.
  TpuService* service(const std::string& tpuId);
  // Dense-handle lookup (what per-frame routing uses): one bounds-checked
  // vector index, no string map probe.
  TpuService* serviceById(TpuId tpu);
  std::vector<TpuService*> services();
  std::size_t serviceCount() const {
    return liveCount_[ShardedSim::currentShard()];
  }

  // Removes a TPU Service (node failure injection) and fails fast: every
  // registered client immediately fails over or terminates its in-flight
  // frames addressed to the removed service. Sharded runs: must execute on
  // the service's owner shard; other shards observe the removal one
  // lookahead later.
  void removeService(const std::string& tpuId);

  // The admission Load (ControlPlane::admit: every deployment, including a
  // mid-run churn join): a failure refuses the admission, which returns its
  // units.
  Status executeLoad(const LoadCommand& command);

  // The control-plane replan Load (failure recovery, defragmentation),
  // which races with hung-but-alive services: tries the Load now; if it
  // fails while the service still exists, retries in the background with
  // ExpBackoff{} (ordinary events on the calling shard) and reports OK; if
  // the service is gone the failure is permanent and its error is returned,
  // so the caller evicts instead of waiting.
  Status executeLoadOrRetry(const LoadCommand& command);
  std::uint64_t loadRetries() const;

  // Arms a replayable fault plan (sim/fault_injector.hpp), the one place a
  // plan becomes events. The data plane writes the data-plane side of every
  // fault at t: a crash removes the TPU Service, a node death removes each
  // of the node's services (in topology order), a hang flips setHung, and
  // a transport window drives each shard's lane. Every edge runs on its
  // target node's shard. The harness passes only its control-plane edges,
  // which run at t + detectionDelay. One plan per data plane: a second call
  // aborts in FaultInjector::arm, in every build.
  FaultInjector& armFaults(
      const FaultPlan& plan,
      std::function<void(const std::string& tpuId)> onTpuFailure = {},
      std::function<void(const std::string& node)> onNodeFailure = {});

  // Creates the client library instance baked into an application pod and
  // registers it for fail-fast service-removal broadcasts. The client is
  // bound to its node's shard: its Simulator& is that shard's event loop.
  std::unique_ptr<TpuClient> makeClient(std::string clientNode,
                                        std::string model,
                                        LbSpread spread = LbSpread::kSmooth);
  // Same, with the reliability knobs (deadline / failover / breaker) set.
  std::unique_ptr<TpuClient> makeClient(TpuClient::Config config);
  // Next sender token for SimTransport::messageKey: sequential from 1 in
  // creation order (fixed single-threaded setup), so every sender on this
  // data plane's transport keys its messages apart from every other one.
  std::uint64_t newStreamToken() { return nextStreamToken_++; }
  std::size_t clientCount() const { return clientCount_; }

 private:
  // Retry number `attempt` (0-based) of a failed replan Load.
  void retryLoad(LoadCommand command, std::uint32_t attempt);
  unsigned shardOfTarget(const std::string& target) const;
  // Applies the removal on one shard: nulls the view entry and notifies the
  // shard's clients. Returns false if that shard already saw the removal.
  bool removeFromShard(unsigned shard, TpuId handle);
  // Points the client's destroy hook at its registry slot.
  void hookClient(TpuClient* client, unsigned shard, std::uint32_t slot);
  void unregisterClient(unsigned shard, std::uint32_t slot);

  ShardedSim& sharded_;
  const ClusterTopology& topology_;
  const ModelRegistry& registry_;
  SimTransport transport_;
  // Immutable after construction: keys AND values live for the plane's
  // lifetime (removal is a per-shard view change, never a destruction).
  std::map<std::string, std::unique_ptr<TpuService>> services_;
  // [shard][TpuId.value] -> service, or nullptr where removed (or the
  // handle belongs to another cluster instance). Each inner vector is
  // written only by its own shard after construction.
  std::vector<std::vector<TpuService*>> serviceViews_;
  std::vector<std::size_t> liveCount_;  // live services per shard view
  // Live clients created by makeClient, per shard in creation order: the
  // order removeFromShard notifies them in, which fixes the sequence order
  // of fail-fast events. A destroyed client leaves a nullptr behind, and the
  // list is compacted (order kept) once half of it is dead, so
  // unregistration is amortised O(1). Mutated only during single-threaded
  // setup/teardown.
  struct ClientList {
    std::vector<TpuClient*> slots;
    std::size_t dead = 0;
  };
  std::vector<ClientList> clientsByShard_;
  std::size_t clientCount_ = 0;
  std::vector<std::uint64_t> loadRetriesByShard_;
  std::uint64_t nextStreamToken_ = 1;
  std::unique_ptr<FaultInjector> faults_;  // built by the first armFaults()
};

}  // namespace microedge
