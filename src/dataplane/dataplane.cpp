#include "dataplane/dataplane.hpp"

#include <cassert>

#include "util/strings.hpp"

namespace microedge {

DataPlane::DataPlane(Simulator& sim, const ClusterTopology& topology,
                     const ModelRegistry& registry)
    : DataPlane(topology, registry, std::make_unique<SoloRouter>(sim),
                nullptr) {}

DataPlane::DataPlane(ShardRouter& router, const ClusterTopology& topology,
                     const ModelRegistry& registry)
    : DataPlane(topology, registry, nullptr, &router) {}

DataPlane::DataPlane(const ClusterTopology& topology,
                     const ModelRegistry& registry,
                     std::unique_ptr<SoloRouter> solo, ShardRouter* router)
    : soloRouter_(std::move(solo)),
      router_(router != nullptr ? *router : *soloRouter_),
      registry_(registry), transport_(router_, topology.network()) {
  const unsigned shards = router_.shardCount();
  serviceViews_.resize(shards);
  clientsByShard_.resize(shards);
  loadRetriesByShard_.assign(shards, 0);
  for (const auto& tpu : topology.tpus()) {
    auto service =
        std::make_unique<TpuService>(*tpu, topology.nodeOfTpu(tpu->id()));
    TpuId handle = service->tpu();
    for (unsigned s = 0; s < shards; ++s) {
      auto& view = serviceViews_[s];
      if (handle.value >= view.size()) view.resize(handle.value + 1, nullptr);
      view[handle.value] = service.get();
    }
    services_.emplace(tpu->id(), std::move(service));
  }
  liveCount_.assign(shards, services_.size());
}

DataPlane::~DataPlane() {
  // Clients created by this plane may outlive it (harness teardown order is
  // the owner's business); detach their unregister hooks so a later client
  // destruction doesn't call into freed memory.
  for (const ClientList& list : clientsByShard_) {
    for (TpuClient* client : list.slots) {
      if (client != nullptr) client->setOnDestroy(nullptr);
    }
  }
}

TpuService* DataPlane::service(const std::string& tpuId) {
  auto it = services_.find(tpuId);
  if (it == services_.end()) return nullptr;
  // The map never forgets a service; aliveness is the calling shard's view.
  return serviceById(it->second->tpu());
}

TpuService* DataPlane::serviceById(TpuId tpu) {
  const auto& view = serviceViews_[ShardRouter::currentShard()];
  return tpu.valid() && tpu.value < view.size() ? view[tpu.value] : nullptr;
}

std::vector<TpuService*> DataPlane::services() {
  std::vector<TpuService*> out;
  out.reserve(liveCount_[ShardRouter::currentShard()]);
  for (auto& [id, service] : services_) {
    if (serviceById(service->tpu()) != nullptr) out.push_back(service.get());
  }
  return out;
}

bool DataPlane::removeFromShard(unsigned shard, TpuId handle) {
  auto& view = serviceViews_[shard];
  if (handle.value >= view.size() || view[handle.value] == nullptr) {
    return false;
  }
  view[handle.value] = nullptr;
  --liveCount_[shard];
  // Fail fast: frames already shipped toward the dead service would only
  // discover the loss at their arrival event; broadcast the removal so they
  // re-route (or terminate with an explicit outcome) right now. Only this
  // shard's clients — their state belongs to this shard's event loop.
  for (TpuClient* client : clientsByShard_[shard].slots) {
    if (client != nullptr) client->onServiceRemoved(handle);
  }
  return true;
}

void DataPlane::removeService(const std::string& tpuId) {
  auto it = services_.find(tpuId);
  if (it == services_.end()) return;
  TpuService* service = it->second.get();
  const TpuId handle = service->tpu();
  const unsigned here = ShardRouter::currentShard();
  const unsigned shards = router_.shardCount();
  // Sharded runs: the removal must originate on the service's owner shard
  // (the failure is a local hardware event there).
  assert(shards == 1 || router_.shardOfNode(service->nodeId()) == here);
  if (!removeFromShard(here, handle)) return;  // already removed
  if (shards > 1) {
    // Failure-detection broadcast: every other shard observes the removal
    // one lookahead later — the minimum cross-shard notification latency
    // the conservative window already accounts for.
    const SimTime noticeAt = router_.currentSim().now() + router_.lookahead();
    for (unsigned s = 0; s < shards; ++s) {
      if (s == here) continue;
      router_.postToShard(s, noticeAt,
                          [this, s, handle] { removeFromShard(s, handle); });
    }
  }
}

Status DataPlane::executeLoad(const LoadCommand& command) {
  TpuService* target = service(command.tpuId);
  if (target == nullptr) {
    return unavailable(strCat("TPU service ", command.tpuId, " not running"));
  }
  return target->load(command);
}

void DataPlane::executeLoadWithRetry(LoadCommand command, ExpBackoff backoff,
                                     LoadDone done) {
  Status s = executeLoad(command);
  if (s.isOk() || backoff.maxAttempts == 0 ||
      service(command.tpuId) == nullptr) {
    if (done) done(s);
    return;
  }
  retryLoad(std::move(command), backoff, 0, std::move(done));
}

void DataPlane::retryLoad(LoadCommand command, ExpBackoff backoff,
                          std::uint32_t attempt, LoadDone done) {
  router_.currentSim().scheduleAfter(
      backoff.delay(attempt),
      [this, command = std::move(command), backoff, attempt,
       done = std::move(done)]() mutable {
        ++loadRetriesByShard_[ShardRouter::currentShard()];
        Status s = executeLoad(command);
        // Success, budget exhausted, or the service disappeared while we
        // were backing off (permanent — eviction is the caller's move).
        if (s.isOk() || attempt + 1 >= backoff.maxAttempts ||
            service(command.tpuId) == nullptr) {
          if (done) done(s);
          return;
        }
        retryLoad(std::move(command), backoff, attempt + 1, std::move(done));
      });
}

std::uint64_t DataPlane::loadRetries() const {
  std::uint64_t n = 0;
  for (std::uint64_t r : loadRetriesByShard_) n += r;
  return n;
}

std::unique_ptr<TpuClient> DataPlane::makeClient(std::string clientNode,
                                                 std::string model,
                                                 LbSpread spread) {
  TpuClient::Config config;
  config.clientNode = std::move(clientNode);
  config.model = std::move(model);
  config.spread = spread;
  return makeClient(std::move(config));
}

std::unique_ptr<TpuClient> DataPlane::makeClient(TpuClient::Config config) {
  // Keyed transport-loss identity: clients that don't bring their own
  // stream token get a deterministic sequential one (creation order is
  // fixed single-threaded setup), so loss outcomes replay identically at
  // any shard count and under any submission batching.
  if (config.streamToken == 0) config.streamToken = nextStreamToken_++;
  const unsigned shard = router_.shardOfNode(internNode(config.clientNode));
  auto client = std::make_unique<TpuClient>(
      router_.shardSim(shard), registry_, transport_,
      [this](TpuId tpu) { return serviceById(tpu); }, std::move(config),
      &router_);
  ClientList& list = clientsByShard_[shard];
  list.slots.push_back(client.get());
  ++clientCount_;
  hookClient(client.get(), shard,
             static_cast<std::uint32_t>(list.slots.size() - 1));
  return client;
}

void DataPlane::hookClient(TpuClient* client, unsigned shard,
                           std::uint32_t slot) {
  // The capture is 16 bytes, which std::function stores inline: hooking a
  // client allocates nothing.
  client->setOnDestroy(
      [this, shard, slot](TpuClient*) { unregisterClient(shard, slot); });
}

void DataPlane::unregisterClient(unsigned shard, std::uint32_t slot) {
  ClientList& list = clientsByShard_[shard];
  list.slots[slot] = nullptr;
  --clientCount_;
  ++list.dead;
  if (2 * list.dead < list.slots.size()) return;
  // Half the list is dead: squeeze it out in order and re-hook the
  // survivors at their new slots. Each compaction costs at most twice the
  // deaths since the last one.
  std::uint32_t live = 0;
  for (TpuClient* client : list.slots) {
    if (client == nullptr) continue;
    list.slots[live] = client;
    hookClient(client, shard, live++);
  }
  list.slots.resize(live);
  list.dead = 0;
}

}  // namespace microedge
