#include "dataplane/dataplane.hpp"

#include <cstdio>
#include <cstdlib>

#include "dataplane/backoff.hpp"
#include "util/strings.hpp"

namespace microedge {

DataPlane::DataPlane(ShardedSim& sharded, const ClusterTopology& topology,
                     const ModelRegistry& registry)
    : sharded_(sharded), topology_(topology), registry_(registry),
      transport_(sharded, topology.network()),
      contexts_(sharded.shardCount()) {
  const unsigned shards = sharded_.shardCount();
  serviceViews_.resize(shards);
  clientsByShard_.resize(shards);
  loadRetriesByShard_.assign(shards, 0);
  for (const auto& tpu : topology.tpus()) {
    auto service =
        std::make_unique<TpuService>(*tpu, topology.hostOf(tpu->id())->name());
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
  // Clients may outlive their plane (harness teardown order is the owner's
  // business); detach them so a later client destruction doesn't call into
  // freed memory.
  for (const ClientList& list : clientsByShard_) {
    for (TpuClient* client : list.slots) {
      if (client != nullptr) client->registrySlot_ = TpuClient::kDetached;
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
  const auto& view = serviceViews_[ShardedSim::currentShard()];
  return tpu.valid() && tpu.value < view.size() ? view[tpu.value] : nullptr;
}

std::vector<TpuService*> DataPlane::services() {
  std::vector<TpuService*> out;
  out.reserve(liveCount_[ShardedSim::currentShard()]);
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
  const unsigned here = ShardedSim::currentShard();
  const unsigned shards = sharded_.shardCount();
  // Sharded runs: the removal must originate on the service's owner shard
  // (the failure is a local hardware event there). Checked in every build:
  // run anywhere else, it would null the wrong shard's view and notify the
  // wrong shard's clients.
  const unsigned owner = sharded_.shardOfNode(service->nodeId());
  if (owner != here) {
    std::fprintf(stderr,
                 "DataPlane::removeService: %s is owned by shard %u but the "
                 "removal ran on shard %u\n",
                 tpuId.c_str(), owner, here);
    std::abort();
  }
  if (!removeFromShard(here, handle)) return;  // already removed
  if (shards > 1) {
    // Failure-detection broadcast: every other shard observes the removal
    // one lookahead later — the minimum cross-shard notification latency
    // the conservative window already accounts for.
    const SimTime noticeAt = sharded_.currentSim().now() + sharded_.lookahead();
    for (unsigned s = 0; s < shards; ++s) {
      if (s == here) continue;
      sharded_.postToShard(s, noticeAt,
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

Status DataPlane::executeLoadOrRetry(const LoadCommand& command) {
  Status s = executeLoad(command);
  if (s.isOk() || service(command.tpuId) == nullptr) return s;
  retryLoad(command, 0);
  return Status::ok();
}

void DataPlane::retryLoad(LoadCommand command, std::uint32_t attempt) {
  sharded_.currentSim().scheduleAfter(
      ExpBackoff{}.delay(attempt),
      [this, command = std::move(command), attempt]() mutable {
        ++loadRetriesByShard_[ShardedSim::currentShard()];
        // Done on success, an exhausted budget, or a service that vanished
        // while we backed off (permanent: eviction is recovery's move).
        if (executeLoad(command).isOk() ||
            attempt + 1 >= ExpBackoff{}.maxAttempts ||
            service(command.tpuId) == nullptr) {
          return;
        }
        retryLoad(std::move(command), attempt + 1);
      });
}

std::uint64_t DataPlane::loadRetries() const {
  std::uint64_t n = 0;
  for (std::uint64_t r : loadRetriesByShard_) n += r;
  return n;
}

FaultInjector& DataPlane::armFaults(
    const FaultPlan& plan,
    std::function<void(const std::string& tpuId)> onTpuFailure,
    std::function<void(const std::string& node)> onNodeFailure) {
  if (faults_ == nullptr) {
    FaultInjector::Hooks hooks;
    hooks.shardOf = [this](const std::string& target) {
      return shardOfTarget(target);
    };
    hooks.tpuFailDataPlane = [this](const std::string& tpuId) {
      removeService(tpuId);
    };
    hooks.nodeFailDataPlane = [this](const std::string& nodeName) {
      if (const RpiNode* node = topology_.findNode(nodeName)) {
        for (const TpuDevice* tpu : node->tpus()) removeService(tpu->id());
      }
    };
    hooks.setTpuHung = [this](const std::string& tpuId, bool hung) {
      if (TpuService* target = service(tpuId)) target->setHung(hung);
    };
    hooks.setTransportFault = [this](double loss, double latencyMultiplier,
                                     std::uint64_t seed) {
      transport_.setFault(loss, latencyMultiplier, seed);
    };
    hooks.clearTransportFault = [this] { transport_.clearFault(); };
    hooks.tpuFailControlPlane = std::move(onTpuFailure);
    hooks.nodeFailControlPlane = std::move(onNodeFailure);
    faults_ = std::make_unique<FaultInjector>(sharded_, std::move(hooks));
  }
  faults_->arm(plan);  // a second plan aborts
  return *faults_;
}

unsigned DataPlane::shardOfTarget(const std::string& target) const {
  const RpiNode* node = topology_.hostOf(target);
  if (node == nullptr) node = topology_.findNode(target);
  return node != nullptr ? sharded_.shardOfNode(internNode(node->name())) : 0;
}

std::unique_ptr<TpuClient> DataPlane::makeClient(std::string_view clientNode,
                                                 std::string_view model,
                                                 LbSpread spread) {
  TpuClient::Config config;
  config.clientNode = internNode(clientNode);
  config.model = internModel(model);
  config.spread = spread;
  return makeClient(config);
}

std::unique_ptr<TpuClient> DataPlane::makeClient(
    const TpuClient::Config& config) {
  return std::make_unique<TpuClient>(*this, config);
}

void DataPlane::registerClient(TpuClient& client) {
  ClientList& list = clientsByShard_[client.myShard_];
  client.registrySlot_ = static_cast<std::uint32_t>(list.slots.size());
  list.slots.push_back(&client);
  ++clientCount_;
}

void DataPlane::unregisterClient(TpuClient& client) {
  ClientList& list = clientsByShard_[client.myShard_];
  list.slots[client.registrySlot_] = nullptr;
  client.registrySlot_ = TpuClient::kDetached;
  --clientCount_;
  ++list.dead;
  if (2 * list.dead < list.slots.size()) return;
  // Half the list is dead: squeeze it out in order and point the survivors
  // at their new slots. Each compaction costs at most twice the deaths
  // since the last one.
  std::uint32_t live = 0;
  for (TpuClient* survivor : list.slots) {
    if (survivor == nullptr) continue;
    list.slots[live] = survivor;
    survivor->registrySlot_ = live++;
  }
  list.slots.resize(live);
  list.dead = 0;
}

}  // namespace microedge
