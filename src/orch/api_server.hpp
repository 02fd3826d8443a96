#pragma once

// API server: pod lifecycle and the scheduling pipeline (K3s surface).
//
// createPod() runs the paper's §3.1 control-plane workflow synchronously:
//
//   1. validate the spec; run the default CPU/memory scheduler to produce a
//      candidate node list;
//   2. if the pod requests TPU resources and a scheduler extension is
//      registered, hand the candidates to the extension (MicroEdge's
//      extended scheduler) — it allocates TPU resources and picks the node;
//   3. bind the pod: reserve CPU/memory on the chosen node, mark Running,
//      emit watch events.
//
// Deletion releases CPU/memory immediately (native K3s behaviour); TPU units
// are reclaimed *asynchronously* by the Reclamation component in src/core,
// which polls pod liveness through this class — exactly the paper's split.
//
// The orchestrator is deliberately independent of the simulator: it takes a
// clock callback for timestamps, so the same code serves simulated and
// wall-clock (threaded) runtimes.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "orch/default_scheduler.hpp"
#include "orch/node_registry.hpp"
#include "orch/pod.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace microedge {

enum class PodEventType { kRunning, kTerminated, kRejected };

struct PodEvent {
  PodEventType type;
  std::uint64_t uid;
  std::string name;
  std::string node;  // empty for rejections
};

class ApiServer {
 public:
  using Clock = std::function<SimTime()>;
  using WatchCallback = std::function<void(const PodEvent&)>;

  // The extension receives the pod (spec + uid) and the default scheduler's
  // candidate nodes (best score first); it performs TPU bookkeeping and
  // returns the node to bind to (which must be a candidate).
  using SchedulerExtension = std::function<StatusOr<std::string>(
      const Pod&, const std::vector<std::string>& candidates)>;

  explicit ApiServer(NodeRegistry& registry, Clock clock = nullptr);

  void setSchedulerExtension(SchedulerExtension extension) {
    extension_ = std::move(extension);
  }
  void watch(WatchCallback callback) {
    watchers_.push_back(std::move(callback));
  }

  // Runs the admission pipeline. On success the pod is Running and its uid
  // is returned; on rejection nothing is allocated anywhere.
  StatusOr<std::uint64_t> createPod(PodSpec spec);

  // Graceful completion (phase Succeeded). Releases CPU/memory.
  Status deletePod(std::uint64_t uid);
  Status deletePodByName(const std::string& name);
  // Failure injection: pod dies abruptly (phase Failed); resources released.
  Status failPod(std::uint64_t uid);

  bool isAlive(std::uint64_t uid) const;
  const Pod* getPod(std::uint64_t uid) const;           // live pods only
  const Pod* findPodByName(const std::string& name) const;
  std::vector<const Pod*> livePods() const;
  std::size_t liveCount() const { return pods_.size(); }

  // Terminated pod records (bounded by experiment lifetime; used by tests
  // and the reclamation poller's bookkeeping assertions).
  const std::vector<Pod>& terminatedPods() const { return terminated_; }

 private:
  Status terminate(std::uint64_t uid, PodPhase finalPhase);
  void emit(const PodEvent& event);
  SimTime now() const { return clock_ ? clock_() : kSimEpoch; }

  NodeRegistry& registry_;
  DefaultScheduler scheduler_;
  Clock clock_;
  SchedulerExtension extension_;
  std::vector<WatchCallback> watchers_;
  std::map<std::uint64_t, Pod> pods_;
  std::vector<Pod> terminated_;
  std::uint64_t nextUid_ = 1;
};

}  // namespace microedge
