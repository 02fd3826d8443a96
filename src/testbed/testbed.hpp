#pragma once

// Experiment harness: the paper's deployment layer over the full MicroEdge
// stack — simulated cluster, K3s-surface orchestrator, one ControlPlane for
// the whole TPU pool (testbed/control_plane.hpp: admission or the dedicated
// baseline, reclamation, failure recovery, defragmentation), data plane,
// applications and metrics — behind one object, so examples and benches
// describe *what* to deploy, not how to wire it. The stack runs on a
// one-shard ShardedSim, the same engine and data plane ShardedCluster
// spreads over many shards; sim() is its one event loop.
//
// Deployed apps (cameras, Coral-Pie, BodyPix, cascades) live in one table
// keyed by (kind, name); each kind keeps its own name space. The harness
// gives the control plane its two pod-facing edges: pushed weights reach
// the pod's client, and an evicted TPU pod stops its app, fails the app's
// other live pods, then the lost pod.

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "apps/bodypix.hpp"
#include "apps/cascade.hpp"
#include "apps/coral_pie.hpp"
#include "apps/pipeline.hpp"
#include "cluster/topology.hpp"
#include "dataplane/dataplane.hpp"
#include "metrics/slo.hpp"
#include "metrics/utilization.hpp"
#include "models/zoo.hpp"
#include "orch/api_server.hpp"
#include "sim/fault_injector.hpp"
#include "testbed/control_plane.hpp"
#include "util/rng.hpp"

namespace microedge {

struct TestbedConfig {
  TopologySpec topology = ClusterTopology::microEdgeDefault();
  SchedulingMode mode = SchedulingMode::kMicroEdgeWp;
  bool enableCoCompile = true;
  PackingStrategy strategy = PackingStrategy::kFirstFit;
  SimDuration utilizationWindow = seconds(60);
  std::uint64_t seed = 1234;
  // --- Data-plane reliability, for every deployed client ----------------
  // Per-frame deadline; zero keeps the seed behaviour (no timer, no shed).
  SimDuration frameDeadline{};
  // Per-frame admission for every deployed client (DESIGN.md §14); off
  // keeps the data-plane submit path byte-identical to the seed.
  FrameAdmissionConfig frameAdmission{};
};

// Two-stage multi-model pipeline (gate model on every frame, expert model on
// escalated frames); each stage is its own pod with its own duty cycle.
struct CascadeDeployment {
  std::string name;
  std::string gateModel;
  std::string expertModel;
  double fps = 15.0;
  // Planning-time estimate of the gate's escalation rate; the expert pod
  // requests expertUnits = expertLatency * fps * expectedHitRate.
  double expectedHitRate = 0.45;
  std::uint64_t maxFrames = 0;
  DiffDetector::Config scene{};
  double quietEscalationRate = 0.08;
  long cpuMillicores = 1000;
  long memoryMb = 512;
};

struct CameraDeployment {
  std::string name;
  std::string model;
  double fps = 15.0;
  // 0 => profile from the model zoo at `fps` (the paper's offline profiling
  // service that fills in the Yaml's tpu-units knob).
  double tpuUnits = 0.0;
  std::uint64_t maxFrames = 0;
  bool useDiffDetector = false;
  DiffDetector::Config diffConfig{};
  long cpuMillicores = 1000;
  long memoryMb = 512;
  SimDuration latencyBound{};  // 0 disables the latency SLO check
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // --- Wiring access ------------------------------------------------------
  Simulator& sim() { return sim_; }  // shard 0
  const ModelRegistry& zoo() const { return zoo_; }
  ClusterTopology& topology() { return topology_; }
  NodeRegistry& nodeRegistry() { return nodes_; }
  ApiServer& api() { return *api_; }
  TpuPool& pool() { return control_->pool(); }
  DataPlane& dataPlane() { return *dataPlane_; }
  Reclamation& reclamation() { return control_->reclamation(); }
  UtilizationTracker& utilization() { return *utilization_; }
  // Stats source valid only in MicroEdge modes (nullptr in baseline).
  AdmissionController* admissionController() { return control_->admission(); }

  double profiledUnits(const std::string& model, double fps) const;

  // --- Deployment ---------------------------------------------------------
  // Generic camera pipeline on the public API path (YAML spec -> admission
  // -> client + LBS -> frames flowing). Returns the live pipeline.
  StatusOr<CameraPipeline*> deployCamera(const CameraDeployment& deployment);
  Status removeCamera(const std::string& name) {
    return remove(kCamera, name);
  }
  CameraPipeline* findCamera(const std::string& name);
  std::vector<CameraPipeline*> liveCameras() { return live<CameraPipeline>(); }
  std::size_t liveCameraCount() const;

  // Coral-Pie: detection pod (TPU) + re-id pod on a second RPi.
  StatusOr<CoralPieApp*> deployCoralPie(const CameraDeployment& deployment);
  Status removeCoralPie(const std::string& name) {
    return remove(kCoralPie, name);
  }
  std::vector<CoralPieApp*> liveCoralPies() { return live<CoralPieApp>(); }

  // BodyPix person segmentation.
  StatusOr<BodyPixApp*> deployBodyPix(const CameraDeployment& deployment);
  std::vector<BodyPixApp*> liveBodyPixes() { return live<BodyPixApp>(); }

  // Multi-model cascade: gate + expert pods sharing the TPU pool.
  StatusOr<CascadeApp*> deployCascade(const CascadeDeployment& deployment);
  Status removeCascade(const std::string& name) {
    return remove(kCascade, name);
  }
  std::vector<CascadeApp*> liveCascades() { return live<CascadeApp>(); }

  // --- Execution ----------------------------------------------------------
  // Advances simulated time (reclamation + utilization sampling run inside).
  void run(SimDuration horizon);
  // Forces a reclamation cycle immediately (instead of waiting for the next
  // periodic poll) — benches use it between teardown and redeploy.
  void pollReclamationNow();

  // --- Failure injection & maintenance -------------------------------------
  // Kills a TPU (USB-level failure): its TPU Service stops answering, the
  // pool forgets it, and failure recovery replans the affected pods onto
  // survivors (or evicts them when nothing fits).
  FailureRecovery::Report failTpu(const std::string& tpuId);
  // Runs the defragmenter: full FFD replan (full=true) or incremental
  // consolidation of partitioned pods. Only meaningful in MicroEdge modes;
  // returns an un-applied report under the dedicated baseline.
  Defragmenter::Report defragment(bool full = true) {
    return control_->defragment(full);
  }

  struct NodeFailureReport {
    std::size_t podsLost = 0;  // pods hosted on the node, terminated
    std::size_t tpusLost = 0;
    FailureRecovery::Report recovery;  // merged across the node's TPUs
  };
  // Kills a whole RPi: every pod bound to it dies, the node stops being
  // schedulable, and every attached TPU goes through failTpu-style
  // recovery.
  NodeFailureReport failNode(const std::string& nodeName);

  // Arms a replayable fault plan against this stack: crash/death events hit
  // the data plane at t (services stop answering; clients fail over against
  // masked health state) and the control plane at t + detectionDelay
  // (failTpu / failNode). Hangs flip TPU Services to kUnavailable; transport
  // faults drive the SimTransport. One plan per testbed instance: a second
  // call aborts in FaultInjector::arm, in every build.
  FaultInjector& armFaults(const FaultPlan& plan);

  // --- Results ------------------------------------------------------------
  double meanTpuUtilization() const { return utilization_->overallMean(); }
  // SLO summary over every pipeline that ever ran (live + retired).
  SloReport sloReport() const;
  // Breakdown aggregated over live generic cameras.
  std::vector<const CameraPipeline*> allCameras() const;

 private:
  // An app's kind is its App alternative's index.
  enum Kind : std::size_t { kCamera, kCoralPie, kBodyPix, kCascade, kKinds };
  using App = std::variant<std::unique_ptr<CameraPipeline>,
                           std::unique_ptr<CoralPieApp>,
                           std::unique_ptr<BodyPixApp>,
                           std::unique_ptr<CascadeApp>>;
  struct PodRef {
    std::uint64_t uid = 0;
    TpuClient* client = nullptr;  // null for a CPU-only pod (Coral-Pie re-id)
  };
  // One deployed app with its pods. Retired instances stay alive until the
  // harness dies so in-flight simulation callbacks never dangle.
  struct Instance {
    std::vector<PodRef> pods;
    App app;
  };
  // (kind, name): each kind keeps its own name space, and the table lists
  // apps kind by kind, by name within a kind.
  using Key = std::pair<std::size_t, std::string>;
  using Table = std::map<Key, Instance>;

  PodSpec buildPodSpec(const CameraDeployment& deployment) const;
  // AlreadyExists when `kind` has a live app called `name`.
  Status checkNotLive(Kind kind, const std::string& name) const;
  // Enters a deployed app into the table and starts it.
  template <typename T>
  T* launch(const std::string& name, std::vector<PodRef> pods,
            std::unique_ptr<T> app);
  // Stops a live app and moves it to the retired list.
  Instance& retire(Table::iterator it);
  // Stops a live app and deletes its pods.
  Status remove(Kind kind, const std::string& name);
  template <typename T>
  std::vector<T*> live() {
    std::vector<T*> out;
    for (auto& [key, instance] : live_) {
      if (auto* app = std::get_if<std::unique_ptr<T>>(&instance.app)) {
        out.push_back(app->get());
      }
    }
    return out;
  }
  // Live apps of one kind by name, then its retired ones in retirement
  // order.
  template <typename Fn>
  void forEachInstance(Kind kind, Fn&& fn) const;
  // The live app owning the TPU pod with this uid, and the pod's client
  // (end and nullptr if no live app has it).
  std::pair<Table::iterator, TpuClient*> findTpuPod(std::uint64_t uid);
  // Pushes a replan's weights to the pod's client.
  void reconfigurePodLb(std::uint64_t uid, const LbConfig& config);
  // Terminates a pod that lost its TPU allocation (failure recovery) or its
  // node.
  void evictPodByUid(std::uint64_t uid, const Status& reason);
  // Shared deployment front half: create the pod, build + configure the
  // client. On success fills uid and returns the ready client.
  StatusOr<std::unique_ptr<TpuClient>> deployClient(
      const CameraDeployment& deployment, std::uint64_t* uid);
  SloMonitor::Config sloConfigFor(const CameraDeployment& deployment) const;
  std::vector<const SloMonitor*> collectSloMonitors() const;
  void startBackgroundTasks();

  TestbedConfig config_;
  ModelRegistry zoo_;
  ShardedSim sharded_;
  Simulator& sim_ = sharded_.shardSim(0);
  ClusterTopology topology_;
  NodeRegistry nodes_;
  std::unique_ptr<ApiServer> api_;
  std::unique_ptr<DataPlane> dataPlane_;
  std::unique_ptr<ControlPlane> control_;
  std::unique_ptr<UtilizationTracker> utilization_;
  std::unique_ptr<PeriodicTask> reclamationTask_;
  bool backgroundStarted_ = false;
  Pcg32 rng_;
  std::uint64_t nextVehicleBase_ = 0;

  Table live_;
  std::vector<Instance> retired_;
};

}  // namespace microedge
