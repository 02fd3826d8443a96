#pragma once

// Experiment harness: assembles the full MicroEdge stack — simulated
// cluster, K3s-surface orchestrator, extended scheduler (or the bare-metal
// dedicated baseline), data plane, applications and metrics — behind one
// object, so examples and benches describe *what* to deploy, not how to
// wire it.
//
// Scheduling modes mirror the paper's evaluation variants:
//   kBaselineDedicated — integral TPUs dedicated per camera, collocated
//                        client (the §6.2 bare-metal baseline);
//   kMicroEdgeNoWp     — fractional sharing, no workload partitioning;
//   kMicroEdgeWp       — fractional sharing + workload partitioning.
// Co-compiling can be toggled independently (the Fig. 6 2x2).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/bodypix.hpp"
#include "apps/cascade.hpp"
#include "apps/coral_pie.hpp"
#include "apps/pipeline.hpp"
#include "cluster/topology.hpp"
#include "core/dedicated_allocator.hpp"
#include "core/defragmenter.hpp"
#include "core/extended_scheduler.hpp"
#include "core/failure_recovery.hpp"
#include "dataplane/dataplane.hpp"
#include "metrics/slo.hpp"
#include "metrics/utilization.hpp"
#include "models/zoo.hpp"
#include "orch/api_server.hpp"
#include "sim/fault_injector.hpp"
#include "util/rng.hpp"

namespace microedge {

enum class SchedulingMode { kBaselineDedicated, kMicroEdgeNoWp, kMicroEdgeWp };

std::string_view toString(SchedulingMode mode);

struct TestbedConfig {
  TopologySpec topology = ClusterTopology::microEdgeDefault();
  SchedulingMode mode = SchedulingMode::kMicroEdgeWp;
  bool enableCoCompile = true;
  PackingStrategy strategy = PackingStrategy::kFirstFit;
  SimDuration reclamationPeriod = seconds(2);
  SimDuration utilizationWindow = seconds(60);
  std::uint64_t seed = 1234;
  // --- Data-plane reliability defaults (per-deployment overridable) -------
  // Per-frame deadline; zero keeps the seed behaviour (no timer, no shed).
  SimDuration frameDeadline{};
  LbHealthConfig lbHealth{};
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
  // Per-deployment frame deadline; zero falls back to the testbed default.
  SimDuration frameDeadline{};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // --- Wiring access ------------------------------------------------------
  const TestbedConfig& config() const { return config_; }
  Simulator& sim() { return sim_; }
  const ModelRegistry& zoo() const { return zoo_; }
  ClusterTopology& topology() { return topology_; }
  NodeRegistry& nodeRegistry() { return nodes_; }
  ApiServer& api() { return *api_; }
  TpuPool& pool() { return pool_; }
  DataPlane& dataPlane() { return *dataPlane_; }
  ExtendedScheduler& scheduler() { return *scheduler_; }
  Reclamation& reclamation() { return *reclamation_; }
  UtilizationTracker& utilization() { return *utilization_; }
  // Stats source valid only in MicroEdge modes (nullptr in baseline).
  AdmissionController* admissionController() { return microEdgeAllocator_.get(); }

  double profiledUnits(const std::string& model, double fps) const;

  // --- Deployment ---------------------------------------------------------
  // Generic camera pipeline on the public API path (YAML spec -> admission
  // -> client + LBS -> frames flowing). Returns the live pipeline.
  StatusOr<CameraPipeline*> deployCamera(const CameraDeployment& deployment);
  Status removeCamera(const std::string& name);
  CameraPipeline* findCamera(const std::string& name);
  std::vector<CameraPipeline*> liveCameras();
  std::size_t liveCameraCount() const { return cameras_.size(); }

  // Coral-Pie: detection pod (TPU) + re-id pod on a second RPi.
  StatusOr<CoralPieApp*> deployCoralPie(const CameraDeployment& deployment);
  Status removeCoralPie(const std::string& name);
  std::vector<CoralPieApp*> liveCoralPies();

  // BodyPix person segmentation.
  StatusOr<BodyPixApp*> deployBodyPix(const CameraDeployment& deployment);
  std::vector<BodyPixApp*> liveBodyPixes();

  // Multi-model cascade: gate + expert pods sharing the TPU pool.
  StatusOr<CascadeApp*> deployCascade(const CascadeDeployment& deployment);
  Status removeCascade(const std::string& name);
  std::vector<CascadeApp*> liveCascades();

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
  Defragmenter::Report defragment(bool full = true);

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
  struct CameraInstance {
    std::uint64_t uid = 0;
    std::unique_ptr<CameraPipeline> pipeline;
  };
  struct CoralPieInstance {
    std::uint64_t uid = 0;       // detection pod
    std::uint64_t reidUid = 0;   // re-id pod
    std::unique_ptr<CoralPieApp> app;
  };
  struct BodyPixInstance {
    std::uint64_t uid = 0;
    std::unique_ptr<BodyPixApp> app;
  };
  struct CascadeInstance {
    std::uint64_t gateUid = 0;
    std::uint64_t expertUid = 0;
    std::unique_ptr<CascadeApp> app;
  };

  PodSpec buildPodSpec(const CameraDeployment& deployment) const;
  // The TPU Client baked into the pod with the given uid (nullptr if gone).
  TpuClient* clientForUid(std::uint64_t uid);
  // Replaces a pod's LB weights end to end (scheduler record + client).
  void reconfigurePodLb(std::uint64_t uid, const LbConfig& config);
  // Terminates a pod that lost its TPU allocation (failure recovery).
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
  Simulator sim_;
  ClusterTopology topology_;
  NodeRegistry nodes_;
  TpuPool pool_;
  std::unique_ptr<ApiServer> api_;
  std::unique_ptr<AdmissionController> microEdgeAllocator_;
  std::unique_ptr<DedicatedAllocator> baselineAllocator_;
  TpuAllocator* allocator_ = nullptr;
  std::unique_ptr<Reclamation> reclamation_;
  std::unique_ptr<ExtendedScheduler> scheduler_;
  std::unique_ptr<FailureRecovery> failureRecovery_;
  std::unique_ptr<Defragmenter> defragmenter_;
  std::unique_ptr<DataPlane> dataPlane_;
  std::unique_ptr<FaultInjector> faultInjector_;
  std::unique_ptr<UtilizationTracker> utilization_;
  std::unique_ptr<PeriodicTask> reclamationTask_;
  bool backgroundStarted_ = false;
  Pcg32 rng_;
  std::uint64_t nextVehicleBase_ = 0;

  std::map<std::string, CameraInstance> cameras_;
  std::map<std::string, CoralPieInstance> coralPies_;
  std::map<std::string, BodyPixInstance> bodypixes_;
  std::map<std::string, CascadeInstance> cascades_;
  // Terminated instances stay alive until the harness dies so in-flight
  // simulation callbacks never dangle.
  std::vector<CameraInstance> retiredCameras_;
  std::vector<CoralPieInstance> retiredCoralPies_;
  std::vector<BodyPixInstance> retiredBodyPixes_;
  std::vector<CascadeInstance> retiredCascades_;
};

}  // namespace microedge
