#include "testbed/testbed.hpp"

#include <algorithm>
#include <cassert>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace microedge {

namespace {

// Period of the reclamation poll that notices crashed pods.
constexpr SimDuration kReclamationPeriod = seconds(2);

// Each kind's word in the table's messages, indexed by Testbed::Kind.
constexpr std::string_view kKindNames[] = {"camera", "coral-pie", "bodypix",
                                           "cascade"};

// The monitor an app's SLO report reads.
const SloMonitor& sloOf(const CameraPipeline& app) { return app.slo(); }
const SloMonitor& sloOf(const CoralPieApp& app) {
  return app.detection().slo();
}
const SloMonitor& sloOf(const BodyPixApp& app) { return app.pipeline().slo(); }
const SloMonitor& sloOf(const CascadeApp& app) { return app.slo(); }

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(config), zoo_(zoo::standardZoo()),
      sharded_(1, NetworkConfig{}.baseLatency),
      topology_(sharded_, zoo_, config_.topology), rng_(config_.seed) {
  // Register nodes with the orchestrator; tRPis are labelled so specs can
  // target or avoid them.
  for (const auto& node : topology_.nodes()) {
    Status s = nodes_.addNode(
        node->name(), node->resources().cpuMillicores,
        node->resources().memoryMb,
        {{"tpu", node->isTRpi() ? "true" : "false"}});
    assert(s.isOk());
    (void)s;
  }
  // The TPU Service process consumes CPU/memory on every tRPi from cluster
  // boot; reserving it up front also steers application pods toward vRPis.
  for (const RpiNode* trpi : topology_.tRpis()) {
    PodSpec system;
    system.name = strCat("tpu-service-", trpi->name());
    system.resources = {1000, 512};
    Status s = nodes_.allocate(trpi->name(), system);
    assert(s.isOk());
    (void)s;
  }

  api_ = std::make_unique<ApiServer>(nodes_, [this] { return sim_.now(); });
  dataPlane_ = std::make_unique<DataPlane>(sharded_, topology_, zoo_);
  control_ = std::make_unique<ControlPlane>(
      *dataPlane_, zoo_,
      ControlPlaneConfig{config_.mode, config_.enableCoCompile,
                         config_.strategy},
      ControlPlane::Hooks{
          [this](std::uint64_t uid, const LbConfig& config) {
            reconfigurePodLb(uid, config);
          },
          [this](std::uint64_t uid, const Status& reason) {
            evictPodByUid(uid, reason);
          }});
  for (const auto& tpu : topology_.tpus()) control_->addTpu(*tpu);
  api_->setSchedulerExtension(
      [this](const Pod& pod, const std::vector<std::string>& candidates) {
        return control_->schedule(pod, candidates);
      });

  std::vector<TpuDevice*> devices;
  for (const auto& tpu : topology_.tpus()) devices.push_back(tpu.get());
  utilization_ = std::make_unique<UtilizationTracker>(
      sim_, std::move(devices), config_.utilizationWindow);
  reclamationTask_ = std::make_unique<PeriodicTask>(
      sim_, kReclamationPeriod, [this] { pollReclamationNow(); });
}

double Testbed::profiledUnits(const std::string& model, double fps) const {
  return zoo_.at(model).tpuUnitsAt(fps);
}

PodSpec Testbed::buildPodSpec(const CameraDeployment& deployment) const {
  PodSpec spec;
  spec.name = deployment.name;
  spec.image = "microedge/camera-app:1.0";
  spec.fps = deployment.fps;
  spec.resources = {deployment.cpuMillicores, deployment.memoryMb};
  double units = deployment.tpuUnits > 0.0
                     ? deployment.tpuUnits
                     : profiledUnits(deployment.model, deployment.fps);
  spec.tpu = TpuRequest{deployment.model, units};
  spec.labels = {{"app", "camera"}};
  return spec;
}

SloMonitor::Config Testbed::sloConfigFor(
    const CameraDeployment& deployment) const {
  SloMonitor::Config slo;
  // With a difference detector the inference rate is content dependent, so
  // the throughput check switches off and queue/latency checks carry it.
  slo.targetFps = deployment.useDiffDetector ? 0.0 : deployment.fps;
  slo.latencyBound = deployment.latencyBound;
  slo.maxOutstanding = 8;
  return slo;
}

StatusOr<std::unique_ptr<TpuClient>> Testbed::deployClient(
    const CameraDeployment& deployment, std::uint64_t* uid) {
  // Checked before buildPodSpec, which profiles the model's rate.
  if (!zoo_.contains(deployment.model)) {
    return notFound(strCat("model ", deployment.model, " not in the zoo"));
  }
  auto created = api_->createPod(buildPodSpec(deployment));
  if (!created.isOk()) return created.status();
  *uid = *created;

  const Allocation* allocation = control_->reclamation().allocationOf(*uid);
  assert(allocation != nullptr && !allocation->shares.empty());
  const Pod* pod = api_->getPod(*uid);
  assert(pod != nullptr);
  // The bare-metal baseline collocates the application with its dedicated
  // TPU (no network hop); MicroEdge runs it wherever K3s bound the pod.
  const std::string& clientNode =
      config_.mode == SchedulingMode::kBaselineDedicated
          ? topology_.hostOf(tpuName(allocation->shares.front().tpu))->name()
          : pod->nodeName;

  TpuClient::Config clientConfig;
  clientConfig.clientNode = internNode(clientNode);
  clientConfig.model = internModel(deployment.model);
  clientConfig.frameDeadline = config_.frameDeadline;
  clientConfig.admission = config_.frameAdmission;
  auto client = dataPlane_->makeClient(clientConfig);
  Status configured = client->configureLb(lbConfigFromAllocation(*allocation));
  if (!configured.isOk()) {
    (void)api_->deletePod(*uid);
    return configured;
  }
  return client;
}

Status Testbed::checkNotLive(Kind kind, const std::string& name) const {
  if (live_.count({kind, name}) == 0) return Status::ok();
  return alreadyExists(strCat(kKindNames[kind], " ", name, " already live"));
}

template <typename T>
T* Testbed::launch(const std::string& name, std::vector<PodRef> pods,
                   std::unique_ptr<T> app) {
  T* raw = app.get();
  App entry = std::move(app);
  const std::size_t kind = entry.index();
  live_.emplace(Key{kind, name}, Instance{std::move(pods), std::move(entry)});
  raw->start();
  return raw;
}

StatusOr<CameraPipeline*> Testbed::deployCamera(
    const CameraDeployment& deployment) {
  Status free = checkNotLive(kCamera, deployment.name);
  if (!free.isOk()) return free;
  std::uint64_t uid = 0;
  auto client = deployClient(deployment, &uid);
  if (!client.isOk()) return client.status();

  CameraPipeline::Config config;
  config.name = deployment.name;
  config.fps = deployment.fps;
  config.maxFrames = deployment.maxFrames;
  if (deployment.useDiffDetector) config.diffDetector = deployment.diffConfig;
  config.slo = sloConfigFor(deployment);

  TpuClient* raw = client->get();
  return launch(deployment.name, {{uid, raw}},
                std::make_unique<CameraPipeline>(
                    sim_, std::move(client).value(), std::move(config),
                    rng_.split()));
}

CameraPipeline* Testbed::findCamera(const std::string& name) {
  auto it = live_.find({kCamera, name});
  return it == live_.end() ? nullptr : std::get<kCamera>(it->second.app).get();
}

std::size_t Testbed::liveCameraCount() const {
  return static_cast<std::size_t>(
      std::count_if(live_.begin(), live_.end(), [](const auto& entry) {
        return entry.first.first == kCamera;
      }));
}

StatusOr<CoralPieApp*> Testbed::deployCoralPie(
    const CameraDeployment& deployment) {
  Status free = checkNotLive(kCoralPie, deployment.name);
  if (!free.isOk()) return free;
  std::uint64_t uid = 0;
  auto client = deployClient(deployment, &uid);
  if (!client.isOk()) return client.status();

  // The second RPi of the Coral-Pie pair: a plain CPU pod for re-id.
  PodSpec reidSpec;
  reidSpec.name = deployment.name + "-reid";
  reidSpec.image = "microedge/coral-pie-reid:1.0";
  reidSpec.resources = {1500, 1024};
  reidSpec.labels = {{"app", "coral-pie-reid"}};
  auto reidCreated = api_->createPod(reidSpec);
  if (!reidCreated.isOk()) {
    (void)api_->deletePod(uid);
    return reidCreated.status();
  }
  const Pod* reidPod = api_->getPod(*reidCreated);
  assert(reidPod != nullptr);

  CoralPieApp::Config config;
  config.name = deployment.name;
  config.fps = deployment.fps;
  config.maxFrames = deployment.maxFrames;
  config.useDiffDetector = deployment.useDiffDetector;
  config.diffConfig = deployment.diffConfig;
  config.reid.node = reidPod->nodeName;
  config.slo = sloConfigFor(deployment);
  config.vehicleIdBase = nextVehicleBase_;
  nextVehicleBase_ += 1000000;

  TpuClient* raw = client->get();
  return launch(deployment.name, {{uid, raw}, {*reidCreated, nullptr}},
                std::make_unique<CoralPieApp>(
                    sim_, std::move(client).value(), dataPlane_->transport(),
                    std::move(config), rng_.split()));
}

StatusOr<BodyPixApp*> Testbed::deployBodyPix(
    const CameraDeployment& deployment) {
  Status free = checkNotLive(kBodyPix, deployment.name);
  if (!free.isOk()) return free;
  std::uint64_t uid = 0;
  auto client = deployClient(deployment, &uid);
  if (!client.isOk()) return client.status();

  BodyPixApp::Config config;
  config.name = deployment.name;
  config.fps = deployment.fps;
  config.maxFrames = deployment.maxFrames;
  config.slo = sloConfigFor(deployment);

  TpuClient* raw = client->get();
  return launch(deployment.name, {{uid, raw}},
                std::make_unique<BodyPixApp>(sim_, std::move(client).value(),
                                             std::move(config), rng_.split()));
}

StatusOr<CascadeApp*> Testbed::deployCascade(
    const CascadeDeployment& deployment) {
  Status free = checkNotLive(kCascade, deployment.name);
  if (!free.isOk()) return free;
  auto gateInfo = zoo_.find(deployment.gateModel);
  if (!gateInfo.isOk()) return gateInfo.status();
  auto expertInfo = zoo_.find(deployment.expertModel);
  if (!expertInfo.isOk()) return expertInfo.status();

  // Stage pods: the gate sees every frame; the expert only the escalated
  // fraction — its fractional duty cycle is MicroEdge's bread and butter.
  CameraDeployment gatePod;
  gatePod.name = deployment.name + "-gate";
  gatePod.model = deployment.gateModel;
  gatePod.fps = deployment.fps;
  gatePod.cpuMillicores = deployment.cpuMillicores;
  gatePod.memoryMb = deployment.memoryMb;
  std::uint64_t gateUid = 0;
  auto gateClient = deployClient(gatePod, &gateUid);
  if (!gateClient.isOk()) return gateClient.status();

  CameraDeployment expertPod;
  expertPod.name = deployment.name + "-expert";
  expertPod.model = deployment.expertModel;
  expertPod.fps = deployment.fps;
  expertPod.tpuUnits = CascadeApp::expertUnits(*expertInfo, deployment.fps,
                                               deployment.expectedHitRate);
  expertPod.cpuMillicores = deployment.cpuMillicores;
  expertPod.memoryMb = deployment.memoryMb;
  std::uint64_t expertUid = 0;
  auto expertClient = deployClient(expertPod, &expertUid);
  if (!expertClient.isOk()) {
    (void)api_->deletePod(gateUid);
    pollReclamationNow();
    return expertClient.status();
  }

  CascadeApp::Config config;
  config.name = deployment.name;
  config.fps = deployment.fps;
  config.maxFrames = deployment.maxFrames;
  config.scene = deployment.scene;
  config.quietEscalationRate = deployment.quietEscalationRate;
  config.slo.targetFps = deployment.fps;

  std::vector<PodRef> pods = {{gateUid, gateClient->get()},
                              {expertUid, expertClient->get()}};
  return launch(deployment.name, std::move(pods),
                std::make_unique<CascadeApp>(
                    sim_, std::move(gateClient).value(),
                    std::move(expertClient).value(), std::move(config),
                    rng_.split()));
}

Testbed::Instance& Testbed::retire(Table::iterator it) {
  std::visit([](const auto& app) { app->stop(); }, it->second.app);
  retired_.push_back(std::move(it->second));
  live_.erase(it);
  return retired_.back();
}

Status Testbed::remove(Kind kind, const std::string& name) {
  auto it = live_.find({kind, name});
  if (it == live_.end()) {
    return notFound(strCat(kKindNames[kind], " ", name, " not deployed"));
  }
  Status status = Status::ok();
  for (const PodRef& pod : retire(it).pods) {
    Status deleted = api_->deletePod(pod.uid);
    if (status.isOk()) status = deleted;
  }
  return status;
}

template <typename Fn>
void Testbed::forEachInstance(Kind kind, Fn&& fn) const {
  for (const auto& [key, instance] : live_) {
    if (key.first == kind) fn(instance);
  }
  for (const Instance& instance : retired_) {
    if (instance.app.index() == kind) fn(instance);
  }
}

void Testbed::startBackgroundTasks() {
  if (backgroundStarted_) return;
  backgroundStarted_ = true;
  utilization_->start();
  reclamationTask_->start();
}

void Testbed::run(SimDuration horizon) {
  startBackgroundTasks();
  sharded_.runFor(horizon);
}

void Testbed::pollReclamationNow() {
  control_->reclamation().pollOnce(
      [this](std::uint64_t uid) { return api_->isAlive(uid); });
}

std::pair<Testbed::Table::iterator, TpuClient*> Testbed::findTpuPod(
    std::uint64_t uid) {
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    for (const PodRef& pod : it->second.pods) {
      if (pod.uid == uid && pod.client != nullptr) return {it, pod.client};
    }
  }
  return {live_.end(), nullptr};
}

void Testbed::reconfigurePodLb(std::uint64_t uid, const LbConfig& config) {
  TpuClient* client = findTpuPod(uid).second;
  if (client == nullptr) return;  // control-plane-only pod (tests)
  Status s = client->configureLb(config);
  if (!s.isOk()) {
    ME_LOG(kError) << "LB reconfiguration for pod uid " << uid
                   << " failed: " << s.toString();
  }
}

void Testbed::evictPodByUid(std::uint64_t uid, const Status& reason) {
  ME_LOG(kWarning) << "evicting pod uid " << uid << ": " << reason.toString();
  // Losing one of an app's TPU pods stops the app and fails its other live
  // pods; a CPU-only pod fails alone.
  auto found = findTpuPod(uid).first;
  if (found != live_.end()) {
    for (const PodRef& pod : retire(found).pods) {
      if (pod.uid != uid && api_->isAlive(pod.uid)) {
        (void)api_->failPod(pod.uid);
      }
    }
  }
  if (api_->isAlive(uid)) (void)api_->failPod(uid);
}

FailureRecovery::Report Testbed::failTpu(const std::string& tpuId) {
  ME_LOG(kInfo) << "injecting failure of " << tpuId;
  // Data plane first: the service stops answering; in-flight routes drop.
  dataPlane_->removeService(tpuId);
  return control_->failTpu(tpuId);
}

Testbed::NodeFailureReport Testbed::failNode(const std::string& nodeName) {
  NodeFailureReport report;
  RpiNode* node = topology_.findNode(nodeName);
  if (node == nullptr) {
    ME_LOG(kWarning) << "failNode: unknown node " << nodeName;
    return report;
  }
  ME_LOG(kInfo) << "injecting failure of node " << nodeName;
  Status ready = nodes_.setReady(nodeName, false);
  (void)ready;

  // Pods hosted on the dead RPi die with it.
  std::vector<std::uint64_t> lost;
  for (const Pod* pod : api_->livePods()) {
    if (pod->nodeName == nodeName) lost.push_back(pod->uid);
  }
  for (std::uint64_t uid : lost) {
    evictPodByUid(uid, unavailable(strCat("node ", nodeName, " failed")));
  }
  report.podsLost = lost.size();
  // Their TPU units return to the pool before the TPU recovery replans.
  pollReclamationNow();

  // Attached TPUs are gone; recover their tenants onto survivors.
  for (TpuDevice* tpu : node->tpus()) {
    const std::size_t poolSize = control_->pool().size();
    FailureRecovery::Report r = failTpu(tpu->id());
    if (control_->pool().size() == poolSize) continue;  // failed earlier
    ++report.tpusLost;
    report.recovery.affectedPods += r.affectedPods;
    report.recovery.recoveredPods += r.recoveredPods;
    report.recovery.evictedPods += r.evictedPods;
    report.recovery.reshapedPods += r.reshapedPods;
  }
  return report;
}

FaultInjector& Testbed::armFaults(const FaultPlan& plan) {
  // Detection runs the full failTpu / failNode paths (removeService is an
  // idempotent no-op by then).
  return dataPlane_->armFaults(
      plan, [this](const std::string& tpuId) { (void)failTpu(tpuId); },
      [this](const std::string& nodeName) { (void)failNode(nodeName); });
}

std::vector<const CameraPipeline*> Testbed::allCameras() const {
  std::vector<const CameraPipeline*> out;
  forEachInstance(kCamera, [&out](const Instance& instance) {
    out.push_back(std::get<kCamera>(instance.app).get());
  });
  return out;
}

std::vector<const SloMonitor*> Testbed::collectSloMonitors() const {
  std::vector<const SloMonitor*> monitors;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    forEachInstance(static_cast<Kind>(kind), [&monitors](const Instance& i) {
      std::visit(
          [&monitors](const auto& app) { monitors.push_back(&sloOf(*app)); },
          i.app);
    });
  }
  return monitors;
}

SloReport Testbed::sloReport() const {
  return summarizeSlo(collectSloMonitors());
}

}  // namespace microedge
