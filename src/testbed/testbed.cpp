#include "testbed/testbed.hpp"

#include <cassert>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace microedge {

std::string_view toString(SchedulingMode mode) {
  switch (mode) {
    case SchedulingMode::kBaselineDedicated:
      return "baseline (dedicated TPUs)";
    case SchedulingMode::kMicroEdgeNoWp:
      return "MicroEdge w/o W.P.";
    case SchedulingMode::kMicroEdgeWp:
      return "MicroEdge w/ W.P.";
  }
  return "unknown";
}

Testbed::Testbed(TestbedConfig config)
    : config_(config), zoo_(zoo::standardZoo()),
      topology_(sim_, zoo_, config_.topology), rng_(config_.seed) {
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
  for (const auto& tpu : topology_.tpus()) {
    Status s = pool_.addTpu(tpu->id(), tpu->config().paramMemoryMb);
    assert(s.isOk());
    (void)s;
  }

  api_ = std::make_unique<ApiServer>(nodes_, [this] { return sim_.now(); });
  dataPlane_ = std::make_unique<DataPlane>(sim_, topology_, zoo_);

  if (config_.mode == SchedulingMode::kBaselineDedicated) {
    baselineAllocator_ = std::make_unique<DedicatedAllocator>(pool_, zoo_);
    allocator_ = baselineAllocator_.get();
  } else {
    AdmissionConfig admission;
    admission.enableWorkloadPartitioning =
        config_.mode == SchedulingMode::kMicroEdgeWp;
    admission.enableCoCompile = config_.enableCoCompile;
    admission.strategy = config_.strategy;
    microEdgeAllocator_ =
        std::make_unique<AdmissionController>(pool_, zoo_, admission);
    allocator_ = microEdgeAllocator_.get();
  }
  reclamation_ = std::make_unique<Reclamation>(*allocator_);

  ExtendedScheduler::Callbacks callbacks;
  callbacks.loadModel = [this](const LoadCommand& command) {
    return dataPlane_->executeLoad(command);
  };
  scheduler_ = std::make_unique<ExtendedScheduler>(*allocator_, *reclamation_,
                                                   std::move(callbacks));
  api_->setSchedulerExtension(
      [this](const Pod& pod, const std::vector<std::string>& candidates) {
        return scheduler_->schedule(pod, candidates);
      });

  // Replans race with hung-but-alive services: their Loads go through the
  // data plane's retry policy (DataPlane::executeLoadOrRetry).
  FailureRecovery::Callbacks recovery;
  recovery.loadModel = [this](const LoadCommand& command) {
    return dataPlane_->executeLoadOrRetry(command);
  };
  recovery.reconfigureLb = [this](std::uint64_t uid, const LbConfig& config) {
    reconfigurePodLb(uid, config);
  };
  recovery.evictPod = [this](std::uint64_t uid, const Status& reason) {
    evictPodByUid(uid, reason);
  };
  failureRecovery_ = std::make_unique<FailureRecovery>(
      *allocator_, *reclamation_, std::move(recovery));
  if (microEdgeAllocator_ != nullptr) {
    Defragmenter::Callbacks defrag;
    defrag.loadModel = [this](const LoadCommand& command) {
      return dataPlane_->executeLoadOrRetry(command);
    };
    defrag.reconfigureLb = [this](std::uint64_t uid, const LbConfig& config) {
      reconfigurePodLb(uid, config);
    };
    defragmenter_ = std::make_unique<Defragmenter>(
        *microEdgeAllocator_, *reclamation_, std::move(defrag));
  }

  std::vector<TpuDevice*> devices;
  for (const auto& tpu : topology_.tpus()) devices.push_back(tpu.get());
  utilization_ = std::make_unique<UtilizationTracker>(
      sim_, std::move(devices), config_.utilizationWindow);
  reclamationTask_ = std::make_unique<PeriodicTask>(
      sim_, config_.reclamationPeriod, [this] { pollReclamationNow(); });
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

  const Allocation* allocation = reclamation_->allocationOf(*uid);
  assert(allocation != nullptr && !allocation->shares.empty());
  const Pod* pod = api_->getPod(*uid);
  assert(pod != nullptr);
  // The bare-metal baseline collocates the application with its dedicated
  // TPU (no network hop); MicroEdge runs it wherever K3s bound the pod.
  std::string clientNode =
      config_.mode == SchedulingMode::kBaselineDedicated
          ? topology_.nodeOfTpu(tpuName(allocation->shares.front().tpu))
          : pod->nodeName;

  TpuClient::Config clientConfig;
  clientConfig.clientNode = clientNode;
  clientConfig.model = deployment.model;
  clientConfig.frameDeadline = deployment.frameDeadline > SimDuration::zero()
                                   ? deployment.frameDeadline
                                   : config_.frameDeadline;
  clientConfig.health = config_.lbHealth;
  clientConfig.admission = config_.frameAdmission;
  auto client = dataPlane_->makeClient(std::move(clientConfig));
  const LbConfig* lb = scheduler_->lbConfig(*uid);
  if (lb == nullptr) {
    (void)api_->deletePod(*uid);
    return internalError(
        strCat("pod ", deployment.name, ": no LB config after admission"));
  }
  Status configured = client->configureLb(*lb);
  if (!configured.isOk()) {
    (void)api_->deletePod(*uid);
    return configured;
  }
  return client;
}

StatusOr<CameraPipeline*> Testbed::deployCamera(
    const CameraDeployment& deployment) {
  if (cameras_.count(deployment.name) > 0) {
    return alreadyExists(strCat("camera ", deployment.name, " already live"));
  }
  std::uint64_t uid = 0;
  auto client = deployClient(deployment, &uid);
  if (!client.isOk()) return client.status();

  CameraPipeline::Config config;
  config.name = deployment.name;
  config.fps = deployment.fps;
  config.maxFrames = deployment.maxFrames;
  if (deployment.useDiffDetector) config.diffDetector = deployment.diffConfig;
  config.slo = sloConfigFor(deployment);

  CameraInstance instance;
  instance.uid = uid;
  instance.pipeline = std::make_unique<CameraPipeline>(
      sim_, std::move(client).value(), std::move(config), rng_.split());
  CameraPipeline* pipeline = instance.pipeline.get();
  cameras_.emplace(deployment.name, std::move(instance));
  pipeline->start();
  return pipeline;
}

Status Testbed::removeCamera(const std::string& name) {
  auto it = cameras_.find(name);
  if (it == cameras_.end()) {
    return notFound(strCat("camera ", name, " not deployed"));
  }
  it->second.pipeline->stop();
  Status s = api_->deletePodByName(name);
  retiredCameras_.push_back(std::move(it->second));
  cameras_.erase(it);
  return s;
}

CameraPipeline* Testbed::findCamera(const std::string& name) {
  auto it = cameras_.find(name);
  return it == cameras_.end() ? nullptr : it->second.pipeline.get();
}

std::vector<CameraPipeline*> Testbed::liveCameras() {
  std::vector<CameraPipeline*> out;
  out.reserve(cameras_.size());
  for (auto& [name, instance] : cameras_) out.push_back(instance.pipeline.get());
  return out;
}

StatusOr<CoralPieApp*> Testbed::deployCoralPie(
    const CameraDeployment& deployment) {
  if (coralPies_.count(deployment.name) > 0) {
    return alreadyExists(strCat("coral-pie ", deployment.name, " already live"));
  }
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

  CoralPieInstance instance;
  instance.uid = uid;
  instance.reidUid = *reidCreated;
  instance.app = std::make_unique<CoralPieApp>(
      sim_, std::move(client).value(), dataPlane_->transport(),
      std::move(config), rng_.split());
  CoralPieApp* app = instance.app.get();
  coralPies_.emplace(deployment.name, std::move(instance));
  app->start();
  return app;
}

Status Testbed::removeCoralPie(const std::string& name) {
  auto it = coralPies_.find(name);
  if (it == coralPies_.end()) {
    return notFound(strCat("coral-pie ", name, " not deployed"));
  }
  it->second.app->stop();
  Status s1 = api_->deletePod(it->second.uid);
  Status s2 = api_->deletePod(it->second.reidUid);
  retiredCoralPies_.push_back(std::move(it->second));
  coralPies_.erase(it);
  return s1.isOk() ? s2 : s1;
}

std::vector<CoralPieApp*> Testbed::liveCoralPies() {
  std::vector<CoralPieApp*> out;
  for (auto& [name, instance] : coralPies_) out.push_back(instance.app.get());
  return out;
}

StatusOr<BodyPixApp*> Testbed::deployBodyPix(
    const CameraDeployment& deployment) {
  if (bodypixes_.count(deployment.name) > 0) {
    return alreadyExists(strCat("bodypix ", deployment.name, " already live"));
  }
  std::uint64_t uid = 0;
  auto client = deployClient(deployment, &uid);
  if (!client.isOk()) return client.status();

  BodyPixApp::Config config;
  config.name = deployment.name;
  config.fps = deployment.fps;
  config.maxFrames = deployment.maxFrames;
  config.slo = sloConfigFor(deployment);

  BodyPixInstance instance;
  instance.uid = uid;
  instance.app = std::make_unique<BodyPixApp>(
      sim_, std::move(client).value(), std::move(config), rng_.split());
  BodyPixApp* app = instance.app.get();
  bodypixes_.emplace(deployment.name, std::move(instance));
  app->start();
  return app;
}

StatusOr<CascadeApp*> Testbed::deployCascade(
    const CascadeDeployment& deployment) {
  if (cascades_.count(deployment.name) > 0) {
    return alreadyExists(
        strCat("cascade ", deployment.name, " already live"));
  }
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

  CascadeInstance instance;
  instance.gateUid = gateUid;
  instance.expertUid = expertUid;
  instance.app = std::make_unique<CascadeApp>(
      sim_, std::move(gateClient).value(), std::move(expertClient).value(),
      std::move(config), rng_.split());
  CascadeApp* app = instance.app.get();
  cascades_.emplace(deployment.name, std::move(instance));
  app->start();
  return app;
}

Status Testbed::removeCascade(const std::string& name) {
  auto it = cascades_.find(name);
  if (it == cascades_.end()) {
    return notFound(strCat("cascade ", name, " not deployed"));
  }
  it->second.app->stop();
  Status s1 = api_->deletePod(it->second.gateUid);
  Status s2 = api_->deletePod(it->second.expertUid);
  retiredCascades_.push_back(std::move(it->second));
  cascades_.erase(it);
  return s1.isOk() ? s2 : s1;
}

std::vector<CascadeApp*> Testbed::liveCascades() {
  std::vector<CascadeApp*> out;
  for (auto& [name, instance] : cascades_) out.push_back(instance.app.get());
  return out;
}

std::vector<BodyPixApp*> Testbed::liveBodyPixes() {
  std::vector<BodyPixApp*> out;
  for (auto& [name, instance] : bodypixes_) out.push_back(instance.app.get());
  return out;
}

void Testbed::startBackgroundTasks() {
  if (backgroundStarted_) return;
  backgroundStarted_ = true;
  utilization_->start();
  reclamationTask_->start();
}

void Testbed::run(SimDuration horizon) {
  startBackgroundTasks();
  sim_.runFor(horizon);
}

void Testbed::pollReclamationNow() {
  reclamation_->pollOnce(
      [this](std::uint64_t uid) { return api_->isAlive(uid); },
      [this](std::uint64_t uid) { scheduler_->forgetPod(uid); });
}

TpuClient* Testbed::clientForUid(std::uint64_t uid) {
  for (auto& [name, instance] : cameras_) {
    if (instance.uid == uid) return &instance.pipeline->client();
  }
  for (auto& [name, instance] : coralPies_) {
    if (instance.uid == uid) return &instance.app->detection().client();
  }
  for (auto& [name, instance] : bodypixes_) {
    if (instance.uid == uid) return &instance.app->pipeline().client();
  }
  for (auto& [name, instance] : cascades_) {
    if (instance.gateUid == uid) return &instance.app->gateClient();
    if (instance.expertUid == uid) return &instance.app->expertClient();
  }
  return nullptr;
}

void Testbed::reconfigurePodLb(std::uint64_t uid, const LbConfig& config) {
  scheduler_->recordLbConfig(uid, config);
  TpuClient* client = clientForUid(uid);
  if (client == nullptr) return;  // control-plane-only pod (tests)
  Status s = client->configureLb(config);
  if (!s.isOk()) {
    ME_LOG(kError) << "LB reconfiguration for pod uid " << uid
                   << " failed: " << s.toString();
  }
}

void Testbed::evictPodByUid(std::uint64_t uid, const Status& reason) {
  ME_LOG(kWarning) << "evicting pod uid " << uid << ": " << reason.toString();
  scheduler_->forgetPod(uid);
  // Stop the application's frame flow, then terminate the pod.
  for (auto it = cameras_.begin(); it != cameras_.end(); ++it) {
    if (it->second.uid == uid) {
      it->second.pipeline->stop();
      retiredCameras_.push_back(std::move(it->second));
      cameras_.erase(it);
      break;
    }
  }
  for (auto it = coralPies_.begin(); it != coralPies_.end(); ++it) {
    if (it->second.uid == uid) {
      it->second.app->stop();
      (void)api_->failPod(it->second.reidUid);
      retiredCoralPies_.push_back(std::move(it->second));
      coralPies_.erase(it);
      break;
    }
  }
  for (auto it = bodypixes_.begin(); it != bodypixes_.end(); ++it) {
    if (it->second.uid == uid) {
      it->second.app->stop();
      retiredBodyPixes_.push_back(std::move(it->second));
      bodypixes_.erase(it);
      break;
    }
  }
  for (auto it = cascades_.begin(); it != cascades_.end(); ++it) {
    if (it->second.gateUid == uid || it->second.expertUid == uid) {
      // Losing either stage kills the pipeline; terminate the sibling too.
      it->second.app->stop();
      std::uint64_t sibling =
          it->second.gateUid == uid ? it->second.expertUid : it->second.gateUid;
      if (api_->isAlive(sibling)) (void)api_->failPod(sibling);
      retiredCascades_.push_back(std::move(it->second));
      cascades_.erase(it);
      break;
    }
  }
  if (api_->isAlive(uid)) (void)api_->failPod(uid);
}

FailureRecovery::Report Testbed::failTpu(const std::string& tpuId) {
  ME_LOG(kInfo) << "injecting failure of " << tpuId;
  // Data plane first: the service stops answering; in-flight routes drop.
  dataPlane_->removeService(tpuId);
  Status removed = pool_.removeTpu(tpuId);
  if (!removed.isOk()) {
    ME_LOG(kWarning) << "failTpu: " << removed.toString();
    return {};
  }
  return failureRecovery_->onTpuFailure(tpuId);
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
    dataPlane_->removeService(tpu->id());
    Status removed = pool_.removeTpu(tpu->id());
    if (!removed.isOk()) continue;  // already failed earlier
    ++report.tpusLost;
    FailureRecovery::Report r = failureRecovery_->onTpuFailure(tpu->id());
    report.recovery.affectedPods += r.affectedPods;
    report.recovery.recoveredPods += r.recoveredPods;
    report.recovery.evictedPods += r.evictedPods;
    report.recovery.reshapedPods += r.reshapedPods;
  }
  return report;
}

FaultInjector& Testbed::armFaults(const FaultPlan& plan) {
  if (faultInjector_ == nullptr) {
    // The data plane supplies every data-plane edge; detection runs the
    // full failTpu / failNode paths (removeService is an idempotent no-op
    // by then).
    FaultInjector::Hooks hooks = dataPlane_->faultHooks();
    hooks.tpuFailControlPlane = [this](const std::string& tpuId) {
      (void)failTpu(tpuId);
    };
    hooks.nodeFailControlPlane = [this](const std::string& nodeName) {
      (void)failNode(nodeName);
    };
    faultInjector_ = std::make_unique<FaultInjector>(dataPlane_->router(),
                                                     std::move(hooks));
  }
  faultInjector_->arm(plan);  // a second plan aborts
  return *faultInjector_;
}

Defragmenter::Report Testbed::defragment(bool full) {
  if (defragmenter_ == nullptr) return {};  // dedicated baseline: nothing to do
  return full ? defragmenter_->replanAll() : defragmenter_->consolidate();
}

std::vector<const CameraPipeline*> Testbed::allCameras() const {
  std::vector<const CameraPipeline*> out;
  for (const auto& [name, instance] : cameras_) {
    out.push_back(instance.pipeline.get());
  }
  for (const auto& instance : retiredCameras_) {
    out.push_back(instance.pipeline.get());
  }
  return out;
}

std::vector<const SloMonitor*> Testbed::collectSloMonitors() const {
  std::vector<const SloMonitor*> monitors;
  auto addPipeline = [&monitors](const CameraPipeline& p) {
    monitors.push_back(&p.slo());
  };
  for (const auto& [name, i] : cameras_) addPipeline(*i.pipeline);
  for (const auto& i : retiredCameras_) addPipeline(*i.pipeline);
  for (const auto& [name, i] : coralPies_) addPipeline(i.app->detection());
  for (const auto& i : retiredCoralPies_) addPipeline(i.app->detection());
  for (const auto& [name, i] : bodypixes_) addPipeline(i.app->pipeline());
  for (const auto& i : retiredBodyPixes_) addPipeline(i.app->pipeline());
  for (const auto& [name, i] : cascades_) monitors.push_back(&i.app->slo());
  for (const auto& i : retiredCascades_) monitors.push_back(&i.app->slo());
  return monitors;
}

SloReport Testbed::sloReport() const {
  return summarizeSlo(collectSloMonitors());
}

}  // namespace microedge
