#include "testbed/planner.hpp"

#include "metrics/report.hpp"
#include "orch/spec.hpp"
#include "orch/yaml.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace microedge {

namespace {

StatusOr<SchedulingMode> parseMode(const std::string& text) {
  if (text == "baseline") return SchedulingMode::kBaselineDedicated;
  if (text == "microedge") return SchedulingMode::kMicroEdgeNoWp;
  if (text == "microedge-wp") return SchedulingMode::kMicroEdgeWp;
  return invalidArgument(
      strCat("scheduler.mode '", text,
             "': expected baseline | microedge | microedge-wp"));
}

StatusOr<PackingStrategy> parseStrategy(const std::string& text) {
  if (text == "first-fit") return PackingStrategy::kFirstFit;
  if (text == "next-fit") return PackingStrategy::kNextFit;
  if (text == "best-fit") return PackingStrategy::kBestFit;
  if (text == "worst-fit") return PackingStrategy::kWorstFit;
  return invalidArgument(strCat("scheduler.strategy '", text, "' unknown"));
}

}  // namespace

StatusOr<PlannerScenario> scenarioFromYaml(const std::string& yamlText,
                                           const ModelRegistry& registry) {
  auto doc = parseYaml(yamlText);
  if (!doc.isOk()) return doc.status();
  if (!doc->isMapping()) {
    return invalidArgument("scenario: document must be a mapping");
  }
  PlannerScenario scenario;

  if (const YamlNode* cluster = doc->find("cluster"); cluster != nullptr) {
    if (const YamlNode* tpus = cluster->find("tpus"); tpus != nullptr) {
      auto v = tpus->asLong();
      if (!v.isOk()) return v.status();
      if (*v <= 0 || *v > 512) {
        return invalidArgument("cluster.tpus must be in [1, 512]");
      }
      scenario.tpus = static_cast<int>(*v);
    }
    if (const YamlNode* mem = cluster->find("param-memory-mb");
        mem != nullptr) {
      auto v = mem->asDouble();
      if (!v.isOk()) return v.status();
      if (*v <= 0) return invalidArgument("cluster.param-memory-mb must be > 0");
      scenario.paramMemoryMb = *v;
    }
  }

  if (const YamlNode* sched = doc->find("scheduler"); sched != nullptr) {
    if (const YamlNode* mode = sched->find("mode"); mode != nullptr) {
      auto m = parseMode(mode->scalar());
      if (!m.isOk()) return m.status();
      scenario.mode = *m;
    }
    if (const YamlNode* cc = sched->find("co-compile"); cc != nullptr) {
      auto v = cc->asBool();
      if (!v.isOk()) return v.status();
      scenario.coCompile = *v;
    }
    if (const YamlNode* strategy = sched->find("strategy");
        strategy != nullptr) {
      auto s = parseStrategy(strategy->scalar());
      if (!s.isOk()) return s.status();
      scenario.strategy = *s;
    }
  }

  const YamlNode* pods = doc->find("pods");
  if (pods == nullptr || !pods->isSequence() || pods->items().empty()) {
    return invalidArgument("scenario: non-empty 'pods' sequence is required");
  }
  for (const YamlNode& item : pods->items()) {
    if (!item.isMapping()) {
      return invalidArgument("scenario: each pod must be a mapping");
    }
    PlannerScenario::PodRequest pod;
    const YamlNode* name = item.find("name");
    if (name == nullptr || !name->isScalar() || name->scalar().empty()) {
      return invalidArgument("scenario: pod 'name' is required");
    }
    pod.name = name->scalar();
    const YamlNode* model = item.find("model");
    if (model == nullptr || !model->isScalar()) {
      return invalidArgument(strCat("pod ", pod.name, ": 'model' is required"));
    }
    pod.model = model->scalar();
    if (!registry.contains(pod.model)) {
      return notFound(strCat("pod ", pod.name, ": model '", pod.model,
                             "' not in the zoo"));
    }
    if (const YamlNode* fps = item.find("fps"); fps != nullptr) {
      auto v = fps->asDouble();
      if (!v.isOk()) return v.status();
      if (!fitsFramePeriod(*v)) {
        return invalidArgument(
            strCat("pod ", pod.name, ": fps must be in (0, 1e9]"));
      }
      pod.fps = *v;
    }
    if (const YamlNode* units = item.find("tpu-units"); units != nullptr) {
      auto v = units->asDouble();
      if (!v.isOk()) return v.status();
      if (!validTpuUnits(*v)) {
        return invalidArgument(strCat("pod ", pod.name, ": bad tpu-units"));
      }
      pod.tpuUnits = *v;
    }
    scenario.pods.push_back(std::move(pod));
  }
  return scenario;
}

PlannerResult planScenario(const PlannerScenario& scenario,
                           const ModelRegistry& registry) {
  TpuPool pool;
  for (int i = 0; i < scenario.tpus; ++i) {
    Status s = pool.addTpu(strCat("tpu-", i < 10 ? "0" : "", i),
                           scenario.paramMemoryMb);
    (void)s;
  }
  const std::unique_ptr<TpuAllocator> allocator = makeAllocator(
      {scenario.mode, scenario.coCompile, scenario.strategy}, pool, registry);

  PlannerResult result;
  std::uint64_t uid = 1;
  for (const PlannerScenario::PodRequest& pod : scenario.pods) {
    PlannerResult::Placement placement;
    placement.pod = pod.name;
    placement.model = pod.model;
    placement.units = pod.tpuUnits > 0.0
                          ? pod.tpuUnits
                          : registry.at(pod.model).tpuUnitsAt(pod.fps);
    auto admitted = allocator->admit(uid++, pod.model,
                                     TpuUnit::fromDouble(placement.units));
    if (admitted.isOk()) {
      placement.accepted = true;
      placement.shares = admitted->allocation.shares;
      ++result.accepted;
    } else {
      placement.reason = admitted.status().message();
      ++result.rejected;
    }
    result.placements.push_back(std::move(placement));
  }

  for (const TpuState& tpu : pool.tpus()) {
    PlannerResult::TpuRow row;
    row.id = tpu.id();
    row.load = tpu.currentLoad().value();
    row.usedParamMb = tpu.usedParamMb(registry);
    row.models = tpu.liveModels();
    result.tpus.push_back(std::move(row));
  }
  return result;
}

SimulationOutcome simulateScenario(const PlannerScenario& scenario,
                                   SimDuration horizon) {
  TestbedConfig config;
  config.mode = scenario.mode;
  config.enableCoCompile = scenario.coCompile;
  config.strategy = scenario.strategy;
  config.topology.tRpiCount = scenario.tpus;
  config.topology.tpusPerTRpi = 1;
  config.topology.vRpiCount =
      static_cast<int>(scenario.pods.size()) / 2 + 8;
  config.topology.tpuConfig.paramMemoryMb = scenario.paramMemoryMb;
  config.utilizationWindow = seconds(10);
  Testbed testbed(config);

  SimulationOutcome outcome;
  std::vector<std::pair<std::string, bool>> admittedByName;
  for (const PlannerScenario::PodRequest& pod : scenario.pods) {
    CameraDeployment deployment;
    deployment.name = pod.name;
    deployment.model = pod.model;
    deployment.fps = pod.fps;
    deployment.tpuUnits = pod.tpuUnits;
    bool ok = testbed.deployCamera(deployment).isOk();
    admittedByName.emplace_back(pod.name, ok);
    ok ? ++outcome.admitted : ++outcome.rejected;
  }
  testbed.run(horizon);

  for (const auto& [name, admitted] : admittedByName) {
    SimulationOutcome::StreamRow row;
    row.pod = name;
    row.admitted = admitted;
    if (admitted) {
      CameraPipeline* pipeline = testbed.findCamera(name);
      if (pipeline != nullptr) {
        row.achievedFps = pipeline->slo().achievedFps();
        row.p99LatencyMs = pipeline->slo().latency().p99Ms();
        row.sloMet = pipeline->slo().sloMet();
      }
    }
    outcome.streams.push_back(std::move(row));
  }
  outcome.meanTpuUtilization = testbed.meanTpuUtilization();
  return outcome;
}

std::string renderSimulation(const PlannerScenario& scenario,
                             const SimulationOutcome& outcome,
                             SimDuration horizon) {
  std::string out =
      strCat("\nsimulated ", fmtDouble(toSeconds(horizon), 0), " s on ",
             scenario.tpus, " TPU(s):\n");
  TextTable table({"pod", "achieved FPS", "p99 latency (ms)", "SLO"});
  for (const auto& row : outcome.streams) {
    if (!row.admitted) {
      table.addRow({row.pod, "-", "-", "rejected"});
      continue;
    }
    table.addRow({row.pod, fmtDouble(row.achievedFps, 2),
                  fmtDouble(row.p99LatencyMs, 1),
                  row.sloMet ? "met" : "MISSED"});
  }
  out += table.render();
  out += strCat("\nmean TPU utilization: ",
                fmtDouble(outcome.meanTpuUtilization * 100.0, 1), "%\n");
  return out;
}

std::string renderPlan(const PlannerScenario& scenario,
                       const PlannerResult& result) {
  std::string out = strCat("plan: ", scenario.tpus, " TPU(s), ",
                           toString(scenario.mode), ", co-compile ",
                           scenario.coCompile ? "on" : "off", ", ",
                           toString(scenario.strategy), "\n\n");
  TextTable placements({"pod", "model", "units", "placement"});
  for (const auto& p : result.placements) {
    std::string where;
    if (p.accepted) {
      for (const TpuShare& share : p.shares) {
        if (!where.empty()) where += " + ";
        where += strCat(tpuName(share.tpu), ":",
                        fmtDouble(share.units.value(), 2));
      }
    } else {
      where = strCat("REJECTED (", p.reason, ")");
    }
    placements.addRow(
        {p.pod, p.model, fmtDouble(p.units, 2), std::move(where)});
  }
  out += placements.render();

  out += "\nper-TPU state:\n";
  TextTable tpus({"tpu", "load", "param MB", "resident models"});
  for (const auto& row : result.tpus) {
    std::string models;
    for (const auto& m : row.models) {
      if (!models.empty()) models += ", ";
      models += m;
    }
    tpus.addRow({row.id, fmtDouble(row.load, 2), fmtDouble(row.usedParamMb, 1),
                 models.empty() ? "-" : models});
  }
  out += tpus.render();
  out += strCat("\naccepted ", result.accepted, " / rejected ",
                result.rejected, "\n");
  return out;
}

}  // namespace microedge
