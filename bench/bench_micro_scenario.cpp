// bench_micro_scenario — scenario-engine overload-control study + the
// scenario determinism smoke.
//
// Default mode runs the builtin flash-crowd scenario (2x peak against a
// cluster provisioned at ~0.86 load, so the peak is ~1.7x capacity) under
// the four cumulative control-policy bundles (kControlPolicies, applied by
// applyControlPolicy with a 60 ms deadline):
//
//   none     no deadline, no admission, no degradation, no repacking —
//            frames queue without bound through the crowd
//   admit    60 ms frame deadline + per-frame admission ledger
//   degrade  admit + per-stream fps-ladder degradation
//   full     degrade + SLO-attainment-triggered repacking
//
// and reports the per-phase SLO-attainment table (BENCH_scenario.json).
// Every policy cell is run at EVERY shard count in --shards and the full
// deterministic metrics dump must be byte-identical across them — the
// inline differential; the bench aborts on any mismatch. Acceptance gates
// enforced in-binary, on the peak phase: attainment (deadline-met /
// completed) is >= 0.99 under `full` and <= 0.90 under `none`; and the
// share of submitted frames that meet the deadline is >= 0.7 under `full`
// and above `admit`'s (the degrader's gain), and <= 0.1 under `none`.
// Attainment alone cannot fail once the deadline enforces the SLO: every
// completed frame then met it.
//
//   bench_micro_scenario [--shards=1,2,4] [--out=BENCH_scenario.json]
//   bench_micro_scenario --smoke --shards=4 --dump=scen_s4.json
//
// --smoke runs the combined "city" scenario (diurnal + tenant flash crowd +
// churn + a correlated rack failure) once on a small slice with every
// control loop armed and writes the deterministic dump to --dump; CI runs
// it at shards 1 and 4 and byte-compares the files.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.hpp"
#include "scenario/spec.hpp"
#include "testbed/sharded_cluster.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace microedge {
namespace {

// 8 streams/rack on one 222 fps TPU: 24 fps nominal = 192 fps offered
// (~0.86 load), the 2x flash peak = 384 fps (~1.7x overload).
ShardedClusterConfig configFor(std::string_view policy, unsigned shards,
                               const ScenarioSpec& spec) {
  ShardedClusterConfig config;
  config.shards = shards;
  config.racks = 2;
  config.tRpisPerRack = 1;
  config.vRpisPerRack = 4;
  config.tpusPerTRpi = 1;
  config.streamsPerVRpi = 2;
  config.fps = 24.0;
  config.scenario.enabled = true;
  config.scenario.spec = spec;
  // The SLO bound every policy is judged against — enforced as a frame
  // deadline only when the policy says so.
  config.scenario.sloDeadline = milliseconds(60);
  (void)applyControlPolicy(policy, milliseconds(60), &config);
  return config;
}

struct PolicyRun {
  std::string policy;
  std::string metrics;  // deterministic dump (the differential artifact)
  std::vector<ShardedCluster::PhaseStats> phases;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadlineMet = 0;
  std::uint64_t repacks = 0;
  std::uint64_t digest = 0;
};

PolicyRun runPolicy(std::string_view policy, unsigned shards,
                    const ScenarioSpec& spec) {
  ShardedCluster cluster(configFor(policy, shards, spec));
  if (!cluster.setupStatus().isOk()) {
    std::cerr << "setup failed (" << policy << ", shards=" << shards
              << "): " << cluster.setupStatus().toString() << "\n";
    std::exit(1);
  }
  Status ran = cluster.runScenario();
  if (!ran.isOk()) {
    std::cerr << "runScenario failed (" << policy << "): "
              << ran.toString() << "\n";
    std::exit(1);
  }
  PolicyRun result;
  result.policy = policy;
  result.metrics = cluster.metricsJson();
  result.phases = cluster.phaseStats();
  result.submitted = cluster.totalSubmitted();
  result.completed = cluster.totalCompleted();
  result.deadlineMet = cluster.totalDeadlineMet();
  result.repacks = cluster.totalRepacks();
  result.digest = cluster.digest();
  return result;
}

// Share of a phase's submitted frames that completed inside the SLO bound.
double metShare(const ShardedCluster::PhaseStats& phase) {
  return phase.submitted > 0 ? static_cast<double>(phase.deadlineMet) /
                                   static_cast<double>(phase.submitted)
                             : 1.0;
}

const ShardedCluster::PhaseStats* findPhase(const PolicyRun& run,
                                            const std::string& name) {
  for (const auto& phase : run.phases) {
    if (phase.name == name) return &phase;
  }
  return nullptr;
}

void usage() {
  std::cerr <<
      "usage: bench_micro_scenario [options]\n"
      "  --shards=LIST  comma list of shard counts every policy cell runs\n"
      "                 at (default 1,2,4; dumps must be byte-identical)\n"
      "  --out=PATH     JSON results (default BENCH_scenario.json)\n"
      "  --smoke        one small combined-scenario run (first --shards\n"
      "                 entry); with --dump, write its metrics\n"
      "  --dump=PATH    write the smoke run's deterministic metrics dump\n"
      "                 (CI byte-compares shards 1 vs 4)\n";
}

}  // namespace
}  // namespace microedge

int main(int argc, char** argv) {
  using namespace microedge;

  std::string shardList = "1,2,4";
  std::string outPath = "BENCH_scenario.json";
  std::string dumpPath;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (parseFlag(arg, "shards", &value)) {
      shardList = value;
    } else if (parseFlag(arg, "out", &value)) {
      outPath = value;
    } else if (parseFlag(arg, "dump", &value)) {
      dumpPath = value;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "bench_micro_scenario: unknown argument " << arg << "\n";
      usage();
      return 2;
    }
  }

  std::vector<unsigned> shardCounts;
  {
    std::stringstream ss(shardList);
    std::string token;
    while (std::getline(ss, token, ',')) {
      shardCounts.push_back(unsignedFlag<unsigned>("bench_micro_scenario",
                                                   "shards", token, usage));
    }
  }
  if (shardCounts.empty()) {
    usage();
    return 2;
  }

  // --smoke: the combined city scenario (diurnal + flash + churn + a
  // correlated rack failure) on a small slice, every control loop armed.
  if (smoke) {
    StatusOr<ScenarioSpec> spec = builtinScenario("city");
    if (!spec.isOk()) {
      std::cerr << spec.status().toString() << "\n";
      return 1;
    }
    ShardedClusterConfig config = configFor("full", shardCounts[0], *spec);
    config.vRpisPerRack = 2;
    config.streamsPerVRpi = 1;
    config.fps = 10.0;
    ShardedCluster cluster(std::move(config));
    if (!cluster.setupStatus().isOk()) {
      std::cerr << "smoke setup failed: "
                << cluster.setupStatus().toString() << "\n";
      return 1;
    }
    Status ran = cluster.runScenario();
    if (!ran.isOk()) {
      std::cerr << "smoke run failed: " << ran.toString() << "\n";
      return 1;
    }
    const std::string metrics = cluster.metricsJson();
    if (!dumpPath.empty()) {
      std::ofstream out(dumpPath);
      out << metrics;
      if (!out) {
        std::cerr << "cannot write " << dumpPath << "\n";
        return 1;
      }
    }
    std::cout << "scenario smoke: shards=" << shardCounts[0]
              << " digest=" << cluster.digest() << "\n";
    return 0;
  }

  StatusOr<ScenarioSpec> specOr = builtinScenario("flashcrowd");
  if (!specOr.isOk()) {
    std::cerr << specOr.status().toString() << "\n";
    return 1;
  }
  const ScenarioSpec spec = *specOr;

  // Policy grid, each cell replicated across the shard list with the full
  // dump byte-compared — the inline differential.
  std::vector<PolicyRun> runs;
  for (std::string_view policy : kControlPolicies) {
    PolicyRun reference = runPolicy(policy, shardCounts[0], spec);
    for (std::size_t s = 1; s < shardCounts.size(); ++s) {
      PolicyRun other = runPolicy(policy, shardCounts[s], spec);
      if (other.metrics != reference.metrics) {
        std::cerr << "DETERMINISM VIOLATION: policy " << policy
                  << " dump differs between shards=" << shardCounts[0]
                  << " and shards=" << shardCounts[s] << "\n";
        return 1;
      }
    }
    runs.push_back(std::move(reference));
  }

  // Per-phase tables: attainment (deadline-met / completed) and the share
  // of submitted frames that met the deadline.
  const auto printTable = [&runs](const char* title, auto ratio) {
    std::printf("%s\n%-10s", title, "phase");
    for (const PolicyRun& run : runs) std::printf(" %9s", run.policy.c_str());
    std::printf("\n");
    for (std::size_t p = 0; p < runs[0].phases.size(); ++p) {
      std::printf("%-10s", runs[0].phases[p].name.c_str());
      for (const PolicyRun& run : runs) {
        std::printf(" %9.4f", ratio(run.phases[p]));
      }
      std::printf("\n");
    }
  };
  printTable("flash-crowd 2x peak: SLO attainment by phase (60 ms bound)",
             [](const ShardedCluster::PhaseStats& ph) {
               return ph.attainment;
             });
  printTable("\ndeadline met / submitted by phase", metShare);
  std::printf("%-10s", "repacks");
  for (const PolicyRun& run : runs) {
    std::printf(" %9llu", static_cast<unsigned long long>(run.repacks));
  }
  std::printf("\n");

  // Acceptance gates (see the header): on the peak phase, the full bundle
  // keeps its completions inside the SLO and serves most of the offered
  // frames inside it, more than admission alone; uncontrolled queueing
  // collapses on both measures.
  const ShardedCluster::PhaseStats* nonePeak = findPhase(runs[0], "peak");
  const ShardedCluster::PhaseStats* admitPeak = findPhase(runs[1], "peak");
  const ShardedCluster::PhaseStats* fullPeak = findPhase(runs[3], "peak");
  if (nonePeak == nullptr || admitPeak == nullptr || fullPeak == nullptr) {
    std::cerr << "missing peak phase in results\n";
    return 1;
  }
  if (fullPeak->attainment < 0.99) {
    std::cerr << "ACCEPTANCE FAILED: full-policy peak attainment "
              << fullPeak->attainment << " < 0.99\n";
    return 1;
  }
  if (nonePeak->attainment > 0.90) {
    std::cerr << "ACCEPTANCE FAILED: no-control peak attainment "
              << nonePeak->attainment << " did not collapse (> 0.90)\n";
    return 1;
  }
  if (metShare(*fullPeak) < 0.7 ||
      metShare(*fullPeak) <= metShare(*admitPeak)) {
    std::cerr << "ACCEPTANCE FAILED: full-policy peak deadline-met share "
              << metShare(*fullPeak) << " is under 0.7 or not above admit's "
              << metShare(*admitPeak) << "\n";
    return 1;
  }
  if (metShare(*nonePeak) > 0.1) {
    std::cerr << "ACCEPTANCE FAILED: no-control peak deadline-met share "
              << metShare(*nonePeak) << " did not collapse (> 0.1)\n";
    return 1;
  }

  JsonValue doc = JsonValue::object();
  doc.set("bench", "scenario");
  doc.set("scenario", spec.name);
  doc.set("fingerprint", spec.fingerprint());
  doc.set("slo_ms", 60.0);
  {
    JsonValue shardsJson = JsonValue::array();
    for (unsigned s : shardCounts) {
      shardsJson.push(static_cast<std::int64_t>(s));
    }
    doc.set("shards_compared", std::move(shardsJson));
  }
  JsonValue policies = JsonValue::array();
  for (const PolicyRun& run : runs) {
    JsonValue entry = JsonValue::object();
    entry.set("policy", run.policy);
    entry.set("submitted", static_cast<std::int64_t>(run.submitted));
    entry.set("completed", static_cast<std::int64_t>(run.completed));
    entry.set("deadline_met", static_cast<std::int64_t>(run.deadlineMet));
    entry.set("repacks", static_cast<std::int64_t>(run.repacks));
    entry.set("attainment",
              run.completed > 0 ? static_cast<double>(run.deadlineMet) /
                                      static_cast<double>(run.completed)
                                : 1.0);
    entry.set("digest", strCat(run.digest));
    JsonValue phases = JsonValue::array();
    for (const auto& ph : run.phases) {
      JsonValue phase = JsonValue::object();
      phase.set("name", ph.name);
      phase.set("completed", static_cast<std::int64_t>(ph.completed));
      phase.set("deadline_met", static_cast<std::int64_t>(ph.deadlineMet));
      phase.set("attainment", ph.attainment);
      phase.set("goodput_fps", ph.goodputFps);
      phase.set("degrade_downs", static_cast<std::int64_t>(ph.degradeDowns));
      phase.set("repacks", static_cast<std::int64_t>(ph.repacks));
      phase.set("active_streams",
                static_cast<std::int64_t>(ph.activeStreams));
      phases.push(std::move(phase));
    }
    entry.set("phases", std::move(phases));
    policies.push(std::move(entry));
  }
  doc.set("policies", std::move(policies));

  std::ofstream out(outPath);
  out << doc.dump(2) << "\n";
  if (!out) {
    std::cerr << "cannot write " << outPath << "\n";
    return 1;
  }
  std::cout << "wrote " << outPath << "\n";
  return 0;
}
