// bench_micro_shardsim — sharded-simulation throughput vs shard count and
// window-bound mode.
//
// Runs the city-slice harness (testbed/sharded_cluster.hpp) at 1k-node,
// 10k-node and 100k-stream presets across a (window-bound mode x shard
// count) grid and reports simulated frames/s, events/s and events/window,
// plus the per-run result digest — the digest column doubles as an inline
// differential check: every cell of the grid must compute the identical
// digest or the bench aborts (window bounds and shard counts only
// partition the event set; they may never change the results).
//
// Each row's busiest_share is the share of the windowed events that each
// window's busiest shard fired (ShardedSim::busiestShardEvents): 1/shards
// when every window holds an even share of work for every shard, 1 when
// each window holds one shard's work. A one-shard row runs no windows and
// reads 1.
//
//   bench_micro_shardsim --preset=1k --shards=1,2,4,8 --mode=fixed,adaptive
//   bench_micro_shardsim --smoke --shards=4 --mode=adaptive --dump=m.json
//
// --smoke runs a small fixed workload and writes its deterministic metrics
// dump to --dump; CI runs it across the mode x shard grid and byte-compares
// every file (the sharded-determinism smoke).
//
// Speedup expectations are machine-dependent: shards only help when worker
// threads land on distinct cores. On a single-core machine the sweep
// documents PARITY for kFixed (sharding must not cost throughput) and the
// window-widening win for kAdaptive (fewer, fatter windows amortize the
// barrier even on one core); the committed baseline states the core count
// for exactly that reason.
//
// The 100k preset additionally checks the steady-state allocation budget:
// after a warmup run the rest of the simulation may allocate only its
// thread launch — nothing at one shard, and at N > 1 shards one state per
// std::thread plus their vector (N + 1). No frame, hop or mailbox message
// may allocate, same shard or cross shard. The bench counts allocations via
// a global counting operator new and aborts, printing the count, if the
// budget is blown.
//
// Every run also reports the city's footprint: the heap blocks and bytes
// (malloc_usable_size) the harness's setup leaves live, per stream. The
// 100k preset gates both at 5% over the values measured when the per-stream
// state was last laid out (a client, task and rate control inside one
// stream block, plus one block of LB targets; frame contexts in one pool
// per shard) and aborts, printing them, past either bound.
//
// The 1k and 10k presets simulate a few milliseconds of wall time per cell,
// so one run of a cell is mostly host noise. Each of their cells runs
// kSmallPresetTakes times, in rounds over the grid, checks the digest on
// every take and reports the take with the median wall time (every take
// simulates the same frames, so that is also the median rate).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.hpp"
#include "count_allocs.hpp"
#include "testbed/sharded_cluster.hpp"
#include "util/strings.hpp"

namespace microedge {
namespace {

struct Preset {
  std::string name;
  int racks = 0;
  int tRpisPerRack = 0;
  int vRpisPerRack = 0;
  int streamsPerVRpi = 1;
  int streamsPerTRpi = 0;
  double fps = 15.0;
  double tpuUnits = 0.0;  // 0 => profile from the zoo at `fps`
  int deadlineMs = 60;
  double horizonSeconds = 0;
  // Runs of each cell; the row reports the median take.
  int takes = 1;
  // Steady state must be allocation-free past this warmup (0 = no check).
  // Must cover one full frame period of EVERY stream: phases stagger over
  // a whole period, so a shorter warmup would count late streams' first
  // frames — which legitimately grow client/queue capacity — as steady
  // state.
  double warmupSeconds = 0;
  // Footprint bounds: live heap blocks and bytes per stream after setup
  // (0 = no check).
  double maxBlocksPerStream = 0;
  double maxBytesPerStream = 0;
};

// Takes per cell of the 1k and 10k presets (see the header comment).
constexpr int kSmallPresetTakes = 9;

// Nodes per rack = tRpis + vRpis; streams = racks * (vRpis * perV + tRpis *
// perT). The 100k preset reuses the 10k-node city slice but hosts ten
// streams on every RPi — tRPis included — at 1 fps with an explicit
// per-stream TPU share so admission still packs 100 streams per rack.
Preset presetByName(const std::string& name) {
  if (name == "smoke") return {"smoke", 4, 1, 2, 1, 0, 15.0, 0.0, 60, 1.0};
  if (name == "1k") {
    return {"1k", 100, 2, 8, 1, 0, 15.0, 0.0, 60, 1.0, kSmallPresetTakes};
  }
  if (name == "10k") {
    return {"10k", 1000, 2, 8, 1, 0, 15.0, 0.0, 60, 0.25, kSmallPresetTakes};
  }
  if (name == "100k") {
    Preset p{"100k", 1000, 2, 8, 10, 10, 1.0, 0.01, 0, 2.5};
    p.warmupSeconds = 1.25;  // one full 1 fps period + slack
    // 5% over the 4.53 blocks and 850 bytes per stream measured at one
    // shard (gcc 12, glibc; the first run in the process also counts the
    // node names it interns).
    p.maxBlocksPerStream = 4.53 * 1.05;
    p.maxBytesPerStream = 850 * 1.05;
    return p;
  }
  std::cerr << "unknown preset " << name << " (smoke|1k|10k|100k)\n";
  std::exit(2);
}

ShardedSim::WindowBound modeByName(const std::string& name) {
  if (name == "fixed") return ShardedSim::WindowBound::kFixed;
  if (name == "adaptive") return ShardedSim::WindowBound::kAdaptive;
  std::cerr << "unknown mode " << name << " (fixed|adaptive)\n";
  std::exit(2);
}

const char* modeName(ShardedSim::WindowBound mode) {
  return mode == ShardedSim::WindowBound::kAdaptive ? "adaptive" : "fixed";
}

// Per-frame admission for every stream's client; the CI smoke runs the same
// config with admission on and off and byte-compares the dumps (below
// capacity the ledger is pure bookkeeping, so they must agree).
FrameAdmissionConfig g_admission{};

ShardedClusterConfig configFor(const Preset& preset, unsigned shards,
                               ShardedSim::WindowBound mode) {
  ShardedClusterConfig config;
  config.shards = shards;
  config.racks = preset.racks;
  config.tRpisPerRack = preset.tRpisPerRack;
  config.vRpisPerRack = preset.vRpisPerRack;
  config.streamsPerVRpi = preset.streamsPerVRpi;
  config.streamsPerTRpi = preset.streamsPerTRpi;
  config.tpusPerTRpi = 1;
  config.fps = preset.fps;
  config.tpuUnits = preset.tpuUnits;
  config.frameDeadline = milliseconds(preset.deadlineMs);
  config.crossRackStride = 5;  // keep some cross-shard traffic in the mix
  config.windowBound = mode;
  config.frameAdmission = g_admission;
  // Block placement keeps stride-to-next-rack streams shard-local except at
  // block boundaries — the locality the adaptive bound feeds on. Results
  // are mapping-invariant (the camera order depends on neither the mapping
  // nor the shard count), so both modes use it and every cell of the grid
  // must compute one digest.
  config.rackMapping = RackMapping::kBlock;
  return config;
}

struct RunResult {
  unsigned shards = 0;
  double wallSeconds = 0;
  std::uint64_t frames = 0;
  std::size_t events = 0;
  std::size_t windows = 0;
  std::size_t adaptiveWindows = 0;
  std::size_t crossMessages = 0;
  std::uint64_t busiestEvents = 0;
  std::uint64_t digest = 0;
  double steadyAllocsPerFrame = 0;
  double blocksPerStream = 0;
  double bytesPerStream = 0;
};

RunResult runPreset(const Preset& preset, unsigned shards,
                    ShardedSim::WindowBound mode) {
  const std::int64_t blocks0 = liveBlocksNow();
  const std::int64_t bytes0 = liveBytesNow();
  ShardedCluster cluster(configFor(preset, shards, mode));
  if (!cluster.setupStatus().isOk()) {
    std::cerr << "setup failed: " << cluster.setupStatus().toString() << "\n";
    std::exit(1);
  }
  RunResult result;
  result.shards = shards;
  const double streams = static_cast<double>(cluster.streamCount());
  result.blocksPerStream =
      static_cast<double>(liveBlocksNow() - blocks0) / streams;
  result.bytesPerStream =
      static_cast<double>(liveBytesNow() - bytes0) / streams;
  if ((preset.maxBlocksPerStream > 0 &&
       result.blocksPerStream > preset.maxBlocksPerStream) ||
      (preset.maxBytesPerStream > 0 &&
       result.bytesPerStream > preset.maxBytesPerStream)) {
    std::cerr << "FOOTPRINT BUDGET BLOWN: " << result.blocksPerStream
              << " heap blocks (bound " << preset.maxBlocksPerStream << ") and "
              << result.bytesPerStream << " bytes (bound "
              << preset.maxBytesPerStream << ") live per stream after setup"
              << " at preset " << preset.name << " shards=" << shards
              << " mode=" << modeName(mode) << "\n";
    std::exit(1);
  }

  double horizon = preset.horizonSeconds;
  std::size_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  if (preset.warmupSeconds > 0) {
    // Warmup grows every pool/heap/lane to its steady-state capacity (and
    // covers every stream's first frame — see Preset). The rest may
    // allocate only the run's worker-thread launch: one std::thread state
    // per shard plus the vector holding them; the solo path launches
    // nothing.
    const std::uint64_t budget = shards > 1 ? shards + 1 : 0;
    const double warmup = preset.warmupSeconds;
    fired += cluster.shardedSim().runFor(secondsF(warmup));
    const std::uint64_t framesBefore = cluster.totalSubmitted();
    const std::uint64_t allocsBefore = allocsNow();
    fired += cluster.shardedSim().runFor(secondsF(horizon - warmup));
    const std::uint64_t allocs = allocsNow() - allocsBefore;
    const std::uint64_t frames = cluster.totalSubmitted() - framesBefore;
    result.steadyAllocsPerFrame =
        frames > 0 ? static_cast<double>(allocs) / static_cast<double>(frames)
                   : static_cast<double>(allocs);
    if (allocs > budget) {
      std::cerr << "STEADY-STATE ALLOCATION BUDGET BLOWN: " << allocs
                << " allocs (budget " << budget
                << ", the thread launch) over " << frames << " frames ("
                << result.steadyAllocsPerFrame << "/frame) at preset "
                << preset.name << " shards=" << shards << " mode="
                << modeName(mode) << "\n";
      std::exit(1);
    }
  } else {
    fired = cluster.shardedSim().runFor(secondsF(horizon));
  }
  const auto end = std::chrono::steady_clock::now();

  result.wallSeconds = std::chrono::duration<double>(end - start).count();
  result.frames = cluster.totalSubmitted();
  result.events = fired;
  result.windows = cluster.shardedSim().windowCount();
  result.adaptiveWindows = cluster.shardedSim().adaptiveWindowCount();
  result.crossMessages = cluster.shardedSim().crossShardMessages();
  result.busiestEvents = cluster.shardedSim().busiestShardEvents();
  result.digest = cluster.digest();
  return result;
}

void usage() {
  std::cerr <<
      "usage: bench_micro_shardsim [options]\n"
      "  --preset=P        smoke | 1k | 10k | 100k | all = 1k+10k+100k\n"
      "                    (default all)\n"
      "  --shards=LIST     comma list of shard counts (default 1,2,4,8)\n"
      "  --mode=LIST       window-bound modes: fixed | adaptive\n"
      "                    (default fixed,adaptive; digests must agree\n"
      "                    across the whole mode x shard grid)\n"
      "  --out=PATH        JSON results (default BENCH_shardsim.json)\n"
      "  --smoke           one small run (first mode/shards entry); with\n"
      "                    --dump, write its metrics\n"
      "  --dump=PATH       write the run's deterministic metrics dump\n"
      "                    (CI byte-compares every mode x shard cell)\n"
      "  --admission=on|off  per-frame admission ledger on every stream\n"
      "                    (default off; below capacity the dump must be\n"
      "                    byte-identical either way — CI cmp's them)\n";
}

}  // namespace
}  // namespace microedge

int main(int argc, char** argv) {
  using namespace microedge;

  std::string presetName = "all";
  std::string shardList = "1,2,4,8";
  std::string modeList = "fixed,adaptive";
  std::string outPath = "BENCH_shardsim.json";
  std::string dumpPath;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (parseFlag(arg, "preset", &value)) {
      presetName = value;
    } else if (parseFlag(arg, "shards", &value)) {
      shardList = value;
    } else if (parseFlag(arg, "mode", &value)) {
      modeList = value;
    } else if (parseFlag(arg, "out", &value)) {
      outPath = value;
    } else if (parseFlag(arg, "dump", &value)) {
      dumpPath = value;
    } else if (parseFlag(arg, "admission", &value)) {
      if (value != "on" && value != "off") {
        std::cerr << "bad --admission value " << value << " (on|off)\n";
        return 2;
      }
      g_admission.enabled = value == "on";
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "bench_micro_shardsim: unknown argument " << arg << "\n";
      usage();
      return 2;
    }
  }

  std::vector<unsigned> shardCounts;
  {
    std::stringstream ss(shardList);
    std::string token;
    while (std::getline(ss, token, ',')) {
      shardCounts.push_back(unsignedFlag<unsigned>("bench_micro_shardsim",
                                                   "shards", token, usage));
    }
  }
  std::vector<ShardedSim::WindowBound> modes;
  {
    std::stringstream ss(modeList);
    std::string token;
    while (std::getline(ss, token, ',')) modes.push_back(modeByName(token));
  }
  if (shardCounts.empty() || modes.empty()) {
    usage();
    return 2;
  }

  // --smoke: one deterministic small run; the metrics dump is the CI
  // byte-comparison artifact.
  if (smoke) {
    ShardedCluster cluster(
        configFor(presetByName("smoke"), shardCounts[0], modes[0]));
    if (!cluster.setupStatus().isOk()) {
      std::cerr << "setup failed: " << cluster.setupStatus().toString() << "\n";
      return 1;
    }
    cluster.run(seconds(1));
    const std::string metrics = cluster.metricsJson();
    if (!dumpPath.empty()) {
      std::ofstream out(dumpPath);
      out << metrics;
      if (!out) {
        std::cerr << "cannot write " << dumpPath << "\n";
        return 1;
      }
      std::cout << "wrote " << dumpPath << "\n";
    } else {
      std::cout << metrics;
    }
    return 0;
  }

  std::vector<std::string> presetNames =
      presetName == "all" ? std::vector<std::string>{"1k", "10k", "100k"}
                          : std::vector<std::string>{presetName};

  const unsigned cores = std::thread::hardware_concurrency();
  std::string json = strCat(
      "{\n  \"bench\": \"shardsim\",\n  \"machine_cores\": ", cores,
      ",\n  \"runs\": [");
  bool firstRun = true;
  for (const std::string& name : presetNames) {
    const Preset preset = presetByName(name);
    const int nodesPerRack = preset.tRpisPerRack + preset.vRpisPerRack;
    // Takes run in rounds over the whole (mode, shard count) grid, so a
    // slow spell on the host lands on one take of many cells rather than
    // on every take of one cell.
    std::vector<std::vector<RunResult>> takes(modes.size() *
                                              shardCounts.size());
    for (int take = 0; take < preset.takes; ++take) {
      std::size_t cell = 0;
      for (ShardedSim::WindowBound mode : modes) {
        for (unsigned shards : shardCounts) {
          takes[cell].push_back(runPreset(preset, shards, mode));
          // The bench IS a differential run: every take of every (mode,
          // shard count) cell must compute the identical result.
          if (takes[cell].back().digest != takes[0][0].digest) {
            std::cerr << "DIGEST MISMATCH at preset " << name << " shards="
                      << shards << " mode=" << modeName(mode) << " take "
                      << take << "\n";
            return 1;
          }
          ++cell;
        }
      }
    }
    double soloWall = 0;
    std::size_t cell = 0;
    for (ShardedSim::WindowBound mode : modes) {
      for (unsigned shards : shardCounts) {
        // Every take simulates the same frames, so the median wall time
        // is also the median rate.
        std::vector<RunResult>& runs = takes[cell];
        std::sort(runs.begin(), runs.end(),
                  [](const RunResult& a, const RunResult& b) {
                    return a.wallSeconds < b.wallSeconds;
                  });
        const RunResult& r = runs[runs.size() / 2];
        if (cell++ == 0) soloWall = r.wallSeconds;
        const double framesPerSec =
            r.wallSeconds > 0 ? static_cast<double>(r.frames) / r.wallSeconds
                              : 0;
        const double eventsPerSec =
            r.wallSeconds > 0 ? static_cast<double>(r.events) / r.wallSeconds
                              : 0;
        const double eventsPerWindow =
            r.windows > 0
                ? static_cast<double>(r.events) / static_cast<double>(r.windows)
                : static_cast<double>(r.events);
        const double speedup =
            r.wallSeconds > 0 ? soloWall / r.wallSeconds : 0;
        // Every event of a sharded run fires inside a window.
        const double busiestShare =
            r.windows > 0 ? static_cast<double>(r.busiestEvents) /
                                static_cast<double>(r.events)
                          : 1.0;
        json += strCat(firstRun ? "\n" : ",\n",
                       "    {\"preset\": \"", name, "\", \"nodes\": ",
                       preset.racks * nodesPerRack,
                       ", \"mode\": \"", modeName(mode), "\"",
                       ", \"shards\": ", shards,
                       ", \"takes\": ", preset.takes,
                       ", \"sim_seconds\": ", preset.horizonSeconds,
                       ", \"wall_seconds\": ", r.wallSeconds,
                       ", \"frames\": ", r.frames,
                       ", \"frames_per_wall_second\": ", framesPerSec,
                       ", \"events\": ", r.events,
                       ", \"events_per_wall_second\": ", eventsPerSec,
                       ", \"windows\": ", r.windows,
                       ", \"events_per_window\": ", eventsPerWindow,
                       ", \"adaptive_windows\": ", r.adaptiveWindows,
                       ", \"cross_shard_messages\": ", r.crossMessages,
                       ", \"busiest_share\": ", busiestShare,
                       ", \"speedup_vs_first\": ", speedup);
        if (preset.warmupSeconds > 0) {
          json += strCat(", \"steady_allocs_per_frame\": ",
                         r.steadyAllocsPerFrame);
        }
        json += strCat(", \"heap_blocks_per_stream\": ", r.blocksPerStream,
                       ", \"heap_bytes_per_stream\": ", r.bytesPerStream);
        json += strCat(", \"digest\": ", r.digest, "}");
        firstRun = false;
        std::cout << name << " mode=" << modeName(mode) << " shards=" << shards
                  << ": " << static_cast<std::uint64_t>(framesPerSec)
                  << " frames/s (wall " << r.wallSeconds << " s, "
                  << static_cast<std::uint64_t>(eventsPerWindow)
                  << " events/window, busiest share " << busiestShare
                  << ", speedup " << speedup << "x)\n";
      }
    }
  }
  json += "\n  ]\n}\n";

  std::ofstream out(outPath);
  out << json;
  if (!out) {
    std::cerr << "cannot write " << outPath << "\n";
    return 1;
  }
  std::cout << "wrote " << outPath << "\n";
  return 0;
}
