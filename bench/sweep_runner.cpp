// sweep_runner — CLI front end of the experiment-sweep subsystem.
//
// Runs a built-in grid (fig5 | fig6 | smoke | scenario) or a JSON grid file
// on --threads workers and writes the deterministically merged result:
//
//   sweep_runner --grid=fig5 --threads=8 --out=BENCH_sweep.json
//   sweep_runner --grid=grid.json --resume
//
// The merged output is byte-identical for any --threads count (and across
// interrupted + resumed histories); the `figures` ctest label compares it
// with committed goldens. The run's summary goes to stderr.

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "cli_flags.hpp"
#include "sweep/drivers.hpp"
#include "sweep/runner.hpp"
#include "util/strings.hpp"

using namespace microedge;

namespace {

void usage() {
  std::cerr <<
      "usage: sweep_runner [options]\n"
      "  --grid=NAME|FILE   built-in grid (fig5|fig6|smoke|scenario) or JSON\n"
      "                     grid file (default fig5)\n"
      "  --threads=N        worker threads (default: hardware concurrency;\n"
      "                     1 = serial path, 0 = auto — clamp to the\n"
      "                     machine's hardware concurrency)\n"
      "  --out=PATH         merged output (default BENCH_sweep.json)\n"
      "  --manifest=PATH    checkpoint manifest (default <out>.manifest.jsonl,\n"
      "                     'none' disables checkpointing)\n"
      "  --resume           fold an existing manifest in; run missing points\n"
      "  --dump-grid        print the grid JSON and exit\n";
}

bool parseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string gridName = "fig5";
  std::string outPath = "BENCH_sweep.json";
  std::string manifestPath;  // empty = derive from outPath
  unsigned threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  bool resume = false;
  bool dumpGrid = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (parseFlag(arg, "grid", &value)) {
      gridName = value;
    } else if (parseFlag(arg, "threads", &value)) {
      threads = unsignedFlag<unsigned>("sweep_runner", "threads", value, usage);
      // --threads=0 = auto: size to the machine, like the default.
      if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0) threads = 1;
      }
    } else if (parseFlag(arg, "out", &value)) {
      outPath = value;
    } else if (parseFlag(arg, "manifest", &value)) {
      manifestPath = value;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--dump-grid") {
      dumpGrid = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "sweep_runner: unknown argument " << arg << "\n";
      usage();
      return 2;
    }
  }

  // Grid: built-in name first, then a JSON file path.
  SweepGrid grid;
  StatusOr<SweepGrid> builtin = builtinSweepGrid(gridName);
  if (builtin.isOk()) {
    grid = std::move(*builtin);
  } else {
    StatusOr<std::string> text = readTextFile(gridName);
    if (!text.isOk()) {
      std::cerr << "sweep_runner: " << gridName
                << " is neither a built-in grid nor a readable file\n";
      return 2;
    }
    StatusOr<SweepGrid> parsed = SweepGrid::fromJsonText(*text);
    if (!parsed.isOk()) {
      std::cerr << "sweep_runner: " << gridName << ": "
                << parsed.status().toString() << "\n";
      return 2;
    }
    grid = std::move(*parsed);
  }

  if (dumpGrid) {
    std::cout << grid.toJson().dump(2) << "\n";
    return 0;
  }

  StatusOr<SweepPointFn> driver = findSweepDriver(grid.driver());
  if (!driver.isOk()) {
    std::cerr << "sweep_runner: " << driver.status().toString() << "\n";
    return 2;
  }

  SweepOptions options;
  options.threads = threads;
  options.outPath = outPath;
  options.manifestPath =
      manifestPath == "none"
          ? std::string()
          : (manifestPath.empty() ? outPath + ".manifest.jsonl"
                                  : manifestPath);
  options.resume = resume;

  StatusOr<SweepReport> report = runSweep(grid, *driver, options);
  if (!report.isOk()) {
    std::cerr << "sweep_runner: " << report.status().toString() << "\n";
    return 1;
  }

  std::cerr << "sweep " << grid.name() << ": " << report->ran << " run + "
            << report->resumed << " resumed of " << report->totalPoints
            << " points, " << threads << " thread(s), "
            << fmtDouble(report->wallSeconds, 2) << "s wall\n";
  std::cerr << "wrote " << outPath << "\n";
  return 0;
}
