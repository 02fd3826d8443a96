// sweep_runner — CLI front end of the experiment-sweep subsystem.
//
// Runs a built-in grid (fig5 | fig6 | smoke | scenario) on --threads
// workers and writes the deterministically merged result to --out, the only
// file it writes:
//
//   sweep_runner --grid=fig5 --threads=8 --out=BENCH_sweep.json
//   sweep_runner --grid=fig6 --dump-grid
//
// The merged output is byte-identical for any --threads count; the
// `figures` ctest label compares it with committed goldens. The run's
// summary goes to stderr.

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
      "  --grid=NAME        built-in grid: fig5|fig6|smoke|scenario\n"
      "                     (default fig5)\n"
      "  --threads=N        worker threads (default: hardware concurrency;\n"
      "                     1 = serial path, 0 = auto — clamp to the\n"
      "                     machine's hardware concurrency)\n"
      "  --out=PATH         merged output (default BENCH_sweep.json)\n"
      "  --dump-grid        print the grid JSON and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string gridName = "fig5";
  std::string outPath = "BENCH_sweep.json";
  unsigned threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
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

  StatusOr<SweepGrid> builtin = builtinSweepGrid(gridName);
  if (!builtin.isOk()) {
    std::cerr << "sweep_runner: bad --grid value '" << gridName
              << "' (expected fig5|fig6|smoke|scenario)\n";
    usage();
    return 2;
  }
  const SweepGrid& grid = *builtin;

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

  StatusOr<SweepReport> report = runSweep(grid, *driver, options);
  if (!report.isOk()) {
    std::cerr << "sweep_runner: " << report.status().toString() << "\n";
    return 1;
  }

  std::cerr << "sweep " << grid.name() << ": " << report->totalPoints
            << " points, " << threads << " thread(s), "
            << fmtDouble(report->wallSeconds, 2) << "s wall\n";
  std::cerr << "wrote " << outPath << "\n";
  return 0;
}
