// Fig. 6 — MicroEdge performance under the MAF-derived trace workload.
//
// Replays the synthetic Azure-Functions-like trace (three stream classes:
// 24x7 detection, sparse classification, bursty segmentation) through five
// configurations: the dedicated baseline and the 2x2 of
// {workload partitioning} x {co-compiling}. Prints Fig. 6a (per-minute mean
// TPU utilization) and Fig. 6b (camera instances served per minute) as
// aligned series, plus acceptance totals.
//
// The five variants are independent 20-simulated-minute replays; the bench
// runs them serially as a sweep grid. `sweep_runner --grid=fig6
// --threads=N` replays them in parallel and writes the merged document.

#include <iostream>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "sweep/drivers.hpp"
#include "sweep/runner.hpp"
#include "util/strings.hpp"

using namespace microedge;

int main() {
  SweepGrid grid = fig6SweepGrid();
  StatusOr<SweepPointFn> driver = findSweepDriver(grid.driver());
  StatusOr<SweepReport> report = runSweep(grid, *driver, SweepOptions{});
  if (!report.isOk()) {
    std::cerr << "fig6 sweep failed: " << report.status().toString() << "\n";
    return 1;
  }
  const std::vector<JsonValue>& points = report->merged.find("points")->items();

  std::vector<std::string> header = {"minute"};
  for (const JsonValue& p : points) {
    header.push_back(p.find("config")->getString("label", "?"));
  }

  std::size_t windows = 0;
  for (const JsonValue& p : points) {
    windows = std::max(
        windows, p.find("result")->find("utilization_per_window")->size());
  }

  std::cout << banner("Fig. 6a — mean TPU utilization per minute");
  TextTable utilization(header);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<std::string> row = {std::to_string(w + 1)};
    for (const JsonValue& p : points) {
      const JsonValue& series = *p.find("result")->find("utilization_per_window");
      row.push_back(w < series.size()
                        ? fmtDouble(series.items()[w].asDouble(), 2)
                        : "-");
    }
    utilization.addRow(std::move(row));
  }
  std::cout << utilization.render();

  std::cout << banner("Fig. 6b — camera instances served per minute");
  TextTable active(header);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<std::string> row = {std::to_string(w + 1)};
    for (const JsonValue& p : points) {
      const JsonValue& series = *p.find("result")->find("active_per_window");
      row.push_back(w < series.size()
                        ? std::to_string(series.items()[w].asInt())
                        : "-");
    }
    active.addRow(std::move(row));
  }
  std::cout << active.render();

  std::cout << banner("Acceptance totals over the trace");
  TextTable totals({"config", "attempted", "accepted", "rejected",
                    "streams meeting SLO"});
  for (const JsonValue& p : points) {
    const JsonValue& r = *p.find("result");
    totals.addRow({p.find("config")->getString("label", "?"),
                   std::to_string(r.getInt("attempted", 0)),
                   std::to_string(r.getInt("accepted", 0)),
                   std::to_string(r.getInt("rejected", 0)),
                   strCat(r.getInt("streams_meeting_slo", 0), "/",
                          r.getInt("streams", 0))});
  }
  std::cout << totals.render();

  std::cout << "\nPaper shape: the baseline's utilization stays flat and low\n"
               "while MicroEdge configurations run above 0.7 and reach 1.0;\n"
               "WP+CC serves the most cameras; CC alone beats WP alone\n"
               "(a TPU hosting multiple models serves more streams than one\n"
               "stream spread over many TPUs).\n";

  std::cerr << "\n[" << report->totalPoints << " grid points, "
            << fmtDouble(report->wallSeconds, 2) << "s wall]\n";
  return 0;
}
