#pragma once

// Checkpoint manifest for resumable sweeps.
//
// The built-in grids finish in about a second, but a grid file can name up
// to kMaxSweepPoints points of any horizon, and a run that is killed part
// way must not re-pay the points that already finished. The manifest is an
// append-only JSONL file next to the output: line one is a header binding
// it to a grid fingerprint, every following line is one completed point
// with its full result:
//
//   {"sweep_manifest": 1, "grid": "fig5", "fingerprint": "9c0f..."}
//   {"i": 3, "result": {...}}
//   {"i": 0, "result": {...}}
//
// Lines land in completion order (append + flush under a mutex, so
// concurrent workers interleave whole lines, never bytes). Order does not
// matter: the runner folds the manifest into its results *slot by point
// index*, so the merged output of a resumed sweep is byte-identical to an
// uninterrupted one. A process killed mid-write leaves at most one
// final line without its newline, which load() drops and a resuming
// openForAppend() cuts off the file — that point simply reruns.

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/status.hpp"

namespace microedge {

class SweepManifest {
 public:
  struct Entry {
    std::size_t pointIndex = 0;
    JsonValue result;
  };

  explicit SweepManifest(std::string path) : path_(std::move(path)) {}

  // Reads completed entries from an existing manifest. Missing file is not
  // an error (fresh sweep: no entries). A fingerprint mismatch *is*: the
  // grid changed under the checkpoint, and silently mixing results from
  // two different grids is exactly the corruption this file exists to
  // prevent. A final line without its newline (a torn write) is dropped;
  // any other line that does not parse fails.
  StatusOr<std::vector<Entry>> load(const std::string& fingerprint,
                                    std::size_t pointCount) const;

  // Opens for append, writing the header when the file holds no whole
  // line; on resume a torn final line is cut off first. Pass resume=false
  // to start over (truncates any previous manifest).
  Status openForAppend(const std::string& gridName,
                       const std::string& fingerprint, bool resume);

  // Thread-safe: appends one completed point and flushes the line.
  void append(std::size_t pointIndex, const JsonValue& result);

 private:
  std::string path_;
  std::mutex mu_;
  std::ofstream out_;
};

}  // namespace microedge
