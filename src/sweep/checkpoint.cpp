#include "sweep/checkpoint.hpp"

#include <filesystem>
#include <iterator>
#include <sstream>

#include "util/strings.hpp"

namespace microedge {

namespace {

// The manifest's text through its last newline; empty when the file is
// missing. A final line without its newline is a write a kill tore, even
// when what landed happens to parse, so it is left out and that point
// reruns.
std::string wholeLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  text.erase(text.rfind('\n') + 1);  // npos + 1 == 0: no whole line
  return text;
}

}  // namespace

StatusOr<std::vector<SweepManifest::Entry>> SweepManifest::load(
    const std::string& fingerprint, std::size_t pointCount) const {
  std::vector<Entry> entries;
  std::istringstream in(wholeLines(path_));
  std::string line;
  bool sawHeader = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    StatusOr<JsonValue> parsed = JsonValue::parse(line);
    if (!parsed.isOk()) {
      // Only the final line can be torn, and wholeLines() dropped it: a
      // whole line that does not parse means the file is not ours.
      return invalidArgument(
          strCat("sweep manifest ", path_, ": corrupt line: ", line));
    }
    const JsonValue& v = *parsed;
    if (!sawHeader) {
      if (v.getInt("sweep_manifest", 0) != 1) {
        return invalidArgument(
            strCat("sweep manifest ", path_, ": missing header"));
      }
      std::string got = v.getString("fingerprint", "");
      if (got != fingerprint) {
        return failedPrecondition(
            strCat("sweep manifest ", path_, ": grid fingerprint ", got,
                   " does not match current grid ", fingerprint,
                   " (delete the manifest to start over)"));
      }
      sawHeader = true;
      continue;
    }
    // A whole line that parses but names a bad point is real corruption.
    const JsonValue* result = v.find("result");
    std::int64_t index = v.getInt("i", -1);
    if (result == nullptr || index < 0 ||
        static_cast<std::size_t>(index) >= pointCount) {
      return invalidArgument(
          strCat("sweep manifest ", path_, ": bad entry: ", line));
    }
    entries.push_back(Entry{static_cast<std::size_t>(index), *result});
  }
  return entries;
}

Status SweepManifest::openForAppend(const std::string& gridName,
                                    const std::string& fingerprint,
                                    bool resume) {
  std::lock_guard<std::mutex> lock(mu_);
  // Resuming keeps the whole lines load() read and cuts off a torn final
  // one, so the first new entry starts a line of its own.
  const std::size_t keep = resume ? wholeLines(path_).size() : 0;
  const bool fresh = keep == 0;
  if (!fresh) {
    std::error_code error;
    std::filesystem::resize_file(path_, keep, error);
    if (error) {
      return internalError(strCat("cannot truncate sweep manifest ", path_,
                                  ": ", error.message()));
    }
  }
  out_.open(path_, fresh ? std::ios::trunc : std::ios::app);
  if (!out_.is_open()) {
    return internalError(strCat("cannot open sweep manifest ", path_));
  }
  if (fresh) {
    JsonValue header = JsonValue::object();
    header.set("sweep_manifest", 1);
    header.set("grid", gridName);
    header.set("fingerprint", fingerprint);
    out_ << header.dump() << '\n';
    out_.flush();
  }
  return Status::ok();
}

void SweepManifest::append(std::size_t pointIndex, const JsonValue& result) {
  JsonValue entry = JsonValue::object();
  entry.set("i", pointIndex);
  entry.set("result", result);
  std::string line = entry.dump();
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  out_ << line << '\n';
  out_.flush();  // a killed process loses at most the in-flight line
}

}  // namespace microedge
