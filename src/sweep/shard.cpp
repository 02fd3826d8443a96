#include "sweep/shard.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/strings.hpp"

namespace microedge {

std::string sweepShardPath(const std::string& basePath, std::size_t shard,
                           std::size_t shardCount) {
  return strCat(basePath, ".shard", shard, "-of", shardCount, ".json");
}

namespace {

JsonValue recordToJson(const SweepPointRecord& record) {
  JsonValue p = JsonValue::object();
  p.set("i", record.index);
  p.set("seed", record.seed);
  p.set("config", record.config);
  p.set("result", record.result);
  return p;
}

}  // namespace

JsonValue buildShardDocument(const SweepGrid& grid,
                             std::vector<SweepPointRecord> records,
                             std::size_t shard, std::size_t shardCount) {
  std::sort(records.begin(), records.end(),
            [](const SweepPointRecord& a, const SweepPointRecord& b) {
              return a.index < b.index;
            });
  JsonValue doc = JsonValue::object();
  doc.set("sweep_shard", 1);
  doc.set("grid", grid.name());
  doc.set("fingerprint", grid.fingerprint());
  doc.set("shard", shard);
  doc.set("shards", shardCount);
  JsonValue points = JsonValue::array();
  for (SweepPointRecord& record : records) {
    points.push(recordToJson(record));
  }
  doc.set("points", std::move(points));
  return doc;
}

StatusOr<JsonValue> mergeShardDocuments(const SweepGrid& grid,
                                        const std::vector<JsonValue>& shards) {
  const std::string fingerprint = grid.fingerprint();
  std::vector<const JsonValue*> points(grid.pointCount(), nullptr);
  for (const JsonValue& doc : shards) {
    if (doc.getInt("sweep_shard", 0) != 1) {
      return invalidArgument("sweep merge: not a shard document");
    }
    if (doc.getString("fingerprint", "") != fingerprint) {
      return failedPrecondition(
          strCat("sweep merge: shard belongs to a different grid (",
                 doc.getString("fingerprint", "?"), " != ", fingerprint, ")"));
    }
    const JsonValue* shardPoints = doc.find("points");
    if (shardPoints == nullptr || !shardPoints->isArray()) {
      return invalidArgument("sweep merge: shard without points array");
    }
    for (const JsonValue& p : shardPoints->items()) {
      std::int64_t index = p.getInt("i", -1);
      if (index < 0 || static_cast<std::size_t>(index) >= points.size()) {
        return invalidArgument(
            strCat("sweep merge: point index ", index, " out of range"));
      }
      if (points[static_cast<std::size_t>(index)] != nullptr) {
        return invalidArgument(
            strCat("sweep merge: duplicate point ", index));
      }
      points[static_cast<std::size_t>(index)] = &p;
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i] == nullptr) {
      return failedPrecondition(
          strCat("sweep merge: point ", i, " missing from shards"));
    }
  }
  // Canonical order (by index) + canonical serialization = byte-identical
  // output for any shard/thread split.
  JsonValue merged = JsonValue::object();
  merged.set("sweep", 1);
  merged.set("grid", grid.name());
  merged.set("fingerprint", fingerprint);
  JsonValue out = JsonValue::array();
  for (const JsonValue* p : points) out.push(*p);
  merged.set("points", std::move(out));
  return merged;
}

Status writeTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out.is_open()) {
    return internalError(strCat("cannot open ", path, " for writing"));
  }
  out << contents;
  out.flush();
  if (!out.good()) return internalError(strCat("short write to ", path));
  return Status::ok();
}

StatusOr<std::string> readTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return notFound(strCat("cannot open ", path));
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace microedge
