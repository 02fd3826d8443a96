#pragma once

// Minimal YAML-subset parser for pod specifications.
//
// Clients hand MicroEdge a YAML file describing the application pod (§3.1
// step 1); the extended scheduler reads the two extension knobs (model,
// tpu-units) from the same file. We implement the subset those specs need:
//
//   * nested mappings via 2-space indentation
//   * block sequences ("- item", scalar items or nested mappings)
//   * scalars (unquoted, or single/double quoted), inline comments (#)
//   * blank lines and full-line comments
//
// Anchors, flow style, multi-line scalars and type tags are out of scope.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace microedge {

class YamlNode {
 public:
  enum class Kind { kNull, kScalar, kMapping, kSequence };

  Kind kind() const { return kind_; }
  bool isScalar() const { return kind_ == Kind::kScalar; }
  bool isMapping() const { return kind_ == Kind::kMapping; }
  bool isSequence() const { return kind_ == Kind::kSequence; }
  bool isNull() const { return kind_ == Kind::kNull; }

  // Scalar access.
  const std::string& scalar() const { return scalar_; }
  // Finite numbers only: "nan" and "inf" are rejected.
  StatusOr<double> asDouble() const;
  StatusOr<long> asLong() const;
  StatusOr<bool> asBool() const;

  // Mapping access. Returns nullptr if absent or not a mapping.
  const YamlNode* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  // Keys in document order.
  const std::vector<std::pair<std::string, YamlNode>>& entries() const {
    return entries_;
  }

  // Sequence access.
  const std::vector<YamlNode>& items() const { return items_; }

  // Construction (used by the parser and by tests).
  static YamlNode makeScalar(std::string value);
  static YamlNode makeMapping();
  static YamlNode makeSequence();
  void addEntry(std::string key, YamlNode value);
  void addItem(YamlNode value);

 private:
  Kind kind_ = Kind::kNull;
  std::string scalar_;
  std::vector<std::pair<std::string, YamlNode>> entries_;
  std::vector<YamlNode> items_;
};

// Parses a document; the root must be a mapping (or empty => null node).
StatusOr<YamlNode> parseYaml(const std::string& text);

}  // namespace microedge
