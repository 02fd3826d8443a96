#pragma once

// Plain-text report tables for the bench binaries (each bench prints the
// rows/series of one paper table or figure).

#include <string>
#include <vector>

namespace microedge {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void addRow(std::vector<std::string> cells);
  std::size_t rowCount() const { return rows_.size(); }

  // Renders with aligned columns and a header separator.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Section banner used by the benches: "== Fig. 5a — ... ==".
std::string banner(const std::string& title);

}  // namespace microedge
