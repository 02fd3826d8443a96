#include "metrics/report.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace microedge {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::addRow(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto renderRow = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += padLeft(cells[c], widths[c]);
      if (c + 1 < cells.size()) line += "  ";
    }
    return line + "\n";
  };
  std::string out = renderRow(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out += std::string(total, '-') + "\n";
  for (const auto& row : rows_) out += renderRow(row);
  return out;
}

std::string banner(const std::string& title) {
  return strCat("\n== ", title, " ==\n");
}

}  // namespace microedge
