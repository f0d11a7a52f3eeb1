#include "common/table.h"

#include <cstdio>
#include <sstream>

#include "common/contracts.h"

namespace rlccd {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  RLCCD_EXPECTS(!headers_.empty());
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  RLCCD_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << row[c];
      out << std::string(widths[c] - row[c].size(), ' ');
    }
    out << " |\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << (c == 0 ? "|" : "|") << std::string(widths[c] + 2, '-');
  }
  out << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void TablePrinter::print() const { std::fputs(to_string().c_str(), stdout); }

std::string TablePrinter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::fmt_pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

}  // namespace rlccd
