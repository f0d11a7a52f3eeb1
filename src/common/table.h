// Fixed-width console table printer used by the benchmark harnesses to emit
// Table-II-style reports.
#pragma once

#include <string>
#include <vector>

namespace rlccd {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  // Render with column widths fitted to content, header separator included.
  [[nodiscard]] std::string to_string() const;
  void print() const;

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

  // Formatting helpers for numeric cells.
  static std::string fmt(double v, int precision = 2);
  static std::string fmt_pct(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rlccd
