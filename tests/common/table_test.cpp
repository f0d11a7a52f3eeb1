#include "common/table.h"

#include <gtest/gtest.h>

namespace rlccd {
namespace {

TEST(TablePrinter, RendersHeaderAndRows) {
  TablePrinter t({"design", "TNS"});
  t.add_row({"block1", "-97.2"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("design"), std::string::npos);
  EXPECT_NE(s.find("block1"), std::string::npos);
  EXPECT_NE(s.find("-97.2"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TablePrinter, ColumnsAlignAcrossRows) {
  TablePrinter t({"a", "b"});
  t.add_row({"x", "yyyyyy"});
  t.add_row({"longer", "z"});
  std::string s = t.to_string();
  // Every line has the same length when columns are padded.
  std::size_t first_len = s.find('\n');
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(TablePrinter, FormatHelpers) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(-0.5, 1), "-0.5");
  EXPECT_EQ(TablePrinter::fmt_pct(0.123, 1), "12.3%");
}

}  // namespace
}  // namespace rlccd
