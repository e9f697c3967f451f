// TLE catalog file reader tests.
#include <gtest/gtest.h>

#include <sstream>

#include "orbit/tle_catalog.h"

namespace {

using namespace sinet::orbit;

TEST(TleCatalog, ReadsBareTwoLineEntries) {
  const std::string iss1 =
      "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
  const std::string iss2 =
      "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";
  std::istringstream is(iss1 + "\n" + iss2 + "\n");
  const auto cat = read_tle_catalog(is);
  ASSERT_EQ(cat.size(), 1u);
  EXPECT_TRUE(cat[0].name.empty());
  EXPECT_EQ(cat[0].catalog_number, 25544);
}

TEST(TleCatalog, HandlesBlankLinesAndCrLf) {
  const std::string iss1 =
      "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
  const std::string iss2 =
      "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";
  std::istringstream is("\nISS (ZARYA)\r\n" + iss1 + "\r\n" + iss2 +
                        "\r\n\n");
  const auto cat = read_tle_catalog(is);
  ASSERT_EQ(cat.size(), 1u);
  EXPECT_EQ(cat[0].name, "ISS (ZARYA)");
}

TEST(TleCatalog, EmptyStreamGivesEmptyCatalog) {
  std::istringstream is("");
  EXPECT_TRUE(read_tle_catalog(is).empty());
  std::istringstream blank("\n\n\n");
  EXPECT_TRUE(read_tle_catalog(blank).empty());
}

TEST(TleCatalog, MalformedStructuresThrow) {
  const std::string iss1 =
      "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
  const std::string iss2 =
      "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";
  // Dangling line 1.
  std::istringstream dangling(iss1 + "\n");
  EXPECT_THROW(read_tle_catalog(dangling), std::invalid_argument);
  // Line 2 without line 1.
  std::istringstream orphan(iss2 + "\n");
  EXPECT_THROW(read_tle_catalog(orphan), std::invalid_argument);
  // Two line 1s in a row.
  std::istringstream doubled(iss1 + "\n" + iss1 + "\n" + iss2 + "\n");
  EXPECT_THROW(read_tle_catalog(doubled), std::invalid_argument);
  // Name line sandwiched between element lines.
  std::istringstream sandwich(iss1 + "\nOOPS\n" + iss2 + "\n");
  EXPECT_THROW(read_tle_catalog(sandwich), std::invalid_argument);
  // Corrupted checksum propagates with a line number.
  std::string bad2 = iss2;
  bad2.back() = '0';
  std::istringstream corrupt(iss1 + "\n" + bad2 + "\n");
  try {
    (void)read_tle_catalog(corrupt);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TleCatalog, MultipleEntriesMixedFormat) {
  const std::string iss1 =
      "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
  const std::string iss2 =
      "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";
  // Named, bare 2-line (middle) and named entries in one stream.
  std::istringstream is("FOSSA-01\n" + iss1 + "\n" + iss2 + "\n" + iss1 +
                        "\n" + iss2 + "\nFOSSA-03\n" + iss1 + "\n" + iss2 +
                        "\n");
  const auto back = read_tle_catalog(is);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].name, "FOSSA-01");
  EXPECT_TRUE(back[1].name.empty());
  EXPECT_EQ(back[2].name, "FOSSA-03");
  for (const Tle& t : back) {
    EXPECT_EQ(t.catalog_number, 25544);
    EXPECT_NEAR(t.inclination_deg, 51.6416, 1e-12);
  }
}

}  // namespace
