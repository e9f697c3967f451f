// Unit tests for TLE parsing, formatting, and synthesis.
#include <gtest/gtest.h>

#include <random>

#include "orbit/tle.h"
#include "orbit/time.h"
#include "two_body_oracle.h"

namespace {

using namespace sinet::orbit;

// The canonical ISS (ZARYA) TLE used across SGP4 test suites.
constexpr const char* kIssLine1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
constexpr const char* kIssLine2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

TEST(TleParse, IssFields) {
  const Tle t = parse_tle("ISS (ZARYA)", kIssLine1, kIssLine2);
  EXPECT_EQ(t.name, "ISS (ZARYA)");
  EXPECT_EQ(t.catalog_number, 25544);
  EXPECT_EQ(t.classification, 'U');
  EXPECT_EQ(t.intl_designator, "98067A");
  EXPECT_NEAR(t.inclination_deg, 51.6416, 1e-9);
  EXPECT_NEAR(t.raan_deg, 247.4627, 1e-9);
  EXPECT_NEAR(t.eccentricity, 0.0006703, 1e-10);
  EXPECT_NEAR(t.arg_perigee_deg, 130.5360, 1e-9);
  EXPECT_NEAR(t.mean_anomaly_deg, 325.0288, 1e-9);
  EXPECT_NEAR(t.mean_motion_rev_day, 15.72125391, 1e-7);
  EXPECT_EQ(t.revolution_number, 56353);
  EXPECT_NEAR(t.bstar, -0.11606e-4, 1e-10);
  EXPECT_NEAR(t.mean_motion_dot, -0.00002182, 1e-10);
}

TEST(TleParse, EpochDecodesToSeptember2008) {
  const Tle t = parse_tle(kIssLine1, kIssLine2);
  const CivilTime ct = civil_from_julian(t.epoch_jd);
  EXPECT_EQ(ct.year, 2008);
  EXPECT_EQ(ct.month, 9);  // day-of-year 264 of 2008 = Sep 20
  EXPECT_EQ(ct.day, 20);
}

TEST(TleParse, DerivedQuantities) {
  const Tle t = parse_tle(kIssLine1, kIssLine2);
  EXPECT_NEAR(t.period_minutes(), 91.59, 0.05);
  EXPECT_NEAR(sinet::testing::oracle_semi_major_axis_km(t), 6724.0, 10.0);
  EXPECT_NEAR(sinet::testing::oracle_mean_altitude_km(t), 346.0, 10.0);
  EXPECT_FALSE(t.is_deep_space());
}

TEST(TleParse, ChecksumValidation) {
  std::string bad1 = kIssLine1;
  bad1.back() = '0';  // corrupt line-1 checksum (real value is 7)
  EXPECT_THROW(parse_tle(bad1, kIssLine2), std::invalid_argument);

  std::string bad2 = kIssLine2;
  bad2[20] = '9';  // corrupt a digit without fixing the checksum
  EXPECT_THROW(parse_tle(kIssLine1, bad2), std::invalid_argument);
}

TEST(TleParse, StructuralErrors) {
  EXPECT_THROW(parse_tle("1 too short", kIssLine2), std::invalid_argument);
  EXPECT_THROW(parse_tle(kIssLine2, kIssLine1), std::invalid_argument);
  // Mismatched catalog numbers across lines.
  std::string other2 =
      "2 25545  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";
  other2.back() = static_cast<char>('0' + tle_checksum(
      std::string_view(other2).substr(0, 68)));
  EXPECT_THROW(parse_tle(kIssLine1, other2), std::invalid_argument);
}

// Overwrite `line[col_1based-1 .. +len)` with `text` and recompute the
// checksum so the corruption reaches the field parsers instead of being
// caught by the checksum gate.
std::string corrupt_field(std::string_view line, std::size_t col_1based,
                          std::string_view text) {
  std::string out(line);
  out.replace(col_1based - 1, text.size(), text);
  out[68] =
      static_cast<char>('0' + tle_checksum(std::string_view(out).substr(0, 68)));
  return out;
}

TEST(TleParse, CorruptedEccentricityFieldIsRejected) {
  // Pre-fix, strtod(..., nullptr) on "0." + field truncated at the first
  // bad char: "00A6703" parsed as 0.00 and the orbit silently circularized.
  const std::string bad2 = corrupt_field(kIssLine2, 27, "00A6703");
  EXPECT_THROW(parse_tle(kIssLine1, bad2), std::invalid_argument);
  // Fully blank eccentricity is corruption too, not zero.
  const std::string blank2 = corrupt_field(kIssLine2, 27, "       ");
  EXPECT_THROW(parse_tle(kIssLine1, blank2), std::invalid_argument);
}

TEST(TleParse, CorruptedImpliedDecimalFieldsAreRejected) {
  // bstar field (line 1, cols 54-61): letters used to parse as 0.0.
  EXPECT_THROW(parse_tle(corrupt_field(kIssLine1, 54, "ABCDE-44"), kIssLine2),
               std::invalid_argument);
  // Sign with no digits is not a blank field.
  EXPECT_THROW(parse_tle(corrupt_field(kIssLine1, 54, "-       "), kIssLine2),
               std::invalid_argument);
  // Trailing garbage after a valid mantissa/exponent.
  EXPECT_THROW(parse_tle(corrupt_field(kIssLine1, 45, " 1234-4X"), kIssLine2),
               std::invalid_argument);
  // A genuinely blank nddot field still means zero.
  const Tle t = parse_tle(corrupt_field(kIssLine1, 45, "        "), kIssLine2);
  EXPECT_EQ(t.mean_motion_ddot, 0.0);
}

TEST(TleParse, TrailingGarbageInNumericColumnsIsRejected) {
  // Inclination "51.6416" -> "51.64X6": strtod used to stop at the 'X'
  // and return 51.64, a plausible but wrong inclination.
  EXPECT_THROW(parse_tle(kIssLine1, corrupt_field(kIssLine2, 9, " 51.64X6")),
               std::invalid_argument);
  // Mean motion with an embedded letter.
  EXPECT_THROW(parse_tle(kIssLine1, corrupt_field(kIssLine2, 53, "15.72O25391")),
               std::invalid_argument);
}

TEST(TleChecksum, MinusCountsAsOne) {
  EXPECT_EQ(tle_checksum("----------"), 0);  // 10 * 1 = 10 -> 0
  EXPECT_EQ(tle_checksum("1"), 1);
  EXPECT_EQ(tle_checksum("19"), 0);
  EXPECT_EQ(tle_checksum("abc xyz"), 0);  // letters/spaces ignored
}

TEST(MakeTle, AltitudeMapsToMeanMotion) {
  KeplerianElements kep;
  kep.altitude_km = 550.0;
  kep.eccentricity = 0.0;
  kep.inclination_deg = 49.97;
  kep.raan_deg = -36.6;           // wraps to 323.4
  kep.mean_anomaly_deg = 631.5;   // wraps to 271.5
  const Tle t = make_tle("TEST", 99001,
                         kep, julian_from_civil(2025, 3, 1));
  // Circular 550 km orbit: period ~95.6 min.
  EXPECT_NEAR(t.period_minutes(), 95.6, 0.5);
  EXPECT_NEAR(sinet::testing::oracle_mean_altitude_km(t), 550.0, 1.0);
  EXPECT_FALSE(t.is_deep_space());
  EXPECT_EQ(t.inclination_deg, 49.97);
  EXPECT_NEAR(t.raan_deg, 323.4, 1e-9);
  EXPECT_NEAR(t.mean_anomaly_deg, 271.5, 1e-9);
}

TEST(MakeTle, RejectsInvalidElements) {
  KeplerianElements kep;
  kep.altitude_km = 50.0;  // below any orbit
  EXPECT_THROW(make_tle("X", 1, kep, kJdJ2000), std::invalid_argument);
  kep.altitude_km = 500.0;
  kep.eccentricity = 1.5;
  EXPECT_THROW(make_tle("X", 1, kep, kJdJ2000), std::invalid_argument);
  kep.eccentricity = 0.0;
  kep.inclination_deg = 200.0;
  EXPECT_THROW(make_tle("X", 1, kep, kJdJ2000), std::invalid_argument);
}

TEST(TleParse, MutationFuzzNeverCrashes) {
  // Single-character mutations of a valid TLE must either parse (if the
  // checksum happens to still hold) or throw invalid_argument — never
  // crash or corrupt.
  std::mt19937 gen(1234);
  const std::string chars = "0123456789 .-+ABCX";
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string l1 = kIssLine1, l2 = kIssLine2;
    std::string& target = (trial % 2 == 0) ? l1 : l2;
    const std::size_t pos = gen() % target.size();
    target[pos] = chars[gen() % chars.size()];
    try {
      (void)parse_tle(l1, l2);
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 3000);
  // The checksum catches the overwhelming majority of mutations.
  EXPECT_GT(rejected, 2400);
}

TEST(MakeTle, GeoAltitudeIsDeepSpace) {
  KeplerianElements kep;
  kep.altitude_km = 35786.0;
  const Tle t = make_tle("GEO", 2, kep, kJdJ2000);
  EXPECT_TRUE(t.is_deep_space());
}

}  // namespace
