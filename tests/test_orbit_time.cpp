// Unit tests for astronomical time utilities.
#include <gtest/gtest.h>

#include <cmath>

#include "orbit/time.h"

namespace {

using namespace sinet::orbit;

TEST(JulianDate, KnownEpochs) {
  // J2000: 2000-01-01 12:00 UTC.
  EXPECT_NEAR(julian_from_civil(2000, 1, 1, 12, 0, 0.0), kJdJ2000, 1e-9);
  // Unix epoch: 1970-01-01 00:00 UTC.
  EXPECT_NEAR(julian_from_civil(1970, 1, 1, 0, 0, 0.0), kJdUnixEpoch, 1e-9);
  // Vallado example: 1996-10-26 14:20:00 -> JD 2450383.09722222.
  EXPECT_NEAR(julian_from_civil(1996, 10, 26, 14, 20, 0.0),
              2450383.09722222, 1e-7);
}

TEST(JulianDate, UnixRoundTrip) {
  const double unix_s = 1'740'787'200.0;  // 2025-03-01T00:00Z
  const JulianDate jd = unix_to_julian(unix_s);
  EXPECT_NEAR(julian_to_unix(jd), unix_s, 1e-5);
  EXPECT_NEAR(jd, julian_from_civil(2025, 3, 1), 1e-9);
}

TEST(JulianDate, CivilRoundTrip) {
  const JulianDate jd = julian_from_civil(2025, 7, 6, 13, 45, 30.25);
  const CivilTime ct = civil_from_julian(jd);
  EXPECT_EQ(ct.year, 2025);
  EXPECT_EQ(ct.month, 7);
  EXPECT_EQ(ct.day, 6);
  EXPECT_EQ(ct.hour, 13);
  EXPECT_EQ(ct.minute, 45);
  EXPECT_NEAR(ct.second, 30.25, 1e-4);
}

TEST(JulianDate, CivilRoundTripSweepsMonths) {
  for (int month = 1; month <= 12; ++month) {
    const JulianDate jd = julian_from_civil(2024, month, 15, 6, 30, 0.0);
    const CivilTime ct = civil_from_julian(jd);
    EXPECT_EQ(ct.month, month);
    EXPECT_EQ(ct.day, 15);
  }
}

TEST(JulianDate, LeapYearFebruary) {
  // 2024 is a leap year: Feb 29 exists and March 1 is day 61.
  const JulianDate feb29 = julian_from_civil(2024, 2, 29);
  const JulianDate mar1 = julian_from_civil(2024, 3, 1);
  EXPECT_NEAR(mar1 - feb29, 1.0, 1e-9);
  const CivilTime ct = civil_from_julian(feb29);
  EXPECT_EQ(ct.month, 2);
  EXPECT_EQ(ct.day, 29);
}

TEST(JulianDate, InvalidInputsThrow) {
  EXPECT_THROW(julian_from_civil(1800, 1, 1), std::invalid_argument);
  EXPECT_THROW(julian_from_civil(2200, 1, 1), std::invalid_argument);
  EXPECT_THROW(julian_from_civil(2025, 0, 1), std::invalid_argument);
  EXPECT_THROW(julian_from_civil(2025, 13, 1), std::invalid_argument);
  EXPECT_THROW(julian_from_civil(2025, 1, 0), std::invalid_argument);
  EXPECT_THROW(julian_from_civil(2025, 1, 32), std::invalid_argument);
  EXPECT_THROW(julian_from_civil(2025, 1, 1, 24, 0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(julian_from_civil(2025, 1, 1, 0, 60, 0.0),
               std::invalid_argument);
  EXPECT_THROW(julian_from_civil(2025, 1, 1, 0, 0, -1.0),
               std::invalid_argument);
}

TEST(Gmst, KnownValue) {
  // Vallado, Example 3-5: 1992-08-20 12:14:00 UT1
  // GMST = 152.578787886 deg.
  const JulianDate jd = julian_from_civil(1992, 8, 20, 12, 14, 0.0);
  EXPECT_NEAR(gmst_rad(jd) * kRadToDeg, 152.578787886, 1e-5);
}

TEST(Gmst, AdvancesAboutFourMinutesPerDay) {
  const JulianDate jd = julian_from_civil(2025, 3, 1);
  const double g0 = gmst_rad(jd);
  const double g1 = gmst_rad(jd + 1.0);
  // Sidereal day is ~3m56s shorter than solar: GMST advances ~0.9856 deg.
  double delta = (g1 - g0) * kRadToDeg;
  if (delta < 0.0) delta += 360.0;
  EXPECT_NEAR(delta, 0.9856, 1e-3);
}

TEST(Gmst, AlwaysInRange) {
  for (int d = 0; d < 400; d += 7) {
    const double g = gmst_rad(kJdJ2000 + d + 0.3);
    EXPECT_GE(g, 0.0);
    EXPECT_LT(g, kTwoPi);
  }
}

TEST(TleEpoch, CenturyRule) {
  // Year 57 -> 1957 (Sputnik era); year 25 -> 2025.
  const JulianDate sputnik = julian_from_tle_epoch(57, 300.0);
  const CivilTime ct1 = civil_from_julian(sputnik);
  EXPECT_EQ(ct1.year, 1957);
  const JulianDate modern = julian_from_tle_epoch(25, 60.5);
  const CivilTime ct2 = civil_from_julian(modern);
  EXPECT_EQ(ct2.year, 2025);
  EXPECT_EQ(ct2.month, 3);  // day 60.5 of 2025 = Mar 1, 12:00
  EXPECT_EQ(ct2.day, 1);
  EXPECT_EQ(ct2.hour, 12);
}

TEST(TleEpoch, DayOneIsJanuaryFirst) {
  const CivilTime ct = civil_from_julian(julian_from_tle_epoch(25, 1.0));
  EXPECT_EQ(ct.month, 1);
  EXPECT_EQ(ct.day, 1);
  EXPECT_EQ(ct.hour, 0);
}

TEST(TleEpoch, InvalidThrows) {
  EXPECT_THROW(julian_from_tle_epoch(-1, 10.0), std::invalid_argument);
  EXPECT_THROW(julian_from_tle_epoch(100, 10.0), std::invalid_argument);
  EXPECT_THROW(julian_from_tle_epoch(25, 0.5), std::invalid_argument);
  EXPECT_THROW(julian_from_tle_epoch(25, 367.0), std::invalid_argument);
}

TEST(AngleWrap, TwoPi) {
  EXPECT_NEAR(wrap_two_pi(kTwoPi + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(wrap_two_pi(-0.5), kTwoPi - 0.5, 1e-12);
  EXPECT_NEAR(wrap_two_pi(7.0 * kTwoPi), 0.0, 1e-9);
}

}  // namespace
