// Astronomical time utilities: Julian dates, calendar conversion, GMST.
//
// All timestamps in the framework are UTC. We treat UT1 == UTC, which is
// accurate to < 0.9 s and far below the fidelity needed for contact-window
// prediction (windows are minutes long).
#pragma once

#include <cstdint>

namespace sinet::orbit {

/// Julian date (days since 4713 BC Jan 1, 12:00 TT). Plain double: at
/// J2000-era magnitudes the resolution is ~40 us, ample for this domain.
using JulianDate = double;

inline constexpr JulianDate kJdUnixEpoch = 2440587.5;  // 1970-01-01T00:00Z
inline constexpr JulianDate kJdJ2000 = 2451545.0;      // 2000-01-01T12:00Z
inline constexpr double kSecondsPerDay = 86400.0;
inline constexpr double kMinutesPerDay = 1440.0;

/// Gregorian calendar date/time -> Julian date (valid for year >= 1901).
/// Throws std::invalid_argument for out-of-range fields.
[[nodiscard]] JulianDate julian_from_civil(int year, int month, int day,
                                           int hour = 0, int minute = 0,
                                           double second = 0.0);

/// Julian date -> Unix seconds (UTC).
[[nodiscard]] constexpr double julian_to_unix(JulianDate jd) noexcept {
  return (jd - kJdUnixEpoch) * kSecondsPerDay;
}

/// Unix seconds (UTC) -> Julian date.
[[nodiscard]] constexpr JulianDate unix_to_julian(double unix_s) noexcept {
  return kJdUnixEpoch + unix_s / kSecondsPerDay;
}

/// Civil calendar fields recovered from a Julian date.
struct CivilTime {
  int year;
  int month;
  int day;
  int hour;
  int minute;
  double second;
};

/// Julian date -> Gregorian calendar (UTC). Valid for 1901..2099.
[[nodiscard]] CivilTime civil_from_julian(JulianDate jd);

/// Greenwich Mean Sidereal Time in radians, [0, 2*pi).
/// IAU-82 model as used by the spacetrack conventions (Vallado).
[[nodiscard]] double gmst_rad(JulianDate jd_ut1);

/// TLE epoch fields (2-digit year + fractional day-of-year) -> Julian date.
/// Years 57..99 map to 1957..1999, 00..56 to 2000..2056 (NORAD rule).
[[nodiscard]] JulianDate julian_from_tle_epoch(int epoch_year_2digit,
                                               double epoch_day_of_year);

/// Wrap an angle to [0, 2*pi).
[[nodiscard]] double wrap_two_pi(double angle_rad) noexcept;

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;
inline constexpr double kDegToRad = kPi / 180.0;
inline constexpr double kRadToDeg = 180.0 / kPi;

}  // namespace sinet::orbit
