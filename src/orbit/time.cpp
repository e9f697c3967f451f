#include "orbit/time.h"

#include <cmath>
#include <stdexcept>

namespace sinet::orbit {

JulianDate julian_from_civil(int year, int month, int day, int hour,
                             int minute, double second) {
  if (year < 1901 || year > 2099)
    throw std::invalid_argument("julian_from_civil: year out of 1901..2099");
  if (month < 1 || month > 12)
    throw std::invalid_argument("julian_from_civil: bad month");
  if (day < 1 || day > 31)
    throw std::invalid_argument("julian_from_civil: bad day");
  if (hour < 0 || hour > 23 || minute < 0 || minute > 59 || second < 0.0 ||
      second >= 61.0)
    throw std::invalid_argument("julian_from_civil: bad time of day");

  // Vallado's algorithm, valid 1901-2099 (no century-rule exceptions).
  const double jd =
      367.0 * year -
      std::floor(7.0 * (year + std::floor((month + 9.0) / 12.0)) * 0.25) +
      std::floor(275.0 * month / 9.0) + day + 1721013.5;
  const double day_frac =
      (static_cast<double>(hour) * 3600.0 + static_cast<double>(minute) * 60.0 +
       second) /
      kSecondsPerDay;
  return jd + day_frac;
}

CivilTime civil_from_julian(JulianDate jd) {
  // Inverse of the above, valid for the 1901-2099 span we support.
  const double jd_half = jd + 0.5;
  const double z = std::floor(jd_half);
  double f = jd_half - z;

  const double alpha = std::floor((z - 1867216.25) / 36524.25);
  const double a = z + 1.0 + alpha - std::floor(alpha / 4.0);
  const double b = a + 1524.0;
  const double c = std::floor((b - 122.1) / 365.25);
  const double d = std::floor(365.25 * c);
  const double e = std::floor((b - d) / 30.6001);

  const double day_with_frac = b - d - std::floor(30.6001 * e) + f;
  CivilTime out{};
  out.day = static_cast<int>(std::floor(day_with_frac));
  out.month = static_cast<int>(e < 14.0 ? e - 1.0 : e - 13.0);
  out.year = static_cast<int>(out.month > 2 ? c - 4716.0 : c - 4715.0);

  double day_frac = day_with_frac - out.day;
  double seconds = day_frac * kSecondsPerDay;
  // Clamp accumulated fp error away from 86400.
  if (seconds >= kSecondsPerDay) seconds = kSecondsPerDay - 1e-6;
  out.hour = static_cast<int>(seconds / 3600.0);
  seconds -= out.hour * 3600.0;
  out.minute = static_cast<int>(seconds / 60.0);
  out.second = seconds - out.minute * 60.0;
  return out;
}

double gmst_rad(JulianDate jd_ut1) {
  // IAU-82 (Vallado, "Fundamentals of Astrodynamics", Eq. 3-47).
  const double tut1 = (jd_ut1 - kJdJ2000) / 36525.0;
  double gmst_s = 67310.54841 +
                  (876600.0 * 3600.0 + 8640184.812866) * tut1 +
                  0.093104 * tut1 * tut1 - 6.2e-6 * tut1 * tut1 * tut1;
  gmst_s = std::fmod(gmst_s, kSecondsPerDay);
  if (gmst_s < 0.0) gmst_s += kSecondsPerDay;
  return gmst_s * kTwoPi / kSecondsPerDay;
}

JulianDate julian_from_tle_epoch(int epoch_year_2digit,
                                 double epoch_day_of_year) {
  if (epoch_year_2digit < 0 || epoch_year_2digit > 99)
    throw std::invalid_argument("TLE epoch year must be two digits");
  if (epoch_day_of_year < 1.0 || epoch_day_of_year >= 367.0)
    throw std::invalid_argument("TLE epoch day-of-year out of range");
  const int year =
      epoch_year_2digit >= 57 ? 1900 + epoch_year_2digit : 2000 + epoch_year_2digit;
  // JD of Jan 1, 00:00 of `year`, then add (doy - 1).
  const JulianDate jan1 = julian_from_civil(year, 1, 1, 0, 0, 0.0);
  return jan1 + (epoch_day_of_year - 1.0);
}

double wrap_two_pi(double angle_rad) noexcept {
  double a = std::fmod(angle_rad, kTwoPi);
  if (a < 0.0) a += kTwoPi;
  return a;
}

}  // namespace sinet::orbit
