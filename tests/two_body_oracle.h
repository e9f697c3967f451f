// Two-body oracle for a TLE's size: the semi-major axis recovered from its
// mean motion, and the mean altitude above SGP4's spherical Earth. The
// SGP4 suite bounds the propagated radius and speed by it, and the
// synthesis suites check that make_tle and generate_tles put each orbit at
// the altitude they were asked for.
#pragma once

#include <cmath>

#include "orbit/time.h"
#include "orbit/tle.h"

namespace sinet::testing {

inline double oracle_semi_major_axis_km(const orbit::Tle& tle) {
  const double n_rad_s =
      tle.mean_motion_rev_day * orbit::kTwoPi / orbit::kSecondsPerDay;
  return std::cbrt(orbit::kMuEarthKm3PerS2 / (n_rad_s * n_rad_s));
}

inline double oracle_mean_altitude_km(const orbit::Tle& tle) {
  return oracle_semi_major_axis_km(tle) - orbit::kEarthRadiusKm;
}

}  // namespace sinet::testing
