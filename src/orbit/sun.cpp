#include "orbit/sun.h"

#include <cmath>

#include "orbit/tle.h"

namespace sinet::orbit {

Vec3 sun_direction_teme(JulianDate jd) {
  // Low-precision solar position (Vallado Algorithm 29 / Meeus).
  const double t = (jd - kJdJ2000) / 36525.0;
  const double mean_lon_deg = 280.460 + 36000.771 * t;
  const double mean_anom_deg = 357.5291092 + 35999.05034 * t;
  const double m = wrap_two_pi(mean_anom_deg * kDegToRad);
  const double ecliptic_lon_deg =
      mean_lon_deg + 1.914666471 * std::sin(m) +
      0.019994643 * std::sin(2.0 * m);
  const double lambda = wrap_two_pi(ecliptic_lon_deg * kDegToRad);
  const double obliquity = (23.439291 - 0.0130042 * t) * kDegToRad;
  // Unit vector (mean equator & equinox of date ~ TEME for our purposes).
  return Vec3{std::cos(lambda),
              std::cos(obliquity) * std::sin(lambda),
              std::sin(obliquity) * std::sin(lambda)};
}

bool in_earth_shadow(const Vec3& r_sat_km, JulianDate jd) {
  const Vec3 s = sun_direction_teme(jd);
  const double along = r_sat_km.dot(s);
  if (along >= 0.0) return false;  // sunlit side of the planet
  const Vec3 perp = r_sat_km - s * along;
  return perp.norm() < kEarthRadiusKm;
}

}  // namespace sinet::orbit
