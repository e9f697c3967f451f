#include "orbit/geodetic.h"

#include <cmath>
#include <stdexcept>

#include "orbit/time.h"

namespace sinet::orbit {

Vec3 geodetic_to_ecef(const Geodetic& g) {
  // Written so that a NaN latitude fails the test too.
  if (!(g.latitude_deg >= -90.0 && g.latitude_deg <= 90.0))
    throw std::invalid_argument("geodetic_to_ecef: latitude out of range");
  if (!std::isfinite(g.longitude_deg) || !std::isfinite(g.altitude_km))
    throw std::invalid_argument(
        "geodetic_to_ecef: non-finite longitude or altitude");
  const double lat = g.latitude_deg * kDegToRad;
  const double lon = g.longitude_deg * kDegToRad;
  const double e2 = kWgs84Flattening * (2.0 - kWgs84Flattening);
  const double sin_lat = std::sin(lat);
  const double n =
      kWgs84SemiMajorKm / std::sqrt(1.0 - e2 * sin_lat * sin_lat);
  const double cos_lat = std::cos(lat);
  return {(n + g.altitude_km) * cos_lat * std::cos(lon),
          (n + g.altitude_km) * cos_lat * std::sin(lon),
          (n * (1.0 - e2) + g.altitude_km) * sin_lat};
}

Geodetic ecef_to_geodetic(const Vec3& p) {
  const double e2 = kWgs84Flattening * (2.0 - kWgs84Flattening);
  const double rho = std::hypot(p.x, p.y);
  double lat = std::atan2(p.z, rho * (1.0 - e2));  // initial guess
  double n = kWgs84SemiMajorKm;
  double alt = 0.0;
  for (int i = 0; i < 8; ++i) {
    const double sin_lat = std::sin(lat);
    n = kWgs84SemiMajorKm / std::sqrt(1.0 - e2 * sin_lat * sin_lat);
    alt = rho / std::cos(lat) - n;
    const double prev = lat;
    lat = std::atan2(p.z, rho * (1.0 - e2 * n / (n + alt)));
    if (std::abs(lat - prev) < 1e-12) break;
  }
  Geodetic g;
  g.latitude_deg = lat * kRadToDeg;
  g.longitude_deg = std::atan2(p.y, p.x) * kRadToDeg;
  g.altitude_km = alt;
  return g;
}

}  // namespace sinet::orbit
