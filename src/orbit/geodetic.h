// WGS-84 geodetic coordinates and ECEF conversions.
#pragma once

#include "orbit/vec3.h"

namespace sinet::orbit {

inline constexpr double kWgs84SemiMajorKm = 6378.137;
inline constexpr double kWgs84Flattening = 1.0 / 298.257223563;
inline constexpr double kEarthMeanRadiusKm = 6371.0;

/// Geodetic position on the WGS-84 ellipsoid.
struct Geodetic {
  double latitude_deg = 0.0;   ///< [-90, 90]
  double longitude_deg = 0.0;  ///< (-180, 180]
  double altitude_km = 0.0;    ///< height above the ellipsoid
};

/// Geodetic -> ECEF (km). Throws std::invalid_argument for a latitude
/// outside [-90, 90] (NaN included) or a non-finite longitude or altitude.
[[nodiscard]] Vec3 geodetic_to_ecef(const Geodetic& g);

/// ECEF (km) -> geodetic, iterative (Bowring-style); converges in a few
/// iterations for any point outside the Earth's core.
[[nodiscard]] Geodetic ecef_to_geodetic(const Vec3& ecef_km);

}  // namespace sinet::orbit
