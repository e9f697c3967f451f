// Two-Line Element sets: parsing and synthetic generation.
//
// The paper tracks satellites via TLEs fed to simplified-perturbation
// propagators (SGP4 family). We parse standard NORAD TLEs (with checksum
// validation) and can also synthesize a TLE from Keplerian elements — that
// is how the constellation catalog (paper Table 3) becomes propagatable
// without live CelesTrak access.
#pragma once

#include <string>
#include <string_view>

#include "orbit/time.h"

namespace sinet::orbit {

/// Orbital elements as encoded in a TLE (angles in degrees, mean motion in
/// revolutions/day, matching the wire format).
struct Tle {
  std::string name;           ///< line-0 satellite name (may be empty)
  int catalog_number = 0;     ///< NORAD id
  char classification = 'U';
  std::string intl_designator;  ///< e.g. "25001A"
  JulianDate epoch_jd = 0.0;    ///< UTC epoch
  double mean_motion_dot = 0.0;     ///< rev/day^2 /2 field (ndot/2)
  double mean_motion_ddot = 0.0;    ///< rev/day^3 /6 field (nddot/6)
  double bstar = 0.0;               ///< drag term, 1/earth-radii
  int element_set_number = 1;
  double inclination_deg = 0.0;
  double raan_deg = 0.0;        ///< right ascension of ascending node
  double eccentricity = 0.0;    ///< dimensionless, [0, 1)
  double arg_perigee_deg = 0.0;
  double mean_anomaly_deg = 0.0;
  double mean_motion_rev_day = 0.0;
  int revolution_number = 0;

  /// Orbital period in minutes.
  [[nodiscard]] double period_minutes() const;
  /// True if SGP4's deep-space branch would activate (period >= 225 min).
  [[nodiscard]] bool is_deep_space() const { return period_minutes() >= 225.0; }
};

/// Parse a TLE from its two element lines (and optional preceding name
/// line). Validates line structure and mod-10 checksums; throws
/// std::invalid_argument with a specific message on any violation.
[[nodiscard]] Tle parse_tle(std::string_view line1, std::string_view line2);
[[nodiscard]] Tle parse_tle(std::string_view name, std::string_view line1,
                            std::string_view line2);

/// Compute the NORAD mod-10 checksum of the first 68 columns of a line.
[[nodiscard]] int tle_checksum(std::string_view line68);

/// Keplerian elements for synthetic TLE construction.
struct KeplerianElements {
  double altitude_km = 500.0;  ///< mean altitude (circularized)
  double eccentricity = 0.001;
  double inclination_deg = 97.5;
  double raan_deg = 0.0;
  double arg_perigee_deg = 0.0;
  double mean_anomaly_deg = 0.0;
  double bstar = 1e-4;
};

/// Build a TLE for the given elements at `epoch_jd`. Mean motion is
/// derived from the altitude via the two-body relation — adequate for
/// constellations specified by altitude band (paper Table 3).
[[nodiscard]] Tle make_tle(std::string name, int catalog_number,
                           const KeplerianElements& kep, JulianDate epoch_jd);

/// Standard gravitational parameter used for element<->motion conversion
/// (WGS-72 value, the SGP4 convention).
inline constexpr double kMuEarthKm3PerS2 = 398600.8;
inline constexpr double kEarthRadiusKm = 6378.135;  // WGS-72, SGP4's ae

}  // namespace sinet::orbit
