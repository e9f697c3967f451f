#include "orbit/constellation.h"

#include <cmath>
#include <stdexcept>

#include "orbit/geodetic.h"
#include "orbit/time.h"

namespace sinet::orbit {

int ConstellationSpec::total_satellites() const {
  int n = 0;
  for (const OrbitalGroup& g : groups) n += g.count;
  return n;
}

std::vector<ConstellationSpec> paper_constellations() {
  // Values transcribed from paper Table 3.
  std::vector<ConstellationSpec> out;
  out.push_back({.name = "Tianqi",
                 .region = "China",
                 .dts_frequency_hz = 400.45e6,
                 .beacon_sf = 10,
                 .beacon_eirp_dbm = 18.5,
                 .groups = {{16, 815.7, 897.5, 49.97},
                            {4, 544.0, 556.9, 35.00},
                            {2, 441.9, 493.0, 97.61}}});
  out.push_back({.name = "FOSSA",
                 .region = "EU",
                 .dts_frequency_hz = 401.7e6,
                 .beacon_sf = 11,
                 .beacon_eirp_dbm = 15.0,
                 .groups = {{3, 508.7, 512.0, 97.36}}});
  out.push_back({.name = "PICO",
                 .region = "US",
                 .dts_frequency_hz = 436.26e6,
                 .beacon_sf = 11,
                 .beacon_eirp_dbm = 15.5,
                 .groups = {{9, 507.9, 522.1, 97.72}}});
  out.push_back({.name = "CSTP",
                 .region = "Russia",
                 .dts_frequency_hz = 437.985e6,
                 .beacon_sf = 12,
                 .beacon_eirp_dbm = 14.0,
                 .groups = {{5, 468.3, 523.7, 97.45}}});
  return out;
}

ConstellationSpec paper_constellation(const std::string& name) {
  for (ConstellationSpec& c : paper_constellations())
    if (c.name == name) return c;
  throw std::invalid_argument("unknown constellation: " + name);
}

std::vector<Tle> generate_tles(const ConstellationSpec& spec,
                               JulianDate epoch_jd,
                               int first_catalog_number) {
  std::vector<Tle> out;
  int catalog = first_catalog_number;
  int group_index = 0;
  for (const OrbitalGroup& g : spec.groups) {
    if (g.count <= 0)
      throw std::invalid_argument("generate_tles: empty orbital group");
    for (int i = 0; i < g.count; ++i) {
      KeplerianElements kep;
      // Spread altitudes linearly across the published band.
      const double frac =
          g.count == 1 ? 0.5
                       : static_cast<double>(i) /
                             static_cast<double>(g.count - 1);
      kep.altitude_km =
          g.altitude_low_km + frac * (g.altitude_high_km - g.altitude_low_km);
      kep.eccentricity = 0.0008 + 0.0002 * (i % 3);
      kep.inclination_deg = g.inclination_deg;
      // Golden-angle spread avoids both clustering and artificial
      // regularity; offsets per group decorrelate the generations.
      const double golden = 137.50776405003785;
      kep.raan_deg = std::fmod(37.0 * (group_index + 1) + golden * i, 360.0);
      kep.arg_perigee_deg = std::fmod(90.0 + 45.0 * i, 360.0);
      kep.mean_anomaly_deg =
          std::fmod(golden * 2.0 * i + 71.0 * group_index, 360.0);
      kep.bstar = 1.0e-4;

      char name[64];
      std::snprintf(name, sizeof(name), "%s-%02d", spec.name.c_str(),
                    static_cast<int>(out.size()) + 1);
      out.push_back(make_tle(name, catalog++, kep, epoch_jd));
    }
    ++group_index;
  }
  return out;
}

double footprint_area_km2(double altitude_km, double min_elevation_deg) {
  if (altitude_km <= 0.0)
    throw std::invalid_argument("footprint_area_km2: altitude <= 0");
  const double re = kEarthMeanRadiusKm;
  const double eps = min_elevation_deg * kDegToRad;
  // Central angle from subsatellite point to the edge of coverage.
  const double ratio = re / (re + altitude_km) * std::cos(eps);
  const double lambda = std::acos(ratio) - eps;
  return kTwoPi * re * re * (1.0 - std::cos(lambda));
}

double slant_range_km(double altitude_km, double elevation_deg) {
  if (altitude_km <= 0.0)
    throw std::invalid_argument("slant_range_km: altitude <= 0");
  const double re = kEarthMeanRadiusKm;
  const double el = elevation_deg * kDegToRad;
  // Law of cosines in the earth-center / node / satellite triangle.
  const double rs = re + altitude_km;
  const double sin_el = std::sin(el);
  return -re * sin_el + std::sqrt(re * re * sin_el * sin_el +
                                  (rs * rs - re * re));
}

}  // namespace sinet::orbit
