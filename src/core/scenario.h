// Measurement scenario catalog: the study's 8 deployment cities with
// their ground-station counts (paper Table 1 / Figure 2), plus campaign
// epoch helpers.
#pragma once

#include <string>
#include <vector>

#include "orbit/geodetic.h"
#include "orbit/time.h"

namespace sinet::core {

struct MeasurementSite {
  std::string code;  ///< paper's abbreviation, e.g. "HK"
  std::string city;
  orbit::Geodetic location;
  int station_count = 1;  ///< TinyGS ground stations deployed there
  /// Long-run fraction of rainy days at the site (drives the weather
  /// draw in the passive campaign).
  double rainy_fraction = 0.25;
  /// Man-made UHF noise above thermal at the site (dB). Dense cities run
  /// 8-9 dB; the rural highland site (YC) is much quieter, which is why
  /// it logs the most traces in Table 1 despite mid latitude.
  double external_noise_db = 8.0;
};

/// All 8 sites of Table 1 (27 stations total, four continents).
[[nodiscard]] std::vector<MeasurementSite> paper_measurement_sites();

/// Look up a site by its paper code ("HK", "SYD", ...). Throws
/// std::invalid_argument for unknown codes.
[[nodiscard]] MeasurementSite paper_site(const std::string& code);

/// The four cities used for the availability analysis (paper Sec 3.1):
/// Hong Kong, Sydney, London, Pittsburgh — one per continent.
[[nodiscard]] std::vector<MeasurementSite> availability_sites();

/// Campaign epoch used throughout the reproduction: 2025-03-01 00:00 UTC
/// (inside the paper's measurement span).
[[nodiscard]] orbit::JulianDate campaign_epoch_jd();

}  // namespace sinet::core
