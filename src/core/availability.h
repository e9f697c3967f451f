// Network-availability analytics (paper Fig 3a): theoretical daily
// presence duration of a constellation over a site, computed from the
// synthetic TLE catalog via SGP4 exactly as the paper does from live TLEs.
#pragma once

#include <string>
#include <vector>

#include "core/scenario.h"
#include "orbit/constellation.h"
#include "orbit/passes.h"

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::core {

struct AvailabilityOptions {
  double duration_days = 3.0;      ///< analysis span
  double min_elevation_deg = 0.0;  ///< visibility mask
  double pass_scan_step_s = 60.0;
  /// Pass-prediction fan-out (orbit::predict_passes_grid_cached, which
  /// serves repeated (satellite, site, span) predictions from the global
  /// orbit::ContactWindowCache): 0 = all hardware threads, 1 = serial on
  /// the calling thread, N = N workers. Windows are identical for any
  /// value.
  unsigned threads = 0;
  /// Optional run-metrics sink ("orbit.pass_cache.*" /
  /// "orbit.ephemeris.*"); null disables instrumentation. Must outlive
  /// the call.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Daily hours during which at least one satellite of `spec` is visible
/// from `site` (overlaps merged).
[[nodiscard]] double daily_presence_hours(
    const orbit::ConstellationSpec& spec, const MeasurementSite& site,
    orbit::JulianDate start_jd, const AvailabilityOptions& opts = {});

/// Per-satellite daily visible hours (unmerged; used for constellation
/// sizing studies).
[[nodiscard]] std::vector<double> per_satellite_daily_hours(
    const orbit::ConstellationSpec& spec, const MeasurementSite& site,
    orbit::JulianDate start_jd, const AvailabilityOptions& opts = {});

/// Availability as a function of constellation size: daily presence hours
/// when only the first `k` satellites of the catalog are active, for each
/// k in `sizes` (paper: Tianqi 12 -> 22 sats moves 13.4 h -> 19.1 h).
[[nodiscard]] std::vector<double> presence_vs_constellation_size(
    const orbit::ConstellationSpec& spec, const MeasurementSite& site,
    orbit::JulianDate start_jd, const std::vector<int>& sizes,
    const AvailabilityOptions& opts = {});

/// All merged constellation-level windows over a site (building block for
/// the functions above and for interval analytics).
[[nodiscard]] std::vector<orbit::ContactWindow> constellation_windows(
    const orbit::ConstellationSpec& spec, const MeasurementSite& site,
    orbit::JulianDate start_jd, const AvailabilityOptions& opts = {});

/// Daily presence hours as a function of service latitude (at a fixed
/// reference longitude): coverage of an inclined constellation collapses
/// beyond its inclination band, which determines who a given fleet can
/// actually serve. One entry per input latitude.
[[nodiscard]] std::vector<double> presence_by_latitude(
    const orbit::ConstellationSpec& spec,
    const std::vector<double>& latitudes_deg, orbit::JulianDate start_jd,
    const AvailabilityOptions& opts = {});

}  // namespace sinet::core
