#include "core/availability.h"

#include <algorithm>
#include <stdexcept>

namespace sinet::core {

namespace {

/// Per-TLE windows over one site via the cached grid API: one observer,
/// so the windows of TLE s are [s][0].
std::vector<std::vector<std::vector<orbit::ContactWindow>>> per_tle_windows(
    const std::vector<orbit::Tle>& tles, const MeasurementSite& site,
    orbit::JulianDate start_jd, const AvailabilityOptions& opts) {
  orbit::PassPredictionOptions popts;
  popts.min_elevation_deg = opts.min_elevation_deg;
  popts.coarse_step_s = opts.pass_scan_step_s;
  return orbit::predict_passes_grid_cached(
      tles, {orbit::GridObserver{site.location}}, start_jd,
      start_jd + opts.duration_days, popts, opts.threads,
      &orbit::ContactWindowCache::global(), opts.metrics);
}

std::vector<orbit::ContactWindow> windows_for_tles(
    const std::vector<orbit::Tle>& tles, const MeasurementSite& site,
    orbit::JulianDate start_jd, const AvailabilityOptions& opts) {
  std::vector<orbit::ContactWindow> all;
  for (const auto& ws : per_tle_windows(tles, site, start_jd, opts))
    all.insert(all.end(), ws[0].begin(), ws[0].end());
  return all;
}

}  // namespace

std::vector<orbit::ContactWindow> constellation_windows(
    const orbit::ConstellationSpec& spec, const MeasurementSite& site,
    orbit::JulianDate start_jd, const AvailabilityOptions& opts) {
  if (opts.duration_days <= 0.0)
    throw std::invalid_argument("constellation_windows: bad duration");
  const auto tles = orbit::generate_tles(spec, start_jd);
  return orbit::merge_windows(
      windows_for_tles(tles, site, start_jd, opts));
}

double daily_presence_hours(const orbit::ConstellationSpec& spec,
                            const MeasurementSite& site,
                            orbit::JulianDate start_jd,
                            const AvailabilityOptions& opts) {
  const auto windows = constellation_windows(spec, site, start_jd, opts);
  return orbit::daily_visible_seconds(windows, start_jd,
                                      start_jd + opts.duration_days) /
         3600.0;
}

std::vector<double> per_satellite_daily_hours(
    const orbit::ConstellationSpec& spec, const MeasurementSite& site,
    orbit::JulianDate start_jd, const AvailabilityOptions& opts) {
  const auto tles = orbit::generate_tles(spec, start_jd);
  const auto per_sat = per_tle_windows(tles, site, start_jd, opts);
  std::vector<double> out;
  out.reserve(tles.size());
  for (const auto& ws : per_sat)
    out.push_back(orbit::daily_visible_seconds(
                      ws[0], start_jd, start_jd + opts.duration_days) /
                  3600.0);
  return out;
}

std::vector<double> presence_vs_constellation_size(
    const orbit::ConstellationSpec& spec, const MeasurementSite& site,
    orbit::JulianDate start_jd, const std::vector<int>& sizes,
    const AvailabilityOptions& opts) {
  const auto tles = orbit::generate_tles(spec, start_jd);
  int max_k = 0;
  for (const int k : sizes) {
    if (k <= 0 || k > static_cast<int>(tles.size()))
      throw std::invalid_argument(
          "presence_vs_constellation_size: size out of range");
    max_k = std::max(max_k, k);
  }

  // Predict each satellite's windows exactly once (the naive per-k rerun
  // is O(N^2) pass predictions), then evaluate the subset sizes in
  // ascending order over a growing prefix of the per-satellite windows.
  const std::vector<orbit::Tle> prefix(tles.begin(), tles.begin() + max_k);
  const auto per_sat = per_tle_windows(prefix, site, start_jd, opts);

  std::vector<std::size_t> order(sizes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sizes[a] < sizes[b];
  });

  std::vector<double> out(sizes.size());
  std::vector<orbit::ContactWindow> flat;
  std::size_t consumed = 0;
  for (const std::size_t idx : order) {
    const auto k = static_cast<std::size_t>(sizes[idx]);
    for (; consumed < k; ++consumed)
      flat.insert(flat.end(), per_sat[consumed][0].begin(),
                  per_sat[consumed][0].end());
    out[idx] = orbit::daily_visible_seconds(
                   flat, start_jd, start_jd + opts.duration_days) /
               3600.0;
  }
  return out;
}

std::vector<double> presence_by_latitude(
    const orbit::ConstellationSpec& spec,
    const std::vector<double>& latitudes_deg, orbit::JulianDate start_jd,
    const AvailabilityOptions& opts) {
  if (opts.duration_days <= 0.0)
    throw std::invalid_argument("presence_by_latitude: bad duration");
  // One shared-ephemeris grid call for ALL latitude probes: each
  // satellite propagates once per coarse step for the whole latitude
  // sweep instead of once per probe. Presence values are bit-identical
  // to the per-latitude daily_presence_hours loop this replaces (same
  // windows per pair, same concatenation order into the merge).
  const auto tles = orbit::generate_tles(spec, start_jd);
  std::vector<orbit::GridObserver> observers;
  observers.reserve(latitudes_deg.size());
  for (const double lat : latitudes_deg)
    observers.push_back(orbit::GridObserver{{lat, 114.0, 0.0}});

  orbit::PassPredictionOptions popts;
  popts.min_elevation_deg = opts.min_elevation_deg;
  popts.coarse_step_s = opts.pass_scan_step_s;
  const orbit::JulianDate end_jd = start_jd + opts.duration_days;
  const auto windows = orbit::predict_passes_grid_cached(
      tles, observers, start_jd, end_jd, popts, opts.threads,
      &orbit::ContactWindowCache::global(), opts.metrics);

  std::vector<double> out;
  out.reserve(latitudes_deg.size());
  for (std::size_t o = 0; o < observers.size(); ++o) {
    std::vector<orbit::ContactWindow> all;
    for (std::size_t s = 0; s < tles.size(); ++s)
      all.insert(all.end(), windows[s][o].begin(), windows[s][o].end());
    out.push_back(
        orbit::daily_visible_seconds(orbit::merge_windows(std::move(all)),
                                     start_jd, end_jd) /
        3600.0);
  }
  return out;
}

}  // namespace sinet::core
