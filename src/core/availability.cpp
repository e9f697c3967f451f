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

}  // namespace sinet::core
