// Oracle for orbit::refine_mask_crossing and orbit::refine_max_elevation:
// the scalar bisection and golden-section searches, one
// ElevationSampler::elevation_deg call per point, as the library ran them
// before refinement moved into SIMD lanes. The library primitives must
// return these functions' bits (and throw where they throw); that is
// what keeps every engine's windows bit-identical to the scalar scan.
// Shared by test_refine and the refine_speed_gate timing check, with the
// reconstruction of the grid brackets a scan refined its windows from.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "orbit/ephemeris.h"
#include "orbit/passes.h"

namespace sinet::testing {

inline orbit::JulianDate oracle_refine_mask_crossing(
    const orbit::ElevationSampler& sampler, orbit::JulianDate jd_lo,
    orbit::JulianDate jd_hi, double mask_deg, double tol_s) {
  using orbit::JulianDate;
  using orbit::kSecondsPerDay;
  const bool lo_vis = sampler.elevation_deg(jd_lo) >= mask_deg;
  for (int i = 0; i < 64; ++i) {
    if ((jd_hi - jd_lo) * kSecondsPerDay <= tol_s) break;
    const JulianDate mid = 0.5 * (jd_lo + jd_hi);
    const bool mid_vis = sampler.elevation_deg(mid) >= mask_deg;
    if (mid_vis == lo_vis)
      jd_lo = mid;
    else
      jd_hi = mid;
  }
  return 0.5 * (jd_lo + jd_hi);
}

inline std::pair<orbit::JulianDate, double> oracle_refine_max_elevation(
    const orbit::ElevationSampler& sampler, orbit::JulianDate a,
    orbit::JulianDate b) {
  using orbit::JulianDate;
  using orbit::kSecondsPerDay;
  constexpr double kInvPhi = 0.6180339887498949;
  JulianDate x1 = b - kInvPhi * (b - a);
  JulianDate x2 = a + kInvPhi * (b - a);
  double f1 = sampler.elevation_deg(x1);
  double f2 = sampler.elevation_deg(x2);
  for (int i = 0; i < 48 && (b - a) * kSecondsPerDay > 0.5; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = sampler.elevation_deg(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = sampler.elevation_deg(x1);
    }
  }
  const JulianDate peak = 0.5 * (a + b);
  return {peak, sampler.elevation_deg(peak)};
}

// The grid bracket a scan on `grid` refined the window edge `edge` from:
// [t - step, t], with t the first grid sample at or after the edge.
// Empty for an edge at the grid's start or end, which a window truncated
// there keeps unrefined. (The peak search's bracket is the window's
// [AOS, LOS] itself.)
inline std::optional<std::pair<orbit::JulianDate, orbit::JulianDate>>
scan_crossing_bracket(const orbit::ScanGrid& grid, orbit::JulianDate edge) {
  if (edge == grid.start() || edge == grid.end()) return std::nullopt;
  std::size_t lo = 0, hi = grid.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (grid.time(mid) < edge) lo = mid + 1; else hi = mid;
  }
  const orbit::JulianDate t = grid.time(lo);
  return std::pair{t - grid.step_days(), t};
}

}  // namespace sinet::testing
