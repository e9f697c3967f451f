// Oracle for the pass-scan engine (orbit::scan_pass_pairs and everything
// built on it: predict_passes_grid(_cached), RollingEphemeris): the
// per-(satellite, observer) scalar scan the library once exported as
// orbit::predict_passes. One ElevationSampler::elevation_deg call per
// coarse sample, no shared ephemeris, no culling, nothing skipped. The
// loop is that function verbatim; AOS/LOS and TCA are refined with the
// scalar searches of refine_oracle.h, which test_refine proves bit-equal
// to the library's primitives, so the oracle shares no scan or
// refinement code with the engine. With either table kernel the engine
// must return these windows bit for bit: that is the property every
// parity suite checks.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "orbit/passes.h"
#include "refine_oracle.h"

namespace sinet::testing {

/// All contact windows in [jd_start, jd_end]. Windows already in progress
/// at jd_start are truncated to jd_start; windows still open at jd_end
/// are truncated to jd_end.
inline std::vector<orbit::ContactWindow> oracle_predict_passes(
    const orbit::Sgp4& prop, const orbit::Geodetic& observer,
    orbit::JulianDate jd_start, orbit::JulianDate jd_end,
    const orbit::PassPredictionOptions& opts = {}) {
  using orbit::ContactWindow;
  using orbit::JulianDate;
  if (jd_end < jd_start)
    throw std::invalid_argument("oracle_predict_passes: jd_end < jd_start");
  if (opts.coarse_step_s <= 0.0)
    throw std::invalid_argument("oracle_predict_passes: nonpositive step");

  const orbit::ElevationSampler sampler(prop, observer);
  std::vector<ContactWindow> out;
  const double step_days = opts.coarse_step_s / orbit::kSecondsPerDay;

  bool prev_vis = sampler.elevation_deg(jd_start) >= opts.min_elevation_deg;
  JulianDate window_start = prev_vis ? jd_start : 0.0;

  for (JulianDate jd = jd_start + step_days;; jd += step_days) {
    const JulianDate t = std::min(jd, jd_end);
    const bool vis = sampler.elevation_deg(t) >= opts.min_elevation_deg;
    if (vis && !prev_vis) {
      window_start = oracle_refine_mask_crossing(
          sampler, t - step_days, t, opts.min_elevation_deg,
          opts.refine_tolerance_s);
    } else if (!vis && prev_vis) {
      const JulianDate window_end = oracle_refine_mask_crossing(
          sampler, t - step_days, t, opts.min_elevation_deg,
          opts.refine_tolerance_s);
      ContactWindow w;
      w.aos_jd = window_start;
      w.los_jd = window_end;
      auto [tca, elev] =
          oracle_refine_max_elevation(sampler, w.aos_jd, w.los_jd);
      w.tca_jd = tca;
      w.max_elevation_deg = elev;
      out.push_back(w);
    }
    prev_vis = vis;
    if (t >= jd_end) break;
  }
  if (prev_vis) {  // window still open at jd_end: truncate
    ContactWindow w;
    w.aos_jd = window_start;
    w.los_jd = jd_end;
    auto [tca, elev] = oracle_refine_max_elevation(sampler, w.aos_jd, w.los_jd);
    w.tca_jd = tca;
    w.max_elevation_deg = elev;
    out.push_back(w);
  }
  return out;
}

}  // namespace sinet::testing
