// Per-(satellite, observer) scan state shared by the span engine
// (scan_pass_pairs) and the rolling-horizon engine (RollingEphemeris).
//
// Both engines walk a coarse grid of precomputed ECEF samples, cull
// stretches that are provably below the elevation mask (see ephemeris.h
// for the cone/rate math), classify the rest, and refine every
// visibility transition with the shared primitives (refine_mask_crossing
// / refine_max_elevation). A classification takes the table position's
// verdict only under the lane certificate (orbit/sgp4_batch.h) and asks
// the pair's ElevationSampler otherwise, so every verdict is the scalar
// oracle's whichever kernel filled the table. This header holds that
// walk ONCE, templated over a sample view, so the two engines cannot
// drift apart: the rolling scan is bit-identical to the fresh full-span
// scan by construction, not by parallel maintenance.
// The per-sample step (PairScanState::classify) is also what
// RollingEphemeris::next_pass walks with, so its bounded search sees
// every sample exactly as the full scan does.
//
// The view concept supplies the grid samples by ABSOLUTE index:
//   JulianDate  time(std::size_t k)
//   const Vec3& position(std::size_t s, std::size_t k)   // ECEF km
//   double      distance(std::size_t s, std::size_t k)   // geocentric km
// Absolute indexing is what lets one scan state persist across table
// chunks (span engine) or retained horizon chunks (rolling engine) with
// identical skip-ahead clamps in both.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "orbit/ephemeris.h"
#include "orbit/geodetic.h"
#include "orbit/look_angles.h"
#include "orbit/passes.h"
#include "orbit/sgp4.h"
#include "orbit/sgp4_batch.h"
#include "orbit/time.h"
#include "orbit/vec3.h"

namespace sinet::orbit {

/// Per-(satellite, observer) constants of the cull test. `geometry` is
/// set even when the test is disabled (the span engine's lanes read it).
struct PairCull {
  const ObserverCullGeometry* geometry = nullptr;
  double gamma_vis_rad = kPi;    ///< horizon cone half-angle
  double omega_max_rad_s = 0.0;  ///< geocentric angular-rate bound
  bool enabled = false;
};

/// The cull test of one pair. Disabled when the satellite has no valid
/// bounds.
[[nodiscard]] inline PairCull pair_cull(const SatelliteCullBounds& bounds,
                                        const ObserverCullGeometry& geometry,
                                        double mask_deg) {
  PairCull c;
  c.geometry = &geometry;
  if (bounds.valid) {
    c.gamma_vis_rad = horizon_cone_half_angle_rad(
        geometry, bounds.max_distance_km, mask_deg);
    c.omega_max_rad_s = bounds.max_angular_rate_rad_s;
    c.enabled = c.gamma_vis_rad < kPi && c.omega_max_rad_s > 0.0;
  }
  return c;
}

/// What the per-sample step decided about one grid sample.
struct SampleVerdict {
  bool visible = false;
  bool cull_decided = false;  ///< by the cull test, not by elevation
  std::size_t advance = 1;    ///< samples the walk moves forward
};

/// Scan state of one (satellite, observer) pair; persists across table
/// chunks so culling skips can cross chunk boundaries. Fields are public
/// because the span engine's lane walk (ephemeris.cpp) classifies
/// samples four observers at a time and feeds them in via
/// record_init/record_sample.
struct PairScanState {
  PairScanState(const Sgp4& prop, const TopocentricFrame& frame, double mask,
                const PairCull& pair_cull, std::size_t satellite_row)
      : sampler(prop, frame), mask_deg(mask), sin_mask(lane_sin_mask(mask)),
        cull_test(pair_cull), sat(satellite_row) {}

  ElevationSampler sampler;  ///< the scalar oracle of every verdict
  double mask_deg;
  double sin_mask;  ///< lane_sin_mask(mask_deg)
  PairCull cull_test;
  std::size_t sat;

  bool init_done = false;
  bool prev_vis = false;
  JulianDate window_start = 0.0;
  std::size_t next_k = 1;  // next grid sample this pair must visit
  std::vector<ContactWindow> windows;

  std::uint64_t visited = 0;
  std::uint64_t culled = 0;
  std::uint64_t cull_decisions = 0;
  std::uint64_t exact_evals = 0;
  std::uint64_t scalar_decisions = 0;  ///< verdicts the sampler gave

  /// The sampler's verdict at time t, counted.
  [[nodiscard]] bool scalar_visible(JulianDate t) {
    ++scalar_decisions;
    return sampler.elevation_deg(t) >= mask_deg;
  }

  /// Whether the elevation at absolute grid sample k is at or above the
  /// mask: from the table position under the lane certificate, else from
  /// the sampler. The table row at k was filled either by a lane the
  /// kernel certified or by the scalar propagator itself, so the sampler
  /// cannot throw here.
  template <typename View>
  [[nodiscard]] bool visible(const View& view, std::size_t k) {
    const JulianDate t = view.time(k);
    const double excess =
        certified_lane_sine(sampler.frame(), sampler.propagator().epoch_jd(),
                            t, view.position(sat, k), LaneStatus::kOk) -
        sin_mask;
    if (excess > kLaneMargin) return true;
    if (excess < -kLaneMargin) return false;
    return scalar_visible(t);
  }

  /// The per-sample step of the one-pair walk (scan() and
  /// RollingEphemeris::next_pass): the cull test, else visible(). A culled sample is provably below the mask, and so is
  /// every sample up to `advance` ahead: the geocentric angle cannot
  /// close faster than omega_max. `total_end` (one past the last absolute
  /// sample of the whole scan) clamps the skip, so skip lengths do not
  /// depend on how the span is chunked. The cull needs no certificate:
  /// its kCullAngularPadRad is five orders of magnitude above the angle a
  /// 1e-6 km kernel position error subtends.
  template <typename View>
  [[nodiscard]] SampleVerdict classify(const View& view, std::size_t k,
                                       std::size_t total_end, double step_s) {
    SampleVerdict v;
    if (cull_test.enabled) {
      const Vec3& pos = view.position(sat, k);
      const double cos_gamma =
          pos.dot(cull_test.geometry->unit_ecef) / view.distance(sat, k);
      const double gamma = std::acos(std::clamp(cos_gamma, -1.0, 1.0));
      if (gamma > cull_test.gamma_vis_rad) {
        v.cull_decided = true;
        const double margin_s =
            (gamma - cull_test.gamma_vis_rad) / cull_test.omega_max_rad_s;
        const double steps = margin_s / step_s;
        if (steps > 1.0)
          v.advance = std::min(static_cast<std::size_t>(steps), total_end - k);
        return v;
      }
    }
    v.visible = visible(view, k);
    return v;
  }

  /// Seed the scan from an already classified first sample (the lane
  /// walk's init). Does not touch next_k — the lane walk tracks its own
  /// lockstep cursor.
  void record_init(bool vis, JulianDate t0) {
    prev_vis = vis;
    window_start = prev_vis ? t0 : 0.0;
    init_done = true;
    ++visited;
    ++exact_evals;
  }

  /// Classify the scan's first sample (absolute index `base_k`) — it is
  /// never culled — and aim the scan at the following sample.
  template <typename View>
  void init(const View& view, std::size_t base_k) {
    record_init(visible(view, base_k), view.time(base_k));
    next_k = base_k + 1;
  }

  /// AOS/LOS transition handling for one classified sample — identical
  /// refinement primitives (and brackets) in every engine.
  void record_sample(bool vis, JulianDate t, double step_days,
                     double refine_tolerance_s) {
    if (vis && !prev_vis) {
      window_start = refine_mask_crossing(sampler, t - step_days, t, mask_deg,
                                          refine_tolerance_s);
    } else if (!vis && prev_vis) {
      const JulianDate window_end = refine_mask_crossing(
          sampler, t - step_days, t, mask_deg, refine_tolerance_s);
      ContactWindow w;
      w.aos_jd = window_start;
      w.los_jd = window_end;
      const auto [tca, elev] = refine_max_elevation(sampler, w.aos_jd, w.los_jd);
      w.tca_jd = tca;
      w.max_elevation_deg = elev;
      windows.push_back(w);
    }
    prev_vis = vis;
  }

  /// Advance through grid samples [next_k, chunk_end). `total_end` is one
  /// past the last absolute sample of the WHOLE scan: it clamps the cull
  /// skip-ahead, so skip lengths are identical no matter how the span is
  /// chunked (total_end - k equals the fresh scan's size() - k_local).
  template <typename View>
  void scan(const View& view, std::size_t chunk_end, std::size_t total_end,
            double step_days, double step_s, double refine_tolerance_s) {
    while (next_k < chunk_end) {
      const std::size_t k = next_k;
      const SampleVerdict v = classify(view, k, total_end, step_s);
      if (v.cull_decided)
        ++cull_decisions;
      else
        ++exact_evals;
      ++visited;
      culled += v.advance - 1;

      // Identical transition handling (and refinement brackets) to an
      // unculled walk: skipped samples are all proven invisible while
      // prev_vis is false, so no transition can hide inside a skip.
      record_sample(v.visible, view.time(k), step_days, refine_tolerance_s);
      next_k = k + v.advance;
    }
  }

  /// Truncate a still-open window at jd_end.
  void finalize(JulianDate jd_end) {
    if (!prev_vis) return;
    ContactWindow w;
    w.aos_jd = window_start;
    w.los_jd = jd_end;
    const auto [tca, elev] = refine_max_elevation(sampler, w.aos_jd, w.los_jd);
    w.tca_jd = tca;
    w.max_elevation_deg = elev;
    windows.push_back(w);
  }
};

}  // namespace sinet::orbit
