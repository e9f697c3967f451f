// Topocentric look angles: azimuth / elevation / slant range / range rate
// from a ground observer to a satellite, plus the Doppler shift that the
// range rate induces on a carrier.
#pragma once

#include <cstddef>

#include "orbit/geodetic.h"
#include "orbit/simd.h"
#include "orbit/vec3.h"

namespace sinet::orbit {

struct LookAngles {
  double azimuth_deg = 0.0;    ///< clockwise from true north, [0, 360)
  double elevation_deg = 0.0;  ///< above local horizon, [-90, 90]
  double range_km = 0.0;       ///< slant range observer -> satellite
  double range_rate_km_s = 0.0;  ///< d(range)/dt; negative = approaching
};

/// Observer-fixed quantities of the ECEF->ENU transform (observer ECEF
/// position and the latitude/longitude trig of the ENU basis). Pass
/// prediction evaluates look angles thousands of times per window for the
/// same ground site; hoisting these out of the per-sample loop removes a
/// geodetic_to_ecef call and four trig evaluations per sample while
/// producing bit-identical angles.
struct TopocentricFrame {
  explicit TopocentricFrame(const Geodetic& observer);

  Vec3 obs_ecef_km;
  double sin_lat, cos_lat;
  double sin_lon, cos_lon;
};

/// Satellite position relative to an observer, in the observer's local
/// east/north/up basis (km).
struct Enu {
  double east, north, up;
};

/// ECEF relative vector -> ENU at the observer. This is THE one
/// definition of the ENU expressions: look_angles() and
/// elevation_from_ecef() both call it, so their shared `up` term cannot
/// drift apart bit-wise. Expression order is load-bearing — do not
/// refactor the arithmetic.
[[nodiscard]] inline Enu ecef_to_enu(const TopocentricFrame& frame,
                                     const Vec3& rel) noexcept {
  return Enu{
      -frame.sin_lon * rel.x + frame.cos_lon * rel.y,
      -frame.sin_lat * frame.cos_lon * rel.x -
          frame.sin_lat * frame.sin_lon * rel.y + frame.cos_lat * rel.z,
      frame.cos_lat * frame.cos_lon * rel.x +
          frame.cos_lat * frame.sin_lon * rel.y + frame.sin_lat * rel.z,
  };
}

/// Up to simd::kLanes observer frames transposed into lane arrays for the
/// span scan's fused elevation test: one satellite position evaluated
/// against every observer lane at once. Unused lanes are padded with
/// copies of the first frame; callers mask results by their own
/// active-lane count.
struct TopocentricFrameSoA {
  simd::Vd obs_x, obs_y, obs_z;  ///< observer ECEF positions, km
  simd::Vd up_x, up_y, up_z;     ///< geodetic "up" rows of the ENU bases
};

/// Transpose `n` frames (n in [1, simd::kLanes]) into lane arrays.
[[nodiscard]] TopocentricFrameSoA pack_topocentric_frames(
    const TopocentricFrame* const* frames, std::size_t n);

/// Fused multi-observer visibility of a kernel-propagated position,
/// tested in the sine domain (up against sin(mask) * slant range, so no
/// arcsine per sample) under the lane certificate of orbit/sgp4_batch.h.
/// Lane l of *visible_out is all-ones when the elevation over observer l
/// clears the lane's mask by more than kLaneMargin; lane l of
/// *uncertain_out is all-ones when it clears it in neither direction, or
/// the slant range is below kLaneMinRangeKm, or `sin_mask` is NaN. The
/// caller decides uncertain lanes with the scalar ElevationSampler.
/// Vector operands pass by reference/pointer so the signature stays
/// ABI-stable between the function-multiversioned clones.
void fused_visibility(const TopocentricFrameSoA& frames,
                      const Vec3& sat_ecef_km, const simd::Vd& sin_mask,
                      simd::Vi* visible_out,
                      simd::Vi* uncertain_out) noexcept;

/// Compute look angles from an observer frame to a satellite given both
/// ECEF position (km) and ECEF velocity (km/s).
[[nodiscard]] LookAngles look_angles(const TopocentricFrame& frame,
                                     const Vec3& sat_ecef_km,
                                     const Vec3& sat_ecef_vel_km_s);

/// Elevation (deg) only, from an ECEF satellite position. This is THE
/// elevation evaluation for pass prediction: both ElevationSampler (the
/// refinement searches and any per-pair scan) and the shared-ephemeris
/// table scan call this one definition, so the two paths agree
/// bit-for-bit by construction rather than by duplicated arithmetic.
[[nodiscard]] double elevation_from_ecef(const TopocentricFrame& frame,
                                         const Vec3& sat_ecef_km);

/// Doppler shift (Hz) observed on `carrier_hz` given a range rate.
/// Approaching satellites (negative range rate) shift the carrier up.
[[nodiscard]] double doppler_shift_hz(double range_rate_km_s,
                                      double carrier_hz) noexcept;

inline constexpr double kSpeedOfLightKmPerSec = 299792.458;

}  // namespace sinet::orbit
