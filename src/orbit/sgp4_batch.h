// Struct-of-arrays SGP4: propagate 4 lanes per call with explicit-width
// SIMD (orbit/simd.h).
//
// Two propagators share one vectorized kernel body:
//   - Sgp4Batch: 4 satellites per lane group, one time for every lane.
//     The shared-ephemeris engine (orbit/ephemeris.h) fills its grid
//     rows with it, one call per lane group per coarse step, with the
//     TEME->ECEF rotation from a caller-supplied (once-per-step) GMST.
//   - Sgp4TimeBatch: one satellite in every lane, a time per lane, GMST
//     evaluated per lane inside the kernel. AOS/LOS/TCA refinement
//     (orbit/passes.cpp) evaluates the points its searches are about to
//     need four at a time with it.
//
// Numerics: the kernel follows the scalar code's operation order but
//   - uses the polynomial vsincos kernels instead of libm sin/cos,
//   - replaces atan2(sinu, cosu) + sin/cos(uk/xnodek/xinck) with a
//     normalization plus small-angle rotations (the short-period
//     corrections are < 1e-3 rad),
//   - runs the Kepler iteration to convergence of all lanes instead of
//     per-lane early exit.
// Positions agree with the scalar propagator to < 1e-6 km within 60 days
// of the epoch (asserted by tests/test_sgp4_batch.cpp). No visibility
// decision trusts that blindly: each one carries the lane certificate
// below, and the scalar sampler decides the rest.
//
// Branch handling: the `simple_` (perigee < 220 km) drag truncation is
// lane-masked — both element-set flavors coexist in one group. Lanes
// whose elements go non-physical mid-propagation (the conditions where
// scalar Sgp4::at() throws PropagationError, widened by a small guard
// band) are reported per lane via LaneStatus; callers re-run failed
// lanes through the scalar propagator to surface the typed error.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "orbit/look_angles.h"
#include "orbit/sgp4.h"
#include "orbit/simd.h"
#include "orbit/time.h"
#include "orbit/vec3.h"

namespace sinet::orbit {

// The lane certificate: a visibility comparison is taken from a kernel
// position only when the sine of the elevation it gives clears the other
// side by more than kLaneMargin; otherwise ElevationSampler (the scalar
// oracle) decides. Derivation, for a position error d <= 1e-6 km, the
// bound the kernels meet within kLaneMaxEpochDays of the epoch:
//   - moving the satellite by d moves sin(elevation) = up / range by at
//     most 2 * d / range, which is 5e-9 at slant ranges of at least
//     kLaneMinRangeKm = 400 km;
//   - the margin, 1e-6 deg = 1.75e-8 in sine units (a sine error is at
//     most the elevation error in radians), exceeds twice that, so it
//     covers a lane against a constant (a coarse sample against the
//     mask) and two lanes against each other (the peak search), with
//     room for the ~1e-16 rounding of the sines themselves.
// A time more than kLaneMaxEpochDays from the epoch, a slant range
// below kLaneMinRangeKm, a mask outside [-90, 90] deg (sine is monotone
// only there) or a non-finite lane value falls outside these
// assumptions and goes to the scalar sampler. Measured over the 39 paper
// satellites, 56 band TLEs and the 8 paper sites out to day 60, the
// largest |lane - scalar| position is 1.4e-8 km and the largest sine
// elevation difference 8e-12.
inline constexpr double kLaneMargin = 1e-6 * kDegToRad;
inline constexpr double kLaneMinRangeKm = 400.0;
inline constexpr double kLaneMaxEpochDays = 60.0;

/// Whether kernel positions of a satellite with epoch `epoch_jd` are
/// certified at `jd`.
[[nodiscard]] inline bool lane_span_covers(JulianDate epoch_jd,
                                           JulianDate jd) noexcept {
  return std::abs(jd - epoch_jd) <= kLaneMaxEpochDays;
}

/// sin(mask) for a mask in [-90, 90] deg; NaN otherwise, which no lane
/// value clears.
[[nodiscard]] inline double lane_sin_mask(double mask_deg) noexcept {
  return std::abs(mask_deg) <= 90.0
             ? std::sin(mask_deg * kDegToRad)
             : std::numeric_limits<double>::quiet_NaN();
}

/// Per-lane outcome of a batched propagation.
enum class LaneStatus : std::uint8_t {
  kOk = 0,  ///< scalar Sgp4::at() does not throw here
  kError = 1,  ///< scalar Sgp4::at() throws PropagationError here, or
               ///< comes within the kernel's guard band of throwing
};

/// sin(elevation) from `frame` of the kernel position `ecef_km` at `jd`
/// of a satellite with TLE epoch `epoch_jd`, whose lane reported
/// `status`, under the lane certificate: NaN, which clears no
/// kLaneMargin comparison, unless the status is kOk, `jd` lies within
/// kLaneMaxEpochDays of the epoch and the slant range is at least
/// kLaneMinRangeKm. Callers compare it against a threshold's sine with
/// kLaneMargin to spare and hand everything else to the scalar sampler.
[[nodiscard]] inline double certified_lane_sine(const TopocentricFrame& frame,
                                                JulianDate epoch_jd,
                                                JulianDate jd,
                                                const Vec3& ecef_km,
                                                LaneStatus status) noexcept {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (status != LaneStatus::kOk || !lane_span_covers(epoch_jd, jd))
    return kNaN;
  const Vec3 rel = ecef_km - frame.obs_ecef_km;
  const double range = rel.norm();
  if (!(range >= kLaneMinRangeKm)) return kNaN;
  return ecef_to_enu(frame, rel).up / range;
}

namespace detail {
/// Init-stage constants (Sgp4Coefficients) of kLaneWidth lanes, one
/// vector per constant: four satellites (Sgp4Batch) or one satellite
/// broadcast to every lane (Sgp4TimeBatch).
struct Sgp4Lanes {
  simd::Vd epoch_jd, argp0, m0, raan0, e0, bstar;
  simd::Vd aodp, xnodp;
  simd::Vd cosio, sinio, x3thm1, x1mth2, x7thm1, eta;
  simd::Vd c1, c4, c5, d2, d3, d4;
  simd::Vd xmdot, omgdot, xnodot, xnodcf;
  simd::Vd omgcof, xmcof, t2cof, t3cof, t4cof, t5cof;
  simd::Vd xlcof, aycof, delmo, sinmo;
  simd::Vd nonsimple;  ///< 1.0 for the full drag model, 0.0 simple
};
}  // namespace detail

class Sgp4Batch {
 public:
  /// Lanes per group; groups() = ceil(size / kLaneWidth). The last group
  /// is padded internally with copies of its first member, so remainder
  /// counts need no caller-side handling.
  static constexpr std::size_t kLaneWidth = 4;

  /// Transpose the propagators' init-stage constants into lane groups.
  /// The Sgp4 objects are only read during construction; they need not
  /// outlive the batch. Throws std::invalid_argument on an empty set or
  /// a null pointer.
  explicit Sgp4Batch(const std::vector<const Sgp4*>& satellites);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t groups() const noexcept {
    return groups_.size();
  }
  /// Number of real (non-pad) members of `group`.
  [[nodiscard]] std::size_t group_members(std::size_t group) const noexcept {
    const std::size_t begin = group * kLaneWidth;
    return n_ - begin < kLaneWidth ? n_ - begin : kLaneWidth;
  }

  /// Propagate lane group `group` to UTC Julian date `jd` and rotate the
  /// positions into ECEF with the caller-supplied GMST (evaluate
  /// gmst_rad(jd) once per step and share it across every group).
  /// Writes group_members(group) entries of ECEF x/y/z (km), geocentric
  /// distance (km), and per-lane status. Returns true when every real
  /// lane is kOk.
  bool propagate_group_ecef(std::size_t group, JulianDate jd, double gmst,
                            double* x_km, double* y_km, double* z_km,
                            double* dist_km, LaneStatus* status) const;

 private:
  std::size_t n_ = 0;  ///< real satellite count
  std::vector<detail::Sgp4Lanes> groups_;
};

/// One satellite in every lane, a time per lane: propagates it to
/// kLaneWidth instants per call. Holds no heap memory, so refinement can
/// build one on the stack per search.
class Sgp4TimeBatch {
 public:
  static constexpr std::size_t kLaneWidth = Sgp4Batch::kLaneWidth;

  /// Broadcast `prop`'s init-stage constants; `prop` need not outlive
  /// the batch.
  explicit Sgp4TimeBatch(const Sgp4& prop) noexcept;

  /// Propagate lane l to UTC Julian date jd[l] and rotate it into ECEF
  /// at that date's GMST, evaluated per lane in the kernel (the IAU-82
  /// model of gmst_rad, not bit-identical to it). Writes kLaneWidth
  /// ECEF x/y/z (km) and statuses.
  void propagate_ecef(const JulianDate* jd, double* x_km, double* y_km,
                      double* z_km, LaneStatus* status) const;

 private:
  detail::Sgp4Lanes lanes_;
};

}  // namespace sinet::orbit
