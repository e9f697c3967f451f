// Reference-frame rotations: TEME (SGP4 output) -> ECEF.
//
// SGP4 emits position/velocity in the True Equator Mean Equinox (TEME)
// frame. Ground geometry wants Earth-fixed (ECEF) coordinates. We rotate
// by GMST about the z-axis; polar motion (< 15 m) is ignored, which is
// far below link-budget relevance.
#pragma once

#include "orbit/time.h"
#include "orbit/vec3.h"

namespace sinet::orbit {

/// Earth rotation rate (rad/s), IAU-82 value.
inline constexpr double kEarthRotationRadPerSec = 7.29211514670698e-5;

/// Rotate a TEME position (km) into ECEF given a precomputed GMST angle.
/// Bit-identical to the position teme_to_ecef_state(jd) produces when
/// `gmst` equals gmst_rad(jd); the shared-ephemeris table uses this to
/// evaluate GMST once per timestep across every satellite.
[[nodiscard]] Vec3 teme_to_ecef_position_gmst(const Vec3& r_teme_km,
                                              double gmst);

/// Position + velocity in ECEF.
struct EcefState {
  Vec3 position_km;
  Vec3 velocity_km_s;
};

/// Rotate a full TEME state into ECEF at the given UTC Julian date: both
/// vectors turn by GMST about z, and the velocity takes the transport term
/// (-omega x r) of the rotating frame. GMST and the rotated position are
/// computed once and shared; pass prediction needs both vectors at every
/// sample.
[[nodiscard]] EcefState teme_to_ecef_state(const Vec3& r_teme_km,
                                           const Vec3& v_teme_km_s,
                                           JulianDate jd);

}  // namespace sinet::orbit
