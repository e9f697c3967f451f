#include "orbit/frames.h"

#include <cmath>

namespace sinet::orbit {

namespace {
Vec3 rotate_z(const Vec3& v, double angle_rad) {
  const double c = std::cos(angle_rad);
  const double s = std::sin(angle_rad);
  return {c * v.x + s * v.y, -s * v.x + c * v.y, v.z};
}
}  // namespace

Vec3 teme_to_ecef_position_gmst(const Vec3& r_teme_km, double gmst) {
  return rotate_z(r_teme_km, gmst);
}

EcefState teme_to_ecef_state(const Vec3& r_teme_km, const Vec3& v_teme_km_s,
                             JulianDate jd) {
  const double theta = gmst_rad(jd);
  const Vec3 r_ecef = rotate_z(r_teme_km, theta);
  const Vec3 v_rot = rotate_z(v_teme_km_s, theta);
  const Vec3 omega{0.0, 0.0, kEarthRotationRadPerSec};
  return {r_ecef, v_rot - omega.cross(r_ecef)};
}

}  // namespace sinet::orbit
