#include "orbit/look_angles.h"

#include <algorithm>
#include <cmath>

#include "orbit/time.h"

namespace sinet::orbit {

TopocentricFrame::TopocentricFrame(const Geodetic& observer)
    : obs_ecef_km(geodetic_to_ecef(observer)) {
  const double lat = observer.latitude_deg * kDegToRad;
  const double lon = observer.longitude_deg * kDegToRad;
  sin_lat = std::sin(lat);
  cos_lat = std::cos(lat);
  sin_lon = std::sin(lon);
  cos_lon = std::cos(lon);
}

LookAngles look_angles(const TopocentricFrame& frame, const Vec3& sat_ecef_km,
                       const Vec3& sat_ecef_vel_km_s) {
  const Vec3 rel = sat_ecef_km - frame.obs_ecef_km;
  const Enu enu = ecef_to_enu(frame, rel);

  LookAngles la;
  la.range_km = rel.norm();
  la.elevation_deg =
      std::asin(std::clamp(enu.up / la.range_km, -1.0, 1.0)) * kRadToDeg;
  double az = std::atan2(enu.east, enu.north) * kRadToDeg;
  if (az < 0.0) az += 360.0;
  la.azimuth_deg = az;
  // Observer is fixed in ECEF, so d(range)/dt = rel . v / |rel|.
  la.range_rate_km_s = rel.dot(sat_ecef_vel_km_s) / la.range_km;
  return la;
}

double elevation_from_ecef(const TopocentricFrame& frame,
                           const Vec3& sat_ecef_km) {
  // The `up` / range / asin steps of look_angles(), through the shared
  // ecef_to_enu definition so every caller gets identical floating-point
  // results (the unused east/north terms fold away under inlining).
  const Vec3 rel = sat_ecef_km - frame.obs_ecef_km;
  const double up = ecef_to_enu(frame, rel).up;
  const double range_km = rel.norm();
  return std::asin(std::clamp(up / range_km, -1.0, 1.0)) * kRadToDeg;
}

TopocentricFrameSoA pack_topocentric_frames(
    const TopocentricFrame* const* frames, std::size_t n) {
  TopocentricFrameSoA soa;
  for (std::size_t l = 0; l < simd::kLanes; ++l) {
    const TopocentricFrame& f = *frames[l < n ? l : 0];
    soa.obs_x[l] = f.obs_ecef_km.x;
    soa.obs_y[l] = f.obs_ecef_km.y;
    soa.obs_z[l] = f.obs_ecef_km.z;
    soa.up_x[l] = f.cos_lat * f.cos_lon;
    soa.up_y[l] = f.cos_lat * f.sin_lon;
    soa.up_z[l] = f.sin_lat;
  }
  return soa;
}

SINET_SIMD_TARGET_CLONES
void fused_visibility(const TopocentricFrameSoA& frames,
                      const Vec3& sat_ecef_km, const simd::Vd& sin_mask,
                      simd::Vi* visible_out) noexcept {
  const simd::Vd rx = simd::broadcast(sat_ecef_km.x) - frames.obs_x;
  const simd::Vd ry = simd::broadcast(sat_ecef_km.y) - frames.obs_y;
  const simd::Vd rz = simd::broadcast(sat_ecef_km.z) - frames.obs_z;
  const simd::Vd up = frames.up_x * rx + frames.up_y * ry + frames.up_z * rz;
  const simd::Vd range = simd::vsqrt(rx * rx + ry * ry + rz * rz);
  *visible_out = up >= sin_mask * range;
}

double doppler_shift_hz(double range_rate_km_s, double carrier_hz) noexcept {
  return -range_rate_km_s / kSpeedOfLightKmPerSec * carrier_hz;
}

}  // namespace sinet::orbit
