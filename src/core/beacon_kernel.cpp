#include "core/beacon_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "orbit/vec3.h"

namespace sinet::core {

void kernel_window_beacons(const orbit::Sgp4TimeBatch& lanes,
                           orbit::JulianDate epoch_jd,
                           const orbit::TopocentricFrame& frame,
                           orbit::JulianDate aos_jd, orbit::JulianDate los_jd,
                           double period_s, std::vector<KernelBeacon>& out) {
  out.clear();
  for (double t = 0.0;; t += period_s) {
    const orbit::JulianDate jd = aos_jd + t / orbit::kSecondsPerDay;
    if (jd > los_jd) break;
    out.push_back(KernelBeacon{jd});
  }
  constexpr std::size_t kLanes = orbit::Sgp4TimeBatch::kLaneWidth;
  for (std::size_t first = 0; first < out.size(); first += kLanes) {
    // Spare lanes of the last call repeat its first beacon.
    const std::size_t n = std::min(kLanes, out.size() - first);
    // A group wholly outside the certificate's span keeps kOpen, as
    // certified_lane_sine would leave it, without the propagation.
    if (std::none_of(out.begin() + first, out.begin() + first + n,
                     [epoch_jd](const KernelBeacon& b) {
                       return orbit::lane_span_covers(epoch_jd, b.jd);
                     }))
      continue;
    orbit::JulianDate jd[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l)
      jd[l] = out[first + (l < n ? l : 0)].jd;
    double x[kLanes], y[kLanes], z[kLanes];
    orbit::LaneStatus status[kLanes];
    lanes.propagate_ecef(jd, x, y, z, status);
    for (std::size_t l = 0; l < n; ++l) {
      KernelBeacon& b = out[first + l];
      const orbit::Vec3 ecef{x[l], y[l], z[l]};
      const double sin_el =
          orbit::certified_lane_sine(frame, epoch_jd, b.jd, ecef, status[l]);
      if (sin_el < -orbit::kLaneMargin) {
        b.verdict = KernelVerdict::kBelow;
      } else if (sin_el > orbit::kLaneMargin) {
        b.verdict = KernelVerdict::kAbove;
        b.elevation_deg =
            std::asin(std::clamp(sin_el, -1.0, 1.0)) * orbit::kRadToDeg;
        b.range_km = (ecef - frame.obs_ecef_km).norm();
      }
    }
  }
}

double kernel_fade_power_slack(const channel::FadingConfig& fading) {
  constexpr double kSinError = 1e-8;  // twice the lane certificate's 5e-9
  const double slope_db_per_deg =
      std::abs(fading.rician_k_db - fading.low_elevation_k_db) /
      fading.k_rolloff_elevation_deg;
  const double cos_rolloff = std::cos(
      std::min(fading.k_rolloff_elevation_deg, 90.0) * orbit::kDegToRad);
  const double elevation_rad = std::min(kSinError / cos_rolloff,
                                        1.01 * std::sqrt(2.0 * kSinError));
  const double k_db = slope_db_per_deg * elevation_rad * orbit::kRadToDeg;
  if (!(k_db <= 1.0)) return std::numeric_limits<double>::infinity();
  return 8.0 * k_db + 1e-12;
}

bool kernel_settles_loss(const phy::ErrorModel& model,
                         const phy::LinkConfig& link,
                         const phy::PreparedReception& no_doppler,
                         double power_slack, const KernelBeacon& b,
                         channel::Weather wx,
                         const channel::FadeUniforms& u) {
  // The limit reads no azimuth and no range rate.
  orbit::LookAngles look;
  look.elevation_deg = b.elevation_deg;
  look.range_km = b.range_km;
  const phy::PreparedLink kernel = phy::prepare_link(link, look, wx, 0.0);
  if (!(std::abs(kernel.mean.snr_db) <=
        phy::ErrorModel::kCertifiedRangeDb - kKernelLossMarginDb))
    return false;
  return channel::FadingModel::fade_bound_db(kernel.fade, u, power_slack) <
         model.certain_loss_below_db(kernel, no_doppler) - kKernelLossMarginDb;
}

}  // namespace sinet::core
