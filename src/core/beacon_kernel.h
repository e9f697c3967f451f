// Kernel geometry for the passive campaign's beacons.
//
// The campaign's observe loop (core/passive_campaign.cpp) walks each
// scheduled window beacon by beacon, and most beacons are lost for
// certain: below the horizon, or so far under the PER curve's saturation
// margin that the fade's bound settles them ("The decode certificate",
// docs/PERFORMANCE.md). Settling one needs only its elevation and range,
// so the loop takes them from the SIMD kernel (orbit::Sgp4TimeBatch, four
// beacon times per call) and pays the scalar ElevationSampler look only
// for the beacons the kernel leaves open. Each kernel position counts
// only under the lane certificate of orbit/sgp4_batch.h; the decisions
// it supports are exactly those the scalar path would reach, so every
// draw and every record stays bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/fading.h"
#include "channel/weather.h"
#include "orbit/look_angles.h"
#include "orbit/sgp4_batch.h"
#include "orbit/time.h"
#include "phy/error_model.h"
#include "phy/link_budget.h"

namespace sinet::core {

// The margin (dB) by which a beacon's fade bound must clear its
// certain-loss limit when both come from the kernel's geometry. Under it
// the scalar path's own bound settles the beacon too, so the two count
// the same settled decodes. A kernel position lies within d = 1e-6 km of
// the scalar one (the lane certificate: status kOk, within
// kLaneMaxEpochDays of the epoch, slant range >= kLaneMinRangeKm = 400
// km). The scalar path compares, in order: its elevation against 0; its
// limit's coverage (certain_loss_below_db: sigma in [0, 100] dB, four
// terms within +-kCertifiedRangeDb); its fade bound against its limit.
//   - horizon: sin(elevation) moves by at most 2 d / range = 5e-9 < the
//     lane margin, so a kernel sine above +kLaneMargin is a positive
//     scalar elevation: the scalar path draws, as the kernel path did.
//   - elevation: asin is ill-conditioned near zenith, where 5e-9 in the
//     sine moves the elevation by up to sqrt(2 * 5e-9) rad = 0.0058 deg.
//     The steepest gain slope of any antenna is the 5/8-wave monopole's
//     0.41 dB/deg into its zenith null (the quarter-wave's is 0.37, the
//     turnstile's 0.07): at most 0.0024 dB per antenna. Away from zenith
//     the elevation moves by 5e-9 / cos(elevation) rad, and the dipole's
//     steepest slope, 0.6 dB/deg where its pattern meets the 0.2 floor
//     (~15 deg off zenith), gives under 1e-6 dB.
//   - the dipole's step: at sin(theta) < 1e-3 (within 0.057 deg of
//     zenith) its gain drops from the floor's 2.15 - 13.979 to 2.15 - 14
//     dBi, 0.021 dB, which a position on either side of it can straddle:
//     0.042 dB with a dipole at both ends.
//   - path loss: 20 log10(range) moves by 8.686 * d / 400 = 2.2e-8 dB;
//     the elevation excess loss, 0.1 / sin(elevation) capped at 10 dB, by
//     0.1 * 5e-9 / 0.01^2 = 5e-6 dB.
//   - fade bound: the shadowing term reads no geometry. The Rician
//     K-factor moves with elevation below k_rolloff_elevation_deg; its
//     effect on the bound's small-scale power is covered exactly by the
//     power slack (kernel_fade_power_slack), not by this margin. What is
//     left is power_db_upper_bound's bucket: the two powers may fall in
//     neighbouring mantissa buckets, 0.0043 dB apart.
//   - limit: the kernel's uses a Doppler penalty of 0, the lower bound of
//     the scalar path's shift penalty (0 to 60 dB), so the scalar limit
//     is never lower for it. Sigma, the saturation margin and the
//     threshold read no geometry; the kernel settles only when its mean
//     SNR lies within kCertifiedRangeDb less this margin, so the scalar
//     one is covered too.
//   - rounding: every sum stays under 6,000 dB; a dozen roundings stay
//     under 1e-11 dB.
// Sum: 0.042 + 2 * 0.0024 + 0.0043 + 5e-6 + 2.2e-8 + 1e-11 < 0.052 dB.
// The margin is twice that. Measured on the 30-day default campaign, the
// kernel's and the scalar path's (fade bound - limit) differ by at most
// 8.5e-9 dB.
inline constexpr double kKernelLossMarginDb = 0.1;

/// What the kernel certifies about one beacon.
enum class KernelVerdict : std::uint8_t {
  kOpen,   ///< outside the lane certificate or within its margin
  kBelow,  ///< below the horizon: the beacon draws nothing
  kAbove,  ///< above it, at elevation_deg and range_km
};

/// One beacon of a window: its time and the kernel's verdict on it.
struct KernelBeacon {
  orbit::JulianDate jd = 0.0;
  double elevation_deg = 0.0;  ///< set for kAbove only
  double range_km = 0.0;       ///< set for kAbove only
  KernelVerdict verdict = KernelVerdict::kOpen;
};

/// Fill `out` with the beacons of the window [aos_jd, los_jd], one every
/// `period_s` from aos_jd (the observe loop's own times, accumulated as
/// it accumulates them), and their verdicts: kernel positions four
/// beacons per call of `lanes`, a satellite with TLE epoch `epoch_jd`,
/// seen from `frame`. A lane counts only under the lane certificate
/// (orbit::certified_lane_sine); a sine of elevation below -kLaneMargin
/// is kBelow, above +kLaneMargin kAbove, anything else kOpen.
void kernel_window_beacons(const orbit::Sgp4TimeBatch& lanes,
                           orbit::JulianDate epoch_jd,
                           const orbit::TopocentricFrame& frame,
                           orbit::JulianDate aos_jd, orbit::JulianDate los_jd,
                           double period_s, std::vector<KernelBeacon>& out);

/// The slack to add to a kernel beacon's fade bound power
/// (FadingModel::fade_bound_db) so that it bounds the scalar path's power
/// too, for the fading settings `fading`. The K-factor moves at
/// |rician_k_db - low_elevation_k_db| / k_rolloff_elevation_deg dB per
/// degree of elevation below the rolloff, where a 1e-8 error in the sine
/// moves the elevation by at most 1e-8 / cos(rolloff) rad (and by
/// 1.01 sqrt(2e-8) rad anywhere). Over |z| <= 8.3, the bracket ends'
/// reach, both Rician terms move by at most 0.3 per dB of K and stay
/// below 6.9 and 5.9, so the power moves by at most 8 per dB of K for
/// changes up to 1 dB; 1e-12 covers their rounding. +infinity, which
/// settles nothing, when the K-factor may move by more than 1 dB.
[[nodiscard]] double kernel_fade_power_slack(
    const channel::FadingConfig& fading);

/// Whether a kAbove beacon `b` at weather `wx`, whose fade draws the
/// uniforms `u`, is lost for certain: prepare_link at the kernel's
/// elevation and range, and the fade bound (padded by `power_slack`,
/// from kernel_fade_power_slack) below certain_loss_below_db at the
/// reception `no_doppler` (the beacon's, Doppler penalty 0) less
/// kKernelLossMarginDb. When it holds, the scalar path settles the
/// beacon as lost from the same uniforms; the caller draws the one word
/// receive() would.
[[nodiscard]] bool kernel_settles_loss(const phy::ErrorModel& model,
                                       const phy::LinkConfig& link,
                                       const phy::PreparedReception& no_doppler,
                                       double power_slack,
                                       const KernelBeacon& b,
                                       channel::Weather wx,
                                       const channel::FadeUniforms& u);

}  // namespace sinet::core
