#include "channel/antenna.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sinet::channel {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// Normalized monopole pattern evaluated at elevation `el_deg`, with the
/// main lobe centred at `lobe_peak_el_deg` and a high-angle null depth.
double monopole_pattern_db(double el_deg, double peak_gain_dbi,
                           double lobe_peak_el_deg, double zenith_drop_db) {
  const double el = std::clamp(el_deg, 0.0, 90.0);
  // Raised-cosine main lobe in elevation; gain rolls off toward zenith
  // (monopole null) and slightly toward the horizon (ground effects).
  const double x = (el - lobe_peak_el_deg) / (90.0 - lobe_peak_el_deg);
  double rolloff;
  if (el >= lobe_peak_el_deg) {
    rolloff = zenith_drop_db * x * x;  // quadratic drop toward zenith null
  } else {
    const double y = (lobe_peak_el_deg - el) / lobe_peak_el_deg;
    rolloff = 3.0 * y * y;  // mild drop toward the horizon
  }
  return peak_gain_dbi - rolloff;
}
}  // namespace

double antenna_gain_dbi(AntennaType type, double elevation_deg) {
  switch (type) {
    case AntennaType::kIsotropic:
      return 0.0;
    case AntennaType::kDipole: {
      // Half-wave dipole on a tumbling nanosat: the classic
      // cos(pi/2 cos(theta))/sin(theta) pattern, but with the axial null
      // filled to ~-12 dB relative — tumbling randomizes the dipole
      // orientation, so on average the deep null is never pointed at the
      // ground for a whole packet.
      const double el = std::clamp(elevation_deg, -90.0, 90.0);
      const double theta = (90.0 - el) * kPi / 180.0;
      const double s = std::sin(theta);
      if (s < 1e-3) return 2.15 - 14.0;
      const double f = std::cos(kPi / 2.0 * std::cos(theta)) / s;
      return 2.15 + 20.0 * std::log10(std::max(std::abs(f), 0.2));
    }
    case AntennaType::kSatelliteTurnstile: {
      // Canted turnstile on an attitude-stabilized gateway satellite:
      // ~4.5 dBi toward nadir (high observer elevation), rolling off a
      // few dB toward the edge of coverage.
      const double el = std::clamp(elevation_deg, 0.0, 90.0);
      const double off = (90.0 - el) / 90.0;  // 0 at nadir, 1 at limb
      return 4.5 - 3.0 * off * off;
    }
    case AntennaType::kQuarterWaveMonopole:
      // ~2 dBi peak near 25 deg elevation, deep null at zenith.
      return monopole_pattern_db(elevation_deg, 2.0, 25.0, 12.0);
    case AntennaType::kFiveEighthsWaveMonopole:
      // ~4 dBi peak near 16 deg elevation, steeper zenith null.
      return monopole_pattern_db(elevation_deg, 4.0, 16.0, 15.0);
  }
  throw std::invalid_argument("antenna_gain_dbi: unknown antenna type");
}

}  // namespace sinet::channel
