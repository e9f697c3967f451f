#include "phy/doppler.h"

#include <cmath>
#include <stdexcept>

namespace sinet::phy {

double doppler_snr_penalty_db(const DopplerProfile& prof,
                              const LoraParams& params,
                              double packet_duration_s) {
  if (packet_duration_s < 0.0)
    throw std::invalid_argument("doppler_snr_penalty_db: negative duration");

  const double offset = std::abs(prof.shift_hz);
  const double tolerance = 0.25 * params.bandwidth_hz;
  if (offset > tolerance) return 60.0;  // out of capture range: lost

  // Quadratic penalty up to 3 dB at the edge of the capture range.
  const double frac = offset / tolerance;
  double penalty = 3.0 * frac * frac;

  // Intra-packet drift in units of demodulator bins.
  const double drift_hz = std::abs(prof.rate_hz_per_s) * packet_duration_s;
  const double bins = drift_hz / params.bin_width_hz();
  if (bins > 0.5) penalty += 1.0 * (bins - 0.5);

  return penalty;
}

}  // namespace sinet::phy
