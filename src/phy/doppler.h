// Doppler impairment model for LoRa over LEO DtS links.
//
// A LEO satellite at ~500 km moves at ~7.6 km/s, inducing a carrier
// offset of up to ~|v|/c * fc (~11 kHz at 433 MHz) and, near closest
// approach, a Doppler *rate* of hundreds of Hz/s. LoRa tolerates a static
// offset of roughly +/-25% of its bandwidth, but intra-packet frequency
// drift smears energy across demodulator bins and degrades high spreading
// factors whose packets last seconds (paper Appendix C, cause 2).
#pragma once

#include "phy/lora.h"

namespace sinet::phy {

struct DopplerProfile {
  double shift_hz = 0.0;      ///< carrier offset at packet start
  double rate_hz_per_s = 0.0; ///< d(shift)/dt during the packet
};

/// Effective SNR penalty (dB) a packet suffers from Doppler.
///
/// - static offset within 25% of BW: graceful quadratic penalty (<= ~3 dB)
/// - static offset beyond 25% of BW: packet unreceivable (large penalty)
/// - drift across the packet measured in demodulator bins: ~1 dB per bin
///   drifted beyond the first half-bin.
[[nodiscard]] double doppler_snr_penalty_db(const DopplerProfile& prof,
                                            const LoraParams& params,
                                            double packet_duration_s);

}  // namespace sinet::phy
