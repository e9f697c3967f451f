#include "phy/nbiot.h"

#include <cmath>
#include <stdexcept>


namespace sinet::phy {

namespace {
void validate(const NbIotParams& p) {
  if (p.subcarrier_hz <= 0.0 || p.base_rate_bps <= 0.0)
    throw std::invalid_argument("NbIotParams: nonpositive rate/bandwidth");
  if (p.repetitions < 1 || p.repetitions > 128)
    throw std::invalid_argument("NbIotParams: repetitions out of 1..128");
}
}  // namespace

double nbiot_transmission_time_s(const NbIotParams& p, int payload_bytes) {
  validate(p);
  if (payload_bytes <= 0 || payload_bytes > 1600)
    throw std::invalid_argument("nbiot_transmission_time_s: bad payload");
  // Transport-block payload plus MAC/RLC/PDCP overhead (~9 bytes).
  const double bits = (payload_bytes + 9) * 8.0;
  const double data_time =
      bits / p.base_rate_bps * static_cast<double>(p.repetitions);
  return data_time + p.signalling_overhead_s;
}

double nbiot_required_snr_db(int repetitions) {
  if (repetitions < 1 || repetitions > 128)
    throw std::invalid_argument("nbiot_required_snr_db: bad repetitions");
  // +5 dB baseline for single-shot QPSK NPUSCH at the modeled rate,
  // 2.5 dB per doubling of repetitions (sub-coherent combining loss
  // relative to the ideal 3 dB). At 128 repetitions this reproduces the
  // 3GPP 164 dB MCL design point.
  return 5.0 - 2.5 * std::log2(static_cast<double>(repetitions));
}

double nbiot_tx_energy_mj(const NbIotParams& p, int payload_bytes,
                          double tx_draw_mw) {
  if (tx_draw_mw <= 0.0)
    throw std::invalid_argument("nbiot_tx_energy_mj: nonpositive draw");
  return tx_draw_mw * nbiot_transmission_time_s(p, payload_bytes);
}

int nbiot_choose_repetitions(double snr_db) {
  for (int r = 1; r <= 128; r *= 2)
    if (snr_db >= nbiot_required_snr_db(r)) return r;
  return 0;
}

}  // namespace sinet::phy
