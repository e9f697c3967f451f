#include "phy/error_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sinet::phy {

ErrorModel::ErrorModel(const ErrorModelConfig& cfg) : cfg_(cfg) {
  if (cfg.ser_at_threshold <= 0.0 || cfg.ser_at_threshold >= 1.0)
    throw std::invalid_argument("ErrorModel: ser_at_threshold out of (0,1)");
  if (cfg.slope_per_db <= 0.0)
    throw std::invalid_argument("ErrorModel: nonpositive slope");
  if (cfg.residual_per < 0.0 || cfg.residual_per >= 1.0)
    throw std::invalid_argument("ErrorModel: residual_per out of [0,1)");
}

double ErrorModel::packet_error_probability(double snr_db,
                                            const LoraParams& params,
                                            int payload_bytes) const {
  return per_curve(
      snr_db, demod_snr_threshold_db(params.sf), params.cr,
      params.preamble_symbols + payload_symbol_count(params, payload_bytes));
}

double ErrorModel::per_curve(double snr_db, double threshold_db,
                             CodingRate cr, int symbols) const {
  const double margin = snr_db - threshold_db;
  // Symbol error rate decays exponentially with margin; saturates at 1.
  double ser =
      cfg_.ser_at_threshold * std::exp(-cfg_.slope_per_db * margin);
  ser = std::min(ser, 1.0);

  // FEC absorbs part of the symbol errors, proportional to redundancy.
  const double redundancy =
      static_cast<double>(static_cast<int>(cr)) / 4.0;  // 0.25..1
  const double absorbed = cfg_.fec_strength * redundancy;
  ser *= (1.0 - absorbed);

  const double p_ok = std::pow(1.0 - std::min(ser, 1.0), symbols);
  const double per = 1.0 - (1.0 - cfg_.residual_per) * p_ok;
  return std::clamp(per, cfg_.residual_per, 1.0);
}

PreparedReception ErrorModel::prepare(const DopplerProfile& doppler,
                                      const LoraParams& params,
                                      int payload_bytes) const {
  PreparedReception rx;
  rx.time_on_air_s = time_on_air_s(params, payload_bytes);
  rx.doppler_penalty_db =
      doppler_snr_penalty_db(doppler, params, rx.time_on_air_s);
  rx.threshold_db = demod_snr_threshold_db(params.sf);
  rx.cr = params.cr;
  rx.symbols =
      params.preamble_symbols + payload_symbol_count(params, payload_bytes);
  return rx;
}

}  // namespace sinet::phy
