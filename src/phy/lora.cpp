#include "phy/lora.h"

#include <cmath>
#include <stdexcept>


namespace sinet::phy {

bool LoraParams::low_data_rate_optimize() const noexcept {
  return symbol_time_s() > 16e-3;
}

double LoraParams::symbol_time_s() const noexcept {
  return std::ldexp(1.0, static_cast<int>(sf)) / bandwidth_hz;
}

double LoraParams::bin_width_hz() const noexcept {
  return bandwidth_hz / std::ldexp(1.0, static_cast<int>(sf));
}

int payload_symbol_count(const LoraParams& p, int payload_bytes) {
  if (payload_bytes < 0 || payload_bytes > 255)
    throw std::invalid_argument("payload_symbol_count: payload out of 0..255");
  const int sf = static_cast<int>(p.sf);
  const int de = p.low_data_rate_optimize() ? 1 : 0;
  const int ih = p.explicit_header ? 0 : 1;
  const int crc = p.crc_on ? 1 : 0;
  const int cr = static_cast<int>(p.cr);
  const double num = 8.0 * payload_bytes - 4.0 * sf + 28.0 + 16.0 * crc -
                     20.0 * ih;
  const double den = 4.0 * (sf - 2 * de);
  const double ceil_term = std::max(std::ceil(num / den), 0.0);
  return 8 + static_cast<int>(ceil_term * (cr + 4));
}

double time_on_air_s(const LoraParams& p, int payload_bytes) {
  if (p.bandwidth_hz <= 0.0)
    throw std::invalid_argument("time_on_air_s: bandwidth <= 0");
  if (p.preamble_symbols < 0)
    throw std::invalid_argument("time_on_air_s: negative preamble");
  const double t_sym = p.symbol_time_s();
  const double t_preamble = (p.preamble_symbols + 4.25) * t_sym;
  const double t_payload = payload_symbol_count(p, payload_bytes) * t_sym;
  return t_preamble + t_payload;
}

double demod_snr_threshold_db(SpreadingFactor sf) {
  switch (sf) {
    case SpreadingFactor::kSf7:
      return -7.5;
    case SpreadingFactor::kSf8:
      return -10.0;
    case SpreadingFactor::kSf9:
      return -12.5;
    case SpreadingFactor::kSf10:
      return -15.0;
    case SpreadingFactor::kSf11:
      return -17.5;
    case SpreadingFactor::kSf12:
      return -20.0;
  }
  throw std::invalid_argument("demod_snr_threshold_db: unknown SF");
}

SpreadingFactor choose_spreading_factor(double estimated_snr_db,
                                        double safety_margin_db) {
  for (const SpreadingFactor sf :
       {SpreadingFactor::kSf7, SpreadingFactor::kSf8, SpreadingFactor::kSf9,
        SpreadingFactor::kSf10, SpreadingFactor::kSf11}) {
    if (estimated_snr_db - safety_margin_db >= demod_snr_threshold_db(sf))
      return sf;
  }
  return SpreadingFactor::kSf12;
}

LoraParams default_dts_params() {
  LoraParams p;
  p.sf = SpreadingFactor::kSf10;
  p.bandwidth_hz = 125e3;
  p.cr = CodingRate::k4_5;
  p.preamble_symbols = 8;
  return p;
}

}  // namespace sinet::phy
