// LoRa physical-layer parameters: spreading factors, time-on-air,
// demodulation thresholds and receiver sensitivity.
//
// Satellite IoT DtS links in the paper use plain terrestrial LoRa in the
// 400-450 MHz band; one transmission lasts hundreds to thousands of ms
// (paper Sec 1). These are the standard Semtech SX126x formulas.
#pragma once

#include <cstdint>

namespace sinet::phy {

enum class SpreadingFactor : int {
  kSf7 = 7,
  kSf8 = 8,
  kSf9 = 9,
  kSf10 = 10,
  kSf11 = 11,
  kSf12 = 12,
};

/// Coding rate 4/(4+cr), cr in 1..4.
enum class CodingRate : int { k4_5 = 1, k4_6 = 2, k4_7 = 3, k4_8 = 4 };

struct LoraParams {
  SpreadingFactor sf = SpreadingFactor::kSf10;
  double bandwidth_hz = 125e3;
  CodingRate cr = CodingRate::k4_5;
  int preamble_symbols = 8;
  bool explicit_header = true;
  bool crc_on = true;

  /// Low-data-rate optimization mandated when symbol time > 16 ms.
  [[nodiscard]] bool low_data_rate_optimize() const noexcept;
  /// Duration of one LoRa symbol, seconds: 2^SF / BW.
  [[nodiscard]] double symbol_time_s() const noexcept;
  /// Frequency width of one demodulator bin, Hz: BW / 2^SF.
  [[nodiscard]] double bin_width_hz() const noexcept;
};

/// Number of payload symbols for `payload_bytes` (Semtech SX126x formula).
[[nodiscard]] int payload_symbol_count(const LoraParams& p, int payload_bytes);

/// Total on-air time (s) of a packet with `payload_bytes` of payload.
/// Throws std::invalid_argument for payload outside [0, 255].
[[nodiscard]] double time_on_air_s(const LoraParams& p, int payload_bytes);

/// Minimum SNR (dB) at which the demodulator achieves its quasi-error-free
/// operating point (Semtech datasheet values: -7.5 dB @ SF7 ... -20 @ SF12).
[[nodiscard]] double demod_snr_threshold_db(SpreadingFactor sf);

/// Beacon/uplink radio profile used by the measured constellations:
/// SF10 / 125 kHz / CR 4/5 (typical TinyGS-compatible configuration).
[[nodiscard]] LoraParams default_dts_params();

/// Adaptive data-rate: smallest (fastest) spreading factor whose demod
/// threshold still leaves `safety_margin_db` of headroom at the
/// estimated SNR; falls back to SF12 when even it is marginal.
[[nodiscard]] SpreadingFactor choose_spreading_factor(
    double estimated_snr_db, double safety_margin_db = 3.0);

}  // namespace sinet::phy
