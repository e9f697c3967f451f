// Packet error probability for LoRa receptions.
//
// Abstraction level: the paper observes packet-level outcomes (beacon
// received / lost), so we model the demodulator as an SNR-margin waterfall
// calibrated to the Semtech quasi-error-free thresholds: at threshold the
// PER is ~10%, each dB of margin divides the symbol error rate roughly by
// e^1.9, and longer packets (more symbols) are proportionally more likely
// to contain an uncorrectable error. Doppler contributes an SNR penalty
// computed by phy/doppler.h.
#pragma once

#include "phy/doppler.h"
#include "phy/link_budget.h"
#include "phy/lora.h"
#include "sim/rng.h"

namespace sinet::phy {

struct ErrorModelConfig {
  /// Symbol error rate at exactly the demod SNR threshold.
  double ser_at_threshold = 2e-3;
  /// Exponential slope of SER vs margin (per dB).
  double slope_per_db = 1.9;
  /// Floor on PER from non-SNR effects (interference bursts, sync loss).
  double residual_per = 2e-3;
  /// Coding-rate correction capability: fraction of symbol errors the FEC
  /// absorbs at CR 4/8 (scaled linearly down to 0 at CR 4/5-equivalent).
  double fec_strength = 0.5;
};

/// Everything of a reception decision fixed by (Doppler profile, LoRa
/// parameters, payload size): what the PER curve needs besides the SNR.
/// Prepared once per link; a decision is then the PER curve's exp/pow and
/// one Bernoulli draw.
struct PreparedReception {
  double time_on_air_s = 0.0;
  int symbols = 0;  ///< preamble + payload symbols
  double threshold_db = 0.0;  ///< demod SNR threshold of the SF
  double doppler_penalty_db = 0.0;
  CodingRate cr = CodingRate::k4_5;
};

class ErrorModel {
 public:
  explicit ErrorModel(const ErrorModelConfig& cfg = {});

  /// Probability that a packet of `payload_bytes` is lost at the given
  /// post-Doppler SNR. Deterministic; in [residual_per, 1].
  [[nodiscard]] double packet_error_probability(double snr_db,
                                                const LoraParams& params,
                                                int payload_bytes) const;

  /// Full reception decision: applies Doppler penalty then draws a
  /// Bernoulli outcome. Returns true when the packet is received.
  [[nodiscard]] bool receive(const LinkState& link, const LoraParams& params,
                             int payload_bytes, sinet::sim::Rng& rng) const {
    return receive(link.snr_db, prepare(link.doppler, params, payload_bytes),
                   rng);
  }

  /// Reception of a `payload_bytes` packet under Doppler `doppler`.
  /// Throws std::invalid_argument for payload outside [0, 255].
  [[nodiscard]] PreparedReception prepare(const DopplerProfile& doppler,
                                          const LoraParams& params,
                                          int payload_bytes) const;

  /// Loss probability of a prepared reception at pre-Doppler SNR
  /// `snr_db`: the Doppler penalty, then the PER curve.
  [[nodiscard]] double reception_error_probability(
      double snr_db, const PreparedReception& rx) const {
    return per_curve(snr_db - rx.doppler_penalty_db, rx.threshold_db, rx.cr,
                     rx.symbols);
  }

  /// Reception decision at pre-Doppler SNR `snr_db`; same draw and
  /// outcome as receive(link, params, payload_bytes, rng).
  [[nodiscard]] bool receive(double snr_db, const PreparedReception& rx,
                             sinet::sim::Rng& rng) const {
    return !rng.chance(reception_error_probability(snr_db, rx));
  }

  [[nodiscard]] const ErrorModelConfig& config() const noexcept {
    return cfg_;
  }

 private:
  /// The PER curve at post-Doppler SNR `snr_db` for a packet of
  /// `symbols` symbols.
  [[nodiscard]] double per_curve(double snr_db, double threshold_db,
                                 CodingRate cr, int symbols) const;

  ErrorModelConfig cfg_;
};

}  // namespace sinet::phy
