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

#include <limits>
#include <optional>
#include <vector>

#include "phy/doppler.h"
#include "phy/link_budget.h"
#include "phy/lora.h"
#include "sim/rng.h"

namespace sinet::phy {

/// Every field must be finite; ErrorModel's constructor checks the ranges.
struct ErrorModelConfig {
  /// Symbol error rate at exactly the demod SNR threshold.
  double ser_at_threshold = 2e-3;
  /// Exponential slope of SER vs margin (per dB).
  double slope_per_db = 1.9;
  /// Floor on PER from non-SNR effects (interference bursts, sync loss).
  double residual_per = 2e-3;
  /// Coding-rate correction capability in [0, 1]: fraction of symbol
  /// errors the FEC absorbs at CR 4/8 (a quarter of it per CR step).
  double fec_strength = 0.5;
};

/// Everything of a reception decision fixed by (Doppler profile, LoRa
/// parameters, payload size): what the PER curve needs besides the SNR.
/// Prepared once per link; a decision is then one Bernoulli draw against
/// the PER curve, whose exp/pow run only above the saturation margin
/// (ErrorModel::saturation_margin_db).
struct PreparedReception {
  double time_on_air_s = 0.0;
  int symbols = 0;  ///< preamble + payload symbols
  double threshold_db = 0.0;  ///< demod SNR threshold of the SF
  double doppler_penalty_db = 0.0;
  CodingRate cr = CodingRate::k4_5;
};

class ErrorModel {
 public:
  /// Symbol counts below this have a tabulated saturation margin: every
  /// 255-byte packet at any SF and coding rate with a preamble of up to
  /// 423 symbols.
  static constexpr int kTabulatedSymbols = 1024;

  /// Throws std::invalid_argument unless ser_at_threshold is in (0, 1),
  /// slope_per_db is finite and > 0, residual_per is in [0, 1) and
  /// fec_strength is in [0, 1].
  explicit ErrorModel(const ErrorModelConfig& cfg = {});

  /// Probability that a packet of `payload_bytes` is lost at the given
  /// post-Doppler SNR. Deterministic; in [residual_per, 1].
  [[nodiscard]] double packet_error_probability(double snr_db,
                                                const LoraParams& params,
                                                int payload_bytes) const;

  /// Reception of a `payload_bytes` packet under Doppler `doppler`.
  /// Throws std::invalid_argument for payload outside [0, 255].
  [[nodiscard]] PreparedReception prepare(const DopplerProfile& doppler,
                                          const LoraParams& params,
                                          int payload_bytes) const;

  /// Loss probability of a prepared reception at pre-Doppler SNR
  /// `snr_db`: the Doppler penalty, then the PER curve.
  [[nodiscard]] double reception_error_probability(
      double snr_db, const PreparedReception& rx) const {
    // Exactly 1 there (see the constructor): skip the exp and pow, and
    // the call.
    if (saturated(snr_db, rx)) return 1.0;
    return per_curve((snr_db - rx.doppler_penalty_db) - rx.threshold_db,
                     rx.cr, rx.symbols);
  }

  /// Reception decision at pre-Doppler SNR `snr_db`: one Bernoulli draw
  /// (one raw word) at reception_error_probability. Returns true when the
  /// packet is received.
  [[nodiscard]] bool receive(double snr_db, const PreparedReception& rx,
                             sinet::sim::Rng& rng) const {
    return !rng.chance(reception_error_probability(snr_db, rx));
  }

  [[nodiscard]] const ErrorModelConfig& config() const noexcept {
    return cfg_;
  }

  /// The margin over the demod threshold (dB) below which the PER curve
  /// of a `symbols`-symbol packet at coding rate `cr` is exactly 1, so it
  /// is returned without evaluating the curve. -infinity when the curve
  /// never reaches 1, and for fewer than 2 or untabulated symbol counts.
  [[nodiscard]] double saturation_margin_db(CodingRate cr,
                                            int symbols) const noexcept {
    const auto row = static_cast<unsigned>(static_cast<int>(cr) - 1);
    if (row >= 4 || static_cast<unsigned>(symbols) >= kTabulatedSymbols)
      return -std::numeric_limits<double>::infinity();
    return saturation_db_[row * kTabulatedSymbols + symbols];
  }

  /// The magnitude (dB) within which certain_loss_below_db certifies its
  /// four terms.
  static constexpr double kCertifiedRangeDb = 1000.0;

  /// The fade (dB) below which a decode at `rx` on `link` is lost for
  /// certain: saturation margin + threshold + Doppler penalty - mean SNR,
  /// less a 1e-6 dB margin. -infinity, so that no decode is certified,
  /// unless the link's shadowing sigma lies in [0, 100] dB and the four
  /// terms within +-kCertifiedRangeDb, where the rounding of the fade and
  /// of these sums stays far below the margin; NaN fails both.
  [[nodiscard]] double certain_loss_below_db(
      const PreparedLink& link, const PreparedReception& rx) const noexcept;

  /// Settles or draws the fade of a decode whose fade feeds nothing but
  /// its own outcome, from the fade's uniforms `u`, already drawn from
  /// `rng` (FadingModel::draw_uniforms). When the bound on the fade
  /// (FadingModel::fade_bound_db of `u`) lies below `loss_below_db`, from
  /// certain_loss_below_db(link, rx), the decode is saturated whatever
  /// the quantiles: this consumes the one uniform receive() draws for it
  /// and returns nullopt, a lost decode. Otherwise it returns
  /// draw_link_state(link, rng)'s state, bit for bit, for the caller's
  /// receive(). Either way the stream advances as draw_link_state and
  /// receive advance it.
  [[nodiscard]] static std::optional<LinkState> draw_unless_lost(
      const PreparedLink& link, double loss_below_db,
      const sinet::channel::FadeUniforms& u, sinet::sim::Rng& rng);

  /// True when a prepared reception at pre-Doppler SNR `snr_db` is lost
  /// for certain: its margin after the Doppler penalty, (snr_db -
  /// penalty) - threshold, is below saturation_margin_db, where the PER
  /// curve is exactly 1. receive() still consumes its one draw. A larger
  /// penalty only lowers the margin, so a reception saturated under part
  /// of its penalty is saturated under all of it.
  [[nodiscard]] bool saturated(double snr_db,
                               const PreparedReception& rx) const noexcept {
    return (snr_db - rx.doppler_penalty_db) - rx.threshold_db <
           saturation_margin_db(rx.cr, rx.symbols);
  }

 private:
  /// The PER curve at `margin_db` over the demod threshold, above the
  /// saturation margin.
  [[nodiscard]] double per_curve(double margin_db, CodingRate cr,
                                 int symbols) const;

  ErrorModelConfig cfg_;
  /// saturation_margin_db per (coding rate, symbol count), row-major.
  std::vector<double> saturation_db_;
};

}  // namespace sinet::phy
