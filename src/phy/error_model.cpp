#include "phy/error_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sinet::phy {

namespace {

/// The FEC's share of symbol errors absorbed at coding rate `cr`: as the
/// PER curve computes it.
double absorbed_fraction(double fec_strength, CodingRate cr) {
  const double redundancy =
      static_cast<double>(static_cast<int>(cr)) / 4.0;  // 0.25..1
  return fec_strength * redundancy;
}

}  // namespace

ErrorModel::ErrorModel(const ErrorModelConfig& cfg) : cfg_(cfg) {
  // Written so that NaN fails every check.
  if (!(cfg.ser_at_threshold > 0.0 && cfg.ser_at_threshold < 1.0))
    throw std::invalid_argument("ErrorModel: ser_at_threshold out of (0,1)");
  if (!(cfg.slope_per_db > 0.0 && std::isfinite(cfg.slope_per_db)))
    throw std::invalid_argument("ErrorModel: slope not finite and > 0");
  if (!(cfg.residual_per >= 0.0 && cfg.residual_per < 1.0))
    throw std::invalid_argument("ErrorModel: residual_per out of [0,1)");
  if (!(cfg.fec_strength >= 0.0 && cfg.fec_strength <= 1.0))
    throw std::invalid_argument("ErrorModel: fec_strength out of [0,1]");

  // The curve returns 1 - (1 - residual_per) * p_ok, and that rounds to
  // exactly 1 once the product is at most 2^-54. The product is 2^-55 at
  // an n-symbol SER s* = -expm1((-55 ln 2 - log1p(-residual_per)) / n),
  // and the SER, min(ser_at_threshold * e^(-slope * margin), 1) * (1 - a)
  // with a the FEC's share, reaches s* at the margin
  // (ln ser_at_threshold + ln(1 - a) - ln s*) / slope. Below that margin
  // the exact product is under 2^-55; the factor of 2 left to 2^-54 dwarfs
  // the rounding of the curve's few operations and of this derivation,
  // and 0.01 dB is taken off besides. When s* >= 1 - a the SER saturates
  // before reaching s* and the curve never returns 1. From two symbols on,
  // 1 - s* is at least 2^-28, far above the SER's rounding; a one-symbol
  // packet would need 1 - s* near 2^-55, below it, so it gets no margin.
  constexpr double kBelowDb = 0.01;
  const double log_budget =
      -55.0 * std::log(2.0) - std::log1p(-cfg.residual_per);
  saturation_db_.assign(4 * kTabulatedSymbols,
                        -std::numeric_limits<double>::infinity());
  for (int row = 0; row < 4; ++row) {
    const double keep =
        1.0 - absorbed_fraction(cfg.fec_strength,
                                static_cast<CodingRate>(row + 1));
    const double log_ser_keep =
        std::log(cfg.ser_at_threshold) + std::log(keep);
    for (int n = 2; n < kTabulatedSymbols; ++n) {
      const double s_star = -std::expm1(log_budget / n);
      if (s_star < keep)
        saturation_db_[row * kTabulatedSymbols + n] =
            (log_ser_keep - std::log(s_star)) / cfg.slope_per_db - kBelowDb;
    }
  }
}

double ErrorModel::packet_error_probability(double snr_db,
                                            const LoraParams& params,
                                            int payload_bytes) const {
  PreparedReception rx;  // no Doppler penalty
  rx.threshold_db = demod_snr_threshold_db(params.sf);
  rx.cr = params.cr;
  rx.symbols =
      params.preamble_symbols + payload_symbol_count(params, payload_bytes);
  return reception_error_probability(snr_db, rx);
}

double ErrorModel::per_curve(double margin_db, CodingRate cr,
                             int symbols) const {
  // Symbol error rate decays exponentially with margin; saturates at 1.
  double ser =
      cfg_.ser_at_threshold * std::exp(-cfg_.slope_per_db * margin_db);
  ser = std::min(ser, 1.0);

  // FEC absorbs part of the symbol errors, proportional to redundancy.
  ser *= (1.0 - absorbed_fraction(cfg_.fec_strength, cr));

  const double p_ok = std::pow(1.0 - std::min(ser, 1.0), symbols);
  const double per = 1.0 - (1.0 - cfg_.residual_per) * p_ok;
  return std::clamp(per, cfg_.residual_per, 1.0);
}

double ErrorModel::certain_loss_below_db(
    const PreparedLink& link, const PreparedReception& rx) const noexcept {
  // The fade bound is within 1e-12 dB of the computed fade, and every sum
  // here and in saturated() stays under ~6,000 dB in magnitude, so each
  // of their dozen roundings is under 1e-12 dB: 1e-6 dB dwarfs them all.
  constexpr double kMarginDb = 1e-6;
  const double sigma = link.fade.shadowing_sigma_db;
  const double margin = saturation_margin_db(rx.cr, rx.symbols);
  const bool covered =
      sigma >= 0.0 && sigma <= 100.0 &&
      std::abs(margin) <= kCertifiedRangeDb &&
      std::abs(rx.threshold_db) <= kCertifiedRangeDb &&
      std::abs(rx.doppler_penalty_db) <= kCertifiedRangeDb &&
      std::abs(link.mean.snr_db) <= kCertifiedRangeDb;
  if (!covered) return -std::numeric_limits<double>::infinity();
  return margin + rx.threshold_db + rx.doppler_penalty_db -
         link.mean.snr_db - kMarginDb;
}

std::optional<LinkState> ErrorModel::draw_unless_lost(
    const PreparedLink& link, double loss_below_db,
    const sinet::channel::FadeUniforms& u, sinet::sim::Rng& rng) {
  using sinet::channel::FadingModel;
  if (FadingModel::fade_bound_db(link.fade, u) < loss_below_db) {
    rng.next_u64();  // receive()'s chance(1.0)
    return std::nullopt;
  }
  return faded_state(link, FadingModel::fade_db(link.fade, u));
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
