// LoRa PHY: time-on-air, thresholds, sensitivity, error model, Doppler,
// link budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "channel/fading.h"
#include "channel/noise.h"
#include "channel/weather.h"
#include "phy/doppler.h"
#include "phy/error_model.h"
#include "phy/link_budget.h"
#include "orbit/constellation.h"
#include "phy/lora.h"
#include "sim/rng.h"
#include "decode_oracle.h"

namespace {

using namespace sinet::phy;

TEST(Lora, SymbolTimeAndBins) {
  LoraParams p;
  p.sf = SpreadingFactor::kSf10;
  p.bandwidth_hz = 125e3;
  EXPECT_NEAR(p.symbol_time_s(), 1024.0 / 125000.0, 1e-12);
  EXPECT_NEAR(p.bin_width_hz(), 125000.0 / 1024.0, 1e-9);
  EXPECT_FALSE(p.low_data_rate_optimize());  // 8.2 ms < 16 ms
  p.sf = SpreadingFactor::kSf12;
  EXPECT_TRUE(p.low_data_rate_optimize());  // 32.8 ms > 16 ms
}

TEST(Lora, TimeOnAirKnownValues) {
  // Cross-checked against the Semtech SX126x calculator.
  LoraParams p;
  p.sf = SpreadingFactor::kSf7;
  p.bandwidth_hz = 125e3;
  p.cr = CodingRate::k4_5;
  // SF7/125k, 20-byte payload, 8-symbol preamble, explicit header + CRC:
  // preamble 12.25 sym, payload 8 + ceil(176/28)*5 = 43 sym -> 56.6 ms
  // (Semtech SX126x calculator).
  EXPECT_NEAR(time_on_air_s(p, 20), 0.0566, 0.001);

  p.sf = SpreadingFactor::kSf10;
  // SF10: payload symbols 8 + ceil(164/40)*5 = 33; total 45.25 sym
  // of 8.192 ms = 370.7 ms.
  EXPECT_NEAR(time_on_air_s(p, 20), 0.3707, 0.002);

  p.sf = SpreadingFactor::kSf12;
  // SF12 with LDRO: 8 + ceil(132/40)*5 = 28; total 40.25 sym x 32.768 ms
  // = 1.319 s — the "hundreds to thousands of ms" of paper Sec 1.
  EXPECT_NEAR(time_on_air_s(p, 20), 1.319, 0.01);
}

TEST(Lora, ToaMonotonicInPayloadAndSf) {
  LoraParams p;
  for (const auto sf : {SpreadingFactor::kSf7, SpreadingFactor::kSf9,
                        SpreadingFactor::kSf11}) {
    p.sf = sf;
    double prev = 0.0;
    for (int bytes = 0; bytes <= 240; bytes += 20) {
      const double t = time_on_air_s(p, bytes);
      EXPECT_GE(t, prev);
      prev = t;
    }
  }
  LoraParams a, b;
  a.sf = SpreadingFactor::kSf8;
  b.sf = SpreadingFactor::kSf9;
  EXPECT_LT(time_on_air_s(a, 50), time_on_air_s(b, 50));
}

TEST(Lora, PayloadBoundsChecked) {
  LoraParams p;
  EXPECT_THROW(time_on_air_s(p, -1), std::invalid_argument);
  EXPECT_THROW(time_on_air_s(p, 256), std::invalid_argument);
  EXPECT_NO_THROW(time_on_air_s(p, 0));
  EXPECT_NO_THROW(time_on_air_s(p, 255));
  for (const double bw : {0.0, -125e3, std::nan("")}) {
    LoraParams bad;
    bad.bandwidth_hz = bw;
    EXPECT_THROW(time_on_air_s(bad, 10), std::invalid_argument) << bw;
  }
}

TEST(Lora, DemodThresholdsMatchDatasheet) {
  EXPECT_DOUBLE_EQ(demod_snr_threshold_db(SpreadingFactor::kSf7), -7.5);
  EXPECT_DOUBLE_EQ(demod_snr_threshold_db(SpreadingFactor::kSf10), -15.0);
  EXPECT_DOUBLE_EQ(demod_snr_threshold_db(SpreadingFactor::kSf12), -20.0);
}

TEST(Lora, SensitivityMatchesDatasheetBallpark) {
  LoraParams p;
  p.sf = SpreadingFactor::kSf12;
  p.bandwidth_hz = 125e3;
  // Sensitivity = noise floor (NF 6 dB) + demod threshold. SX1262
  // datasheet: about -137 dBm at SF12/125 kHz.
  const auto sensitivity_dbm = [](const LoraParams& lp) {
    return sinet::channel::noise_floor_dbm(lp.bandwidth_hz, 6.0, 0.0) +
           demod_snr_threshold_db(lp.sf);
  };
  EXPECT_NEAR(sensitivity_dbm(p), -137.0, 1.5);
  p.sf = SpreadingFactor::kSf7;
  EXPECT_NEAR(sensitivity_dbm(p), -124.5, 1.5);
}

TEST(Lora, DefaultDtsProfile) {
  const LoraParams p = default_dts_params();
  EXPECT_EQ(p.sf, SpreadingFactor::kSf10);
  EXPECT_DOUBLE_EQ(p.bandwidth_hz, 125e3);
}

TEST(ErrorModel, WaterfallAroundThreshold) {
  const ErrorModel model;
  LoraParams p = default_dts_params();
  const double thr = demod_snr_threshold_db(p.sf);
  // Far above threshold: near residual floor. Far below: certain loss.
  EXPECT_LT(model.packet_error_probability(thr + 10.0, p, 20), 0.01);
  EXPECT_GT(model.packet_error_probability(thr - 6.0, p, 20), 0.99);
  // At threshold: in a "lossy but usable" band.
  const double at = model.packet_error_probability(thr, p, 20);
  EXPECT_GT(at, 0.005);
  EXPECT_LT(at, 0.5);
}

TEST(ErrorModel, MonotonicInSnr) {
  const ErrorModel model;
  const LoraParams p = default_dts_params();
  double prev = 1.1;
  for (double snr = -30.0; snr <= 10.0; snr += 0.5) {
    const double per = model.packet_error_probability(snr, p, 20);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
}

TEST(ErrorModel, LongerPacketsLoseMore) {
  const ErrorModel model;
  const LoraParams p = default_dts_params();
  const double snr = demod_snr_threshold_db(p.sf) + 1.0;
  EXPECT_LT(model.packet_error_probability(snr, p, 10),
            model.packet_error_probability(snr, p, 120));
}

TEST(ErrorModel, StrongerFecHelps) {
  const ErrorModel model;
  LoraParams weak = default_dts_params();
  weak.cr = CodingRate::k4_5;
  LoraParams strong = default_dts_params();
  strong.cr = CodingRate::k4_8;
  const double snr = demod_snr_threshold_db(weak.sf);
  EXPECT_GT(model.packet_error_probability(snr, weak, 60),
            model.packet_error_probability(snr, strong, 60));
}

TEST(ErrorModel, ConfigValidation) {
  ErrorModelConfig bad;
  bad.ser_at_threshold = 0.0;
  EXPECT_THROW(ErrorModel{bad}, std::invalid_argument);
  ErrorModelConfig bad2;
  bad2.slope_per_db = -1.0;
  EXPECT_THROW(ErrorModel{bad2}, std::invalid_argument);
  ErrorModelConfig bad3;
  bad3.residual_per = 1.0;
  EXPECT_THROW(ErrorModel{bad3}, std::invalid_argument);

  // Non-finite fields, and fec_strength outside [0, 1] (above 1 the CR 4/8
  // absorption exceeds 1 and the SER goes negative). A NaN used to pass
  // every check and make every packet decode.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double ErrorModelConfig::*field :
       {&ErrorModelConfig::ser_at_threshold, &ErrorModelConfig::slope_per_db,
        &ErrorModelConfig::residual_per, &ErrorModelConfig::fec_strength}) {
    for (const double v : {kNaN, kInf, -kInf}) {
      ErrorModelConfig c;
      c.*field = v;
      EXPECT_THROW(ErrorModel{c}, std::invalid_argument) << v;
    }
  }
  for (const double fec : {-0.01, 1.01}) {
    ErrorModelConfig c;
    c.fec_strength = fec;
    EXPECT_THROW(ErrorModel{c}, std::invalid_argument) << fec;
  }
  // The edges of each range stay valid.
  for (const double fec : {0.0, 1.0}) {
    ErrorModelConfig c;
    c.fec_strength = fec;
    EXPECT_NO_THROW(ErrorModel{c}) << fec;
  }
  ErrorModelConfig no_residual;
  no_residual.residual_per = 0.0;
  EXPECT_NO_THROW(ErrorModel{no_residual});
}

TEST(ErrorModel, ReceiveMatchesProbability) {
  const ErrorModel model;
  const LoraParams p = default_dts_params();
  LinkState link;
  link.snr_db = demod_snr_threshold_db(p.sf) + 0.5;
  link.doppler = {};
  sinet::sim::Rng rng(11);
  int received = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (model.receive(link.snr_db, model.prepare(link.doppler, p, 20), rng))
      ++received;
  const double expected =
      1.0 - model.packet_error_probability(link.snr_db, p, 20);
  EXPECT_NEAR(static_cast<double>(received) / n, expected, 0.02);
}

TEST(Doppler, PenaltySmallWithinCapture) {
  const LoraParams p = default_dts_params();
  DopplerProfile prof;
  prof.shift_hz = 10e3;  // ~ max LEO shift at 433 MHz, within 31 kHz
  prof.rate_hz_per_s = 0.0;
  const double pen = doppler_snr_penalty_db(prof, p, 0.37);
  EXPECT_GT(pen, 0.0);
  EXPECT_LT(pen, 3.0);
}

TEST(Doppler, OffsetBeyondCaptureKillsPacket) {
  const LoraParams p = default_dts_params();
  DopplerProfile prof;
  prof.shift_hz = 0.26 * p.bandwidth_hz;
  EXPECT_GE(doppler_snr_penalty_db(prof, p, 0.37), 50.0);
}

TEST(Doppler, DriftPenaltyGrowsWithPacketDuration) {
  LoraParams p = default_dts_params();
  p.sf = SpreadingFactor::kSf12;  // narrow bins, long packets
  DopplerProfile prof;
  prof.shift_hz = 0.0;
  prof.rate_hz_per_s = 150.0;  // culmination-level drift
  const double short_pen = doppler_snr_penalty_db(prof, p, 0.1);
  const double long_pen = doppler_snr_penalty_db(prof, p, 1.3);
  EXPECT_GT(long_pen, short_pen);
  EXPECT_THROW(doppler_snr_penalty_db(prof, p, -1.0), std::invalid_argument);
}

TEST(LinkBudget, MeanStateMatchesHandComputation) {
  LinkConfig cfg;
  cfg.tx_power_dbm = 22.0;
  cfg.tx_antenna = sinet::channel::AntennaType::kIsotropic;
  cfg.rx_antenna = sinet::channel::AntennaType::kIsotropic;
  cfg.carrier_hz = 400e6;
  cfg.implementation_loss_db = 1.0;
  sinet::orbit::LookAngles look;
  look.elevation_deg = 90.0;
  look.range_km = 1000.0;
  look.range_rate_km_s = 0.0;
  const LinkState st =
      mean_link_state(cfg, look, sinet::channel::Weather::kSunny);
  // FSPL(1000 km, 400 MHz) = 144.5; + zenith 0.1 + pol 3 + impl 1.
  EXPECT_NEAR(st.path_loss_db, 148.6, 0.2);
  EXPECT_NEAR(st.rssi_dbm, 22.0 - 148.6, 0.2);
  // Noise floor (125 kHz, NF 6, ext 2) = -115 dBm.
  EXPECT_NEAR(st.snr_db, st.rssi_dbm + 115.0, 0.2);
  EXPECT_NEAR(st.doppler.shift_hz, 0.0, 1e-9);
}

TEST(LinkBudget, RssiInPaperRangeForTypicalGeometry) {
  // Paper Fig 3b: received beacons land between about -140 and -110 dBm.
  LinkConfig cfg;
  cfg.tx_power_dbm = 23.0;
  cfg.carrier_hz = 400.45e6;
  for (double el : {10.0, 30.0, 60.0}) {
    sinet::orbit::LookAngles look;
    look.elevation_deg = el;
    look.range_km = sinet::orbit::slant_range_km(860.0, el);
    const LinkState st =
        mean_link_state(cfg, look, sinet::channel::Weather::kSunny);
    EXPECT_GT(st.rssi_dbm, -145.0) << "el=" << el;
    EXPECT_LT(st.rssi_dbm, -105.0) << "el=" << el;
  }
  // Directly overhead, both the whip's and the dipole's nulls align:
  // the link is *worse* at zenith than at 60 degrees despite the
  // shorter range.
  sinet::orbit::LookAngles zenith;
  zenith.elevation_deg = 90.0;
  zenith.range_km = sinet::orbit::slant_range_km(860.0, 90.0);
  sinet::orbit::LookAngles mid;
  mid.elevation_deg = 60.0;
  mid.range_km = sinet::orbit::slant_range_km(860.0, 60.0);
  EXPECT_LT(
      mean_link_state(cfg, zenith, sinet::channel::Weather::kSunny).rssi_dbm,
      mean_link_state(cfg, mid, sinet::channel::Weather::kSunny).rssi_dbm);
}

TEST(LinkBudget, DrawAddsFadingAndDopplerRate) {
  LinkConfig cfg;
  sinet::orbit::LookAngles look;
  look.elevation_deg = 45.0;
  look.range_km = 900.0;
  look.range_rate_km_s = -5.0;
  sinet::sim::Rng rng(21);
  const LinkState mean =
      mean_link_state(cfg, look, sinet::channel::Weather::kSunny);
  double diff = 0.0;
  for (int i = 0; i < 100; ++i) {
    const LinkState st = draw_link_state(
        prepare_link(cfg, look, sinet::channel::Weather::kSunny, 120.0), rng);
    diff += std::abs(st.rssi_dbm - mean.rssi_dbm);
    EXPECT_DOUBLE_EQ(st.doppler.rate_hz_per_s, 120.0);
    EXPECT_GT(st.doppler.shift_hz, 0.0);  // approaching
  }
  EXPECT_GT(diff / 100.0, 0.3);  // fading actually perturbs the draw
}

// --- prepared link budgets against the per-draw oracle ----------------

// The oracle: the per-draw link budget and reception decision written out
// in full, as they were before the prepared forms existed (the LoRa
// timing in its std::pow form). The prepared forms must reproduce it bit
// for bit and consume the same random draws.
namespace oracle {

using sinet::channel::Weather;
using sinet::sim::Rng;

double symbol_time_s(const LoraParams& p) {
  return std::pow(2.0, static_cast<double>(p.sf)) / p.bandwidth_hz;
}

double bin_width_hz(const LoraParams& p) {
  return p.bandwidth_hz / std::pow(2.0, static_cast<double>(p.sf));
}

int payload_symbol_count(const LoraParams& p, int payload_bytes) {
  const int sf = static_cast<int>(p.sf);
  const int de = symbol_time_s(p) > 16e-3 ? 1 : 0;
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
  const double t_sym = symbol_time_s(p);
  const double t_preamble = (p.preamble_symbols + 4.25) * t_sym;
  const double t_payload =
      oracle::payload_symbol_count(p, payload_bytes) * t_sym;
  return t_preamble + t_payload;
}

double doppler_snr_penalty_db(const DopplerProfile& prof,
                              const LoraParams& params,
                              double packet_duration_s) {
  const double offset = std::abs(prof.shift_hz);
  const double tolerance = 0.25 * params.bandwidth_hz;
  if (offset > tolerance) return 60.0;
  const double frac = offset / tolerance;
  double penalty = 3.0 * frac * frac;
  const double drift_hz = std::abs(prof.rate_hz_per_s) * packet_duration_s;
  const double bins = drift_hz / bin_width_hz(params);
  if (bins > 0.5) penalty += 1.0 * (bins - 0.5);
  return penalty;
}

double packet_error_probability(const ErrorModelConfig& cfg, double snr_db,
                                const LoraParams& params,
                                int payload_bytes) {
  const double margin = snr_db - demod_snr_threshold_db(params.sf);
  double ser = cfg.ser_at_threshold * std::exp(-cfg.slope_per_db * margin);
  ser = std::min(ser, 1.0);
  const double redundancy =
      static_cast<double>(static_cast<int>(params.cr)) / 4.0;
  const double absorbed = cfg.fec_strength * redundancy;
  ser *= (1.0 - absorbed);
  const int n_sym =
      params.preamble_symbols +
      oracle::payload_symbol_count(params, payload_bytes);
  const double p_ok = std::pow(1.0 - std::min(ser, 1.0), n_sym);
  const double per = 1.0 - (1.0 - cfg.residual_per) * p_ok;
  return std::clamp(per, cfg.residual_per, 1.0);
}

double loss_probability(const ErrorModelConfig& cfg, const LinkState& link,
                        const LoraParams& params, int payload_bytes) {
  const double toa = oracle::time_on_air_s(params, payload_bytes);
  const double penalty =
      oracle::doppler_snr_penalty_db(link.doppler, params, toa);
  return packet_error_probability(cfg, link.snr_db - penalty, params,
                                  payload_bytes);
}

bool receive(const ErrorModelConfig& cfg, const LinkState& link,
             const LoraParams& params, int payload_bytes, Rng& rng) {
  return !rng.chance(
      loss_probability(cfg, link, params, payload_bytes));
}

double fade_db(const sinet::channel::FadingConfig& cfg, Rng& rng,
               double elevation_deg, Weather w) {
  const double sigma =
      cfg.shadowing_sigma_db + sinet::channel::weather_extra_shadowing_db(w);
  const double shadowing = rng.normal(0.0, sigma);
  const double k_db =
      sinet::channel::FadingModel(cfg).k_factor_db(elevation_deg);
  const double k = std::pow(10.0, k_db / 10.0);
  const double los = std::sqrt(k / (k + 1.0));
  const double s = std::sqrt(1.0 / (2.0 * (k + 1.0)));
  const double x = los + s * rng.normal();
  const double y = s * rng.normal();
  const double amp = std::sqrt(x * x + y * y);
  const double small_scale_db = 20.0 * std::log10(std::max(amp, 1e-6));
  return shadowing + small_scale_db;
}

LinkState draw_link_state(const LinkConfig& cfg,
                          const sinet::orbit::LookAngles& look, Weather w,
                          double doppler_rate_hz_s, Rng& rng) {
  LinkState st = mean_link_state(cfg, look, w);
  const double fade = fade_db(cfg.fading, rng, look.elevation_deg, w);
  st.rssi_dbm += fade;
  st.snr_db += fade;
  st.doppler.rate_hz_per_s = doppler_rate_hz_s;
  return st;
}

}  // namespace oracle

/// One randomized link: every antenna pair and weather, SF7-12 over the
/// LoRa bandwidths, payloads 0-255, elevations from below the horizon
/// through the 20-degree K-factor knee to zenith, and Doppler shifts
/// from zero to beyond the capture range.
struct LinkCase {
  LinkConfig cfg;
  sinet::orbit::LookAngles look;
  sinet::channel::Weather weather = sinet::channel::Weather::kSunny;
  double doppler_rate_hz_s = 0.0;
  int payload_bytes = 0;
  std::uint64_t seed = 0;
};

std::vector<LinkCase> link_corpus(std::size_t count) {
  using sinet::channel::AntennaType;
  constexpr std::array kAntennas{
      AntennaType::kQuarterWaveMonopole, AntennaType::kFiveEighthsWaveMonopole,
      AntennaType::kDipole, AntennaType::kSatelliteTurnstile,
      AntennaType::kIsotropic};
  constexpr std::array kWeather{sinet::channel::Weather::kSunny,
                                sinet::channel::Weather::kCloudy,
                                sinet::channel::Weather::kRainy};
  constexpr std::array kBandwidths{7.8e3,  10.4e3, 15.6e3, 20.8e3, 31.25e3,
                                   41.7e3, 62.5e3, 125e3,  250e3,  500e3};
  sinet::sim::Rng knobs(20240611);
  const auto pick = [&knobs](std::size_t n) {
    return static_cast<std::size_t>(
        knobs.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<LinkCase> corpus(count);
  for (std::size_t i = 0; i < count; ++i) {
    LinkCase& c = corpus[i];
    c.cfg.tx_power_dbm = knobs.uniform(10.0, 30.0);
    c.cfg.tx_antenna = kAntennas[i % kAntennas.size()];
    c.cfg.rx_antenna = kAntennas[(i / kAntennas.size()) % kAntennas.size()];
    c.cfg.carrier_hz = knobs.uniform(400e6, 470e6);
    c.cfg.lora.sf = static_cast<SpreadingFactor>(7 + i % 6);
    c.cfg.lora.bandwidth_hz = kBandwidths[pick(kBandwidths.size())];
    c.cfg.lora.cr = static_cast<CodingRate>(1 + pick(4));
    c.cfg.lora.preamble_symbols = 6 + static_cast<int>(pick(7));
    c.cfg.lora.explicit_header = knobs.chance(0.8);
    c.cfg.lora.crc_on = knobs.chance(0.8);
    c.cfg.fading.shadowing_sigma_db = knobs.uniform(0.0, 6.0);
    c.weather = kWeather[(i / 25) % kWeather.size()];
    c.look.elevation_deg = knobs.uniform(-10.0, 90.0);
    c.look.range_km = knobs.uniform(400.0, 3500.0);
    c.look.range_rate_km_s = knobs.uniform(-7.5, 7.5);
    c.doppler_rate_hz_s = knobs.chance(0.2) ? 0.0 : knobs.uniform(-300, 300);
    c.payload_bytes = static_cast<int>(knobs.uniform_int(0, 255));
    c.seed = knobs.next_u64();
  }
  return corpus;
}

void expect_same_state(const LinkState& a, const LinkState& b,
                       std::size_t i) {
  EXPECT_EQ(a.rssi_dbm, b.rssi_dbm) << "case " << i;
  EXPECT_EQ(a.snr_db, b.snr_db) << "case " << i;
  EXPECT_EQ(a.path_loss_db, b.path_loss_db) << "case " << i;
  EXPECT_EQ(a.doppler.shift_hz, b.doppler.shift_hz) << "case " << i;
  EXPECT_EQ(a.doppler.rate_hz_per_s, b.doppler.rate_hz_per_s)
      << "case " << i;
  EXPECT_EQ(a.elevation_deg, b.elevation_deg) << "case " << i;
  EXPECT_EQ(a.range_km, b.range_km) << "case " << i;
}

TEST(Lora, LdexpTimingMatchesPowForms) {
  for (const double bw : {7.8e3, 41.7e3, 125e3, 500e3}) {
    for (int sf = 7; sf <= 12; ++sf) {
      LoraParams p;
      p.sf = static_cast<SpreadingFactor>(sf);
      p.bandwidth_hz = bw;
      EXPECT_EQ(p.symbol_time_s(), oracle::symbol_time_s(p)) << sf;
      EXPECT_EQ(p.bin_width_hz(), oracle::bin_width_hz(p)) << sf;
      for (int bytes = 0; bytes <= 255; ++bytes)
        EXPECT_EQ(time_on_air_s(p, bytes), oracle::time_on_air_s(p, bytes))
            << "SF" << sf << " " << bytes << " B";
    }
  }
}

TEST(PreparedLink, MatchesPerDrawOracleBitForBit) {
  // Each prepared link and reception is reused for several draws, as the
  // DtS engines reuse one per (location, beacon slot, antenna).
  constexpr int kDrawsPerLink = 4;
  const ErrorModel model;
  std::size_t received = 0, lost = 0, beyond_capture = 0, low_k = 0;
  const std::vector<LinkCase> corpus = link_corpus(3000);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const LinkCase& c = corpus[i];
    sinet::sim::Rng rng(c.seed), ref(c.seed), per_draw_rng(c.seed);
    const PreparedLink link =
        prepare_link(c.cfg, c.look, c.weather, c.doppler_rate_hz_s);
    const PreparedReception rx =
        model.prepare(link.mean.doppler, c.cfg.lora, c.payload_bytes);
    if (rx.doppler_penalty_db == 60.0) ++beyond_capture;
    if (c.look.elevation_deg < 20.0) ++low_k;
    for (int d = 0; d < kDrawsPerLink; ++d) {
      const LinkState st = draw_link_state(link, rng);
      const LinkState want = oracle::draw_link_state(
          c.cfg, c.look, c.weather, c.doppler_rate_hz_s, ref);
      // Prepared afresh for each draw, as a caller without a reused link
      // prepares it.
      const LinkState per_draw = draw_link_state(
          prepare_link(c.cfg, c.look, c.weather, c.doppler_rate_hz_s),
          per_draw_rng);
      expect_same_state(st, want, i);
      expect_same_state(per_draw, want, i);
      // The loss probability itself, not only the decision: a one-ulp
      // change of it flips almost no Bernoulli draw.
      EXPECT_EQ(model.reception_error_probability(st.snr_db, rx),
                oracle::loss_probability(model.config(), want, c.cfg.lora,
                                         c.payload_bytes))
          << "case " << i;
      const bool ok = model.receive(st.snr_db, rx, rng);
      EXPECT_EQ(ok, oracle::receive(model.config(), want, c.cfg.lora,
                                    c.payload_bytes, ref))
          << "case " << i;
      EXPECT_EQ(ok, model.receive(per_draw.snr_db,
                                  model.prepare(per_draw.doppler, c.cfg.lora,
                                                c.payload_bytes),
                                  per_draw_rng))
          << "case " << i;
      ++(ok ? received : lost);
    }
    // Same number of raw draws consumed on every path.
    const std::uint64_t next = ref.next_u64();
    EXPECT_EQ(rng.next_u64(), next) << "case " << i;
    EXPECT_EQ(per_draw_rng.next_u64(), next) << "case " << i;
    if (testing::Test::HasFailure()) break;  // one divergence is enough
  }
  // The corpus reaches every regime it claims to cover.
  EXPECT_GT(received, 1000u);
  EXPECT_GT(lost, 1000u);
  EXPECT_GT(beyond_capture, 100u);
  EXPECT_GT(low_k, 300u);
}

// --- the PER curve's saturation shortcut against the oracle curve ------

/// LoRa parameters whose zero-byte packet has exactly `symbols` symbols:
/// with an implicit header and no CRC the payload is 8 symbols at every
/// SF, and the preamble makes up the rest (negative below 8 symbols, which
/// the curve takes as it is).
LoraParams params_with_symbols(int symbols, CodingRate cr) {
  LoraParams p;
  p.sf = static_cast<SpreadingFactor>(7 + symbols % 6);
  p.cr = cr;
  p.explicit_header = false;
  p.crc_on = false;
  p.preamble_symbols = symbols - payload_symbol_count(p, 0);
  return p;
}

/// The default error model, the edges of the ranges the saturation margin
/// is derived for, and 30 random valid configs.
std::vector<ErrorModelConfig> saturation_configs() {
  std::vector<ErrorModelConfig> cfgs(4);
  cfgs[1].residual_per = 0.0;
  cfgs[2].fec_strength = 0.0;
  cfgs[3].fec_strength = 1.0;
  sinet::sim::Rng knobs(20261017);
  for (int i = 0; i < 30; ++i) {
    ErrorModelConfig c;
    c.ser_at_threshold = std::pow(10.0, knobs.uniform(-6.0, -0.01));
    c.slope_per_db = knobs.uniform(0.5, 4.0);
    c.residual_per =
        i % 5 == 0 ? 0.0 : std::pow(10.0, knobs.uniform(-6.0, -0.3));
    c.fec_strength = i % 6 == 0   ? 1.0
                     : i % 6 == 1 ? 0.0
                                  : knobs.uniform(0.0, 1.0);
    cfgs.push_back(c);
  }
  return cfgs;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

TEST(ErrorModel, SaturationShortcutMatchesOracleCurve) {
  // Every coding rate and tabulated symbol count under every config:
  // the SNRs at -inf, +inf and NaN, the 9 SNRs within 4 ulps of the
  // saturation margin, and the margin from 3 dB below it to 0.1 dB above
  // in 1e-4 dB steps. Each (config, CR, symbols) walks every kStride-th
  // step from its own offset, so together they visit every step. Without
  // a margin the curve is checked from -40 to +10 dB instead. Each SNR
  // checks both library entry points bit for bit against the oracle, and
  // the reception decision and the draw it consumes.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kStepDb = 1e-4;
  constexpr int kSteps = 31000;  // -3 dB .. +0.1 dB
  constexpr int kStride = 331;
  std::size_t mismatches = 0, checked = 0, saturated = 0;
  std::string first;
  std::uint64_t stream = 0;
  for (const ErrorModelConfig& cfg : saturation_configs()) {
    const ErrorModel model(cfg);
    for (int cr = 1; cr <= 4; ++cr) {
      for (int n = 0; n < ErrorModel::kTabulatedSymbols; ++n, ++stream) {
        const LoraParams p =
            params_with_symbols(n, static_cast<CodingRate>(cr));
        const double margin = model.saturation_margin_db(p.cr, n);
        const double demod = demod_snr_threshold_db(p.sf);
        // prepare() rejects the negative preambles of packets under 8
        // symbols; those are prepared by hand.
        PreparedReception rx{0.0, n, demod, 0.0, p.cr};
        if (n >= 8) rx = model.prepare(DopplerProfile{}, p, 0);
        ASSERT_EQ(rx.symbols, n);
        ASSERT_EQ(rx.doppler_penalty_db, 0.0);
        sinet::sim::Rng rng(stream), ref(stream);
        const auto check = [&](double snr) {
          const double want =
              oracle::packet_error_probability(cfg, snr, p, 0);
          const double by_params = model.packet_error_probability(snr, p, 0);
          const double by_rx = model.reception_error_probability(snr, rx);
          const bool ok = model.receive(snr, rx, rng);
          const bool want_ok = !ref.chance(want);
          ++checked;
          saturated += want == 1.0;
          if (same_bits(by_params, want) && same_bits(by_rx, want) &&
              ok == want_ok)
            return;
          if (mismatches++ == 0) {
            char buf[200];
            std::snprintf(buf, sizeof buf,
                          "CR index %d, %d symbols, SNR %.17g dB: oracle "
                          "%.17g, library %.17g / %.17g",
                          cr, n, snr, want, by_params, by_rx);
            first = buf;
          }
        };
        for (const double snr :
             {-kInf, kInf, std::numeric_limits<double>::quiet_NaN()})
          check(snr);
        if (std::isfinite(margin)) {
          double snr = demod + margin;
          for (int k = 0; k < 4; ++k) snr = std::nextafter(snr, -kInf);
          for (int k = 0; k <= 8; ++k, snr = std::nextafter(snr, kInf))
            check(snr);
          for (int k = static_cast<int>(stream % kStride); k <= kSteps;
               k += kStride)
            check(demod + (margin - 3.0 + k * kStepDb));
        } else {
          for (int k = 0; k <= 100; ++k) check(demod - 40.0 + 0.5 * k);
        }
        if (rng.next_u64() != ref.next_u64() && mismatches++ == 0)
          first = "draws diverge at CR index " + std::to_string(cr) + ", " +
                  std::to_string(n) + " symbols";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
  // Both sides of the margins are well covered.
  EXPECT_GT(saturated, checked / 20);
  EXPECT_GT(checked - saturated, checked / 20);
}

TEST(ErrorModel, SaturationMarginIsTight) {
  // A margin set too low costs only speed, so parity alone cannot catch
  // it. Where the table has a margin, the oracle curve must leave 1
  // within 0.1 dB above it. Where it has none although the curve reaches
  // 1 at its floor (SNR -inf), the loss product there lies within the
  // factor of 2 the derivation gives away (2^-55 against 2^-54); doubling
  // the symbol count squares that product, so the table must have a
  // margin at twice the symbols.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t margins = 0;
  double narrowest = kInf, widest = 0.0;
  for (const ErrorModelConfig& cfg : saturation_configs()) {
    const ErrorModel model(cfg);
    for (int cr = 1; cr <= 4; ++cr) {
      const auto rate = static_cast<CodingRate>(cr);
      for (int n = 0; n < ErrorModel::kTabulatedSymbols; ++n) {
        const LoraParams p = params_with_symbols(n, rate);
        const double demod = demod_snr_threshold_db(p.sf);
        const auto oracle_is_one = [&](double margin) {
          return oracle::packet_error_probability(cfg, demod + margin, p,
                                                  0) == 1.0;
        };
        const double margin = model.saturation_margin_db(rate, n);
        if (!std::isfinite(margin)) {
          const int twice = 2 * n;
          if (oracle_is_one(-kInf) && twice < ErrorModel::kTabulatedSymbols) {
            EXPECT_TRUE(std::isfinite(model.saturation_margin_db(rate, twice)))
                << "CR index " << cr << ", " << twice << " symbols";
          }
          continue;
        }
        ++margins;
        // Bisect for the largest margin at which the oracle is still 1.
        double lo = margin, hi = margin + 1.0;
        ASSERT_TRUE(oracle_is_one(lo)) << "CR index " << cr << ", " << n;
        ASSERT_FALSE(oracle_is_one(hi)) << "CR index " << cr << ", " << n;
        while (hi - lo > 1e-6) {
          const double mid = 0.5 * (lo + hi);
          (oracle_is_one(mid) ? lo : hi) = mid;
        }
        narrowest = std::min(narrowest, lo - margin);
        widest = std::max(widest, lo - margin);
        EXPECT_LE(lo - margin, 0.1) << "CR index " << cr << ", " << n;
      }
      if (testing::Test::HasFailure()) return;  // one CR is enough
    }
  }
  // Most (CR, symbols) pairs saturate under most configs.
  EXPECT_GT(margins, saturation_configs().size() * 4 * 512);
  RecordProperty("gap_db",
                 std::to_string(narrowest) + ".." + std::to_string(widest));
}

TEST(ErrorModel, ShiftOnlySaturationImpliesLossAtAnyDrift) {
  // The passive campaign computes a beacon's Doppler rate (a second SGP4
  // look) only when its reception is not already saturated on the Doppler
  // shift alone. That is exact only if, whenever saturated() holds
  // without the drift, the reception with any drift is lost for certain:
  // the oracle curve is exactly 1, the library returns exactly 1, and the
  // decision consumes the same one draw. Checked at every SF and coding
  // rate, the campaign's and DtS's payloads (24-byte beacon, 20-byte
  // report, 12-byte ACK), shifts from 0 to past the capture edge at 25% of
  // the bandwidth, drift rates up to 1e4 Hz/s, and SNRs from 3 dB below to
  // 3 dB above the shift-only saturation edge, within 4 ulps of it, and
  // at +-inf and NaN.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr std::array<double, 9> kRates = {0.0,  1e-3,  -1e-3, 10.0, -10.0,
                                            300.0, -300.0, 1e4,  -1e4};
  constexpr std::array<int, 3> kPayloads = {24, 20, 12};
  std::size_t saturated = 0, unsaturated = 0, mismatches = 0;
  std::string first;
  std::uint64_t stream = 0;
  for (const ErrorModelConfig& cfg : saturation_configs()) {
    const ErrorModel model(cfg);
    for (int sf = 7; sf <= 12; ++sf) {
      for (int cr = 1; cr <= 4; ++cr) {
        for (const int payload : kPayloads) {
          LoraParams p;
          p.sf = static_cast<SpreadingFactor>(sf);
          p.cr = static_cast<CodingRate>(cr);
          const double edge = 0.25 * p.bandwidth_hz;
          for (const double shift :
               {0.0, -0.3 * edge, 0.7 * edge, -0.95 * edge, edge,
                std::nextafter(edge, kInf), -1.2 * edge}) {
            const PreparedReception rx_shift =
                model.prepare(DopplerProfile{shift, 0.0}, p, payload);
            const double margin =
                model.saturation_margin_db(rx_shift.cr, rx_shift.symbols);
            // The pre-Doppler SNR at which the shift-only margin reaches
            // the saturation margin.
            const double center = std::isfinite(margin)
                                      ? rx_shift.threshold_db +
                                            rx_shift.doppler_penalty_db +
                                            margin
                                      : rx_shift.threshold_db;
            std::vector<double> snrs = {-kInf, kInf, kNaN};
            double snr = center;
            for (int k = 0; k < 4; ++k) snr = std::nextafter(snr, -kInf);
            for (int k = 0; k <= 8; ++k, snr = std::nextafter(snr, kInf))
              snrs.push_back(snr);
            for (int k = -6; k <= 6; ++k) snrs.push_back(center + 0.5 * k);

            sinet::sim::Rng by_shift(stream), by_full(stream),
                by_oracle(stream);
            ++stream;
            for (const double rate : kRates) {
              const PreparedReception rx_full =
                  model.prepare(DopplerProfile{shift, rate}, p, payload);
              for (const double snr_db : snrs) {
                if (!model.saturated(snr_db, rx_shift)) {
                  ++unsaturated;
                  continue;
                }
                ++saturated;
                LinkState link;
                link.snr_db = snr_db;
                link.doppler = DopplerProfile{shift, rate};
                const double want = oracle::loss_probability(
                    cfg, link, p, payload);
                const double got =
                    model.reception_error_probability(snr_db, rx_full);
                const bool ok_shift = model.receive(snr_db, rx_shift, by_shift);
                const bool ok_full = model.receive(snr_db, rx_full, by_full);
                const bool ok_oracle =
                    oracle::receive(cfg, link, p, payload, by_oracle);
                if (want == 1.0 && got == 1.0 && !ok_shift && !ok_full &&
                    !ok_oracle)
                  continue;
                if (mismatches++ == 0) {
                  char buf[200];
                  std::snprintf(buf, sizeof buf,
                                "SF%d CR index %d, %d B, shift %.17g Hz, "
                                "rate %g Hz/s, SNR %.17g dB: oracle %.17g, "
                                "library %.17g",
                                sf, cr, payload, shift, rate, snr_db, want,
                                got);
                  first = buf;
                }
              }
            }
            const std::uint64_t next = by_oracle.next_u64();
            if ((by_shift.next_u64() != next || by_full.next_u64() != next) &&
                mismatches++ == 0)
              first = "draws diverge at SF" + std::to_string(sf) +
                      ", CR index " + std::to_string(cr) + ", " +
                      std::to_string(payload) + " B";
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
  // Both sides of the edge are well covered.
  EXPECT_GT(saturated, 500000u);
  EXPECT_GT(unsaturated, 500000u);
}

TEST(PreparedLink, CorpusCatchesFadeTermsAddedOneAtATime) {
  // A plausible refactor of the prepared draw adds the shadowing and the
  // small-scale term to the mean one at a time instead of summing the
  // fade first. That changes rounding, and the corpus must notice.
  const auto stepwise = [](const PreparedLink& link, sinet::sim::Rng& rng) {
    LinkState st = link.mean;
    const double shadowing = rng.normal(0.0, link.fade.shadowing_sigma_db);
    const double x =
        link.fade.rician.los + link.fade.rician.sigma * rng.normal();
    const double y = link.fade.rician.sigma * rng.normal();
    const double amp = std::sqrt(x * x + y * y);
    const double small_scale_db = 20.0 * std::log10(std::max(amp, 1e-6));
    st.rssi_dbm = st.rssi_dbm + shadowing + small_scale_db;
    st.snr_db = st.snr_db + shadowing + small_scale_db;
    return st;
  };
  std::size_t differ = 0;
  const std::vector<LinkCase> corpus = link_corpus(3000);
  for (const LinkCase& c : corpus) {
    sinet::sim::Rng rng(c.seed), ref(c.seed);
    const LinkState st = stepwise(
        prepare_link(c.cfg, c.look, c.weather, c.doppler_rate_hz_s), rng);
    const LinkState want = oracle::draw_link_state(
        c.cfg, c.look, c.weather, c.doppler_rate_hz_s, ref);
    if (st.rssi_dbm != want.rssi_dbm || st.snr_db != want.snr_db) ++differ;
  }
  EXPECT_GT(differ, 0u);
}

// --- the decode certificate against the verbatim decode ---------------

TEST(CertifiedDecode, LimitIsDisarmedOutsideItsPreconditions) {
  const ErrorModel model;
  const LinkCase c = link_corpus(1)[0];
  const PreparedLink link =
      prepare_link(c.cfg, c.look, c.weather, c.doppler_rate_hz_s);
  const PreparedReception rx =
      model.prepare(link.mean.doppler, c.cfg.lora, c.payload_bytes);
  ASSERT_TRUE(std::isfinite(model.certain_loss_below_db(link, rx)));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto disarmed = [&](PreparedLink l, PreparedReception r) {
    return model.certain_loss_below_db(l, r) == -kInf;
  };
  for (const double bad : {std::nan(""), kInf, -kInf, 1000.5, -1000.5}) {
    PreparedLink l = link;
    l.mean.snr_db = bad;
    EXPECT_TRUE(disarmed(l, rx)) << "mean SNR " << bad;
    PreparedReception r = rx;
    r.doppler_penalty_db = bad;
    EXPECT_TRUE(disarmed(link, r)) << "penalty " << bad;
    r = rx;
    r.threshold_db = bad;
    EXPECT_TRUE(disarmed(link, r)) << "threshold " << bad;
  }
  for (const double sigma : {std::nan(""), -1e-300, 100.5, kInf}) {
    PreparedLink l = link;
    l.fade.shadowing_sigma_db = sigma;
    EXPECT_TRUE(disarmed(l, rx)) << "sigma " << sigma;
  }
  PreparedReception one_symbol = rx;  // no saturation margin
  one_symbol.symbols = 1;
  EXPECT_TRUE(disarmed(link, one_symbol));
}

TEST(CertifiedDecode, MatchesVerbatimOracle) {
  // Every link of the randomized corpus (all weathers and antennas, SF
  // 7-12, payloads 0-255, elevations through the K-factor knee, sigma 0-6
  // dB) and a grid of fading edges: sigma 0, rain, the K-factor ends. Each
  // runs at its own mean SNR and at mean SNRs swept across the limit, so
  // that fades land on both sides of it and next to it, plus NaN and
  // infinite means. The certified decode must give the oracle's outcome,
  // the oracle's SNR and RSSI bits whenever it evaluates the fade, and
  // leave the stream at the oracle's word; a decode it settles must be
  // one whose oracle SNR is saturated, whatever its Bernoulli draw. At
  // every decode, settled or not, the fade bound of the drawn uniforms
  // must lie above the oracle's fade less 1e-12 dB (its documented
  // rounding): a bound that undershoots shows here even where no decode
  // lands in the sliver just above the limit it would settle wrongly.
  using sinet::phy::test::oracle_decode;
  constexpr int kDraws = 4;
  const ErrorModel model;
  std::vector<std::pair<LinkCase, std::string>> links;
  for (const LinkCase& c : link_corpus(600))
    links.emplace_back(c, "corpus");
  std::uint64_t seed = 1;
  for (const double elevation : {0.0, 10.0, 20.0, 90.0})
    for (const auto weather :
         {sinet::channel::Weather::kSunny, sinet::channel::Weather::kRainy})
      for (int fading = 0; fading < 4; ++fading) {
        LinkCase c;
        c.look.elevation_deg = elevation;
        c.look.range_km = 1200.0;
        c.look.range_rate_km_s = 3.0;
        c.weather = weather;
        c.payload_bytes = 24;
        c.seed = seed++;
        if (fading == 1) c.cfg.fading.shadowing_sigma_db = 0.0;
        if (fading >= 2) {  // the K-factor ends: nearly Rayleigh, nearly LoS
          c.cfg.fading.low_elevation_k_db = fading == 2 ? -20.0 : 40.0;
          c.cfg.fading.rician_k_db = fading == 2 ? -20.0 : 40.0;
        }
        links.emplace_back(c, "edge grid");
      }

  std::uint64_t settled = 0, received = 0, near_margin = 0;
  std::uint64_t deep = 0, deep_settled = 0, mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkCase& c = links[i].first;
    const PreparedLink base =
        prepare_link(c.cfg, c.look, c.weather, c.doppler_rate_hz_s);
    const PreparedReception rx =
        model.prepare(base.mean.doppler, c.cfg.lora, c.payload_bytes);
    const double margin = model.saturation_margin_db(rx.cr, rx.symbols);
    const double edge = margin + rx.threshold_db + rx.doppler_penalty_db;
    std::vector<double> means{base.mean.snr_db, std::nan(""),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
    if (std::isfinite(edge))
      for (double fade = -12.0; fade <= 10.0; fade += 0.1)
        means.push_back(edge - fade);
    for (std::size_t m = 0; m < means.size(); ++m) {
      PreparedLink link = base;
      link.mean.snr_db = means[m];
      const double below = model.certain_loss_below_db(link, rx);
      sinet::sim::Rng rng(c.seed + m), ref(c.seed + m);
      const auto fail = [&](const char* what) {
        if (mismatches++ == 0)
          first = links[i].second + " link " + std::to_string(i) +
                  ", mean SNR " + std::to_string(means[m]) + ": " + what;
      };
      for (int d = 0; d < kDraws; ++d) {
        const sinet::phy::test::OracleDecode want =
            oracle_decode(model, link, rx, ref);
        const sinet::channel::FadeUniforms u =
            sinet::channel::FadingModel::draw_uniforms(rng);
        if (!(sinet::channel::FadingModel::fade_bound_db(link.fade, u) >=
              want.fade_db - 1e-12))
          fail("fade bound below the fade");
        const std::optional<LinkState> st =
            ErrorModel::draw_unless_lost(link, below, u, rng);
        const bool ok = st && model.receive(st->snr_db, rx, rng);
        if (ok) ++received;
        if (ok != want.received) fail("outcome differs");
        if (st) {
          if (!same_bits(st->snr_db, want.state.snr_db) ||
              !same_bits(st->rssi_dbm, want.state.rssi_dbm))
            fail("state differs");
        } else {
          ++settled;
          if (!model.saturated(want.state.snr_db, rx))
            fail("settled a decode that is not saturated");
        }
        const double over =
            (want.state.snr_db - rx.doppler_penalty_db) - rx.threshold_db -
            margin;
        if (!st && over > -0.05) ++near_margin;
        if (over < -1.0 && std::isfinite(means[m])) {
          ++deep;
          if (!st) ++deep_settled;
        }
      }
      if (rng.next_u64() != ref.next_u64()) fail("streams diverge");
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
  // Both outcomes, and settled decodes right next to the margin, where a
  // bound too low or a margin too generous shows.
  // Of 549,352 decodes, 234,441 are received, 258,319 settled and 783
  // settled within 0.05 dB of the margin.
  EXPECT_GT(received, 100'000u);
  EXPECT_GT(settled, 100'000u);
  EXPECT_GT(near_margin, 300u);
  // The bound is tight: it settles 99.0% of the decodes 1 dB or more
  // below the margin (the rest drew a uniform in a wide tail bucket).
  EXPECT_GT(static_cast<double>(deep_settled),
            0.98 * static_cast<double>(deep))
      << deep_settled << " of " << deep;
}

}  // namespace
