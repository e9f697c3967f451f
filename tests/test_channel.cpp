// Channel models: path loss, weather, fading, noise, antennas.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "channel/antenna.h"
#include "channel/fading.h"
#include "channel/noise.h"
#include "channel/path_loss.h"
#include "channel/weather.h"
#include "sim/rng.h"

namespace {

using namespace sinet::channel;

TEST(PathLoss, KnownFreeSpaceValues) {
  // 1 km @ 1 MHz is the formula's reference point: 32.45 dB.
  EXPECT_NEAR(free_space_path_loss_db(1.0, 1e6), 32.45, 0.01);
  // 1000 km @ 433 MHz: 32.45 + 60 + 52.73 = 145.2 dB.
  EXPECT_NEAR(free_space_path_loss_db(1000.0, 433e6), 145.2, 0.1);
  // Doubling distance adds 6.02 dB.
  const double d1 = free_space_path_loss_db(700.0, 400e6);
  const double d2 = free_space_path_loss_db(1400.0, 400e6);
  EXPECT_NEAR(d2 - d1, 6.02, 0.01);
}

TEST(PathLoss, InvalidInputsThrow) {
  EXPECT_THROW(free_space_path_loss_db(0.0, 433e6), std::invalid_argument);
  EXPECT_THROW(free_space_path_loss_db(100.0, 0.0), std::invalid_argument);
  EXPECT_THROW(free_space_path_loss_db(-5.0, 433e6), std::invalid_argument);
}

TEST(PathLoss, ElevationExcessLossShape) {
  // Zenith: just the zenith loss. Horizon: clamped to max.
  EXPECT_NEAR(elevation_excess_loss_db(90.0), 0.1, 1e-6);
  EXPECT_DOUBLE_EQ(elevation_excess_loss_db(0.0), 10.0);
  EXPECT_DOUBLE_EQ(elevation_excess_loss_db(-5.0), 10.0);
  // Monotone non-increasing in elevation.
  double prev = elevation_excess_loss_db(0.5);
  for (double el = 1.0; el <= 90.0; el += 1.0) {
    const double v = elevation_excess_loss_db(el);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
  EXPECT_THROW(elevation_excess_loss_db(10.0, -1.0), std::invalid_argument);
}

TEST(Weather, LossesOrderedByCondition) {
  EXPECT_DOUBLE_EQ(weather_excess_loss_db(Weather::kSunny), 0.0);
  EXPECT_GT(weather_excess_loss_db(Weather::kCloudy), 0.0);
  EXPECT_GT(weather_excess_loss_db(Weather::kRainy),
            weather_excess_loss_db(Weather::kCloudy));
  EXPECT_GT(weather_extra_shadowing_db(Weather::kRainy),
            weather_extra_shadowing_db(Weather::kSunny));
}

TEST(Weather, Names) {
  EXPECT_EQ(to_string(Weather::kSunny), "sunny");
  EXPECT_EQ(to_string(Weather::kCloudy), "cloudy");
  EXPECT_EQ(to_string(Weather::kRainy), "rainy");
}

TEST(Noise, ThermalAndFloor) {
  // kTB at 125 kHz: -174 + 51 = -123 dBm.
  EXPECT_NEAR(thermal_noise_dbm(125e3), -123.03, 0.05);
  // Floor adds NF and external noise.
  EXPECT_NEAR(noise_floor_dbm(125e3, 6.0, 2.0), -115.03, 0.05);
  EXPECT_THROW(thermal_noise_dbm(0.0), std::invalid_argument);
  EXPECT_THROW(noise_floor_dbm(125e3, -1.0), std::invalid_argument);
}

TEST(Fading, KFactorInterpolatesWithElevation) {
  const FadingModel model;
  const auto& cfg = model.config();
  EXPECT_DOUBLE_EQ(model.k_factor_db(90.0), cfg.rician_k_db);
  EXPECT_DOUBLE_EQ(model.k_factor_db(cfg.k_rolloff_elevation_deg),
                   cfg.rician_k_db);
  EXPECT_DOUBLE_EQ(model.k_factor_db(0.0), cfg.low_elevation_k_db);
  const double mid = model.k_factor_db(cfg.k_rolloff_elevation_deg / 2.0);
  EXPECT_GT(mid, cfg.low_elevation_k_db);
  EXPECT_LT(mid, cfg.rician_k_db);
}

TEST(Fading, DrawStatisticsAreSane) {
  const FadingModel model;
  sinet::sim::Rng rng(3);
  double sum = 0.0, count = 0.0, deep_fades = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double f = model.draw_db(rng, 60.0, Weather::kSunny);
    sum += f;
    count += 1.0;
    if (f < -10.0) deep_fades += 1.0;
  }
  // Mean near zero (shadowing symmetric, Rician mean power 1).
  EXPECT_NEAR(sum / count, 0.0, 0.5);
  // Deep fades exist but are rare at high elevation / high K.
  EXPECT_GT(deep_fades, 0.0);
  EXPECT_LT(deep_fades / count, 0.02);
}

TEST(Fading, RainIncreasesSpread) {
  const FadingModel model;
  sinet::sim::Rng rng_a(5), rng_b(5);
  double var_sunny = 0.0, var_rainy = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double s = model.draw_db(rng_a, 45.0, Weather::kSunny);
    var_sunny += s * s;
    const double r = model.draw_db(rng_b, 45.0, Weather::kRainy);
    var_rainy += r * r;
  }
  EXPECT_GT(var_rainy / n, var_sunny / n);
}

TEST(Fading, InvalidConfigThrows) {
  FadingConfig bad;
  bad.shadowing_sigma_db = -1.0;
  EXPECT_THROW(FadingModel{bad}, std::invalid_argument);
  FadingConfig bad2;
  bad2.k_rolloff_elevation_deg = 0.0;
  EXPECT_THROW(FadingModel{bad2}, std::invalid_argument);
}

TEST(Antenna, IsotropicIsFlat) {
  for (double el = 0.0; el <= 90.0; el += 10.0)
    EXPECT_DOUBLE_EQ(antenna_gain_dbi(AntennaType::kIsotropic, el), 0.0);
}

TEST(Antenna, MonopoleHasZenithNull) {
  for (const AntennaType t : {AntennaType::kQuarterWaveMonopole,
                              AntennaType::kFiveEighthsWaveMonopole}) {
    double at_peak = antenna_gain_dbi(t, 0.0);
    for (double el = 1.0; el <= 90.0; el += 1.0)
      at_peak = std::max(at_peak, antenna_gain_dbi(t, el));
    const double at_zenith = antenna_gain_dbi(t, 90.0);
    EXPECT_LT(at_zenith, at_peak - 8.0) << static_cast<int>(t);
  }
}

TEST(Antenna, FiveEighthsBeatsQuarterAtLowElevation) {
  // The reason the paper's 5/8-wave whip needs fewer retransmissions
  // (Fig 5b): more gain toward the low-elevation satellite.
  for (double el = 5.0; el <= 30.0; el += 5.0) {
    EXPECT_GT(
        antenna_gain_dbi(AntennaType::kFiveEighthsWaveMonopole, el),
        antenna_gain_dbi(AntennaType::kQuarterWaveMonopole, el) - 0.5);
  }
  EXPECT_GT(antenna_gain_dbi(AntennaType::kFiveEighthsWaveMonopole, 16.0),
            antenna_gain_dbi(AntennaType::kQuarterWaveMonopole, 16.0));
}

TEST(Antenna, DipolePatternSymmetricAndBounded) {
  for (double el = -90.0; el <= 90.0; el += 5.0) {
    const double g = antenna_gain_dbi(AntennaType::kDipole, el);
    EXPECT_LE(g, 2.16);
    EXPECT_GE(g, -45.0);
  }
  EXPECT_NEAR(antenna_gain_dbi(AntennaType::kDipole, 0.0), 2.15, 0.01);
}

}  // namespace
