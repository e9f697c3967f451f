// End-to-end link budget for a DtS LoRa link: transforms pass geometry
// into received power (RSSI), SNR and Doppler, combining path loss,
// weather, antenna patterns and stochastic fading.
#pragma once

#include "channel/antenna.h"
#include "channel/fading.h"
#include "channel/weather.h"
#include "orbit/look_angles.h"
#include "phy/doppler.h"
#include "phy/lora.h"
#include "sim/rng.h"

namespace sinet::phy {

/// Static radio configuration of one end-to-end link.
struct LinkConfig {
  double tx_power_dbm = 22.0;  ///< typical LoRa max in the 400 MHz band
  sinet::channel::AntennaType tx_antenna =
      sinet::channel::AntennaType::kDipole;
  sinet::channel::AntennaType rx_antenna =
      sinet::channel::AntennaType::kQuarterWaveMonopole;
  double carrier_hz = 400.45e6;
  double rx_noise_figure_db = 6.0;
  double external_noise_db = 2.0;
  double implementation_loss_db = 1.0;  ///< connectors, matching, aging
  LoraParams lora;
  sinet::channel::FadingConfig fading;
};

/// Instantaneous link-budget evaluation result.
struct LinkState {
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  double path_loss_db = 0.0;
  DopplerProfile doppler;
  double elevation_deg = 0.0;
  double range_km = 0.0;
};

/// Deterministic (mean) link budget at the given geometry: no fading draw.
/// `tx_elevation_deg` is the elevation of the ground terminal as seen in
/// the satellite antenna frame; for a nanosat dipole we evaluate the
/// pattern at the same elevation by symmetry.
[[nodiscard]] LinkState mean_link_state(const LinkConfig& cfg,
                                        const sinet::orbit::LookAngles& look,
                                        sinet::channel::Weather weather);

/// Everything of a stochastic link draw that is fixed by (link config,
/// look angles, weather, Doppler rate): the mean state from path loss,
/// antenna gains and noise floor, with the Doppler rate set, and the
/// fading parameters. Every node at one location in one DtS beacon slot
/// shares its beacon, its uplink (whatever the spreading factor: only the
/// bandwidth enters the noise floor) and its ACK link: prepare each once
/// per slot and location, draw per node.
struct PreparedLink {
  LinkState mean;
  sinet::channel::FadeParams fade;
};

[[nodiscard]] PreparedLink prepare_link(const LinkConfig& cfg,
                                        const sinet::orbit::LookAngles& look,
                                        sinet::channel::Weather weather,
                                        double doppler_rate_hz_s);

/// The mean state of `link` with fade `fade_db` (shadowing plus
/// small-scale, summed first) added to RSSI and SNR.
[[nodiscard]] inline LinkState faded_state(const PreparedLink& link,
                                           double fade_db) {
  LinkState st = link.mean;
  st.rssi_dbm += fade_db;
  st.snr_db += fade_db;
  return st;
}

/// One fading realization on a prepared link:
/// faded_state(link, FadingModel::draw_db(link.fade, rng)).
[[nodiscard]] LinkState draw_link_state(const PreparedLink& link,
                                        sinet::sim::Rng& rng);

}  // namespace sinet::phy
