#include "phy/link_budget.h"

#include "channel/noise.h"
#include "channel/path_loss.h"

namespace sinet::phy {

namespace {

LinkState base_state(const LinkConfig& cfg,
                     const sinet::orbit::LookAngles& look,
                     sinet::channel::Weather weather) {
  namespace ch = sinet::channel;
  LinkState st;
  st.elevation_deg = look.elevation_deg;
  st.range_km = look.range_km;

  const double fspl =
      ch::free_space_path_loss_db(look.range_km, cfg.carrier_hz);
  const double excess = ch::elevation_excess_loss_db(look.elevation_deg);
  const double weather_db = ch::weather_excess_loss_db(weather);
  st.path_loss_db = fspl + excess + weather_db + ch::polarization_loss_db() +
                    cfg.implementation_loss_db;

  const double gtx = ch::antenna_gain_dbi(cfg.tx_antenna, look.elevation_deg);
  const double grx = ch::antenna_gain_dbi(cfg.rx_antenna, look.elevation_deg);
  st.rssi_dbm = cfg.tx_power_dbm + gtx + grx - st.path_loss_db;

  const double noise = ch::noise_floor_dbm(
      cfg.lora.bandwidth_hz, cfg.rx_noise_figure_db, cfg.external_noise_db);
  st.snr_db = st.rssi_dbm - noise;

  st.doppler.shift_hz = sinet::orbit::doppler_shift_hz(
      look.range_rate_km_s, cfg.carrier_hz);
  st.doppler.rate_hz_per_s = 0.0;
  return st;
}

}  // namespace

LinkState mean_link_state(const LinkConfig& cfg,
                          const sinet::orbit::LookAngles& look,
                          sinet::channel::Weather weather) {
  return base_state(cfg, look, weather);
}

PreparedLink prepare_link(const LinkConfig& cfg,
                          const sinet::orbit::LookAngles& look,
                          sinet::channel::Weather weather,
                          double doppler_rate_hz_s) {
  PreparedLink link;
  link.mean = base_state(cfg, look, weather);
  link.mean.doppler.rate_hz_per_s = doppler_rate_hz_s;
  link.fade = sinet::channel::FadingModel(cfg.fading)
                  .prepare(look.elevation_deg, weather);
  return link;
}

LinkState draw_link_state(const PreparedLink& link, sinet::sim::Rng& rng) {
  return faded_state(link,
                     sinet::channel::FadingModel::draw_db(link.fade, rng));
}

}  // namespace sinet::phy
