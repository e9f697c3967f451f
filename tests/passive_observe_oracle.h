// Oracle for the passive campaign's observe phase
// (core::run_passive_campaign): the loop that computed every beacon's
// Doppler rate eagerly. Each beacon at or above 0° takes a second look one
// second later for its rate, draws the channel with that rate set and
// decodes with the full Doppler penalty, every look from the scalar
// ElevationSampler. The library skips that look when the decode is
// saturated on the Doppler shift alone, and takes a beacon's geometry
// from the SIMD kernel where the kernel can settle it
// (core/beacon_kernel.h); it must log the same receptions from the same
// draws, bit for bit.
//
// Driven from the public API only: the site's stream is
// RngFactory(seed).make("passive-" + code), the weather is drawn first,
// and the observations are rebuilt from result.theoretical in
// cfg.constellations order through schedule_observations, as the
// campaign plans them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "channel/weather.h"
#include "core/passive_campaign.h"
#include "core/scheduler.h"
#include "orbit/constellation.h"
#include "orbit/look_angles.h"
#include "orbit/passes.h"
#include "phy/error_model.h"
#include "phy/link_budget.h"
#include "sim/rng.h"

namespace sinet::testing {

/// One received beacon as the oracle logs it.
struct OracleReception {
  orbit::JulianDate jd;
  double rssi_dbm;
  double snr_db;
  std::string station;
  std::string satellite;
  channel::Weather weather;
};

struct OracleObserve {
  /// Every site's receptions, sites in cfg.sites order.
  std::vector<OracleReception> received;
  std::uint64_t transmitted = 0;
};

/// One satellite of the campaign, in cfg.constellations order.
struct OracleSatellite {
  orbit::Sgp4 propagator;
  std::string name;
  std::size_t constellation;
};

inline std::vector<OracleSatellite> oracle_satellites(
    const core::PassiveCampaignConfig& cfg) {
  std::vector<OracleSatellite> satellites;
  for (std::size_t c = 0; c < cfg.constellations.size(); ++c)
    for (const orbit::Tle& tle :
         orbit::generate_tles(cfg.constellations[c], cfg.start_jd))
      satellites.push_back(OracleSatellite{orbit::Sgp4(tle), tle.name, c});
  return satellites;
}

/// What one site observes, planned as the campaign plans it: its daily
/// weather (the first draws of its stream `rng`), its beacon link per
/// constellation and its scheduled observations.
struct OracleSitePlan {
  std::vector<channel::Weather> weather;
  std::vector<phy::LinkConfig> links;
  std::vector<core::ScheduledObservation> observations;
};

inline OracleSitePlan oracle_site_plan(
    const core::PassiveCampaignConfig& cfg,
    const core::PassiveCampaignResult& result,
    const core::MeasurementSite& site, sim::Rng& rng) {
  OracleSitePlan plan;
  const int days = static_cast<int>(std::ceil(cfg.duration_days));
  for (int d = 0; d < days; ++d)
    plan.weather.push_back(rng.chance(site.rainy_fraction)
                               ? channel::Weather::kRainy
                               : channel::Weather::kSunny);

  std::vector<core::ObservationRequest> requests;
  std::size_t sat_index = 0;
  for (const orbit::ConstellationSpec& constellation : cfg.constellations) {
    phy::LinkConfig link = cfg.beacon_link;
    link.carrier_hz = constellation.dts_frequency_hz;
    link.tx_power_dbm = constellation.beacon_eirp_dbm;
    link.external_noise_db = site.external_noise_db;
    link.lora.sf = static_cast<phy::SpreadingFactor>(
        std::clamp(constellation.beacon_sf, 7, 12));
    plan.links.push_back(link);
    for (const core::SatelliteWindows& sw :
         result.theoretical.at({site.code, constellation.name})) {
      for (const orbit::ContactWindow& w : sw.windows)
        requests.push_back(core::ObservationRequest{
            sw.satellite, constellation.name, w, sat_index});
      ++sat_index;
    }
  }
  plan.observations = core::schedule_observations(
      std::move(requests), site.station_count, cfg.station_retune_gap_s);
  return plan;
}

/// The weather of the day `jd` falls in, as the campaign reads it.
inline channel::Weather oracle_weather(const core::PassiveCampaignConfig& cfg,
                                       const OracleSitePlan& plan,
                                       orbit::JulianDate jd) {
  const auto day = static_cast<std::size_t>(jd - cfg.start_jd);
  return plan.weather[std::min<std::size_t>(day, plan.weather.size() - 1)];
}

/// Replay the observe phase of `result`, a run of `cfg`.
inline OracleObserve oracle_observe(const core::PassiveCampaignConfig& cfg,
                                    const core::PassiveCampaignResult& result) {
  const std::vector<OracleSatellite> satellites = oracle_satellites(cfg);
  const phy::ErrorModel error_model(cfg.error_model);
  sim::RngFactory rngs(cfg.seed);
  OracleObserve out;
  for (const core::MeasurementSite& site : cfg.sites) {
    sim::Rng rng = rngs.make("passive-" + site.code);
    const OracleSitePlan plan = oracle_site_plan(cfg, result, site, rng);
    for (const core::ScheduledObservation& o : plan.observations) {
      const OracleSatellite& sat = satellites[o.request.id];
      const phy::LinkConfig& link = plan.links[sat.constellation];
      const orbit::ElevationSampler sampler(sat.propagator, site.location);
      const orbit::ContactWindow& w = o.request.window;
      for (double t = 0.0;; t += cfg.beacon.period_s) {
        const orbit::JulianDate jd = w.aos_jd + t / orbit::kSecondsPerDay;
        if (jd > w.los_jd) break;
        ++out.transmitted;

        const orbit::LookAngles look = sampler.look(jd);
        if (look.elevation_deg < 0.0) continue;

        const channel::Weather wx = oracle_weather(cfg, plan, jd);

        const orbit::LookAngles look1 =
            sampler.look(jd + 1.0 / orbit::kSecondsPerDay);
        const double rate =
            orbit::doppler_shift_hz(look1.range_rate_km_s, link.carrier_hz) -
            orbit::doppler_shift_hz(look.range_rate_km_s, link.carrier_hz);

        const phy::LinkState st =
            phy::draw_link_state(phy::prepare_link(link, look, wx, rate), rng);
        if (!error_model.receive(
                st.snr_db,
                error_model.prepare(st.doppler, link.lora,
                                    cfg.beacon.payload_bytes),
                rng))
          continue;
        out.received.push_back(OracleReception{
            jd, st.rssi_dbm, st.snr_db,
            site.code + "-" + std::to_string(o.station_index + 1), sat.name,
            wx});
      }
    }
  }
  return out;
}

}  // namespace sinet::testing
