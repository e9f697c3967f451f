#include "core/passive_campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "channel/weather.h"
#include "core/scheduler.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "orbit/look_angles.h"
#include "orbit/sun.h"
#include "phy/lora.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"

namespace sinet::core {

PassiveCampaignConfig default_campaign(double duration_days) {
  PassiveCampaignConfig cfg;
  cfg.start_jd = campaign_epoch_jd();
  cfg.duration_days = duration_days;
  cfg.sites = paper_measurement_sites();
  cfg.constellations = orbit::paper_constellations();
  cfg.beacon.period_s = 10.0;
  cfg.beacon.payload_bytes = 24;
  // Calibrated to the paper's observed regime (tools/calibrate_channel):
  // nanosat UHF beacons run ~70 mW EIRP after tumbling/pointing losses,
  // and the TinyGS stations sit in cities where man-made UHF noise adds
  // ~8 dB over thermal. This lands contact-window shrink at 71-85%
  // (paper: 73.7-89.2%) with receptions clustered mid-window (Fig 9).
  cfg.beacon_link.tx_power_dbm = 18.5;
  cfg.beacon_link.external_noise_db = 8.0;
  cfg.beacon_link.implementation_loss_db = 2.0;
  cfg.beacon_link.fading.shadowing_sigma_db = 3.0;
  cfg.beacon_link.tx_antenna = channel::AntennaType::kDipole;
  cfg.beacon_link.rx_antenna = channel::AntennaType::kQuarterWaveMonopole;
  cfg.beacon_link.lora = phy::default_dts_params();
  return cfg;
}

std::vector<orbit::ContactWindow> PassiveCampaignResult::cell_windows(
    const CellKey& key) const {
  std::vector<orbit::ContactWindow> out;
  const auto it = theoretical.find(key);
  if (it == theoretical.end()) return out;
  for (const SatelliteWindows& sw : it->second)
    out.insert(out.end(), sw.windows.begin(), sw.windows.end());
  return out;
}

namespace {

/// One satellite of the campaign: propagated read-only by every site.
struct CampaignSatellite {
  orbit::Sgp4 propagator;
  std::string name;
  std::size_t constellation;  ///< index into cfg.constellations
};

/// One scheduled window of a site, reduced to what observing it reads.
struct SiteObservation {
  orbit::JulianDate aos_jd;
  orbit::JulianDate los_jd;
  std::uint32_t satellite;  ///< index into the campaign's satellites
  int station;              ///< 0-based station index at the site
};

/// One received beacon as an observe task logs it: its time, channel
/// draws, window and weather. Look angles, Doppler and altitude are
/// deterministic in (satellite, site, time), so the in-order merge
/// recomputes them instead of every task holding full records.
struct Reception {
  orbit::JulianDate jd;
  double rssi_dbm;
  double snr_db;
  std::uint32_t observation;  ///< index into the site's observations
  channel::Weather weather;
};
static_assert(sizeof(Reception) == 32, "keep the per-beacon log compact");

/// One site's share of the campaign: planned serially by the schedule
/// phase, then filled by exactly one observe task.
struct SiteRun {
  std::vector<phy::LinkConfig> links;  ///< per constellation
  std::vector<SiteObservation> observations;
  /// Upper bound on the beacons the site's windows can carry: the
  /// site's share of the observe work.
  std::size_t beacon_slots = 0;
  /// Reserved up front for every beacon slot: a task never regrows it,
  /// and pages no reception reaches stay untouched.
  std::vector<Reception> receptions;
  std::uint64_t transmitted = 0;
};

/// Observe every scheduled window of one site: draw the site's daily
/// weather, then sample each window's beacon grid, draw the channel and
/// log the received beacons. `rng` is the site's own stream, consumed in
/// exactly the serial order.
void observe_site(const PassiveCampaignConfig& cfg,
                  const MeasurementSite& site,
                  const std::vector<CampaignSatellite>& satellites,
                  const phy::ErrorModel& error_model, sim::Rng rng,
                  SiteRun& run) {
  std::vector<channel::Weather> weather;
  const int days = static_cast<int>(std::ceil(cfg.duration_days));
  weather.reserve(days);
  for (int d = 0; d < days; ++d)
    weather.push_back(rng.chance(site.rainy_fraction)
                          ? channel::Weather::kRainy
                          : channel::Weather::kSunny);

  for (std::size_t k = 0; k < run.observations.size(); ++k) {
    const SiteObservation& obs = run.observations[k];
    const CampaignSatellite& sat = satellites[obs.satellite];
    const phy::LinkConfig& link = run.links[sat.constellation];
    const orbit::ElevationSampler sampler(sat.propagator, site.location);
    for (double t = 0.0;; t += cfg.beacon.period_s) {
      const orbit::JulianDate jd = obs.aos_jd + t / orbit::kSecondsPerDay;
      if (jd > obs.los_jd) break;
      if (cfg.eclipse_gates_beacons &&
          orbit::in_earth_shadow(sat.propagator.at_jd(jd).position_km, jd))
        continue;  // payload muted in eclipse: nothing transmitted
      ++run.transmitted;

      const orbit::LookAngles look = sampler.look(jd);
      if (look.elevation_deg < 0.0) continue;

      const auto day = static_cast<std::size_t>(jd - cfg.start_jd);
      const channel::Weather wx =
          weather[std::min<std::size_t>(day, weather.size() - 1)];

      // Doppler rate by 1-s finite difference.
      const orbit::LookAngles look1 =
          sampler.look(jd + 1.0 / orbit::kSecondsPerDay);
      const double rate =
          orbit::doppler_shift_hz(look1.range_rate_km_s, link.carrier_hz) -
          orbit::doppler_shift_hz(look.range_rate_km_s, link.carrier_hz);

      const phy::LinkState st =
          phy::draw_link_state(link, look, wx, rate, rng);
      if (!error_model.receive(st, link.lora, cfg.beacon.payload_bytes, rng))
        continue;
      run.receptions.push_back(Reception{
          jd, st.rssi_dbm, st.snr_db, static_cast<std::uint32_t>(k), wx});
    }
  }
}

/// Append one site's receptions to `traces` as full records, in the order
/// the site logged them.
void append_records(const PassiveCampaignConfig& cfg,
                    const MeasurementSite& site,
                    const std::vector<CampaignSatellite>& satellites,
                    const SiteRun& run, trace::BeaconTraceSet& traces) {
  for (const Reception& r : run.receptions) {
    const SiteObservation& obs = run.observations[r.observation];
    const CampaignSatellite& sat = satellites[obs.satellite];
    const orbit::PassSample geo =
        orbit::sample_geometry(sat.propagator, site.location, r.jd);
    trace::BeaconRecord rec;
    rec.time_unix_s = orbit::julian_to_unix(r.jd);
    rec.station = site.code + "-" + std::to_string(obs.station + 1);
    rec.constellation = cfg.constellations[sat.constellation].name;
    rec.satellite = sat.name;
    rec.rssi_dbm = r.rssi_dbm;
    rec.snr_db = r.snr_db;
    rec.elevation_deg = geo.look.elevation_deg;
    rec.azimuth_deg = geo.look.azimuth_deg;
    rec.range_km = geo.look.range_km;
    rec.doppler_hz = orbit::doppler_shift_hz(
        geo.look.range_rate_km_s, run.links[sat.constellation].carrier_hz);
    rec.sat_altitude_km = geo.subsatellite_point.altitude_km;
    rec.weather = channel::to_string(r.weather);
    traces.add(std::move(rec));
  }
}

}  // namespace

PassiveCampaignResult run_passive_campaign(const PassiveCampaignConfig& cfg) {
  if (cfg.sites.empty())
    throw std::invalid_argument("passive campaign: no sites");
  if (cfg.constellations.empty())
    throw std::invalid_argument("passive campaign: no constellations");
  if (cfg.duration_days <= 0.0)
    throw std::invalid_argument("passive campaign: nonpositive duration");
  if (!(cfg.beacon.period_s > 0.0))
    throw std::invalid_argument("passive campaign: nonpositive beacon period");

  PassiveCampaignResult result;
  sim::RngFactory rngs(cfg.seed);
  const phy::ErrorModel error_model(cfg.error_model);
  const orbit::JulianDate end_jd = cfg.start_jd + cfg.duration_days;

  orbit::PassPredictionOptions pass_opts;
  pass_opts.min_elevation_deg = 0.0;
  pass_opts.coarse_step_s = cfg.pass_scan_step_s;

  // Route the shared pool's task counters into this run's registry for
  // the duration of the campaign (no-op when cfg.metrics is null).
  sim::ThreadPool::MetricsScope pool_scope(sim::ThreadPool::shared(),
                                           cfg.metrics);
  obs::PhaseProfiler phases(cfg.metrics, "core.passive");

  // Predict every (constellation, satellite, site) window up front — one
  // shared-ephemeris grid call per constellation covering ALL sites, so
  // each satellite propagates once per coarse step for the whole
  // campaign instead of once per site. Prediction is deterministic and
  // rng-free, so it cannot change any downstream draw.
  phases.phase("predict");
  std::vector<orbit::GridObserver> site_observers;
  site_observers.reserve(cfg.sites.size());
  for (const MeasurementSite& site : cfg.sites)
    site_observers.push_back(orbit::GridObserver{site.location});
  std::vector<CampaignSatellite> satellites;
  // [constellation][satellite][site] contact windows.
  std::vector<std::vector<std::vector<std::vector<orbit::ContactWindow>>>>
      windows;
  windows.reserve(cfg.constellations.size());
  for (std::size_t c = 0; c < cfg.constellations.size(); ++c) {
    const std::vector<orbit::Tle> tles =
        orbit::generate_tles(cfg.constellations[c], cfg.start_jd);
    windows.push_back(orbit::predict_passes_grid_cached(
        tles, site_observers, cfg.start_jd, end_jd, pass_opts, cfg.threads,
        &orbit::ContactWindowCache::global(), cfg.metrics));
    for (const orbit::Tle& tle : tles)
      satellites.push_back(CampaignSatellite{orbit::Sgp4(tle), tle.name, c});
  }

  // Schedule: per site, record the theoretical windows, list the
  // observation requests in (constellation, satellite, window) order and
  // assign them to the site's stations — the customized scheduler (paper
  // Sec 2.2). Without it, an idealized site observes every window on a
  // round-robin station.
  phases.phase("schedule");
  std::vector<SiteRun> runs(cfg.sites.size());
  for (std::size_t site_index = 0; site_index < cfg.sites.size();
       ++site_index) {
    const MeasurementSite& site = cfg.sites[site_index];
    SiteRun& run = runs[site_index];
    std::size_t window_count = 0;
    for (const auto& constellation_windows : windows)
      for (const auto& sat_windows : constellation_windows)
        window_count += sat_windows[site_index].size();
    std::vector<ObservationRequest> requests;
    requests.reserve(window_count);
    std::size_t sat_index = 0;
    for (std::size_t c = 0; c < cfg.constellations.size(); ++c) {
      const orbit::ConstellationSpec& constellation = cfg.constellations[c];
      phy::LinkConfig link = cfg.beacon_link;
      link.carrier_hz = constellation.dts_frequency_hz;
      link.tx_power_dbm = constellation.beacon_eirp_dbm;
      link.external_noise_db = site.external_noise_db;
      link.lora.sf = static_cast<phy::SpreadingFactor>(
          std::clamp(constellation.beacon_sf, 7, 12));
      run.links.push_back(link);

      std::vector<SatelliteWindows> cell;
      for (std::size_t i = 0; i < windows[c].size(); ++i, ++sat_index) {
        SatelliteWindows sw;
        sw.satellite = satellites[sat_index].name;
        sw.windows = std::move(windows[c][i][site_index]);
        for (const orbit::ContactWindow& w : sw.windows)
          requests.push_back(ObservationRequest{
              sw.satellite, constellation.name, w, sat_index});
        cell.push_back(std::move(sw));
      }
      result.theoretical.emplace(CellKey{site.code, constellation.name},
                                 std::move(cell));
    }

    std::vector<ScheduledObservation> observations;
    if (cfg.use_scheduler) {
      observations = schedule_observations(std::move(requests),
                                           site.station_count,
                                           cfg.station_retune_gap_s);
    } else {
      observations.reserve(requests.size());
      int rr = 0;
      for (ObservationRequest& r : requests)
        observations.push_back(
            ScheduledObservation{std::move(r), rr++ % site.station_count});
    }
    result.windows_requested_observed[site.code] = {window_count,
                                                    observations.size()};

    run.observations.reserve(observations.size());
    for (const ScheduledObservation& o : observations) {
      const orbit::ContactWindow& w = o.request.window;
      run.observations.push_back(SiteObservation{
          w.aos_jd, w.los_jd, static_cast<std::uint32_t>(o.request.id),
          o.station_index});
      run.beacon_slots +=
          static_cast<std::size_t>(w.duration_s() / cfg.beacon.period_s) + 2;
    }
    run.receptions.reserve(run.beacon_slots);
  }

  // Observe: one task per site. A site draws only from its own stream
  // ("passive-<code>"), in the serial order, so running sites
  // concurrently cannot change a draw (splitting a site would). Each task
  // fills only its own SiteRun and the merge below appends the sites in
  // order, so the result is bit-identical at any thread count. Tasks
  // start largest site first, so no big site is left to run alone at the
  // end; that order only changes timing.
  phases.phase("observe");
  std::vector<std::size_t> order(runs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return runs[a].beacon_slots > runs[b].beacon_slots;
                   });
  const auto observe = [&](std::size_t k) {
    const std::size_t i = order[k];
    observe_site(cfg, cfg.sites[i], satellites, error_model,
                 rngs.make("passive-" + cfg.sites[i].code), runs[i]);
  };
  sim::ThreadPool& shared = sim::ThreadPool::shared();
  if (cfg.threads == 1 || runs.size() <= 1) {
    for (std::size_t k = 0; k < runs.size(); ++k) observe(k);
  } else if (cfg.threads == 0 || cfg.threads == shared.size()) {
    shared.parallel_for(runs.size(), observe);
  } else {
    sim::ThreadPool(cfg.threads).parallel_for(runs.size(), observe);
  }

  for (const SiteRun& run : runs) {
    result.beacons_transmitted += run.transmitted;
    result.beacons_received += run.receptions.size();
  }
  result.traces.reserve(result.beacons_received);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    append_records(cfg, cfg.sites[i], satellites, runs[i], result.traces);
    runs[i] = SiteRun{};  // free the site's log as the trace set grows
  }
  phases.stop();

  if (cfg.metrics != nullptr) {
    obs::MetricsRegistry& m = *cfg.metrics;
    m.counter("core.passive.beacons_transmitted")
        .add(result.beacons_transmitted);
    m.counter("core.passive.beacons_received").add(result.beacons_received);
    m.counter("core.passive.sites").add(cfg.sites.size());
    std::uint64_t requested = 0;
    std::uint64_t observed = 0;
    for (const auto& [code, ro] : result.windows_requested_observed) {
      requested += ro.first;
      observed += ro.second;
    }
    m.counter("core.passive.windows_requested").add(requested);
    m.counter("core.passive.windows_observed").add(observed);
  }
  return result;
}

}  // namespace sinet::core
