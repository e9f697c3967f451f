#include "core/passive_campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "channel/fading.h"
#include "channel/weather.h"
#include "core/beacon_kernel.h"
#include "core/scheduler.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "orbit/look_angles.h"
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

namespace {

/// One satellite of the campaign: propagated read-only by every site.
struct CampaignSatellite {
  orbit::Sgp4 propagator;
  orbit::Sgp4TimeBatch lanes;  ///< the propagator, four beacon times a call
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
  /// Per constellation: the beacon's reception without Doppler (time on
  /// air, symbols, demod threshold); each beacon adds its penalty.
  std::vector<phy::PreparedReception> beacon_rx;
  std::vector<SiteObservation> observations;
  /// Upper bound on the beacons the site's windows can carry: the
  /// site's share of the observe work.
  std::size_t beacon_slots = 0;
  /// Reserved up front for every beacon slot: a task never regrows it,
  /// and pages no reception reaches stay untouched.
  std::vector<Reception> receptions;
  std::uint64_t transmitted = 0;
  /// Beacons whose +1 s look was computed for their Doppler rate.
  std::uint64_t doppler_twins = 0;
  /// Beacons the fade bound settled as lost without the fade's quantiles.
  std::uint64_t certified_lost = 0;
  /// Beacons whose geometry came from the scalar sampler's look.
  std::uint64_t scalar_looks = 0;
};

/// Observe every scheduled window of one site: draw the site's daily
/// weather, then sample each window's beacon grid, draw the channel and
/// log the received beacons. `rng` is the site's own stream, consumed in
/// exactly the serial order.
///
/// Each window's beacon positions come from the SIMD kernel first
/// (core/beacon_kernel.h). A beacon it certifies below the horizon draws
/// nothing, as the scalar look would have it; one it certifies above
/// draws its fade's uniforms and is settled as lost when the fade bound
/// at the kernel's geometry clears the limit by kKernelLossMarginDb, the
/// decode the scalar path would settle from the same uniforms. Every
/// other beacon takes the scalar look and the exact path below.
///
/// A beacon's Doppler rate needs a second look one second later. Nothing
/// before the decode reads the rate, and its drift penalty only adds to
/// the shift's, so the decode is first tested on the shift alone: when
/// that is already saturated (the PER curve exactly 1), the full penalty
/// is too, and the decode takes its one draw and fails either way. Only
/// the other beacons pay for the second look. The fade feeds nothing but
/// the decode and the log of a received beacon, so a beacon whose fade
/// bound already saturates the shift-only decode skips the fade's
/// quantiles too (ErrorModel::draw_unless_lost).
void observe_site(const PassiveCampaignConfig& cfg,
                  const MeasurementSite& site,
                  const std::vector<CampaignSatellite>& satellites,
                  const phy::ErrorModel& error_model, double power_slack,
                  sim::Rng rng, SiteRun& run) {
  std::vector<channel::Weather> weather;
  const int days = static_cast<int>(std::ceil(cfg.duration_days));
  weather.reserve(days);
  for (int d = 0; d < days; ++d)
    weather.push_back(rng.chance(site.rainy_fraction)
                          ? channel::Weather::kRainy
                          : channel::Weather::kSunny);

  std::vector<KernelBeacon> beacons;
  for (std::size_t k = 0; k < run.observations.size(); ++k) {
    const SiteObservation& obs = run.observations[k];
    const CampaignSatellite& sat = satellites[obs.satellite];
    const phy::LinkConfig& link = run.links[sat.constellation];
    const phy::PreparedReception& no_doppler =
        run.beacon_rx[sat.constellation];
    const orbit::ElevationSampler sampler(sat.propagator, site.location);
    kernel_window_beacons(sat.lanes, sat.propagator.epoch_jd(),
                          sampler.frame(), obs.aos_jd, obs.los_jd,
                          cfg.beacon.period_s, beacons);
    run.transmitted += beacons.size();
    for (const KernelBeacon& b : beacons) {
      if (b.verdict == KernelVerdict::kBelow) continue;

      const auto day = static_cast<std::size_t>(b.jd - cfg.start_jd);
      const channel::Weather wx =
          weather[std::min<std::size_t>(day, weather.size() - 1)];

      std::optional<channel::FadeUniforms> u;
      if (b.verdict == KernelVerdict::kAbove) {
        u = channel::FadingModel::draw_uniforms(rng);
        if (kernel_settles_loss(error_model, link, no_doppler, power_slack,
                                b, wx, *u)) {
          rng.next_u64();  // receive()'s chance(1.0)
          ++run.certified_lost;
          continue;
        }
      }
      ++run.scalar_looks;
      const orbit::LookAngles look = sampler.look(b.jd);
      if (!u) {
        if (look.elevation_deg < 0.0) continue;
        u = channel::FadingModel::draw_uniforms(rng);
      }

      // The fade draw reads no Doppler rate: draw it with the rate unset.
      const phy::PreparedLink prepared = phy::prepare_link(link, look, wx, 0.0);
      phy::PreparedReception rx = no_doppler;
      rx.doppler_penalty_db = phy::doppler_snr_penalty_db(
          prepared.mean.doppler, link.lora, rx.time_on_air_s);
      const std::optional<phy::LinkState> drawn =
          phy::ErrorModel::draw_unless_lost(
              prepared, error_model.certain_loss_below_db(prepared, rx), *u,
              rng);
      if (!drawn) {
        ++run.certified_lost;
        continue;
      }
      phy::LinkState st = *drawn;
      if (!error_model.saturated(st.snr_db, rx)) {
        // Doppler rate by 1-s finite difference.
        ++run.doppler_twins;
        const orbit::LookAngles look1 =
            sampler.look(b.jd + 1.0 / orbit::kSecondsPerDay);
        st.doppler.rate_hz_per_s =
            orbit::doppler_shift_hz(look1.range_rate_km_s, link.carrier_hz) -
            orbit::doppler_shift_hz(look.range_rate_km_s, link.carrier_hz);
        rx.doppler_penalty_db = phy::doppler_snr_penalty_db(
            st.doppler, link.lora, rx.time_on_air_s);
      }
      if (!error_model.receive(st.snr_db, rx, rng)) continue;
      run.receptions.push_back(Reception{
          b.jd, st.rssi_dbm, st.snr_db, static_cast<std::uint32_t>(k), wx});
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

/// Throws std::invalid_argument unless every field the campaign reads is
/// in range. Each check is written so that NaN fails it.
void validate(const PassiveCampaignConfig& cfg) {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("passive campaign: " + what);
  };
  if (cfg.sites.empty()) reject("no sites");
  if (cfg.constellations.empty()) reject("no constellations");
  if (!(cfg.duration_days > 0.0)) reject("nonpositive duration");
  if (!(cfg.beacon.period_s > 0.0 && std::isfinite(cfg.beacon.period_s)))
    reject("beacon period not finite and > 0");
  if (!(cfg.station_retune_gap_s >= 0.0 &&
        std::isfinite(cfg.station_retune_gap_s)))
    reject("station retune gap not finite and >= 0");
  const phy::LinkConfig& link = cfg.beacon_link;
  if (!(std::isfinite(link.tx_power_dbm) &&
        std::isfinite(link.rx_noise_figure_db) &&
        std::isfinite(link.external_noise_db) &&
        std::isfinite(link.implementation_loss_db)))
    reject("beacon link power, noise or loss not finite");
  if (!(link.lora.bandwidth_hz > 0.0 && std::isfinite(link.lora.bandwidth_hz)))
    reject("beacon bandwidth not finite and > 0");
  // Throws std::invalid_argument on a NaN or out-of-range fading setting.
  static_cast<void>(channel::FadingModel(link.fading));
  // Each constellation's EIRP and carrier replace the beacon link's.
  for (const orbit::ConstellationSpec& c : cfg.constellations) {
    if (!std::isfinite(c.beacon_eirp_dbm))
      reject("constellation " + c.name + " beacon EIRP not finite");
    if (!(c.dts_frequency_hz > 0.0 && std::isfinite(c.dts_frequency_hz)))
      reject("constellation " + c.name + " carrier not finite and > 0");
  }
  for (const MeasurementSite& site : cfg.sites) {
    if (!(site.station_count >= 1))
      reject("site " + site.code + " has no station");
    if (!(site.rainy_fraction >= 0.0 && site.rainy_fraction <= 1.0))
      reject("site " + site.code + " rainy fraction out of [0, 1]");
    if (!(std::isfinite(site.location.latitude_deg) &&
          std::isfinite(site.location.longitude_deg) &&
          std::isfinite(site.location.altitude_km)))
      reject("site " + site.code + " location not finite");
    if (!std::isfinite(site.external_noise_db))
      reject("site " + site.code + " external noise not finite");
  }
}

}  // namespace

PassiveCampaignResult run_passive_campaign(const PassiveCampaignConfig& cfg) {
  validate(cfg);

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

  // Predict every (satellite, site) window up front — one
  // shared-ephemeris grid call for every satellite of every constellation
  // over ALL sites, so each satellite propagates once per coarse step for
  // the whole campaign instead of once per site. Prediction is
  // deterministic and rng-free, so it cannot change any downstream draw.
  phases.phase("predict");
  std::vector<orbit::GridObserver> site_observers;
  site_observers.reserve(cfg.sites.size());
  for (const MeasurementSite& site : cfg.sites)
    site_observers.push_back(orbit::GridObserver{site.location});
  std::vector<orbit::Tle> tles;
  std::vector<CampaignSatellite> satellites;
  for (std::size_t c = 0; c < cfg.constellations.size(); ++c) {
    for (orbit::Tle& tle :
         orbit::generate_tles(cfg.constellations[c], cfg.start_jd)) {
      const orbit::Sgp4 propagator(tle);
      satellites.push_back(CampaignSatellite{
          propagator, orbit::Sgp4TimeBatch(propagator), tle.name, c});
      tles.push_back(std::move(tle));
    }
  }
  // [satellite][site] contact windows, satellites grouped by constellation.
  std::vector<std::vector<std::vector<orbit::ContactWindow>>> windows =
      orbit::predict_passes_grid_cached(
          tles, site_observers, cfg.start_jd, end_jd, pass_opts, cfg.threads,
          &orbit::ContactWindowCache::global(), cfg.metrics);

  // Schedule: per site, record the theoretical windows, list the
  // observation requests in (constellation, satellite, window) order and
  // assign them to the site's stations — the customized scheduler (paper
  // Sec 2.2).
  phases.phase("schedule");
  std::vector<SiteRun> runs(cfg.sites.size());
  for (std::size_t site_index = 0; site_index < cfg.sites.size();
       ++site_index) {
    const MeasurementSite& site = cfg.sites[site_index];
    SiteRun& run = runs[site_index];
    std::size_t window_count = 0;
    for (const auto& sat_windows : windows)
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
      run.beacon_rx.push_back(error_model.prepare(
          phy::DopplerProfile{}, link.lora, cfg.beacon.payload_bytes));

      std::vector<SatelliteWindows> cell;
      for (; sat_index < satellites.size() &&
             satellites[sat_index].constellation == c;
           ++sat_index) {
        SatelliteWindows sw;
        sw.satellite = satellites[sat_index].name;
        sw.windows = std::move(windows[sat_index][site_index]);
        for (const orbit::ContactWindow& w : sw.windows)
          requests.push_back(ObservationRequest{
              sw.satellite, constellation.name, w, sat_index});
        cell.push_back(std::move(sw));
      }
      result.theoretical.emplace(CellKey{site.code, constellation.name},
                                 std::move(cell));
    }

    const std::vector<ScheduledObservation> observations =
        schedule_observations(std::move(requests), site.station_count,
                              cfg.station_retune_gap_s);
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
  const double power_slack = kernel_fade_power_slack(cfg.beacon_link.fading);
  const auto observe = [&](std::size_t k) {
    const std::size_t i = order[k];
    observe_site(cfg, cfg.sites[i], satellites, error_model, power_slack,
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

  std::uint64_t doppler_twins = 0;
  std::uint64_t certified_lost = 0;
  std::uint64_t scalar_looks = 0;
  for (const SiteRun& run : runs) {
    result.beacons_transmitted += run.transmitted;
    result.beacons_received += run.receptions.size();
    doppler_twins += run.doppler_twins;
    certified_lost += run.certified_lost;
    scalar_looks += run.scalar_looks;
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
    m.counter("core.passive.doppler_twins").add(doppler_twins);
    m.counter("core.passive.beacons_certified_lost").add(certified_lost);
    m.counter("core.passive.scalar_looks").add(scalar_looks);
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
