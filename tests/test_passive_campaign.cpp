// Passive measurement campaign integration tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "channel/antenna.h"
#include "channel/fading.h"
#include "core/beacon_kernel.h"
#include "core/passive_campaign.h"
#include "obs/metrics.h"
#include "orbit/passes.h"
#include "orbit/sgp4_batch.h"
#include "passive_observe_oracle.h"
#include "phy/doppler.h"
#include "phy/error_model.h"
#include "phy/link_budget.h"
#include "sim/rng.h"

namespace {

using namespace sinet::core;
using sinet::trace::BeaconRecord;

/// Every field of every record, in order, with raw double equality.
void expect_same_records(const std::vector<BeaconRecord>& got,
                         const std::vector<BeaconRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(got[i].time_unix_s, want[i].time_unix_s);
    EXPECT_EQ(got[i].station, want[i].station);
    EXPECT_EQ(got[i].constellation, want[i].constellation);
    EXPECT_EQ(got[i].satellite, want[i].satellite);
    EXPECT_EQ(got[i].rssi_dbm, want[i].rssi_dbm);
    EXPECT_EQ(got[i].snr_db, want[i].snr_db);
    EXPECT_EQ(got[i].elevation_deg, want[i].elevation_deg);
    EXPECT_EQ(got[i].azimuth_deg, want[i].azimuth_deg);
    EXPECT_EQ(got[i].range_km, want[i].range_km);
    EXPECT_EQ(got[i].doppler_hz, want[i].doppler_hz);
    EXPECT_EQ(got[i].sat_altitude_km, want[i].sat_altitude_km);
    EXPECT_EQ(got[i].weather, want[i].weather);
    if (::testing::Test::HasFailure()) return;  // one record is enough
  }
}

void expect_same_cell(const std::vector<SatelliteWindows>& got,
                      const std::vector<SatelliteWindows>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].satellite, want[s].satellite);
    ASSERT_EQ(got[s].windows.size(), want[s].windows.size());
    for (std::size_t w = 0; w < got[s].windows.size(); ++w) {
      EXPECT_EQ(got[s].windows[w].aos_jd, want[s].windows[w].aos_jd);
      EXPECT_EQ(got[s].windows[w].los_jd, want[s].windows[w].los_jd);
      EXPECT_EQ(got[s].windows[w].tca_jd, want[s].windows[w].tca_jd);
      EXPECT_EQ(got[s].windows[w].max_elevation_deg,
                want[s].windows[w].max_elevation_deg);
    }
  }
}

/// Every output of two campaign runs.
void expect_same_result(const PassiveCampaignResult& got,
                        const PassiveCampaignResult& want) {
  EXPECT_EQ(got.beacons_transmitted, want.beacons_transmitted);
  EXPECT_EQ(got.beacons_received, want.beacons_received);
  EXPECT_EQ(got.windows_requested_observed, want.windows_requested_observed);
  ASSERT_EQ(got.theoretical.size(), want.theoretical.size());
  for (const auto& [key, cell] : want.theoretical) {
    SCOPED_TRACE(key.first + "/" + key.second);
    const auto it = got.theoretical.find(key);
    ASSERT_NE(it, got.theoretical.end());
    expect_same_cell(it->second, cell);
  }
  expect_same_records(got.traces.records(), want.traces.records());
}

PassiveCampaignConfig tiny_campaign() {
  PassiveCampaignConfig cfg = default_campaign(1.0);
  // One site, two constellations: keeps the test fast.
  cfg.sites = {paper_site("HK")};
  cfg.constellations = {sinet::orbit::paper_constellation("FOSSA"),
                        sinet::orbit::paper_constellation("Tianqi")};
  return cfg;
}

const PassiveCampaignResult& shared_campaign() {
  static const PassiveCampaignResult result =
      run_passive_campaign(tiny_campaign());
  return result;
}

TEST(PassiveCampaign, ProducesTraces) {
  const auto& res = shared_campaign();
  EXPECT_GT(res.traces.size(), 100u);
  EXPECT_GT(res.beacons_transmitted, res.beacons_received);
  EXPECT_EQ(res.traces.size(), res.beacons_received);
}

TEST(PassiveCampaign, TraceFieldsPlausible) {
  const auto& res = shared_campaign();
  for (const auto& r : res.traces.records()) {
    EXPECT_TRUE(r.constellation == "FOSSA" || r.constellation == "Tianqi");
    EXPECT_EQ(r.station.rfind("HK-", 0), 0u);
    // Paper Fig 3b: RSSI of received beacons between about -140 and -105.
    EXPECT_GT(r.rssi_dbm, -145.0);
    EXPECT_LT(r.rssi_dbm, -95.0);
    EXPECT_GE(r.elevation_deg, 0.0);
    EXPECT_LE(r.elevation_deg, 90.0);
    EXPECT_GT(r.range_km, 400.0);
    EXPECT_LT(r.range_km, 3600.0);
    EXPECT_LT(std::abs(r.doppler_hz), 12000.0);  // < ~30 ppm at 400 MHz
    EXPECT_TRUE(r.weather == "sunny" || r.weather == "rainy");
  }
}

TEST(PassiveCampaign, TheoreticalWindowsPopulated) {
  const auto& res = shared_campaign();
  const auto window_count = [&](const CellKey& key) {
    std::size_t n = 0;
    for (const SatelliteWindows& sw : res.theoretical.at(key))
      n += sw.windows.size();
    return n;
  };
  EXPECT_GT(window_count({"HK", "FOSSA"}), 3u);    // 3 sats, several passes
  EXPECT_GT(window_count({"HK", "Tianqi"}), 30u);  // 22 sats
  EXPECT_EQ(res.theoretical.count({"HK", "Nonexistent"}), 0u);
}

TEST(PassiveCampaign, TianqiSeesFartherThanFossa) {
  // Tianqi orbits ~860 km: its receptions span longer slant ranges
  // (paper Fig 8: 1,100-3,500 km vs 600-2,000 km).
  const auto& res = shared_campaign();
  double tianqi_max = 0.0, fossa_max = 0.0;
  for (const auto& r : res.traces.records()) {
    if (r.constellation == "Tianqi")
      tianqi_max = std::max(tianqi_max, r.range_km);
    else
      fossa_max = std::max(fossa_max, r.range_km);
  }
  EXPECT_GT(tianqi_max, fossa_max);
}

TEST(PassiveCampaign, StationAssignmentRoundRobins) {
  PassiveCampaignConfig cfg = tiny_campaign();
  const auto res = run_passive_campaign(cfg);
  std::set<std::string> stations;
  for (const auto& r : res.traces.records()) stations.insert(r.station);
  // HK has 6 stations; round-robin should touch most of them.
  EXPECT_GE(stations.size(), 4u);
}

TEST(PassiveCampaign, DeterministicForSeed) {
  const auto a = run_passive_campaign(tiny_campaign());
  const auto b = run_passive_campaign(tiny_campaign());
  ASSERT_FALSE(a.traces.empty());
  expect_same_result(a, b);

  // The comparison can fail: another seed redraws the channel.
  PassiveCampaignConfig other = tiny_campaign();
  other.seed = 2;
  const auto c = run_passive_campaign(other);
  EXPECT_TRUE(c.traces.size() != a.traces.size() ||
              c.traces.records().front().rssi_dbm !=
                  a.traces.records().front().rssi_dbm);
}

// The observe phase runs one task per site. Every output must be the
// serial run's, bit for bit, at any thread count.
TEST(PassiveCampaignParallel, ThreadCountInvariant) {
  PassiveCampaignConfig cfg = default_campaign(2.0);
  ASSERT_EQ(cfg.sites.size(), 8u);
  // An empty window cache before each run: every run predicts its windows
  // at its own thread count instead of reading the serial run's.
  sinet::orbit::ContactWindowCache::global().clear();
  cfg.threads = 1;
  const PassiveCampaignResult serial = run_passive_campaign(cfg);
  ASSERT_GT(serial.traces.size(), 1000u);
  for (const unsigned threads : {2u, 4u, 0u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    cfg.threads = threads;
    sinet::orbit::ContactWindowCache::global().clear();
    expect_same_result(run_passive_campaign(cfg), serial);
  }
}

// What the per-site fan-out relies on: a site's records depend on no
// other site. The full run holds each site's solo records, contiguous
// and in site order.
TEST(PassiveCampaignParallel, SitesAreIsolated) {
  const PassiveCampaignConfig cfg = default_campaign(2.0);
  const PassiveCampaignResult full = run_passive_campaign(cfg);
  const std::vector<BeaconRecord>& all = full.traces.records();
  std::size_t offset = 0;
  std::uint64_t transmitted = 0;
  for (const MeasurementSite& site : cfg.sites) {
    SCOPED_TRACE(site.code);
    PassiveCampaignConfig solo_cfg = cfg;
    solo_cfg.sites = {site};
    const PassiveCampaignResult solo = run_passive_campaign(solo_cfg);
    ASSERT_FALSE(solo.traces.empty());
    ASSERT_LE(offset + solo.traces.size(), all.size());
    const std::vector<BeaconRecord> slice(
        all.begin() + static_cast<std::ptrdiff_t>(offset),
        all.begin() + static_cast<std::ptrdiff_t>(offset + solo.traces.size()));
    expect_same_records(slice, solo.traces.records());
    EXPECT_EQ(full.windows_requested_observed.at(site.code),
              solo.windows_requested_observed.at(site.code));
    for (const auto& [key, cell] : solo.theoretical)
      expect_same_cell(full.theoretical.at(key), cell);
    offset += solo.traces.size();
    transmitted += solo.beacons_transmitted;
  }
  EXPECT_EQ(offset, all.size());
  EXPECT_EQ(transmitted, full.beacons_transmitted);
}

TEST(PassiveCampaign, ConfigValidation) {
  PassiveCampaignConfig cfg = tiny_campaign();
  cfg.sites.clear();
  EXPECT_THROW(run_passive_campaign(cfg), std::invalid_argument);
  PassiveCampaignConfig cfg2 = tiny_campaign();
  cfg2.constellations.clear();
  EXPECT_THROW(run_passive_campaign(cfg2), std::invalid_argument);
  PassiveCampaignConfig cfg3 = tiny_campaign();
  cfg3.duration_days = -1.0;
  EXPECT_THROW(run_passive_campaign(cfg3), std::invalid_argument);
  PassiveCampaignConfig cfg4 = tiny_campaign();
  cfg4.beacon.period_s = 0.0;  // would never leave the first window
  EXPECT_THROW(run_passive_campaign(cfg4), std::invalid_argument);

  // One bad value per run, checked before the predict phase. Several of
  // these used to crash the run or run it silently on nonsense; NaN must
  // fail every check.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto rejects = [](auto&& spoil) {
    PassiveCampaignConfig bad = tiny_campaign();
    spoil(bad);
    EXPECT_THROW(run_passive_campaign(bad), std::invalid_argument);
  };
  rejects([](PassiveCampaignConfig& c) { c.sites[0].station_count = 0; });
  rejects([](PassiveCampaignConfig& c) { c.sites[0].station_count = -1; });
  rejects([](PassiveCampaignConfig& c) { c.sites[0].rainy_fraction = kNaN; });
  rejects([](PassiveCampaignConfig& c) { c.sites[0].rainy_fraction = 5.0; });
  rejects([](PassiveCampaignConfig& c) { c.sites[0].rainy_fraction = -0.1; });
  rejects([](PassiveCampaignConfig& c) {
    c.sites[0].location.latitude_deg = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.sites[0].location.longitude_deg = kInf;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.sites[0].location.altitude_km = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.sites[0].external_noise_db = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.sites[0].external_noise_db = -kInf;
  });
  rejects([](PassiveCampaignConfig& c) { c.station_retune_gap_s = kNaN; });
  rejects([](PassiveCampaignConfig& c) { c.station_retune_gap_s = kInf; });
  rejects([](PassiveCampaignConfig& c) { c.station_retune_gap_s = -1.0; });
  rejects([](PassiveCampaignConfig& c) { c.beacon.period_s = kInf; });
  rejects([](PassiveCampaignConfig& c) { c.beacon.period_s = kNaN; });
  rejects([](PassiveCampaignConfig& c) { c.duration_days = kNaN; });
  rejects([](PassiveCampaignConfig& c) { c.beacon_link.tx_power_dbm = kNaN; });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.rx_noise_figure_db = kInf;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.external_noise_db = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.implementation_loss_db = -kInf;
  });
  // Each constellation's EIRP and carrier replace the beacon link's, so
  // they are checked on their own; so are the beacon's bandwidth and
  // fading, which a NaN used to carry into NaN RSSI and SNR records.
  rejects([](PassiveCampaignConfig& c) {
    c.constellations[1].beacon_eirp_dbm = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.constellations[0].beacon_eirp_dbm = kInf;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.constellations[1].dts_frequency_hz = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.constellations[0].dts_frequency_hz = kInf;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.constellations[0].dts_frequency_hz = 0.0;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.fading.shadowing_sigma_db = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.fading.shadowing_sigma_db = kInf;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.fading.rician_k_db = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.fading.low_elevation_k_db = -kInf;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.fading.k_rolloff_elevation_deg = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.lora.bandwidth_hz = kNaN;
  });
  rejects([](PassiveCampaignConfig& c) {
    c.beacon_link.lora.bandwidth_hz = 0.0;
  });
  // A coarse scan step longer than the campaign: the refinement bracket
  // of the first sample would reach before the start.
  rejects([](PassiveCampaignConfig& c) { c.pass_scan_step_s = 1e9; });
  // The checks reject only bad values: the edges still run.
  PassiveCampaignConfig edges = tiny_campaign();
  edges.sites[0].rainy_fraction = 1.0;
  edges.station_retune_gap_s = 0.0;
  EXPECT_NO_THROW((void)run_passive_campaign(edges));
}

// The observe loop computes a beacon's +1 s look for its Doppler rate
// only when the decode is not already saturated on the Doppler shift
// alone. The eager loop it replaced is the oracle: every record, the
// draws behind it and the counts must be its, bit for bit.
TEST(PassiveCampaign, ObserveMatchesEagerTwinOracle) {
  // Seeds 1 and 7, each at threads 1 and 0 against the oracle of the
  // 1-thread run.
  std::size_t records = 0;
  for (const std::uint64_t seed : {1u, 7u}) {
    PassiveCampaignConfig cfg = default_campaign(2.0);
    ASSERT_EQ(cfg.sites.size(), 8u);
    cfg.seed = seed;
    std::optional<sinet::testing::OracleObserve> want;
    for (const unsigned threads : {1u, 0u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                   std::to_string(threads));
      cfg.threads = threads;
      const PassiveCampaignResult got = run_passive_campaign(cfg);
      if (!want) want = sinet::testing::oracle_observe(cfg, got);
      EXPECT_EQ(got.beacons_transmitted, want->transmitted);
      EXPECT_EQ(got.beacons_received, want->received.size());
      const std::vector<BeaconRecord>& recs = got.traces.records();
      ASSERT_EQ(recs.size(), want->received.size());
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const sinet::testing::OracleReception& w = want->received[i];
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(recs[i].time_unix_s, sinet::orbit::julian_to_unix(w.jd));
        EXPECT_EQ(recs[i].rssi_dbm, w.rssi_dbm);
        EXPECT_EQ(recs[i].snr_db, w.snr_db);
        EXPECT_EQ(recs[i].station, w.station);
        EXPECT_EQ(recs[i].satellite, w.satellite);
        EXPECT_EQ(recs[i].weather, sinet::channel::to_string(w.weather));
        if (::testing::Test::HasFailure()) return;  // one record is enough
      }
      records += recs.size();
    }
  }
  EXPECT_GT(records, 9000u);
}

// The skips are the gain: a run that computes the +1 s look, or the
// scalar look, for every beacon again must fail here. Every received
// beacon needed both, and on the default campaign fewer than one beacon
// in ten needs either: 9,461 of 201,238 beacons take a scalar look (a
// beacon the kernel settles is lost), with 3,458 received.
TEST(PassiveCampaign, DopplerTwinsOnlyWhereTheDecodeCanSucceed) {
  sinet::obs::MetricsRegistry metrics;
  PassiveCampaignConfig cfg = default_campaign(2.0);
  cfg.metrics = &metrics;
  const PassiveCampaignResult r = run_passive_campaign(cfg);
  const sinet::obs::Snapshot snap = metrics.snapshot();
  ASSERT_EQ(snap.counters.count("core.passive.doppler_twins"), 1u);
  const std::uint64_t twins = snap.counters.at("core.passive.doppler_twins");
  ASSERT_GT(r.beacons_received, 1000u);
  EXPECT_GE(twins, r.beacons_received);
  EXPECT_LE(static_cast<double>(twins),
            0.10 * static_cast<double>(r.beacons_transmitted));
  // The fade bound settles a beacon before its twin could be needed, and
  // settles most of them: 190,974 of 201,238.
  ASSERT_EQ(snap.counters.count("core.passive.beacons_certified_lost"), 1u);
  const std::uint64_t settled =
      snap.counters.at("core.passive.beacons_certified_lost");
  EXPECT_LE(settled + twins, r.beacons_transmitted);
  EXPECT_GT(static_cast<double>(settled),
            0.8 * static_cast<double>(r.beacons_transmitted));
  ASSERT_EQ(snap.counters.count("core.passive.scalar_looks"), 1u);
  const std::uint64_t looks = snap.counters.at("core.passive.scalar_looks");
  EXPECT_GE(looks, r.beacons_received);
  EXPECT_LE(static_cast<double>(looks),
            0.10 * static_cast<double>(r.beacons_transmitted));
  RecordProperty("twin_share",
                 std::to_string(static_cast<double>(twins) /
                                static_cast<double>(r.beacons_transmitted)));
  RecordProperty("scalar_look_share",
                 std::to_string(static_cast<double>(looks) /
                                static_cast<double>(r.beacons_transmitted)));
}

// The kernel's verdicts (core/beacon_kernel.h) against the scalar path at
// every beacon of the 3-day default campaign, replayed on each site's
// stream as the oracle replays it. The beacon times must be the loop's;
// a beacon the kernel puts below the horizon must be below it in the
// scalar look, and one it puts above must be at or above it; one it
// settles as lost must be one the scalar path settles from the same
// uniforms; and the kernel's and the scalar geometry's (fade bound -
// limit), both without Doppler, must agree to 1e-6 dB, five orders of
// magnitude inside kKernelLossMarginDb. The kernel must decide most
// beacons, or the test would check little.
TEST(PassiveCampaign, KernelVerdictsHoldAgainstScalarLooks) {
  namespace orbit = sinet::orbit;
  namespace phy = sinet::phy;
  using sinet::channel::FadingModel;
  const PassiveCampaignConfig cfg = default_campaign(3.0);
  const PassiveCampaignResult result = run_passive_campaign(cfg);
  const std::vector<sinet::testing::OracleSatellite> satellites =
      sinet::testing::oracle_satellites(cfg);
  const phy::ErrorModel model(cfg.error_model);
  const double slack = kernel_fade_power_slack(cfg.beacon_link.fading);
  sinet::sim::RngFactory rngs(cfg.seed);
  std::uint64_t transmitted = 0, below = 0, above = 0, settled = 0;
  std::uint64_t mismatches = 0, non_finite = 0;
  double worst_gap_db = 0.0;
  std::string first;
  const auto fail = [&](const std::string& what) {
    if (mismatches++ == 0) first = what;
  };
  std::vector<KernelBeacon> beacons;
  for (const MeasurementSite& site : cfg.sites) {
    sinet::sim::Rng rng = rngs.make("passive-" + site.code);
    const sinet::testing::OracleSitePlan plan =
        sinet::testing::oracle_site_plan(cfg, result, site, rng);
    for (const ScheduledObservation& o : plan.observations) {
      const sinet::testing::OracleSatellite& sat = satellites[o.request.id];
      const phy::LinkConfig& link = plan.links[sat.constellation];
      const phy::PreparedReception no_doppler = model.prepare(
          phy::DopplerProfile{}, link.lora, cfg.beacon.payload_bytes);
      const orbit::ElevationSampler sampler(sat.propagator, site.location);
      const orbit::ContactWindow& w = o.request.window;
      kernel_window_beacons(orbit::Sgp4TimeBatch(sat.propagator),
                            sat.propagator.epoch_jd(), sampler.frame(),
                            w.aos_jd, w.los_jd, cfg.beacon.period_s,
                            beacons);
      std::size_t i = 0;
      for (double t = 0.0;; t += cfg.beacon.period_s) {
        const orbit::JulianDate jd = w.aos_jd + t / orbit::kSecondsPerDay;
        if (jd > w.los_jd) break;
        ++transmitted;
        const std::string where = site.code + " " + sat.name + " jd " +
                                  std::to_string(jd) + ": ";
        if (i == beacons.size()) {
          fail(where + "the kernel window ends early");
          break;
        }
        const KernelBeacon& b = beacons[i++];
        if (b.jd != jd) fail(where + "beacon time differs");
        const orbit::LookAngles look = sampler.look(jd);
        if (b.verdict == KernelVerdict::kBelow) {
          ++below;
          if (!(look.elevation_deg < 0.0))
            fail(where + "kernel below, scalar at or above the horizon");
        }
        if (look.elevation_deg < 0.0) {
          if (b.verdict == KernelVerdict::kAbove)
            fail(where + "kernel above, scalar below the horizon");
          continue;  // no draws
        }
        const sinet::channel::Weather wx =
            sinet::testing::oracle_weather(cfg, plan, jd);
        const sinet::channel::FadeUniforms u = FadingModel::draw_uniforms(rng);
        rng.next_u64();  // the decode's word, settled or not
        if (b.verdict != KernelVerdict::kAbove) continue;
        ++above;

        const phy::PreparedLink exact = phy::prepare_link(link, look, wx, 0.0);
        phy::PreparedReception rx = no_doppler;
        rx.doppler_penalty_db = phy::doppler_snr_penalty_db(
            exact.mean.doppler, link.lora, rx.time_on_air_s);
        const bool exact_settles =
            FadingModel::fade_bound_db(exact.fade, u) <
            model.certain_loss_below_db(exact, rx);
        if (kernel_settles_loss(model, link, no_doppler, slack, b, wx, u)) {
          ++settled;
          if (!exact_settles)
            fail(where + "kernel settled, the scalar path does not");
        }
        orbit::LookAngles kernel_look;
        kernel_look.elevation_deg = b.elevation_deg;
        kernel_look.range_km = b.range_km;
        const phy::PreparedLink kernel =
            phy::prepare_link(link, kernel_look, wx, 0.0);
        const double gap =
            (FadingModel::fade_bound_db(kernel.fade, u) -
             model.certain_loss_below_db(kernel, no_doppler)) -
            (FadingModel::fade_bound_db(exact.fade, u) -
             model.certain_loss_below_db(exact, no_doppler));
        if (std::isfinite(gap))
          worst_gap_db = std::max(worst_gap_db, std::abs(gap));
        else
          ++non_finite;
      }
      if (i != beacons.size())
        fail(site.code + " " + sat.name + ": the kernel window runs long");
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
  EXPECT_EQ(non_finite, 0u);
  EXPECT_LT(worst_gap_db, 1e-6);
  EXPECT_EQ(transmitted, result.beacons_transmitted);
  // Most beacons carry a kernel verdict and most of those are settled.
  EXPECT_GT(static_cast<double>(below + above),
            0.95 * static_cast<double>(transmitted));
  EXPECT_GT(below, 0u);
  EXPECT_GT(static_cast<double>(settled), 0.9 * static_cast<double>(above));
  RecordProperty("worst_gap_db", std::to_string(worst_gap_db));
  RecordProperty("kernel_settled", std::to_string(settled));
}

// The margin's worst case, which no campaign beacon reaches: a beacon
// within 0.057 deg of zenith, where the dipole's gain steps by 0.021 dB,
// that the kernel sees just inside the step and the scalar look just
// outside it (a sine error of 5e-9, the lane certificate's bound,
// straddles it there), with a dipole at both ends. Swept across the
// limit, every beacon the kernel settles must be one the scalar geometry
// settles at its lowest limit (no Doppler penalty). With
// kKernelLossMarginDb planted at 0 the kernel settles beacons within
// 0.041 dB above that limit, which the scalar path decodes.
TEST(BeaconKernel, MarginCoversTheDipoleZenithStep) {
  namespace orbit = sinet::orbit;
  namespace phy = sinet::phy;
  using sinet::channel::FadingModel;
  const PassiveCampaignConfig cfg = default_campaign(1.0);
  phy::LinkConfig link = cfg.beacon_link;
  link.tx_antenna = sinet::channel::AntennaType::kDipole;
  link.rx_antenna = sinet::channel::AntennaType::kDipole;
  const phy::ErrorModel model(cfg.error_model);
  const phy::PreparedReception no_doppler = model.prepare(
      phy::DopplerProfile{}, link.lora, cfg.beacon.payload_bytes);
  const double slack = kernel_fade_power_slack(link.fading);
  const sinet::channel::Weather wx = sinet::channel::Weather::kSunny;

  // The step lies at sin(theta) = 1e-3, theta off zenith.
  const double sin_scalar = std::cos(1.0004e-3);
  orbit::LookAngles scalar;
  scalar.elevation_deg = std::asin(sin_scalar) * orbit::kRadToDeg;
  scalar.range_km = 700.0;
  KernelBeacon b;
  b.verdict = KernelVerdict::kAbove;
  b.elevation_deg = std::asin(sin_scalar + 5e-9) * orbit::kRadToDeg;
  b.range_km = scalar.range_km;
  ASSERT_LT(sinet::channel::antenna_gain_dbi(link.tx_antenna, b.elevation_deg),
            sinet::channel::antenna_gain_dbi(link.tx_antenna,
                                             scalar.elevation_deg) -
                0.02);

  sinet::sim::Rng rng(2026);
  std::uint64_t settled = 0, wrong = 0;
  for (int i = 0; i < 200; ++i) {
    const sinet::channel::FadeUniforms u = FadingModel::draw_uniforms(rng);
    const phy::PreparedLink at_default =
        phy::prepare_link(link, scalar, wx, 0.0);
    // A dB of EIRP moves the limit by a dB: sweep the scalar path's
    // (fade bound - limit) from -0.2 to +0.2 dB.
    const double over = FadingModel::fade_bound_db(at_default.fade, u) -
                        model.certain_loss_below_db(at_default, no_doppler);
    for (int k = -100; k <= 100; ++k) {
      phy::LinkConfig swept = link;
      swept.tx_power_dbm = link.tx_power_dbm - over + 0.002 * k;
      const phy::PreparedLink exact =
          phy::prepare_link(swept, scalar, wx, 0.0);
      const bool exact_settles =
          FadingModel::fade_bound_db(exact.fade, u) <
          model.certain_loss_below_db(exact, no_doppler);
      if (kernel_settles_loss(model, swept, no_doppler, slack, b, wx, u)) {
        ++settled;
        if (!exact_settles) ++wrong;
      }
    }
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_GT(settled, 1000u);

  // The other straddle, the kernel's gain above the scalar look's, at
  // mean SNRs swept across -kCertifiedRangeDb, where the scalar limit
  // stops being certified: the kernel must not settle a beacon whose
  // scalar limit is not covered.
  KernelBeacon outside = b;
  outside.elevation_deg = std::asin(sin_scalar - 5e-9) * orbit::kRadToDeg;
  orbit::LookAngles inside = scalar;
  inside.elevation_deg = b.elevation_deg;
  const double snr_default =
      phy::prepare_link(link, inside, wx, 0.0).mean.snr_db;
  std::uint64_t edge_settled = 0, edge_wrong = 0;
  for (int k = -100; k <= 100; ++k) {
    phy::LinkConfig swept = link;
    swept.tx_power_dbm = link.tx_power_dbm - snr_default -
                         phy::ErrorModel::kCertifiedRangeDb + 0.002 * k;
    const phy::PreparedLink exact = phy::prepare_link(swept, inside, wx, 0.0);
    const sinet::channel::FadeUniforms u = FadingModel::draw_uniforms(rng);
    const bool exact_settles =
        FadingModel::fade_bound_db(exact.fade, u) <
        model.certain_loss_below_db(exact, no_doppler);
    if (kernel_settles_loss(model, swept, no_doppler, slack, outside, wx,
                            u)) {
      ++edge_settled;
      if (!exact_settles) ++edge_wrong;
    }
  }
  EXPECT_EQ(edge_wrong, 0u);
  EXPECT_GT(edge_settled, 0u);
}

// The K-factor slack (kernel_fade_power_slack): random fading settings,
// their K-factors at a scalar elevation and at the kernel's, whose sine
// differs by the lane certificate's 5e-9 (up to 0.0058 deg apart near
// zenith). Once the kernel's power carries the slack, the scalar fade
// bound must lie within power_db_upper_bound's bucket of the kernel's at
// every uniform, deep fades included, where the dB of the power moves
// without limit. Without the slack it does not.
TEST(BeaconKernel, FadePowerSlackCoversTheKFactorError) {
  using sinet::channel::FadingConfig;
  using sinet::channel::FadingModel;
  const double bucket_db = 10.0 * std::log10(1.0 + 0x1.0p-10) + 1e-9;
  sinet::sim::Rng rng(17);
  std::uint64_t checked = 0, beyond = 0, beyond_unpadded = 0, disarmed = 0;
  for (int i = 0; i < 200'000; ++i) {
    FadingConfig fading;
    fading.shadowing_sigma_db = 0.0;  // the Rician term alone
    fading.rician_k_db = rng.uniform(-20.0, 40.0);
    fading.low_elevation_k_db = rng.uniform(-20.0, 40.0);
    fading.k_rolloff_elevation_deg = std::pow(10.0, rng.uniform(-2.0, 2.0));
    const FadingModel model(fading);
    const double slack = kernel_fade_power_slack(fading);
    if (!std::isfinite(slack)) {
      ++disarmed;
      continue;
    }
    // Half the elevations where the K-factor moves, below the rolloff.
    const double top_deg =
        i % 2 == 0 ? std::min(fading.k_rolloff_elevation_deg, 90.0) : 90.0;
    const double sin_scalar = std::max(
        std::sin(rng.uniform(0.0, top_deg) * sinet::orbit::kDegToRad), 1e-3);
    const double sin_kernel =
        std::min(sin_scalar + (rng.chance(0.5) ? 5e-9 : -5e-9), 1.0);
    const auto fade = [&](double sin_el) {
      return model.prepare(std::asin(sin_el) * sinet::orbit::kRadToDeg,
                           sinet::channel::Weather::kSunny);
    };
    // Half the uniforms random, half a deep fade: the in-phase term's
    // normal at -los / sigma, where it cancels the line of sight, and the
    // quadrature term's at 0.
    sinet::channel::FadeUniforms u = FadingModel::draw_uniforms(rng);
    if (i % 4 < 2) {
      const sinet::sim::RicianParams r = fade(sin_scalar).rician;
      u.x = 0.5 * std::erfc(r.los / r.sigma / std::sqrt(2.0));
      u.y = 0.5;
    }
    const double want = FadingModel::fade_bound_db(fade(sin_scalar), u);
    ++checked;
    if (want > FadingModel::fade_bound_db(fade(sin_kernel), u, slack) +
                   bucket_db + 1e-12)
      ++beyond;
    if (want > FadingModel::fade_bound_db(fade(sin_kernel), u) + bucket_db +
                   1e-12)
      ++beyond_unpadded;
  }
  EXPECT_EQ(beyond, 0u);
  EXPECT_GT(beyond_unpadded, 0u);
  EXPECT_GT(checked, 100'000u);
  // A K-factor that can move by more than 1 dB settles nothing.
  FadingConfig cliff;
  cliff.rician_k_db = 40.0;
  cliff.low_elevation_k_db = -20.0;
  cliff.k_rolloff_elevation_deg = 1e-6;
  EXPECT_EQ(kernel_fade_power_slack(cliff),
            std::numeric_limits<double>::infinity());
  RecordProperty("unpadded_beyond", std::to_string(beyond_unpadded));
  RecordProperty("disarmed", std::to_string(disarmed));
}

TEST(PassiveCampaign, QuieterSiteLogsMoreTraces) {
  // YC (rural highland, low man-made noise) should out-collect a dense
  // city with the same constellation — the Table 1 pattern.
  PassiveCampaignConfig cfg = default_campaign(1.0);
  MeasurementSite quiet = paper_site("YC");
  MeasurementSite noisy = paper_site("LDN");
  // Equalize geometry factors other than noise by co-locating them.
  noisy.location = quiet.location;
  quiet.code = "QQ";
  noisy.code = "NN";
  cfg.sites = {quiet, noisy};
  cfg.constellations = {sinet::orbit::paper_constellation("Tianqi")};
  const auto res = run_passive_campaign(cfg);
  std::size_t quiet_n = 0, noisy_n = 0;
  for (const auto& r : res.traces.records()) {
    if (r.station.rfind("QQ-", 0) == 0) ++quiet_n;
    if (r.station.rfind("NN-", 0) == 0) ++noisy_n;
  }
  EXPECT_GT(quiet_n, noisy_n);
}

TEST(Scenario, EightSitesTwentySevenStations) {
  const auto sites = paper_measurement_sites();
  ASSERT_EQ(sites.size(), 8u);  // Table 1
  int stations = 0;
  for (const auto& s : sites) stations += s.station_count;
  EXPECT_EQ(stations, 27);  // paper: 27 ground stations
  EXPECT_THROW(paper_site("XYZ"), std::invalid_argument);
  EXPECT_EQ(paper_site("HK").station_count, 6);
  EXPECT_EQ(availability_sites().size(), 4u);
}

}  // namespace
