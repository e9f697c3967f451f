// Passive measurement campaign integration tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/passive_campaign.h"
#include "obs/metrics.h"
#include "orbit/passes.h"
#include "passive_observe_oracle.h"

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
  // No station: SIGFPE in the round-robin assignment without the
  // scheduler, so it is rejected with the scheduler on as well.
  rejects([](PassiveCampaignConfig& c) {
    c.use_scheduler = false;
    c.sites[0].station_count = 0;
  });
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
  // Seeds 1 and 7, scheduler on and off, each at threads 1 and 0 against
  // the oracle of the 1-thread run; then the eclipse gate on.
  struct Case {
    std::uint64_t seed;
    bool scheduler;
    bool eclipse;
    std::vector<unsigned> threads;
  };
  const std::vector<Case> cases = {{1, true, false, {1, 0}},
                                   {1, false, false, {1, 0}},
                                   {7, true, false, {1, 0}},
                                   {7, false, false, {1, 0}},
                                   {1, true, true, {0}}};
  std::size_t records = 0;
  for (const Case& c : cases) {
    PassiveCampaignConfig cfg = default_campaign(2.0);
    ASSERT_EQ(cfg.sites.size(), 8u);
    cfg.seed = c.seed;
    cfg.use_scheduler = c.scheduler;
    cfg.eclipse_gates_beacons = c.eclipse;
    std::optional<sinet::testing::OracleObserve> want;
    for (const unsigned threads : c.threads) {
      SCOPED_TRACE("seed " + std::to_string(c.seed) + ", scheduler " +
                   std::to_string(c.scheduler) + ", eclipse " +
                   std::to_string(c.eclipse) + ", threads " +
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

// The skip is the gain: a run that computes the +1 s look for every
// beacon again must fail here. Every received beacon needed its look, and
// on the default campaign fewer than one beacon in ten does (about 5%).
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
  RecordProperty("twin_share",
                 std::to_string(static_cast<double>(twins) /
                                static_cast<double>(r.beacons_transmitted)));
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
