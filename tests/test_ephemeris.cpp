// Parity and property tests for the shared-ephemeris pass-prediction
// engine (orbit/ephemeris.h) and the ContactWindowCache.
//
// The engine's contract is *bit-identical* windows: every ContactWindow
// it emits, whichever kernel filled its ephemeris table, must compare
// EXPECT_EQ — raw double equality, no tolerance — against the per-pair
// scalar scan of pass_scan_oracle.h. The randomized sweep below exercises
// that contract across the paper's Table 3 altitude and inclination
// bands, all eight measurement sites, heterogeneous masks and varied
// spans, including truncated-at-span-edge and zero-pass geometries; other
// cases check it on the exact pairs `sinet validate` scans, on lane
// remainders, on mixed SGP4 branches, with each table kernel, and with
// masks pinned so that samples fall inside the lane certificate's margin.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "next_pass_oracle.h"
#include "obs/metrics.h"
#include "orbit/constellation.h"
#include "orbit/ephemeris.h"
#include "orbit/look_angles.h"
#include "orbit/passes.h"
#include "orbit/sgp4.h"
#include "orbit/tle.h"
#include "pass_scan_oracle.h"
#include "val/validate.h"

namespace sinet {
namespace {

using orbit::ContactWindow;
using orbit::Geodetic;
using orbit::GridObserver;
using orbit::JulianDate;
using orbit::PassPredictionOptions;
using orbit::Sgp4;
using orbit::Tle;
using testing::oracle_predict_passes;

void expect_bit_identical(const std::vector<ContactWindow>& got,
                          const std::vector<ContactWindow>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t w = 0; w < got.size(); ++w) {
    EXPECT_EQ(got[w].aos_jd, want[w].aos_jd) << label << " window " << w;
    EXPECT_EQ(got[w].los_jd, want[w].los_jd) << label << " window " << w;
    EXPECT_EQ(got[w].tca_jd, want[w].tca_jd) << label << " window " << w;
    EXPECT_EQ(got[w].max_elevation_deg, want[w].max_elevation_deg)
        << label << " window " << w;
  }
}

Tle random_tle(std::mt19937_64& rng, int index) {
  // Paper Table 3 regimes: LEO IoT constellations between ~450 and
  // ~1200 km, inclinations from mid-latitude to sun-synchronous.
  static constexpr double kAltBandsKm[] = {450.0, 500.0,  550.0, 600.0,
                                           650.0, 700.0, 800.0, 1200.0};
  static constexpr double kIncBandsDeg[] = {30.0, 45.0, 53.0, 63.4,
                                            85.0, 97.5, 98.6};
  std::uniform_real_distribution<double> jitter(-20.0, 20.0);
  std::uniform_real_distribution<double> inc_jitter(-1.0, 1.0);
  std::uniform_real_distribution<double> ecc(0.0, 0.02);
  std::uniform_real_distribution<double> angle(0.0, 360.0);

  orbit::KeplerianElements kep;
  kep.altitude_km = kAltBandsKm[index % 8] + jitter(rng);
  kep.inclination_deg = kIncBandsDeg[(index / 8) % 7] + inc_jitter(rng);
  kep.eccentricity = ecc(rng);
  kep.raan_deg = angle(rng);
  kep.arg_perigee_deg = angle(rng);
  kep.mean_anomaly_deg = angle(rng);
  return orbit::make_tle("RAND-" + std::to_string(index), 90000 + index,
                         kep, core::campaign_epoch_jd());
}

TEST(ScanGrid, MatchesLegacyFloatAccumulation) {
  const JulianDate jd0 = core::campaign_epoch_jd() + 0.123456789;
  const JulianDate jd1 = jd0 + 0.6789;
  const double step_s = 30.0;
  const orbit::ScanGrid grid(jd0, jd1, step_s);

  // Replay the oracle scan's accumulation: jd += step_days, clamped.
  const double step_days = step_s / orbit::kSecondsPerDay;
  std::vector<JulianDate> want;
  want.push_back(jd0);
  for (JulianDate jd = jd0 + step_days;; jd += step_days) {
    const JulianDate t = std::min(jd, jd1);
    want.push_back(t);
    if (t >= jd1) break;
  }
  ASSERT_EQ(grid.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(grid.time(k), want[k]) << "sample " << k;
  EXPECT_EQ(grid.time(grid.size() - 1), jd1);

  EXPECT_THROW(orbit::ScanGrid(jd1, jd0, step_s), std::invalid_argument);
  EXPECT_THROW(orbit::ScanGrid(jd0, jd1, 0.0), std::invalid_argument);
}

// A NaN or infinite bound passes an `end < start` test and never ends
// the grid's accumulation loop, so every entry point rejects it first:
// the grid itself, and scan_pass_pairs even when it has no pair to scan.
TEST(ScanGrid, RejectsNonFiniteSpanAndStep) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const JulianDate jd0 = core::campaign_epoch_jd();
  for (const double bad : {kNaN, kInf, -kInf}) {
    EXPECT_THROW(orbit::ScanGrid(jd0, bad, 30.0), std::invalid_argument);
    EXPECT_THROW(orbit::ScanGrid(bad, jd0, 30.0), std::invalid_argument);
    EXPECT_THROW(orbit::ScanGrid(jd0, jd0 + 1.0, bad), std::invalid_argument);
    EXPECT_THROW(orbit::ScanGrid(std::vector<JulianDate>{jd0, bad}, 30.0),
                 std::invalid_argument);
    EXPECT_THROW(orbit::ScanGrid(std::vector<JulianDate>{jd0}, bad),
                 std::invalid_argument);
  }

  std::mt19937_64 rng(3);
  const Sgp4 prop(random_tle(rng, 0));
  const std::vector<GridObserver> observers{
      GridObserver{Geodetic{22.3, 114.2, 0.05}}};
  PassPredictionOptions nan_step;
  nan_step.coarse_step_s = kNaN;
  for (const std::vector<orbit::PairTask>& pairs :
       {std::vector<orbit::PairTask>{{0, 0}}, std::vector<orbit::PairTask>{}}) {
    for (const double bad : {kNaN, kInf}) {
      EXPECT_THROW((void)orbit::scan_pass_pairs({&prop}, observers, pairs,
                                                jd0, bad),
                   std::invalid_argument);
      EXPECT_THROW((void)orbit::scan_pass_pairs({&prop}, observers, pairs,
                                                bad, jd0),
                   std::invalid_argument);
    }
    EXPECT_THROW((void)orbit::scan_pass_pairs({&prop}, observers, pairs, jd0,
                                              jd0 + 1.0, nan_step),
                 std::invalid_argument);
  }
}

// A positive step below the grid's resolution at its far end cannot
// move `jd += step_days`, so the grid would grow without end: every entry
// point refuses it, and the rolling engine checks it again at each
// leading edge it is asked to cover.
TEST(ScanGrid, RejectsStepsThatCannotAdvanceTheGrid) {
  const JulianDate jd0 = core::campaign_epoch_jd();
  // One ulp of jd0 (~2.5e6) is 2^-31 days, about 40 us.
  const double ulp_s = (std::nextafter(jd0 + 1.0, 1e300) - (jd0 + 1.0)) *
                       orbit::kSecondsPerDay;
  for (const double bad : {1e-300, 1e-9, 0.5 * ulp_s}) {
    EXPECT_THROW(orbit::ScanGrid(jd0, jd0 + 1.0, bad), std::invalid_argument);
    EXPECT_THROW(orbit::check_scan_span("test", jd0, jd0, bad),
                 std::invalid_argument);
  }
  const orbit::ScanGrid tight(jd0, jd0 + 1e-6, ulp_s);
  EXPECT_GT(tight.size(), 2u);

  std::mt19937_64 rng(3);
  const Sgp4 prop(random_tle(rng, 0));
  PassPredictionOptions tiny;
  tiny.coarse_step_s = 1e-300;
  EXPECT_THROW((void)orbit::scan_pass_pairs({&prop}, {GridObserver{}},
                                            {orbit::PairTask{0, 0}}, jd0,
                                            jd0 + 1.0, tiny),
               std::invalid_argument);
  orbit::RollingEphemeris::Options tiny_rolling;
  tiny_rolling.coarse_step_s = 1e-300;
  EXPECT_THROW(orbit::RollingEphemeris({&prop}, jd0, tiny_rolling),
               std::invalid_argument);
  // A step fine enough at the anchor but not at the leading edge.
  orbit::RollingEphemeris::Options fine;
  fine.coarse_step_s = 1e-6;
  orbit::RollingEphemeris near_zero({&prop}, 0.5, fine);
  EXPECT_THROW((void)near_zero.advance(0.5, 1e6), std::invalid_argument);
  EXPECT_TRUE(near_zero.empty());
}

// The scalar kernel's positions are the sampler's bits.
TEST(EphemerisTable, PositionsMatchElevationSampler) {
  std::mt19937_64 rng(7);
  const Tle tle = random_tle(rng, 5);
  const Sgp4 prop(tle);
  const Geodetic site{22.3, 114.2, 0.05};
  const JulianDate jd0 = core::campaign_epoch_jd();
  const orbit::ScanGrid grid(jd0, jd0 + 0.2, 60.0);

  const std::vector<const Sgp4*> sats{&prop};
  orbit::EphemerisTable table(sats, grid, orbit::PropagationMode::kReference);
  table.build(0, grid.size(), nullptr);
  EXPECT_EQ(table.propagations(), grid.size());

  const orbit::ElevationSampler sampler(prop, site);
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const double from_table = orbit::elevation_from_ecef(
        sampler.frame(), table.position_ecef_km(0, k));
    EXPECT_EQ(from_table, sampler.elevation_deg(grid.time(k)))
        << "sample " << k;
    EXPECT_EQ(table.distance_km(0, k), table.position_ecef_km(0, k).norm());
  }
}

// ElevationSampler::look skips sample()'s geodetic inversion of the
// subsatellite point; the look angles must stay bit-equal to sample()'s.
// Swept over TLEs in every Table 3 altitude and inclination band, all 8
// paper sites and 30 days of time offsets.
TEST(EphemerisTable, SamplerLookMatchesSampleLook) {
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<double> offset_days(0.0, 30.0);
  const JulianDate jd0 = core::campaign_epoch_jd();
  const auto sites = core::paper_measurement_sites();
  ASSERT_EQ(sites.size(), 8u);
  for (int index = 0; index < 56; ++index) {  // 8 altitudes x 7 inclinations
    const Sgp4 prop(random_tle(rng, index));
    for (const core::MeasurementSite& site : sites) {
      const orbit::ElevationSampler sampler(prop, site.location);
      for (int k = 0; k < 16; ++k) {
        const JulianDate jd = jd0 + offset_days(rng);
        const orbit::LookAngles look = sampler.look(jd);
        const orbit::PassSample sample = sampler.sample(jd);
        EXPECT_EQ(look.azimuth_deg, sample.look.azimuth_deg);
        EXPECT_EQ(look.elevation_deg, sample.look.elevation_deg);
        EXPECT_EQ(look.range_km, sample.look.range_km);
        EXPECT_EQ(look.range_rate_km_s, sample.look.range_rate_km_s);
      }
    }
  }
}

TEST(CullBounds, SatelliteBoundsAreConservative) {
  orbit::KeplerianElements kep;
  kep.altitude_km = 550.0;
  kep.eccentricity = 0.01;
  const Tle tle =
      orbit::make_tle("BOUNDS", 90001, kep, core::campaign_epoch_jd());
  const Sgp4 prop(tle);
  const auto bounds = orbit::satellite_cull_bounds(prop);
  ASSERT_TRUE(bounds.valid);

  const double a = prop.semi_major_axis_er() * orbit::kEarthRadiusKm;
  const double e = prop.eccentricity();
  // The distance bound must clear the osculating apogee by the margin.
  EXPECT_GE(bounds.max_distance_km, a * (1.0 + e));
  // The rate bound must clear the circular mean motion plus Earth spin.
  const double mean_motion = std::sqrt(orbit::kMuEarthKm3PerS2 / (a * a * a));
  EXPECT_GT(bounds.max_angular_rate_rad_s, mean_motion);
  EXPECT_LT(bounds.max_angular_rate_rad_s, 10.0 * mean_motion);
}

TEST(CullBounds, HorizonConeIsMonotone) {
  const auto geom = orbit::observer_cull_geometry(Geodetic{51.5, -0.1, 0.0});
  EXPECT_NEAR(geom.radius_km, 6365.0, 25.0);
  EXPECT_GE(geom.vertical_deflection_rad, 0.0);
  EXPECT_LT(geom.vertical_deflection_rad, 0.005);  // <= ~0.2 deg on WGS-84

  const double d = orbit::kEarthRadiusKm + 550.0;
  const double g0 = orbit::horizon_cone_half_angle_rad(geom, d, 0.0);
  const double g10 = orbit::horizon_cone_half_angle_rad(geom, d, 10.0);
  const double g25 = orbit::horizon_cone_half_angle_rad(geom, d, 25.0);
  EXPECT_GT(g0, g10);
  EXPECT_GT(g10, g25);
  // Higher satellites see the observer from farther out.
  const double g0_high =
      orbit::horizon_cone_half_angle_rad(geom, d + 700.0, 0.0);
  EXPECT_GT(g0_high, g0);
  // A 550 km horizon cone is ~24 deg; sanity-band it.
  EXPECT_GT(g0, 0.3);
  EXPECT_LT(g0, 0.6);
  // Degenerate inputs disable culling (cone covers the sphere).
  EXPECT_GE(orbit::horizon_cone_half_angle_rad(geom, 0.0, 0.0), 3.14159);
}

// The tentpole property: windows from the shared+culled grid scan are
// bit-identical to the per-pair oracle scan across >= 200 randomized
// TLEs spanning the Table 3 bands, all 8 paper sites, heterogeneous
// per-site masks, and varied spans. Also checks that the sweep actually
// exercised span-edge truncation and zero-pass pairs.
TEST(EphemerisParity, RandomizedTlesAcrossBandsAndSites) {
  const auto sites = core::paper_measurement_sites();
  ASSERT_EQ(sites.size(), 8u);
  static constexpr double kMasks[] = {0.0, 5.0, 10.0, 25.0};

  std::mt19937_64 rng(20260805u);
  std::uniform_real_distribution<double> start_offset(0.0, 1.0);
  std::uniform_real_distribution<double> span_days(0.35, 0.75);

  constexpr int kGroups = 8;
  constexpr int kTlesPerGroup = 25;  // 200 TLEs total
  int truncated = 0;
  int empty_pairs = 0;

  for (int g = 0; g < kGroups; ++g) {
    std::vector<Tle> tles;
    std::vector<Sgp4> props;
    tles.reserve(kTlesPerGroup);
    props.reserve(kTlesPerGroup);
    for (int i = 0; i < kTlesPerGroup; ++i) {
      tles.push_back(random_tle(rng, g * kTlesPerGroup + i));
      props.emplace_back(tles.back());
    }
    std::vector<const Sgp4*> sat_ptrs;
    for (const Sgp4& p : props) sat_ptrs.push_back(&p);

    std::vector<GridObserver> observers;
    for (std::size_t o = 0; o < sites.size(); ++o)
      observers.push_back(
          GridObserver{sites[o].location, kMasks[o % 4]});

    const JulianDate jd0 = core::campaign_epoch_jd() + start_offset(rng);
    const JulianDate jd1 = jd0 + span_days(rng);
    PassPredictionOptions opts;
    opts.coarse_step_s = 60.0;

    const auto grid = orbit::predict_passes_grid(sat_ptrs, observers, jd0,
                                                 jd1, opts, /*threads=*/1);
    ASSERT_EQ(grid.size(), props.size());
    for (std::size_t s = 0; s < props.size(); ++s) {
      ASSERT_EQ(grid[s].size(), observers.size());
      for (std::size_t o = 0; o < observers.size(); ++o) {
        PassPredictionOptions lopts = opts;
        lopts.min_elevation_deg = observers[o].min_elevation_deg;
        const auto want = oracle_predict_passes(
            props[s], observers[o].location, jd0, jd1, lopts);
        expect_bit_identical(grid[s][o], want,
                             "group " + std::to_string(g) + " sat " +
                                 std::to_string(s) + " site " +
                                 std::to_string(o));
        if (want.empty()) ++empty_pairs;
        for (const ContactWindow& w : want)
          if (w.aos_jd == jd0 || w.los_jd == jd1) ++truncated;
      }
    }
  }
  // The sweep must have covered the edge geometries it claims to.
  EXPECT_GT(truncated, 0);
  EXPECT_GT(empty_pairs, 0);
}

TEST(EphemerisParity, TruncationAtSpanEdges) {
  orbit::KeplerianElements kep;  // 500 km SSO: passes over London daily
  const Tle tle =
      orbit::make_tle("TRUNC", 90002, kep, core::campaign_epoch_jd());
  const Sgp4 prop(tle);
  const GridObserver london{Geodetic{51.5074, -0.1278, 0.035}};
  const JulianDate jd0 = core::campaign_epoch_jd();

  PassPredictionOptions opts;
  opts.coarse_step_s = 30.0;
  const auto full =
      oracle_predict_passes(prop, london.location, jd0, jd0 + 1.0, opts);
  ASSERT_FALSE(full.empty());

  // End the span at the first window's TCA: the window must come back
  // truncated (los == jd_end) and still bit-identical to the oracle.
  const JulianDate cut_end = full.front().tca_jd;
  const auto grid_end = orbit::predict_passes_grid(
      {&prop}, {london}, jd0, cut_end, opts, /*threads=*/1);
  const auto want_end =
      oracle_predict_passes(prop, london.location, jd0, cut_end, opts);
  expect_bit_identical(grid_end[0][0], want_end, "end-truncated");
  ASSERT_FALSE(want_end.empty());
  EXPECT_EQ(want_end.back().los_jd, cut_end);

  // Start the span at the first window's TCA: the window opens already
  // in progress (aos == jd_start).
  const JulianDate cut_start = full.front().tca_jd;
  const JulianDate far_end = cut_start + 0.5;
  const auto grid_start = orbit::predict_passes_grid(
      {&prop}, {london}, cut_start, far_end, opts, /*threads=*/1);
  const auto want_start =
      oracle_predict_passes(prop, london.location, cut_start, far_end, opts);
  expect_bit_identical(grid_start[0][0], want_start, "start-truncated");
  ASSERT_FALSE(want_start.empty());
  EXPECT_EQ(want_start.front().aos_jd, cut_start);
}

TEST(EphemerisParity, ZeroPassGeometryIsCulledNotMissed) {
  // A near-equatorial satellite never rises over a high-latitude site;
  // the cull must skip essentially the whole span without ever emitting
  // a window the exact scan would not have.
  orbit::KeplerianElements kep;
  kep.altitude_km = 550.0;
  kep.inclination_deg = 0.5;
  const Tle tle =
      orbit::make_tle("EQUATOR", 90003, kep, core::campaign_epoch_jd());
  const Sgp4 prop(tle);
  const GridObserver helsinki{Geodetic{60.17, 24.94, 0.0}};
  const JulianDate jd0 = core::campaign_epoch_jd();
  const JulianDate jd1 = jd0 + 2.0;
  PassPredictionOptions opts;
  opts.coarse_step_s = 30.0;

  obs::MetricsRegistry metrics;
  const auto windows = orbit::scan_pass_pairs(
      {&prop}, {helsinki}, {orbit::PairTask{0, 0}}, jd0, jd1, opts, {},
      /*threads=*/1, &metrics);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(windows[0].empty());
  EXPECT_TRUE(
      oracle_predict_passes(prop, helsinki.location, jd0, jd1, opts).empty());

  const auto snap = metrics.snapshot();
  const std::uint64_t visited = snap.counters.at("orbit.ephemeris.samples_visited");
  const std::uint64_t culled = snap.counters.at("orbit.ephemeris.samples_culled");
  const orbit::ScanGrid grid(jd0, jd1, opts.coarse_step_s);
  EXPECT_EQ(visited + culled, grid.size());
  EXPECT_GT(culled, static_cast<std::uint64_t>(0.9 * grid.size()));
}

TEST(EphemerisParity, SampleConservationAcrossPairs) {
  std::mt19937_64 rng(11);
  std::vector<Tle> tles;
  std::vector<Sgp4> props;
  for (int i = 0; i < 6; ++i) {
    tles.push_back(random_tle(rng, i * 9));
    props.emplace_back(tles.back());
  }
  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);
  const std::vector<GridObserver> observers{
      GridObserver{Geodetic{22.3, 114.2, 0.05}},
      GridObserver{Geodetic{-33.87, 151.2, 0.02}, 10.0}};
  std::vector<orbit::PairTask> pairs;
  for (std::size_t s = 0; s < props.size(); ++s)
    for (std::size_t o = 0; o < observers.size(); ++o)
      pairs.push_back(orbit::PairTask{s, o});

  const JulianDate jd0 = core::campaign_epoch_jd();
  const JulianDate jd1 = jd0 + 1.0;
  PassPredictionOptions opts;
  opts.coarse_step_s = 30.0;

  // Chunked scan (tiny chunks to force many boundary crossings) must
  // visit-or-cull every grid sample of every pair exactly once.
  orbit::EphemerisScanOptions scan_opts;
  scan_opts.chunk_samples = 64;
  obs::MetricsRegistry metrics;
  const auto chunked =
      orbit::scan_pass_pairs(sat_ptrs, observers, pairs, jd0, jd1, opts,
                             scan_opts, /*threads=*/1, &metrics);
  const auto snap = metrics.snapshot();
  const orbit::ScanGrid grid(jd0, jd1, opts.coarse_step_s);
  EXPECT_EQ(snap.counters.at("orbit.ephemeris.samples_visited") +
                snap.counters.at("orbit.ephemeris.samples_culled"),
            pairs.size() * grid.size());
  EXPECT_EQ(snap.counters.at("orbit.ephemeris.pairs"), pairs.size());

  // And chunking must not change a single bit of any window (skips and
  // open windows cross chunk boundaries), nor may culling: both scans
  // match the unculled, unchunked oracle.
  const auto unchunked = orbit::scan_pass_pairs(
      sat_ptrs, observers, pairs, jd0, jd1, opts, {}, /*threads=*/1);
  ASSERT_EQ(chunked.size(), unchunked.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    expect_bit_identical(chunked[p], unchunked[p],
                         "pair " + std::to_string(p));
    PassPredictionOptions lopts = opts;
    const GridObserver& o = observers[pairs[p].observer];
    if (!std::isnan(o.min_elevation_deg))
      lopts.min_elevation_deg = o.min_elevation_deg;
    expect_bit_identical(unchunked[p],
                         oracle_predict_passes(props[pairs[p].satellite],
                                               o.location, jd0, jd1, lopts),
                         "oracle pair " + std::to_string(p));
  }
}

TEST(EphemerisParity, ParallelScanMatchesSerial) {
  std::mt19937_64 rng(13);
  std::vector<Tle> tles;
  std::vector<Sgp4> props;
  for (int i = 0; i < 8; ++i) {
    tles.push_back(random_tle(rng, i * 7 + 3));
    props.emplace_back(tles.back());
  }
  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);
  const std::vector<GridObserver> observers{
      GridObserver{Geodetic{51.5, -0.13, 0.035}},
      GridObserver{Geodetic{1.35, 103.8, 0.0}, 5.0},
      GridObserver{Geodetic{-33.87, 151.2, 0.02}, 25.0}};
  const JulianDate jd0 = core::campaign_epoch_jd();
  const JulianDate jd1 = jd0 + 1.0;
  PassPredictionOptions opts;
  opts.coarse_step_s = 60.0;

  const auto serial = orbit::predict_passes_grid(sat_ptrs, observers, jd0,
                                                 jd1, opts, /*threads=*/1);
  const auto pooled = orbit::predict_passes_grid(sat_ptrs, observers, jd0,
                                                 jd1, opts, /*threads=*/4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t s = 0; s < serial.size(); ++s)
    for (std::size_t o = 0; o < observers.size(); ++o) {
      const std::string label =
          "sat " + std::to_string(s) + " obs " + std::to_string(o);
      expect_bit_identical(pooled[s][o], serial[s][o], label);
      PassPredictionOptions lopts = opts;
      if (!std::isnan(observers[o].min_elevation_deg))
        lopts.min_elevation_deg = observers[o].min_elevation_deg;
      expect_bit_identical(serial[s][o],
                           oracle_predict_passes(props[s],
                                                 observers[o].location, jd0,
                                                 jd1, lopts),
                           "oracle " + label);
    }
}

// The pairs `sinet validate` scans for its "quick" and "reference"
// scenarios (one constellation over one site, 1 and 3 days), through the
// engine, against the oracle: the windows the validation report exports
// and scores must be the per-pair scan's, bit for bit.
TEST(EphemerisParity, ValidationScenarioPairsMatchOracle) {
  for (const char* name : {"quick", "reference"}) {
    const val::ValidationScenario sc = val::validation_scenario(name);
    const JulianDate jd0 = core::campaign_epoch_jd();
    const JulianDate jd1 = jd0 + sc.scan_days;
    const auto tles =
        orbit::generate_tles(orbit::paper_constellation(sc.constellation), jd0);
    std::vector<Sgp4> props(tles.begin(), tles.end());
    std::vector<const Sgp4*> sat_ptrs;
    for (const Sgp4& p : props) sat_ptrs.push_back(&p);
    const GridObserver site{core::paper_site(sc.site_code).location};
    std::vector<orbit::PairTask> pairs;
    for (std::size_t s = 0; s < props.size(); ++s) pairs.push_back({s, 0});
    PassPredictionOptions opts;
    opts.min_elevation_deg = sc.mask_deg;
    opts.coarse_step_s = sc.coarse_step_s;

    const auto got =
        orbit::scan_pass_pairs(sat_ptrs, {site}, pairs, jd0, jd1, opts);
    ASSERT_EQ(got.size(), props.size());
    std::size_t windows = 0;
    for (std::size_t s = 0; s < props.size(); ++s) {
      const auto want =
          oracle_predict_passes(props[s], site.location, jd0, jd1, opts);
      expect_bit_identical(got[s], want,
                           std::string(name) + " sat " + std::to_string(s));
      windows += want.size();
    }
    EXPECT_GT(windows, 100u) << name;
  }
}

TEST(GridCached, MatchesUncachedAndServesHits) {
  std::mt19937_64 rng(19);
  std::vector<Tle> tles;
  std::vector<Sgp4> props;
  for (int i = 0; i < 4; ++i) {
    tles.push_back(random_tle(rng, i * 31));
    props.emplace_back(tles.back());
  }
  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);
  const std::vector<GridObserver> observers{
      GridObserver{Geodetic{22.3, 114.2, 0.05}},
      GridObserver{Geodetic{51.5, -0.13, 0.035}, 10.0}};
  const JulianDate jd0 = core::campaign_epoch_jd();
  const JulianDate jd1 = jd0 + 0.5;
  PassPredictionOptions opts;
  opts.coarse_step_s = 60.0;
  const std::size_t n_pairs = tles.size() * observers.size();

  orbit::ContactWindowCache cache;
  const auto uncached = orbit::predict_passes_grid(sat_ptrs, observers, jd0,
                                                   jd1, opts, /*threads=*/1);
  const auto first = orbit::predict_passes_grid_cached(
      tles, observers, jd0, jd1, opts, /*threads=*/1, &cache);
  auto st = cache.stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, n_pairs);
  EXPECT_EQ(st.entries, n_pairs);

  // All-hit second call, with metrics: the entries gauge must still be
  // refreshed even though no miss computation runs.
  obs::MetricsRegistry metrics;
  const auto second = orbit::predict_passes_grid_cached(
      tles, observers, jd0, jd1, opts, /*threads=*/1, &cache, &metrics);
  st = cache.stats();
  EXPECT_EQ(st.hits, n_pairs);
  EXPECT_EQ(st.misses, n_pairs);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("orbit.pass_cache.hits"), n_pairs);
  ASSERT_TRUE(snap.gauges.count("orbit.pass_cache.entries"));
  EXPECT_EQ(snap.gauges.at("orbit.pass_cache.entries").value,
            static_cast<double>(n_pairs));

  for (std::size_t s = 0; s < tles.size(); ++s)
    for (std::size_t o = 0; o < observers.size(); ++o) {
      expect_bit_identical(first[s][o], uncached[s][o],
                           "first s" + std::to_string(s) + " o" +
                               std::to_string(o));
      expect_bit_identical(second[s][o], uncached[s][o],
                           "second s" + std::to_string(s) + " o" +
                               std::to_string(o));
    }

  // Cache keys use the observer's *effective* mask, so naming the
  // options' mask on the observer hits the NaN-mask site's entries.
  const auto named = orbit::predict_passes_grid_cached(
      tles, {GridObserver{observers[0].location, opts.min_elevation_deg}},
      jd0, jd1, opts, /*threads=*/1, &cache);
  EXPECT_EQ(cache.stats().hits, n_pairs + tles.size());
  for (std::size_t s = 0; s < tles.size(); ++s)
    expect_bit_identical(named[s][0], uncached[s][0],
                         "named mask s" + std::to_string(s));
}

// A TLE and an observer named twice in one call: every slot comes back
// with its own windows, bit-identical to the oracle, and the repeats
// share one cache entry per distinct pair.
TEST(GridCached, RepeatedSatellitesAndObserversMatchOracle) {
  std::mt19937_64 rng(17);
  const Tle tle_a = random_tle(rng, 2);
  const Tle tle_b = random_tle(rng, 42);
  const std::vector<Tle> tles{tle_a, tle_b, tle_a};
  const Geodetic hk{22.3, 114.2, 0.05};
  const Geodetic syd{-33.87, 151.2, 0.02};
  const std::vector<GridObserver> observers{
      GridObserver{hk}, GridObserver{syd}, GridObserver{hk}};
  const JulianDate jd0 = core::campaign_epoch_jd();
  const JulianDate jd1 = jd0 + 1.0;
  PassPredictionOptions opts;
  opts.min_elevation_deg = 5.0;

  orbit::ContactWindowCache cache;
  const auto got = orbit::predict_passes_grid_cached(
      tles, observers, jd0, jd1, opts, /*threads=*/1, &cache);
  ASSERT_EQ(got.size(), tles.size());
  for (std::size_t s = 0; s < tles.size(); ++s) {
    ASSERT_EQ(got[s].size(), observers.size());
    for (std::size_t o = 0; o < observers.size(); ++o)
      expect_bit_identical(
          got[s][o],
          oracle_predict_passes(Sgp4(tles[s]), observers[o].location, jd0,
                                jd1, opts),
          std::string("s")
              .append(std::to_string(s))
              .append(" o")
              .append(std::to_string(o)));
  }
  EXPECT_EQ(cache.stats().entries, 4u);  // {a, b} x {hk, syd}
}

// The production scan of one (TLE, site) pair.
std::vector<ContactWindow> reference_scan(const Tle& tle, const Geodetic& site,
                                          JulianDate jd0, JulianDate jd1) {
  const Sgp4 prop(tle);
  return orbit::scan_pass_pairs({&prop}, {GridObserver{site}},
                                {orbit::PairTask{0, 0}}, jd0, jd1)[0];
}

// Serves (tle, site, [jd0, jd1]) through get_or_compute with
// reference_scan as the miss computation; `runs` counts how often the
// cache ran it.
struct CountingLookup {
  orbit::ContactWindowCache& cache;
  Geodetic site;
  JulianDate jd0, jd1;
  std::atomic<int> runs{0};

  std::vector<ContactWindow> operator()(const Tle& tle) {
    return cache.get_or_compute(tle, site, jd0, jd1, {}, [&] {
      runs.fetch_add(1);
      return reference_scan(tle, site, jd0, jd1);
    });
  }
};

TEST(ContactWindowCache, LruEvictionRespectsRecency) {
  std::mt19937_64 rng(23);
  const Tle a = random_tle(rng, 1);
  const Tle b = random_tle(rng, 10);
  const Tle c = random_tle(rng, 20);
  const JulianDate jd0 = core::campaign_epoch_jd();

  orbit::ContactWindowCache cache(/*max_entries=*/2);
  CountingLookup get{cache, Geodetic{22.3, 114.2, 0.05}, jd0, jd0 + 0.2};
  (void)get(a);  // miss: {a}
  (void)get(b);  // miss: {a, b}
  (void)get(a);  // hit, touches a
  auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(get.runs.load(), 2);

  // Inserting c evicts the LRU entry — b, not a, because the hit above
  // refreshed a's recency. (FIFO would evict a here.)
  (void)get(c);  // miss: {a, c}
  EXPECT_EQ(cache.stats().entries, 2u);
  (void)get(a);  // still cached
  st = cache.stats();
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(get.runs.load(), 3);
  (void)get(b);  // evicted: recomputes
  st = cache.stats();
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(get.runs.load(), 4);
}

TEST(ContactWindowCache, SingleFlightDedupsConcurrentMisses) {
  std::mt19937_64 rng(29);
  const Tle tle = random_tle(rng, 3);
  const Geodetic site{51.5, -0.13, 0.035};
  const JulianDate jd0 = core::campaign_epoch_jd();
  const JulianDate jd1 = jd0 + 1.0;

  orbit::ContactWindowCache cache;
  std::atomic<int> runs{0};
  const auto lookup = [&] {
    return cache.get_or_compute(tle, site, jd0, jd1, {}, [&] {
      runs.fetch_add(1);
      // Hold the computation open so the other thread usually arrives
      // while it is in flight.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return oracle_predict_passes(Sgp4(tle), site, jd0, jd1);
    });
  };
  std::vector<ContactWindow> r1, r2;
  std::thread t1([&] { r1 = lookup(); });
  std::thread t2([&] { r2 = lookup(); });
  t1.join();
  t2.join();

  // Whichever thread arrives second — during the first's computation or
  // after it — must be served without recomputing: exactly one miss.
  const auto st = cache.stats();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 1u);
  expect_bit_identical(r1, r2, "concurrent");
  expect_bit_identical(r1, oracle_predict_passes(Sgp4(tle), site, jd0, jd1),
                       "vs oracle");
}

// ---------------------------------------------------------------------
// The lane walk and the lane certificate. scan_pass_pairs classifies
// same-satellite pairs four observers at a time from a SIMD-filled
// table and takes a lane's verdict only when its sine elevation clears
// the mask by kLaneMargin (orbit/sgp4_batch.h); the pair's scalar sampler
// decides the rest. These cases hold the walk to the oracle's bits where
// the lanes are ragged, where SGP4 branches mix, with either table
// kernel, and where samples sit inside the margin on purpose.
// ---------------------------------------------------------------------

// Every pair of `sats` x `observers`, scanned with `scan_opts` on
// `threads`, against the oracle.
void expect_pairs_match_oracle(const std::vector<const Sgp4*>& sats,
                               const std::vector<GridObserver>& observers,
                               JulianDate jd0, JulianDate jd1,
                               const PassPredictionOptions& opts,
                               const std::string& label,
                               const orbit::EphemerisScanOptions& scan_opts = {},
                               unsigned threads = 1) {
  std::vector<orbit::PairTask> pairs;
  for (std::size_t s = 0; s < sats.size(); ++s)
    for (std::size_t o = 0; o < observers.size(); ++o)
      pairs.push_back(orbit::PairTask{s, o});
  const auto got = orbit::scan_pass_pairs(sats, observers, pairs, jd0, jd1,
                                          opts, scan_opts, threads);
  ASSERT_EQ(got.size(), pairs.size()) << label;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const GridObserver& o = observers[pairs[p].observer];
    PassPredictionOptions lopts = opts;
    if (!std::isnan(o.min_elevation_deg))
      lopts.min_elevation_deg = o.min_elevation_deg;
    expect_bit_identical(got[p],
                         oracle_predict_passes(*sats[pairs[p].satellite],
                                               o.location, jd0, jd1, lopts),
                         label + " pair " + std::to_string(p));
  }
}

// Satellite counts that leave partial lane groups in the batch
// propagator, and observer counts that leave partial lanes in the fused
// visibility blocks.
TEST(EphemerisParity, LaneRemaindersAcrossSatelliteAndObserverCounts) {
  const auto sites = core::paper_measurement_sites();
  std::mt19937_64 rng(77);
  std::vector<Sgp4> props;
  for (int i = 0; i < 7; ++i)  // 7 = one full lane group + 3 remainder
    props.emplace_back(random_tle(rng, i * 13 + 1));
  const JulianDate jd0 = core::campaign_epoch_jd();
  const JulianDate jd1 = jd0 + 0.4;
  PassPredictionOptions opts;
  opts.coarse_step_s = 60.0;

  for (const std::size_t n_sats : {1u, 2u, 3u, 5u, 7u}) {
    for (const std::size_t n_obs : {1u, 3u, 5u}) {
      std::vector<const Sgp4*> sat_ptrs;
      for (std::size_t s = 0; s < n_sats; ++s) sat_ptrs.push_back(&props[s]);
      std::vector<GridObserver> observers;
      for (std::size_t o = 0; o < n_obs; ++o)
        observers.push_back(
            GridObserver{sites[o % sites.size()].location, 5.0});
      expect_pairs_match_oracle(sat_ptrs, observers, jd0, jd1, opts,
                                "sats " + std::to_string(n_sats) + " obs " +
                                    std::to_string(n_obs));
    }
  }
}

// A very low perigee activates SGP4's `simple` drag truncation; mixing
// such a satellite into a lane group with normal satellites exercises
// the lane-masked branch of the batch propagator inside a real scan. Its
// slant ranges dip below kLaneMinRangeKm, where the sampler decides.
TEST(EphemerisParity, MixedSimpleAndNormalBranchesInOneScan) {
  std::mt19937_64 rng(123);
  std::vector<Sgp4> props;
  for (int i = 0; i < 3; ++i) props.emplace_back(random_tle(rng, i * 29 + 2));
  orbit::KeplerianElements low;  // perigee < 220 km -> simple branch
  low.altitude_km = 200.0;
  low.eccentricity = 0.0005;
  low.inclination_deg = 53.0;
  low.bstar = 1e-5;
  props.emplace_back(
      orbit::make_tle("SIMPLE", 90044, low, core::campaign_epoch_jd()));
  ASSERT_TRUE(props.back().coefficients().simple);
  ASSERT_FALSE(props.front().coefficients().simple);

  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);
  const std::vector<GridObserver> observers{
      GridObserver{Geodetic{22.3, 114.2, 0.05}},
      GridObserver{Geodetic{51.5, -0.13, 0.035}, 10.0}};
  PassPredictionOptions opts;
  opts.coarse_step_s = 30.0;
  const JulianDate jd0 = core::campaign_epoch_jd();
  expect_pairs_match_oracle(sat_ptrs, observers, jd0, jd0 + 0.3, opts,
                            "mixed");
}

// Block skip state crosses chunk boundaries and blocks fan out across a
// pool: chunked, unchunked and pooled scans all give the oracle's bits,
// and every pair visits-or-culls every grid sample exactly once.
TEST(EphemerisParity, ChunkedAndPooledLaneWalksMatchOracle) {
  std::mt19937_64 rng(55);
  std::vector<Sgp4> props;
  for (int i = 0; i < 5; ++i) props.emplace_back(random_tle(rng, i * 17 + 4));
  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);
  const std::vector<GridObserver> observers{
      GridObserver{Geodetic{22.3, 114.2, 0.05}},
      GridObserver{Geodetic{-33.87, 151.2, 0.02}, 10.0},
      GridObserver{Geodetic{60.17, 24.94, 0.0}, 5.0}};
  const JulianDate jd0 = core::campaign_epoch_jd();
  const JulianDate jd1 = jd0 + 1.0;
  PassPredictionOptions opts;
  opts.coarse_step_s = 30.0;

  orbit::EphemerisScanOptions small_chunks;
  small_chunks.chunk_samples = 64;
  obs::MetricsRegistry metrics;
  std::vector<orbit::PairTask> pairs;
  for (std::size_t s = 0; s < props.size(); ++s)
    for (std::size_t o = 0; o < observers.size(); ++o)
      pairs.push_back(orbit::PairTask{s, o});
  (void)orbit::scan_pass_pairs(sat_ptrs, observers, pairs, jd0, jd1, opts,
                               small_chunks, /*threads=*/1, &metrics);
  const orbit::ScanGrid grid(jd0, jd1, opts.coarse_step_s);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("orbit.ephemeris.samples_visited") +
                snap.counters.at("orbit.ephemeris.samples_culled"),
            pairs.size() * grid.size());

  expect_pairs_match_oracle(sat_ptrs, observers, jd0, jd1, opts, "chunked",
                            small_chunks);
  expect_pairs_match_oracle(sat_ptrs, observers, jd0, jd1, opts, "pooled", {},
                            /*threads=*/4);
}

// The table kernel is a process-wide setting (the SIMD fill unless set
// otherwise) that no output depends on: a grid scan with each kernel,
// set through set_propagation_mode, returns the same bits — the
// oracle's. Healthy TLEs never fall back to the scalar propagator.
TEST(EphemerisParity, EitherTableKernelGivesTheOracleBits) {
  EXPECT_EQ(orbit::propagation_mode(), orbit::PropagationMode::kFast);
  std::mt19937_64 rng(61);
  std::vector<Sgp4> props;
  for (int i = 0; i < 6; ++i) props.emplace_back(random_tle(rng, i * 3));
  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);
  const auto sites = core::paper_measurement_sites();
  std::vector<GridObserver> observers;
  for (std::size_t o = 0; o < sites.size(); ++o)
    observers.push_back(GridObserver{sites[o].location, 5.0 * (o % 3)});
  const JulianDate jd0 = core::campaign_epoch_jd() + 0.25;
  const JulianDate jd1 = jd0 + 1.0;
  PassPredictionOptions opts;
  opts.coarse_step_s = 30.0;

  const orbit::PropagationMode before = orbit::propagation_mode();
  std::vector<std::vector<std::vector<std::vector<ContactWindow>>>> runs;
  for (const orbit::PropagationMode kernel :
       {orbit::PropagationMode::kReference, orbit::PropagationMode::kFast}) {
    orbit::set_propagation_mode(kernel);
    obs::MetricsRegistry metrics;
    runs.push_back(orbit::predict_passes_grid(sat_ptrs, observers, jd0, jd1,
                                              opts, /*threads=*/1, &metrics));
    orbit::set_propagation_mode(before);
    const auto snap = metrics.snapshot();
    const std::uint64_t lanes = snap.counters.at("orbit.simd.lanes_filled");
    if (kernel == orbit::PropagationMode::kFast)
      EXPECT_GT(lanes, 0u);
    else
      EXPECT_EQ(lanes, 0u);
    EXPECT_EQ(snap.counters.at("orbit.simd.scalar_fallbacks"), 0u);
  }
  std::size_t windows = 0;
  for (std::size_t s = 0; s < props.size(); ++s)
    for (std::size_t o = 0; o < observers.size(); ++o) {
      const std::string label =
          "sat " + std::to_string(s) + " obs " + std::to_string(o);
      expect_bit_identical(runs[1][s][o], runs[0][s][o], label);
      PassPredictionOptions lopts = opts;
      lopts.min_elevation_deg = observers[o].min_elevation_deg;
      expect_bit_identical(runs[0][s][o],
                           oracle_predict_passes(props[s],
                                                 observers[o].location, jd0,
                                                 jd1, lopts),
                           "oracle " + label);
      windows += runs[0][s][o].size();
    }
  EXPECT_GT(windows, 50u);
}

// A heavily dragged element set that decays within the span: with either
// table kernel, every scan entry point throws the typed PropagationError
// the oracle scan throws, serially and on a pool.
TEST(EphemerisParity, DecayingElementSetThrowsFromEveryEntryPoint) {
  orbit::KeplerianElements decay;
  decay.altitude_km = 200.0;
  decay.eccentricity = 0.0005;
  decay.bstar = 0.1;
  const JulianDate jd0 = core::campaign_epoch_jd();
  std::mt19937_64 rng(93);
  const std::vector<Tle> tles{random_tle(rng, 3),
                              orbit::make_tle("DOOMED", 93000, decay, jd0)};
  std::vector<Sgp4> props(tles.begin(), tles.end());
  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);
  const std::vector<GridObserver> observers{
      GridObserver{Geodetic{22.3, 114.2, 0.05}},
      GridObserver{Geodetic{51.5, -0.13, 0.035}}};
  const JulianDate jd1 = jd0 + 30.0;
  PassPredictionOptions opts;
  opts.coarse_step_s = 60.0;
  EXPECT_THROW((void)oracle_predict_passes(props[1], observers[0].location,
                                           jd0, jd1, opts),
               orbit::PropagationError);

  const orbit::PropagationMode before = orbit::propagation_mode();
  for (const orbit::PropagationMode kernel :
       {orbit::PropagationMode::kReference, orbit::PropagationMode::kFast}) {
    orbit::set_propagation_mode(kernel);
    for (const unsigned threads : {1u, 4u}) {
      EXPECT_THROW((void)orbit::predict_passes_grid(sat_ptrs, observers, jd0,
                                                    jd1, opts, threads),
                   orbit::PropagationError);
      orbit::ContactWindowCache cache;
      EXPECT_THROW((void)orbit::predict_passes_grid_cached(
                       tles, observers, jd0, jd1, opts, threads, &cache),
                   orbit::PropagationError);
    }
    orbit::RollingEphemeris::Options ropts;
    ropts.mode = kernel;
    orbit::RollingEphemeris rolling(sat_ptrs, jd0, ropts);
    EXPECT_THROW((void)rolling.advance(jd0, jd1), orbit::PropagationError);
  }
  orbit::set_propagation_mode(before);
}

// The certificate's fixture: masks pinned to the scalar elevation at grid
// samples, as test_refine pins bisection points. At a pinned sample the
// scalar verdict is "visible" with no room to spare (elevation == mask),
// while the table's sine differs from the scalar one by ~1e-11, far
// inside kLaneMargin: only the sampler can decide. Both walks — the span
// engine's lane walk and the rolling engine's per-pair walk — must give
// the oracle's bits, and must have asked the sampler. With the margin set
// to 0 the lanes decide instead, and about half the pins flip.
TEST(CertifiedScan, MasksPinnedToSampleElevationsMatchOracle) {
  std::mt19937_64 rng(2718);
  std::vector<Sgp4> props;
  for (int i = 0; i < 3; ++i) props.emplace_back(random_tle(rng, i * 11 + 5));
  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);
  const JulianDate anchor = core::campaign_epoch_jd() + 0.5;
  orbit::RollingEphemeris::Options ropts;
  ropts.chunk_samples = 512;
  orbit::RollingEphemeris rolling(sat_ptrs, anchor, ropts);
  (void)rolling.advance(anchor, anchor + 1.0);
  // The rolling grid is a fresh ScanGrid over its own span, so the span
  // engine scans the same sample times.
  const JulianDate jd0 = rolling.start_time();
  const JulianDate jd1 = rolling.end_time();
  PassPredictionOptions opts;
  opts.coarse_step_s = ropts.coarse_step_s;

  // Per satellite and site, masks pinned at the first sample (the walks'
  // init step) and at samples spread over the span, some above the
  // horizon and some below.
  const std::vector<Geodetic> sites{Geodetic{51.5, -0.13, 0.035},
                                    Geodetic{22.3, 114.2, 0.05}};
  std::vector<GridObserver> observers;
  std::vector<std::size_t> pinned_sat;
  const std::size_t n = rolling.sample_count();
  for (std::size_t s = 0; s < props.size(); ++s)
    for (const Geodetic& site : sites) {
      const orbit::ElevationSampler sampler(props[s], site);
      for (std::size_t i = 0; i < 10; ++i) {
        const std::size_t k = rolling.base_index() + i * (n / 10) + 7 * s;
        observers.push_back(
            GridObserver{site, sampler.elevation_deg(rolling.sample_time(k))});
        pinned_sat.push_back(s);
      }
    }

  obs::MetricsRegistry metrics;
  std::vector<orbit::PairTask> pairs;
  for (std::size_t o = 0; o < observers.size(); ++o)
    pairs.push_back(orbit::PairTask{pinned_sat[o], o});
  const auto lane_walk = orbit::scan_pass_pairs(
      sat_ptrs, observers, pairs, jd0, jd1, opts, {}, /*threads=*/1, &metrics);
  EXPECT_GE(metrics.snapshot().counters.at("orbit.ephemeris.scalar_decisions"),
            observers.size());

  std::size_t windows = 0;
  for (std::size_t o = 0; o < observers.size(); ++o) {
    const std::size_t s = pinned_sat[o];
    PassPredictionOptions lopts = opts;
    lopts.min_elevation_deg = observers[o].min_elevation_deg;
    const auto want =
        oracle_predict_passes(props[s], observers[o].location, jd0, jd1, lopts);
    const std::string label = "pin " + std::to_string(o);
    expect_bit_identical(lane_walk[o], want, "lane walk " + label);
    expect_bit_identical(rolling.scan_satellite(s, observers[o], opts), want,
                         "rolling walk " + label);
    windows += want.size();
  }
  EXPECT_GT(windows, 20u);
}

// ---------------------------------------------------------------------
// RollingEphemeris — the resident service's incrementally advanced
// horizon (docs/SERVICE.md). Contract: scanning the retained horizon is
// bit-identical to a fresh full-span scan over the same
// [start_time, end_time], no matter how the horizon got there (chunked
// leading-edge appends + trailing-edge retirements). The grid times are
// one float accumulation continued across chunks, so a fresh ScanGrid
// anchored at any retained sample reproduces the rest exactly.
// ---------------------------------------------------------------------

TEST(RollingEphemeris, IncrementalAdvanceIsBitIdenticalToFreshScan) {
  std::mt19937_64 rng(41);
  std::vector<Tle> tles;
  std::vector<Sgp4> props;
  for (int i = 0; i < 5; ++i) {
    tles.push_back(random_tle(rng, i * 19 + 6));
    props.emplace_back(tles.back());
  }
  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);

  const JulianDate anchor = core::campaign_epoch_jd();
  orbit::RollingEphemeris::Options ropts;
  ropts.coarse_step_s = 30.0;
  ropts.chunk_samples = 128;  // small chunks: many boundary crossings
  orbit::RollingEphemeris rolling(sat_ptrs, anchor, ropts);
  EXPECT_TRUE(rolling.empty());

  const std::vector<GridObserver> observers{
      GridObserver{Geodetic{22.3, 114.2, 0.05}},
      GridObserver{Geodetic{51.5, -0.13, 0.035}, 10.0},
      GridObserver{Geodetic{60.17, 24.94, 0.0}, 5.0}};
  PassPredictionOptions popts;
  popts.coarse_step_s = ropts.coarse_step_s;
  popts.min_elevation_deg = 5.0;  // NaN-mask observers fall back to this

  // Advance the leading edge in uneven slices, retiring history as the
  // service's maintenance thread would, and check parity at each stage.
  double retire = anchor;
  for (const double cover_days : {0.11, 0.35, 0.62, 1.0}) {
    (void)rolling.advance(retire, anchor + cover_days);
    retire = anchor + cover_days * 0.4;
    ASSERT_FALSE(rolling.empty());
    EXPECT_GE(rolling.end_time(), anchor + cover_days);

    for (std::size_t s = 0; s < sat_ptrs.size(); ++s) {
      for (std::size_t o = 0; o < observers.size(); ++o) {
        const GridObserver& site = observers[o];
        PassPredictionOptions lopts = popts;
        if (!std::isnan(site.min_elevation_deg))
          lopts.min_elevation_deg = site.min_elevation_deg;
        const auto got = rolling.scan_satellite(s, site, popts);
        const auto want =
            oracle_predict_passes(props[s], site.location,
                                  rolling.start_time(), rolling.end_time(),
                                  lopts);
        expect_bit_identical(got, want,
                             "cover " + std::to_string(cover_days) +
                                 " sat " + std::to_string(s) + " site " +
                                 std::to_string(o));
      }
    }
  }
  EXPECT_GT(rolling.chunk_count(), 1u);
  EXPECT_GT(rolling.base_index(), 0u);  // retirement actually happened
  EXPECT_GT(rolling.propagations(), 0u);

  // scan_observer is the per-site fan-out of scan_satellite.
  const auto per_sat = rolling.scan_observer(observers[0], popts);
  ASSERT_EQ(per_sat.size(), sat_ptrs.size());
  for (std::size_t s = 0; s < sat_ptrs.size(); ++s)
    expect_bit_identical(per_sat[s],
                         rolling.scan_satellite(s, observers[0], popts),
                         "scan_observer sat " + std::to_string(s));
}

TEST(RollingEphemeris, RetirementBoundsResidencyAndKeepsCoverage) {
  std::mt19937_64 rng(47);
  const Tle tle = random_tle(rng, 12);
  const Sgp4 prop(tle);
  const JulianDate anchor = core::campaign_epoch_jd();
  orbit::RollingEphemeris::Options ropts;
  ropts.chunk_samples = 64;
  orbit::RollingEphemeris rolling({&prop}, anchor, ropts);

  auto stats = rolling.advance(anchor, anchor + 0.4);
  EXPECT_GT(stats.chunks_appended, 0u);
  EXPECT_EQ(stats.chunks_retired, 0u);
  EXPECT_GT(stats.propagations, 0u);
  const std::size_t full_bytes = rolling.resident_bytes();
  const std::size_t full_chunks = rolling.chunk_count();

  // Covered already: a second advance is a no-op.
  stats = rolling.advance(anchor, anchor + 0.4);
  EXPECT_EQ(stats.chunks_appended, 0u);
  EXPECT_EQ(stats.propagations, 0u);

  // Retire most of the history: residency shrinks, but the chunk holding
  // `retire_before` itself is kept, so the retained span still covers it.
  const JulianDate retire = anchor + 0.3;
  stats = rolling.advance(retire, anchor + 0.4);
  EXPECT_GT(stats.chunks_retired, 0u);
  EXPECT_LT(rolling.chunk_count(), full_chunks);
  EXPECT_LT(rolling.resident_bytes(), full_bytes);
  EXPECT_LE(rolling.start_time(), retire);
  EXPECT_GE(rolling.end_time(), anchor + 0.4);

  // Absolute sample indices survive retirement: sample_time(base_index)
  // is the first retained time and nearest_index clamps into range.
  EXPECT_EQ(rolling.sample_time(rolling.base_index()), rolling.start_time());
  EXPECT_EQ(rolling.nearest_index(anchor - 1.0), rolling.base_index());
  EXPECT_EQ(rolling.nearest_index(anchor + 9.0), rolling.end_index() - 1);
  EXPECT_THROW((void)rolling.sample_time(rolling.base_index() - 1),
               std::out_of_range);
  EXPECT_THROW((void)rolling.sample_time(rolling.end_index()),
               std::out_of_range);
}

TEST(RollingEphemeris, RejectsBadArguments) {
  std::mt19937_64 rng(53);
  const Tle tle = random_tle(rng, 30);
  const Sgp4 prop(tle);
  const JulianDate anchor = core::campaign_epoch_jd();

  orbit::RollingEphemeris::Options zero_step;
  zero_step.coarse_step_s = 0.0;
  EXPECT_THROW(orbit::RollingEphemeris({&prop}, anchor, zero_step),
               std::invalid_argument);
  orbit::RollingEphemeris::Options zero_chunk;
  zero_chunk.chunk_samples = 0;
  EXPECT_THROW(orbit::RollingEphemeris({&prop}, anchor, zero_chunk),
               std::invalid_argument);
  // Non-finite anchors, steps and leading edges: the last would append
  // chunks without end.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNaN, kInf}) {
    orbit::RollingEphemeris::Options bad_step;
    bad_step.coarse_step_s = bad;
    EXPECT_THROW(orbit::RollingEphemeris({&prop}, anchor, bad_step),
                 std::invalid_argument);
    EXPECT_THROW(orbit::RollingEphemeris({&prop}, bad, {}),
                 std::invalid_argument);
    orbit::RollingEphemeris unbounded({&prop}, anchor, {});
    EXPECT_THROW((void)unbounded.advance(anchor, bad), std::invalid_argument);
    EXPECT_TRUE(unbounded.empty());
  }

  orbit::RollingEphemeris rolling({&prop}, anchor, {});
  const GridObserver site{Geodetic{22.3, 114.2, 0.05}};
  PassPredictionOptions popts;
  // Scanning an empty horizon, an out-of-range satellite, or with a
  // coarse step that disagrees with the resident grid must all throw
  // (the step mismatch would silently break the parity contract).
  EXPECT_THROW((void)rolling.scan_satellite(0, site, popts),
               std::logic_error);
  (void)rolling.advance(anchor, anchor + 0.05);
  EXPECT_THROW((void)rolling.scan_satellite(1, site, popts),
               std::out_of_range);
  PassPredictionOptions wrong_step;
  wrong_step.coarse_step_s = 60.0;
  EXPECT_THROW((void)rolling.scan_satellite(0, site, wrong_step),
               std::invalid_argument);
}

// next_pass is a bounded search; its contract is the full-scan
// selection it replaced in the service (tests/next_pass_oracle.h), bit
// for bit. Query times sit on the edges the search reasons about: the
// oracle's own AOS/LOS values and grid sample times, each with its
// neighbouring doubles, plus the horizon ends, "now", times outside the
// horizon and uniform draws. Masks cover always-visible (-90, where every
// satellite ties at the horizon start) to never-visible (90); a
// duplicated TLE makes exact AOS ties between two satellites.
TEST(RollingEphemeris, NextPassMatchesFullScanOracle) {
  std::mt19937_64 rng(59);
  std::vector<Tle> tles;
  for (int i = 0; i < 7; ++i) tles.push_back(random_tle(rng, i * 9 + 4));
  tles.push_back(tles[2]);
  std::vector<Sgp4> props;
  props.reserve(tles.size());
  for (const Tle& t : tles) props.emplace_back(t);
  std::vector<const Sgp4*> sat_ptrs;
  for (const Sgp4& p : props) sat_ptrs.push_back(&p);
  const JulianDate anchor = core::campaign_epoch_jd();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMasks[] = {-90.0, -5.0, 0.0, 10.0, 25.0, 60.0, 90.0};
  std::uniform_real_distribution<double> lat(-80.0, 80.0);
  std::uniform_real_distribution<double> lon(-180.0, 360.0);
  std::uniform_real_distribution<double> alt(0.0, 3.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  std::size_t queries = 0, found = 0, ties = 0, in_progress = 0;
  for (const orbit::PropagationMode kernel :
       {orbit::PropagationMode::kReference, orbit::PropagationMode::kFast}) {
    for (const bool retired : {false, true}) {
      orbit::RollingEphemeris::Options ropts;
      ropts.chunk_samples = 128;
      ropts.mode = kernel;
      orbit::RollingEphemeris rolling(sat_ptrs, anchor, ropts);
      JulianDate now = anchor;
      if (retired) {
        // Advance as the service does, retiring history behind "now".
        for (const double day : {0.2, 0.45, 0.7}) {
          now = anchor + day;
          (void)rolling.advance(now - 0.01, now + 0.3);
        }
        ASSERT_GT(rolling.base_index(), 0u);
      } else {
        (void)rolling.advance(anchor, anchor + 0.3);
      }
      const JulianDate h_start = rolling.start_time();
      const JulianDate h_end = rolling.end_time();

      for (int o = 0; o < 3; ++o) {
        const Geodetic site{lat(rng), lon(rng), alt(rng)};
        for (const double mask : kMasks) {
          // The mask arrives either on the observer or as the fallback.
          GridObserver observer{site};
          PassPredictionOptions popts;
          if (o == 1)
            popts.min_elevation_deg = mask;
          else
            observer.min_elevation_deg = mask;
          // The unculled oracle scan over the retained horizon, with
          // either table kernel.
          PassPredictionOptions lopts = popts;
          lopts.min_elevation_deg = mask;
          std::vector<std::vector<ContactWindow>> windows;
          for (const Sgp4& prop : props)
            windows.push_back(
                oracle_predict_passes(prop, site, h_start, h_end, lopts));

          std::vector<JulianDate> after{h_start, h_end, now, h_start - 0.1,
                                        h_end + 0.1};
          for (int i = 0; i < 4; ++i)
            after.push_back(h_start + unit(rng) * (h_end - h_start));
          for (int i = 0; i < 3; ++i)
            after.push_back(rolling.sample_time(
                rolling.base_index() + rng() % rolling.sample_count()));
          for (const auto& sat_windows : windows)
            for (std::size_t w = 0; w < sat_windows.size() && w < 2; ++w)
              after.insert(after.end(),
                           {sat_windows[w].aos_jd, sat_windows[w].los_jd});
          const std::size_t exact = after.size();
          for (std::size_t i = 0; i < exact; ++i)
            after.insert(after.end(), {std::nextafter(after[i], -kInf),
                                       std::nextafter(after[i], kInf)});

          for (const JulianDate a : after) {
            const auto want = testing::oracle_next_pass(windows, a);
            const auto got = rolling.next_pass(observer, popts, a);
            testing::expect_same_next_pass(
                got, want,
                "kernel " + std::to_string(static_cast<int>(kernel)) +
                    (retired ? " retired" : " fresh") + " site " +
                    std::to_string(o) + " mask " + std::to_string(mask) +
                    " after " + std::to_string(a));
            ++queries;
            if (!want.found) continue;
            ++found;
            if (want.window.aos_jd <= a) ++in_progress;
            for (std::size_t s = want.satellite + 1; s < windows.size(); ++s)
              for (const ContactWindow& w : windows[s])
                if (w.los_jd > a) {
                  if (w.aos_jd == want.window.aos_jd) ++ties;
                  break;
                }
          }
        }
      }
    }
  }
  EXPECT_GE(queries, 2000u);
  EXPECT_GT(found, 0u);
  EXPECT_LT(found, queries);
  EXPECT_GT(ties, 0u);
  EXPECT_GT(in_progress, 0u);
}

// Satellite task: the cache's byte budget. Entries charge payload
// capacity plus fixed overhead; exceeding max_bytes evicts LRU-first
// (but never the entry just inserted).
TEST(ContactWindowCache, ByteBudgetEvictsLruAndAccountsBytes) {
  std::mt19937_64 rng(37);
  const Geodetic site{22.3, 114.2, 0.05};
  const JulianDate jd0 = core::campaign_epoch_jd();
  const JulianDate jd1 = jd0 + 0.25;

  // Budget fits roughly two busy entries, far below the entry cap, so
  // every eviction in this test is byte-driven.
  orbit::ContactWindowCache cache(
      /*max_entries=*/1024,
      /*max_bytes=*/2 * (orbit::ContactWindowCache::kEntryOverheadBytes +
                         8 * sizeof(ContactWindow)));

  std::vector<Tle> tles;
  for (int i = 0; i < 4; ++i) tles.push_back(random_tle(rng, i * 11 + 7));
  CountingLookup get{cache, site, jd0, jd1};
  for (const Tle& tle : tles) (void)get(tle);

  const auto st = cache.stats();
  EXPECT_EQ(st.misses, tles.size());
  EXPECT_EQ(get.runs.load(), 4);
  EXPECT_LT(st.entries, tles.size());  // budget forced evictions
  EXPECT_GE(st.entries, 1u);           // never evicts below one entry
  EXPECT_GE(st.bytes,
            st.entries * orbit::ContactWindowCache::kEntryOverheadBytes);

  // The most recent key survived; the oldest was the victim.
  (void)get(tles.back());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(get.runs.load(), 4);
  (void)get(tles.front());
  EXPECT_EQ(cache.stats().hits, 1u);  // recomputed, not a hit
  EXPECT_EQ(get.runs.load(), 5);

  // An unbounded cache (max_bytes = 0) still accounts bytes.
  orbit::ContactWindowCache unbounded;
  CountingLookup get_unbounded{unbounded, site, jd0, jd1};
  (void)get_unbounded(tles[0]);
  EXPECT_EQ(get_unbounded.runs.load(), 1);
  EXPECT_GE(unbounded.stats().bytes,
            orbit::ContactWindowCache::kEntryOverheadBytes);
}

TEST(ContactWindowCache, PropagatesComputationErrors) {
  std::mt19937_64 rng(31);
  const Tle tle = random_tle(rng, 4);
  const Geodetic site{22.3, 114.2, 0.05};
  const JulianDate jd0 = core::campaign_epoch_jd();

  const JulianDate jd1 = jd0 + 1.0;

  orbit::ContactWindowCache cache;
  // The first computation throws: the owner's exception must surface,
  // nothing is cached, and the in-flight slot is cleaned up so the same
  // key computes again (and then caches) afterwards.
  std::atomic<int> runs{0};
  const auto lookup = [&] {
    return cache.get_or_compute(tle, site, jd0, jd1, {}, [&] {
      if (runs.fetch_add(1) == 0)
        throw std::invalid_argument("first computation fails");
      return reference_scan(tle, site, jd0, jd1);
    });
  };
  EXPECT_THROW((void)lookup(), std::invalid_argument);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(lookup().empty());
  EXPECT_EQ(runs.load(), 2);
  EXPECT_FALSE(lookup().empty());
  EXPECT_EQ(runs.load(), 2);  // served from the cache
  EXPECT_EQ(cache.stats().entries, 1u);
}

}  // namespace
}  // namespace sinet
