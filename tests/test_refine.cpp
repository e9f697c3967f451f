// The refinement primitives (orbit::refine_mask_crossing and
// orbit::refine_max_elevation) against the scalar searches they replace
// (refine_oracle.h). The primitives evaluate their search points four at
// a time in SIMD lanes and take a comparison from the lanes only when it
// clears a margin; every result must still carry the oracle's bits, and
// every PropagationError the oracle throws must be thrown too.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "orbit/ephemeris.h"
#include "orbit/passes.h"
#include "orbit/sgp4.h"
#include "orbit/tle.h"
#include "refine_oracle.h"

namespace sinet {
namespace {

using orbit::ContactWindow;
using orbit::ElevationSampler;
using orbit::Geodetic;
using orbit::JulianDate;
using orbit::kSecondsPerDay;
using orbit::Sgp4;
using orbit::Tle;
using testing::oracle_refine_mask_crossing;
using testing::oracle_refine_max_elevation;
using testing::scan_crossing_bracket;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

Tle band_tle(std::mt19937_64& rng, int index) {
  // Paper Table 3 regimes: LEO IoT constellations between ~450 and
  // ~1200 km, inclinations from mid-latitude to sun-synchronous.
  static constexpr double kAltBandsKm[] = {450.0, 500.0, 550.0, 600.0,
                                           650.0, 700.0, 800.0, 1200.0};
  static constexpr double kIncBandsDeg[] = {30.0, 45.0, 53.0, 63.4,
                                            85.0, 97.5, 98.6};
  std::uniform_real_distribution<double> jitter(-20.0, 20.0);
  std::uniform_real_distribution<double> ecc(0.0, 0.02);
  std::uniform_real_distribution<double> angle(0.0, 360.0);
  orbit::KeplerianElements kep;
  kep.altitude_km = kAltBandsKm[index % 8] + jitter(rng);
  kep.inclination_deg = kIncBandsDeg[(index / 8) % 7];
  kep.eccentricity = ecc(rng);
  kep.raan_deg = angle(rng);
  kep.arg_perigee_deg = angle(rng);
  kep.mean_anomaly_deg = angle(rng);
  return orbit::make_tle("REFINE-" + std::to_string(index), 94000 + index,
                         kep, core::campaign_epoch_jd());
}

std::vector<Geodetic> paper_sites() {
  std::vector<Geodetic> out;
  for (const core::MeasurementSite& s : core::paper_measurement_sites())
    out.push_back(s.location);
  return out;
}

// Either a PropagationError's message or the returned values' bits.
struct Outcome {
  bool threw = false;
  std::string what;
  std::vector<std::uint64_t> value;
  bool operator==(const Outcome&) const = default;
};

Outcome run(const std::function<std::vector<double>()>& f) {
  Outcome o;
  try {
    for (const double v : f()) o.value.push_back(bits(v));
  } catch (const orbit::PropagationError& e) {
    o.threw = true;
    o.what = e.what();
  }
  return o;
}

// Compares both primitives with the oracle on one bracket; returns false
// (after an EXPECT failure) on the first mismatch.
bool crossing_matches(const ElevationSampler& s, JulianDate lo, JulianDate hi,
                      double mask, double tol_s, const std::string& label) {
  const Outcome got = run([&] {
    return std::vector<double>{
        orbit::refine_mask_crossing(s, lo, hi, mask, tol_s)};
  });
  const Outcome want = run([&] {
    return std::vector<double>{
        oracle_refine_mask_crossing(s, lo, hi, mask, tol_s)};
  });
  EXPECT_EQ(got, want) << label << " crossing [" << lo << ", " << hi
                       << "] mask " << mask << " tol " << tol_s;
  return got == want;
}

bool peak_matches(const ElevationSampler& s, JulianDate a, JulianDate b,
                  const std::string& label) {
  const Outcome got = run([&] {
    const auto [t, el] = orbit::refine_max_elevation(s, a, b);
    return std::vector<double>{t, el};
  });
  const Outcome want = run([&] {
    const auto [t, el] = oracle_refine_max_elevation(s, a, b);
    return std::vector<double>{t, el};
  });
  EXPECT_EQ(got, want) << label << " peak [" << a << ", " << b << "]";
  return got == want;
}

// Every window both engines emit, in both propagation modes, is the
// oracle's refinement of its grid brackets; the primitives agree with the
// oracle on each of those brackets too.
TEST(RefinePrimitives, ScanWindowsMatchOracleInBothModes) {
  std::mt19937_64 rng(20261017u);
  std::vector<Sgp4> props;
  for (int i = 0; i < 16; ++i) props.emplace_back(band_tle(rng, i * 3 + 1));
  std::vector<const Sgp4*> sats;
  for (const Sgp4& p : props) sats.push_back(&p);
  const std::vector<Geodetic> sites = paper_sites();
  constexpr double kMasks[] = {-5.0, 0.0, 10.0, 25.0};
  std::vector<orbit::GridObserver> observers;
  for (std::size_t o = 0; o < sites.size(); ++o)
    observers.push_back({sites[o], kMasks[o % 4]});
  std::vector<orbit::PairTask> pairs;
  for (std::size_t s = 0; s < sats.size(); ++s)
    for (std::size_t o = 0; o < observers.size(); ++o)
      pairs.push_back({s, o});

  const JulianDate jd0 = core::campaign_epoch_jd() + 0.3;
  const JulianDate jd1 = jd0 + 2.0;
  orbit::PassPredictionOptions opts;
  opts.coarse_step_s = 30.0;
  const orbit::ScanGrid grid(jd0, jd1, opts.coarse_step_s);

  for (const orbit::PropagationMode mode :
       {orbit::PropagationMode::kReference, orbit::PropagationMode::kFast}) {
    orbit::EphemerisScanOptions scan_opts;
    scan_opts.mode = mode;
    const auto windows = orbit::scan_pass_pairs(
        sats, observers, pairs, jd0, jd1, opts, scan_opts, 1);
    std::size_t checked = 0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const auto& obs = observers[pairs[p].observer];
      const ElevationSampler sampler(*sats[pairs[p].satellite], obs.location);
      const std::string label =
          std::string(orbit::propagation_mode_name(mode)) + " pair " +
          std::to_string(p);
      for (const ContactWindow& w : windows[p]) {
        for (const JulianDate edge : {w.aos_jd, w.los_jd}) {
          const auto bracket = scan_crossing_bracket(grid, edge);
          if (!bracket) continue;  // truncated, not refined
          const auto [lo, hi] = *bracket;
          EXPECT_EQ(bits(edge),
                    bits(oracle_refine_mask_crossing(
                        sampler, lo, hi, obs.min_elevation_deg,
                        opts.refine_tolerance_s)))
              << label;
          ASSERT_TRUE(crossing_matches(sampler, lo, hi, obs.min_elevation_deg,
                                       opts.refine_tolerance_s, label));
        }
        const auto [tca, el] =
            oracle_refine_max_elevation(sampler, w.aos_jd, w.los_jd);
        EXPECT_EQ(bits(w.tca_jd), bits(tca)) << label;
        EXPECT_EQ(bits(w.max_elevation_deg), bits(el)) << label;
        ASSERT_TRUE(peak_matches(sampler, w.aos_jd, w.los_jd, label));
        ++checked;
      }
    }
    EXPECT_GT(checked, 200u) << "too few windows to mean anything";
  }
}

// A scalar walk (like predict_passes) at every mask, at steps of 10-120 s,
// starting up to a year after the epoch — beyond the 30 days over which
// the batch kernel's accuracy is tested. Each transition's bracket and
// each closed window go through both primitives and the oracle, at the
// default and at a finer and a coarser tolerance.
TEST(RefinePrimitives, MatchOracleAcrossMasksStepsAndSpans) {
  std::mt19937_64 rng(7031u);
  const std::vector<Geodetic> sites = paper_sites();
  constexpr double kMasks[] = {-90.0, -5.0, 0.0, 10.0, 25.0, 60.0, 90.0};
  constexpr double kTolerances[] = {0.5, 0.05, 4.0};
  std::uniform_real_distribution<double> step_s(10.0, 120.0);
  std::uniform_real_distribution<double> offset_days(0.0, 365.0);
  std::size_t crossings = 0, peaks = 0;
  for (int config = 0; config < 56; ++config) {
    const Sgp4 prop(band_tle(rng, config));
    const double mask = kMasks[config % 7];
    const Geodetic& site = sites[config % 8];
    const ElevationSampler sampler(prop, site);
    const double step = step_s(rng);
    const double step_days = step / kSecondsPerDay;
    const JulianDate start = core::campaign_epoch_jd() + offset_days(rng);
    const double tol = kTolerances[config % 3];
    const std::string label = "config " + std::to_string(config);

    bool prev = sampler.elevation_deg(start) >= mask;
    JulianDate rise = start;
    for (JulianDate t = start + step_days; t < start + 1.5; t += step_days) {
      const bool vis = sampler.elevation_deg(t) >= mask;
      if (vis != prev) {
        ASSERT_TRUE(
            crossing_matches(sampler, t - step_days, t, mask, tol, label));
        ++crossings;
        const JulianDate edge = oracle_refine_mask_crossing(
            sampler, t - step_days, t, mask, tol);
        if (vis) {
          rise = edge;
        } else {
          ASSERT_TRUE(peak_matches(sampler, rise, edge, label));
          ++peaks;
        }
      }
      prev = vis;
    }
    // Brackets without a crossing, and windows of arbitrary length.
    for (int k = 0; k < 4; ++k) {
      const JulianDate t = start + 1.5 * offset_days(rng) / 365.0;
      ASSERT_TRUE(crossing_matches(sampler, t, t + step_days, mask, tol,
                                   label + " open"));
      ASSERT_TRUE(peak_matches(sampler, t, t + 20.0 * step_days,
                               label + " open"));
    }
  }
  // Masks of +-90 deg cross nowhere, so their configs add no crossings.
  EXPECT_GT(crossings, 300u);
  EXPECT_GT(peaks, 100u);
}

TEST(RefinePrimitives, DegenerateBracketsMatchOracle) {
  std::mt19937_64 rng(11u);
  const Sgp4 prop(band_tle(rng, 2));
  const ElevationSampler sampler(prop, paper_sites()[0]);
  const JulianDate t = core::campaign_epoch_jd() + 1.2345;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double s = 1.0 / kSecondsPerDay;
  const std::vector<std::pair<JulianDate, JulianDate>> brackets = {
      {t + 30.0 * s, t},        // hi < lo
      {t, t},                   // zero width
      {t, t + 0.3 * s},         // below tol_s
      {t, t + 0.5 * s},         // exactly tol_s
      {t, t + 0.6 * s},         // one iteration
      {t, t + 1.1 * s},         // two iterations
      {nan, t},                 // NaN ends
      {t, nan},
      {nan, nan},
      {t - 600.0 * s, t + 600.0 * s},
  };
  for (const auto& [lo, hi] : brackets) {
    for (const double mask : {0.0, 10.0, nan, 120.0, -120.0}) {
      EXPECT_TRUE(crossing_matches(sampler, lo, hi, mask, 0.5, "degenerate"));
      EXPECT_TRUE(crossing_matches(sampler, lo, hi, mask, nan, "nan tol"));
      EXPECT_TRUE(crossing_matches(sampler, lo, hi, mask, -1.0, "neg tol"));
    }
    EXPECT_TRUE(peak_matches(sampler, lo, hi, "degenerate"));
  }
}

// Comparisons built to land inside the margin, where the lanes cannot
// decide and the scalar elevation must: the mask equals the scalar
// elevation at a point the bisection evaluates, and golden-section
// brackets are shifted until their two first probes have equal scalar
// elevations.
TEST(RefinePrimitives, ComparisonsInsideTheMarginMatchOracle) {
  std::mt19937_64 rng(424242u);
  const std::vector<Geodetic> sites = paper_sites();
  std::size_t pinned = 0, ties = 0;
  for (int config = 0; config < 8; ++config) {
    const Sgp4 prop(band_tle(rng, config * 5));
    const ElevationSampler sampler(prop, sites[config]);
    const double step_days = 30.0 / kSecondsPerDay;
    JulianDate t = core::campaign_epoch_jd() + 0.1 * config;
    // Find the next rise above 0 deg.
    bool prev = sampler.elevation_deg(t) >= 0.0;
    for (;; t += step_days) {
      const bool vis = sampler.elevation_deg(t) >= 0.0;
      if (vis && !prev) break;
      prev = vis;
    }
    // Every point the scalar bisection evaluates, each in turn as the mask.
    JulianDate lo = t - step_days, hi = t;
    std::vector<JulianDate> points{lo};
    const bool lo_vis = sampler.elevation_deg(lo) >= 0.0;
    for (int i = 0; i < 64 && (hi - lo) * kSecondsPerDay > 0.05; ++i) {
      const JulianDate mid = 0.5 * (lo + hi);
      points.push_back(mid);
      if ((sampler.elevation_deg(mid) >= 0.0) == lo_vis)
        lo = mid;
      else
        hi = mid;
    }
    for (const JulianDate p : points) {
      const double mask = sampler.elevation_deg(p);
      ASSERT_TRUE(crossing_matches(sampler, t - step_days, t, mask, 0.05,
                                   "pinned mask"));
      ++pinned;
    }

    // Golden section: a 12 s bracket around the peak, shifted by `shift`
    // days; its first probes x1 < x2 sit symmetrically inside it, where
    // the elevation is flat enough that a tie can be resolved on the
    // Julian-date grid. Bisect the shift until their elevations tie.
    const auto [tca, peak_el] =
        oracle_refine_max_elevation(sampler, t, t + 0.02);
    static_cast<void>(peak_el);
    const double half = 6.0 / kSecondsPerDay;
    constexpr double kInvPhi = 0.6180339887498949;
    const auto gap = [&](double shift) {
      const JulianDate a = tca - half + shift, b = tca + half + shift;
      return sampler.elevation_deg(a + kInvPhi * (b - a)) -
             sampler.elevation_deg(b - kInvPhi * (b - a));
    };
    double s_lo = -0.5 * half, s_hi = 0.5 * half;
    ASSERT_LT(gap(s_lo) * gap(s_hi), 0.0);
    for (int i = 0; i < 200 && s_lo < s_hi; ++i) {
      const double m = 0.5 * (s_lo + s_hi);
      if (m == s_lo || m == s_hi) break;
      if ((gap(m) < 0.0) == (gap(s_lo) < 0.0))
        s_lo = m;
      else
        s_hi = m;
    }
    for (const double shift : {s_lo, s_hi}) {
      ASSERT_LT(std::abs(gap(shift)), 5e-7) << "no tie inside the margin";
      ASSERT_TRUE(peak_matches(sampler, tca - half + shift,
                               tca + half + shift, "tied probes"));
      ++ties;
    }
  }
  EXPECT_GT(pinned, 50u);
  EXPECT_EQ(ties, 16u);
}

// A heavily dragged element set that decays within days: where the
// scalar propagator throws, both searches must throw the same error.
TEST(RefinePrimitives, DecayingElementSetThrowsLikeOracle) {
  orbit::KeplerianElements decay;
  decay.altitude_km = 200.0;
  decay.eccentricity = 0.0005;
  decay.bstar = 0.1;
  const Tle doomed =
      orbit::make_tle("DOOMED", 93000, decay, core::campaign_epoch_jd());
  const Sgp4 prop(doomed);
  const ElevationSampler sampler(prop, paper_sites()[2]);

  // The last instant that propagates, to about a millisecond.
  const JulianDate jd0 = core::campaign_epoch_jd();
  const auto fails = [&](JulianDate jd) {
    try {
      static_cast<void>(sampler.elevation_deg(jd));
      return false;
    } catch (const orbit::PropagationError&) {
      return true;
    }
  };
  JulianDate good = jd0, bad = jd0 + 30.0;
  ASSERT_FALSE(fails(good));
  ASSERT_TRUE(fails(bad)) << "decay TLE never failed — test needs retuning";
  while ((bad - good) * kSecondsPerDay > 1e-3) {
    const JulianDate mid = 0.5 * (good + bad);
    if (fails(mid))
      bad = mid;
    else
      good = mid;
  }

  std::size_t threw = 0;
  const double s = 1.0 / kSecondsPerDay;
  for (const double before : {0.0, 0.3, 7.0, 29.0, 120.0, 900.0}) {
    for (const double after : {0.0, 0.2, 5.0, 31.0, 600.0}) {
      const JulianDate lo = good - before * s, hi = bad + after * s;
      for (const double mask : {-5.0, 0.0, 10.0}) {
        ASSERT_TRUE(crossing_matches(sampler, lo, hi, mask, 0.5, "decay"));
        ASSERT_TRUE(crossing_matches(sampler, hi, hi + 30.0 * s, mask, 0.5,
                                     "decayed"));
      }
      ASSERT_TRUE(peak_matches(sampler, lo, hi, "decay"));
      threw += run([&] {
                 const auto [t, el] =
                     orbit::refine_max_elevation(sampler, lo, hi);
                 return std::vector<double>{t, el};
               }).threw;
    }
  }
  EXPECT_GT(threw, 0u) << "no bracket reached the decay";
}

}  // namespace
}  // namespace sinet
