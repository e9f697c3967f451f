// Accuracy and lane-handling tests for the SoA batch propagators
// (orbit/sgp4_batch.h): batch positions vs. the scalar Sgp4 reference
// out to the lane certificate's span, the sine-elevation error the
// certificate's margin must cover, remainder groups, mixed simple_/normal
// element sets in one lane group, per-lane error reporting where the
// scalar propagator throws, and the one-satellite, time-per-lane form
// that refinement runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "orbit/constellation.h"
#include "orbit/frames.h"
#include "orbit/look_angles.h"
#include "orbit/sgp4.h"
#include "orbit/sgp4_batch.h"
#include "orbit/tle.h"

namespace sinet {
namespace {

using orbit::JulianDate;
using orbit::LaneStatus;
using orbit::Sgp4;
using orbit::Sgp4Batch;
using orbit::Tle;
using orbit::Vec3;

// Max |batch - scalar| position component tolerated, km: the position
// error the lane certificate assumes (orbit/sgp4_batch.h). The batch path
// swaps libm trig for the polynomial kernels and atan2 for a
// normalization; observed deviation is ~1e-8 km out to 60 days (sub-mm).
constexpr double kPosTolKm = 1e-6;

Tle band_tle(std::mt19937_64& rng, int index) {
  static constexpr double kAltBandsKm[] = {450.0, 500.0,  550.0, 600.0,
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
  return orbit::make_tle("BATCH-" + std::to_string(index), 91000 + index,
                         kep, core::campaign_epoch_jd());
}

// A perigee in [156, 220) km activates the `simple_` drag truncation
// without tripping the low-perigee s4 re-derivation or early decay.
Tle simple_branch_tle(int index) {
  orbit::KeplerianElements kep;
  kep.altitude_km = 200.0;
  kep.eccentricity = 0.0005;
  kep.inclination_deg = 53.0;
  kep.mean_anomaly_deg = 40.0 * index;
  kep.bstar = 1e-5;
  return orbit::make_tle("SIMPLE-" + std::to_string(index), 92000 + index,
                         kep, core::campaign_epoch_jd());
}

void expect_batch_matches_scalar(const std::vector<const Sgp4*>& sats,
                                 JulianDate jd, const std::string& label) {
  const Sgp4Batch batch(sats);
  ASSERT_EQ(batch.size(), sats.size()) << label;
  const double gmst = orbit::gmst_rad(jd);
  double x[Sgp4Batch::kLaneWidth], y[Sgp4Batch::kLaneWidth];
  double z[Sgp4Batch::kLaneWidth], d[Sgp4Batch::kLaneWidth];
  LaneStatus status[Sgp4Batch::kLaneWidth];
  std::size_t seen = 0;
  for (std::size_t g = 0; g < batch.groups(); ++g) {
    const std::size_t members = batch.group_members(g);
    EXPECT_TRUE(batch.propagate_group_ecef(g, jd, gmst, x, y, z, d, status))
        << label << " group " << g;
    for (std::size_t l = 0; l < members; ++l) {
      const std::size_t s = g * Sgp4Batch::kLaneWidth + l;
      ASSERT_EQ(status[l], LaneStatus::kOk)
          << label << " sat " << s << " at jd " << jd;
      const Vec3 want = orbit::teme_to_ecef_position_gmst(
          sats[s]->at_jd(jd).position_km, gmst);
      EXPECT_NEAR(x[l], want.x, kPosTolKm) << label << " sat " << s;
      EXPECT_NEAR(y[l], want.y, kPosTolKm) << label << " sat " << s;
      EXPECT_NEAR(z[l], want.z, kPosTolKm) << label << " sat " << s;
      EXPECT_NEAR(d[l], want.norm(), kPosTolKm) << label << " sat " << s;
      ++seen;
    }
  }
  EXPECT_EQ(seen, sats.size()) << label;
}

TEST(Sgp4Batch, MatchesScalarAcrossBandsAndSpan) {
  std::mt19937_64 rng(20260808u);
  std::vector<Tle> tles;
  std::vector<Sgp4> props;
  for (int i = 0; i < 32; ++i) {
    tles.push_back(band_tle(rng, i));
    props.emplace_back(tles.back());
  }
  std::vector<const Sgp4*> sats;
  for (const Sgp4& p : props) sats.push_back(&p);

  // Epoch, mid-campaign, and out to the end of the certified span: a
  // 30-day contact plan started 30 days after the TLE epoch ends there.
  const JulianDate jd0 = core::campaign_epoch_jd();
  for (const double offset_days :
       {0.0, 0.37, 3.14159, 15.5, 29.999, 44.5, 59.999,
        orbit::kLaneMaxEpochDays}) {
    expect_batch_matches_scalar(sats, jd0 + offset_days,
                                "offset " + std::to_string(offset_days));
  }
}

// What the lane certificate's margin must cover: the sine of the
// elevation from a kernel position against the scalar one, over the 39
// paper satellites and 32 band TLEs, the 8 paper sites, and times out to
// kLaneMaxEpochDays, wherever the slant range is at least
// kLaneMinRangeKm. Both kernels stay below half the margin (measured:
// ~1e-11, against 8.7e-9).
TEST(Sgp4Batch, ElevationErrorStaysBelowHalfTheLaneMargin) {
  const JulianDate jd0 = core::campaign_epoch_jd();
  std::vector<Tle> tles;
  for (const orbit::ConstellationSpec& spec : orbit::paper_constellations())
    for (const Tle& t : orbit::generate_tles(spec, jd0)) tles.push_back(t);
  ASSERT_EQ(tles.size(), 39u);
  std::mt19937_64 rng(60);
  for (int i = 0; i < 32; ++i) tles.push_back(band_tle(rng, i));
  std::vector<Sgp4> props(tles.begin(), tles.end());
  std::vector<const Sgp4*> sats;
  for (const Sgp4& p : props) sats.push_back(&p);
  std::vector<orbit::TopocentricFrame> frames;
  for (const core::MeasurementSite& site : core::paper_measurement_sites())
    frames.emplace_back(site.location);

  // Worst |sin(el) kernel - sin(el) scalar| over the sites, for one
  // kernel position and the scalar one of the same satellite and time.
  double worst = 0.0;
  std::size_t compared = 0;
  const auto compare = [&](const Vec3& got, const Vec3& want) {
    for (const orbit::TopocentricFrame& f : frames) {
      const Vec3 rw = want - f.obs_ecef_km;
      if (rw.norm() < orbit::kLaneMinRangeKm) continue;
      const Vec3 rg = got - f.obs_ecef_km;
      const double sw = orbit::ecef_to_enu(f, rw).up / rw.norm();
      const double sg = orbit::ecef_to_enu(f, rg).up / rg.norm();
      worst = std::max(worst, std::abs(sg - sw));
      ++compared;
    }
  };

  // The table kernel: every satellite at one time per call.
  const Sgp4Batch batch(sats);
  std::uniform_real_distribution<double> offset_days(
      0.0, orbit::kLaneMaxEpochDays);
  double x[Sgp4Batch::kLaneWidth], y[Sgp4Batch::kLaneWidth];
  double z[Sgp4Batch::kLaneWidth], d[Sgp4Batch::kLaneWidth];
  LaneStatus status[Sgp4Batch::kLaneWidth];
  for (int call = 0; call < 400; ++call) {
    const JulianDate jd =
        jd0 + (call == 0 ? orbit::kLaneMaxEpochDays : offset_days(rng));
    const double gmst = orbit::gmst_rad(jd);
    for (std::size_t g = 0; g < batch.groups(); ++g) {
      ASSERT_TRUE(batch.propagate_group_ecef(g, jd, gmst, x, y, z, d, status));
      for (std::size_t l = 0; l < batch.group_members(g); ++l)
        compare(Vec3{x[l], y[l], z[l]},
                orbit::teme_to_ecef_position_gmst(
                    sats[g * Sgp4Batch::kLaneWidth + l]->at_jd(jd).position_km,
                    gmst));
    }
  }
  const double table_worst = worst;

  // The refinement kernel: one satellite, a time per lane.
  worst = 0.0;
  for (const Sgp4& prop : props) {
    const orbit::Sgp4TimeBatch lanes(prop);
    for (int call = 0; call < 16; ++call) {
      JulianDate jd[4];
      for (JulianDate& t : jd) t = jd0 + offset_days(rng);
      lanes.propagate_ecef(jd, x, y, z, status);
      for (int l = 0; l < 4; ++l) {
        ASSERT_EQ(status[l], LaneStatus::kOk);
        const orbit::TemeState st = prop.at_jd(jd[l]);
        compare(Vec3{x[l], y[l], z[l]},
                orbit::teme_to_ecef_state(st.position_km, st.velocity_km_s,
                                          jd[l])
                    .position_km);
      }
    }
  }
  EXPECT_GT(compared, 200000u);
  EXPECT_LT(table_worst, 0.5 * orbit::kLaneMargin)
      << "table kernel sine-elevation error";
  EXPECT_LT(worst, 0.5 * orbit::kLaneMargin)
      << "refinement kernel sine-elevation error";
}

TEST(Sgp4Batch, RemainderGroupsCoverEveryCount) {
  std::mt19937_64 rng(99);
  std::vector<Tle> tles;
  std::vector<Sgp4> props;
  for (int i = 0; i < 7; ++i) {
    tles.push_back(band_tle(rng, i * 3));
    props.emplace_back(tles.back());
  }

  const JulianDate jd = core::campaign_epoch_jd() + 1.25;
  for (const std::size_t n : {1u, 2u, 3u, 5u, 7u}) {
    std::vector<const Sgp4*> sats;
    for (std::size_t i = 0; i < n; ++i) sats.push_back(&props[i]);
    const Sgp4Batch batch(sats);
    EXPECT_EQ(batch.groups(), (n + Sgp4Batch::kLaneWidth - 1) /
                                  Sgp4Batch::kLaneWidth);
    const std::size_t last = batch.groups() - 1;
    EXPECT_EQ(batch.group_members(last),
              n - last * Sgp4Batch::kLaneWidth);
    expect_batch_matches_scalar(sats, jd, "n=" + std::to_string(n));
  }
}

TEST(Sgp4Batch, MixedSimpleAndNormalBranchesInOneGroup) {
  // Lanes 0/2 run the full drag model, lanes 1/3 the simple_ truncation;
  // the lane mask must keep them independent within one vector group.
  std::mt19937_64 rng(7);
  const Tle normal_a = band_tle(rng, 2);
  const Tle simple_a = simple_branch_tle(0);
  const Tle normal_b = band_tle(rng, 11);
  const Tle simple_b = simple_branch_tle(1);
  const Sgp4 pa(normal_a), pb(simple_a), pc(normal_b), pd(simple_b);
  ASSERT_FALSE(pa.coefficients().simple);
  ASSERT_TRUE(pb.coefficients().simple);
  ASSERT_FALSE(pc.coefficients().simple);
  ASSERT_TRUE(pd.coefficients().simple);

  const std::vector<const Sgp4*> sats{&pa, &pb, &pc, &pd};
  const JulianDate jd0 = core::campaign_epoch_jd();
  for (const double offset_days : {0.01, 0.9, 4.6})
    expect_batch_matches_scalar(sats, jd0 + offset_days,
                                "mixed offset " + std::to_string(offset_days));
}

TEST(Sgp4Batch, ErrorLanesAreFlaggedWithoutPoisoningNeighbors) {
  // A heavily dragged low orbit whose eccentricity leaves [−0.001, 1)
  // partway into the span: the scalar propagator throws, the batch lane
  // must go kError while healthy lanes in the same group stay exact.
  orbit::KeplerianElements decay;
  decay.altitude_km = 200.0;
  decay.eccentricity = 0.0005;
  decay.bstar = 0.1;
  const Tle doomed =
      orbit::make_tle("DOOMED", 93000, decay, core::campaign_epoch_jd());
  const Sgp4 sick(doomed);

  std::mt19937_64 rng(13);
  const Tle t_a = band_tle(rng, 1);
  const Tle t_b = band_tle(rng, 9);
  const Tle t_c = band_tle(rng, 17);
  const Sgp4 pa(t_a), pb(t_b), pc(t_c);
  const std::vector<const Sgp4*> sats{&pa, &sick, &pb, &pc};
  const Sgp4Batch batch(sats);

  // Find a date where the scalar propagator rejects the doomed orbit.
  const JulianDate jd0 = core::campaign_epoch_jd();
  JulianDate bad_jd = 0.0;
  for (double off = 0.5; off <= 30.0; off += 0.5) {
    try {
      (void)sick.at_jd(jd0 + off);
    } catch (const orbit::PropagationError&) {
      bad_jd = jd0 + off;
      break;
    }
  }
  ASSERT_GT(bad_jd, 0.0) << "decay TLE never failed — test needs retuning";

  const double gmst = orbit::gmst_rad(bad_jd);
  double x[4], y[4], z[4], d[4];
  LaneStatus status[4];
  EXPECT_FALSE(batch.propagate_group_ecef(0, bad_jd, gmst, x, y, z, d, status));
  EXPECT_EQ(status[1], LaneStatus::kError);
  EXPECT_EQ(status[0], LaneStatus::kOk);
  EXPECT_EQ(status[2], LaneStatus::kOk);
  EXPECT_EQ(status[3], LaneStatus::kOk);
  const std::vector<const Sgp4*> healthy{&pa, &pb, &pc};
  const std::size_t healthy_lane[] = {0, 2, 3};
  for (int i = 0; i < 3; ++i) {
    const Vec3 want = orbit::teme_to_ecef_position_gmst(
        healthy[i]->at_jd(bad_jd).position_km, gmst);
    EXPECT_NEAR(x[healthy_lane[i]], want.x, kPosTolKm);
    EXPECT_NEAR(y[healthy_lane[i]], want.y, kPosTolKm);
    EXPECT_NEAR(z[healthy_lane[i]], want.z, kPosTolKm);
  }
}

// Sgp4TimeBatch: one satellite, a time per lane, each lane rotated into
// ECEF at its own GMST evaluated in the kernel. Same tolerance as the
// shared-time table path, against the scalar propagator rotated at
// gmst_rad(jd) — the position ElevationSampler uses.
TEST(Sgp4TimeBatch, MatchesScalarAtPerLaneTimes) {
  std::mt19937_64 rng(20261017u);
  std::uniform_real_distribution<double> offset_days(
      0.0, orbit::kLaneMaxEpochDays);
  const JulianDate jd0 = core::campaign_epoch_jd();
  std::vector<Tle> tles;
  for (int i = 0; i < 16; ++i) tles.push_back(band_tle(rng, i * 3 + 2));
  tles.push_back(simple_branch_tle(0));
  for (const Tle& tle : tles) {
    const Sgp4 prop(tle);
    const orbit::Sgp4TimeBatch lanes(prop);
    for (int call = 0; call < 8; ++call) {
      JulianDate jd[4];
      for (JulianDate& t : jd) t = jd0 + offset_days(rng);
      double x[4], y[4], z[4];
      LaneStatus status[4];
      lanes.propagate_ecef(jd, x, y, z, status);
      for (int l = 0; l < 4; ++l) {
        ASSERT_EQ(status[l], LaneStatus::kOk) << tle.name << " at " << jd[l];
        const orbit::TemeState st = prop.at_jd(jd[l]);
        const Vec3 want =
            orbit::teme_to_ecef_state(st.position_km, st.velocity_km_s, jd[l])
                .position_km;
        EXPECT_NEAR(x[l], want.x, kPosTolKm) << tle.name << " lane " << l;
        EXPECT_NEAR(y[l], want.y, kPosTolKm) << tle.name << " lane " << l;
        EXPECT_NEAR(z[l], want.z, kPosTolKm) << tle.name << " lane " << l;
      }
    }
  }
}

TEST(Sgp4TimeBatch, FlagsExactlyTheLanesWhereScalarThrows) {
  orbit::KeplerianElements decay;
  decay.altitude_km = 200.0;
  decay.eccentricity = 0.0005;
  decay.bstar = 0.1;
  const Sgp4 sick(
      orbit::make_tle("DOOMED", 93000, decay, core::campaign_epoch_jd()));
  const orbit::Sgp4TimeBatch lanes(sick);
  const JulianDate jd0 = core::campaign_epoch_jd();
  std::size_t flagged = 0;
  for (double off = 0.0; off < 30.0; off += 4 * 0.37) {
    const JulianDate jd[4] = {jd0 + off, jd0 + off + 0.37,
                              jd0 + off + 2 * 0.37, jd0 + off + 3 * 0.37};
    double x[4], y[4], z[4];
    LaneStatus status[4];
    lanes.propagate_ecef(jd, x, y, z, status);
    for (int l = 0; l < 4; ++l) {
      bool throws = false;
      try {
        (void)sick.at_jd(jd[l]);
      } catch (const orbit::PropagationError&) {
        throws = true;
      }
      EXPECT_EQ(status[l] == LaneStatus::kError, throws) << "at " << jd[l];
      flagged += throws;
    }
  }
  EXPECT_GT(flagged, 0u) << "decay TLE never failed — test needs retuning";
}

TEST(Sgp4Batch, RejectsEmptyAndNullInputs) {
  EXPECT_THROW(Sgp4Batch(std::vector<const Sgp4*>{}), std::invalid_argument);
  EXPECT_THROW(Sgp4Batch(std::vector<const Sgp4*>{nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sinet
