// Tests for the cross-simulator validation harness (src/val) and the
// divergence metrics it gates on (stats/divergence.h): golden-value K-S
// and Wasserstein distances, analytic-baseline sanity against hand-derived geometry, the gate
// semantics, and an end-to-end "quick" scenario run checked against the
// committed baseline thresholds.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "orbit/ephemeris.h"
#include "orbit/time.h"
#include "stats/cdf.h"
#include "stats/divergence.h"
#include "val/baseline.h"
#include "val/schema.h"
#include "val/validate.h"

namespace {

using namespace sinet;
using sinet::stats::EmpiricalCdf;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

EmpiricalCdf cdf_of(std::vector<double> samples) {
  return EmpiricalCdf(samples);
}

// ---------------------------------------------------------------------
// Divergence metrics

TEST(Divergence, KsGoldenValues) {
  // F_a and F_b differ by exactly 1/3 on [1,2) and [3,4).
  EXPECT_DOUBLE_EQ(stats::ks_distance(cdf_of({1, 2, 3}), cdf_of({2, 3, 4})),
                   1.0 / 3.0);
  // Half the mass moved from 0 to 1: sup gap is 3/4 - 1/4 at x = 0.
  EXPECT_DOUBLE_EQ(
      stats::ks_distance(cdf_of({0, 0, 0, 1}), cdf_of({0, 1, 1, 1})), 0.5);
  // Disjoint supports saturate at 1.
  EXPECT_DOUBLE_EQ(stats::ks_distance(cdf_of({0}), cdf_of({10})), 1.0);
  // Different sample counts, same distribution.
  EXPECT_DOUBLE_EQ(stats::ks_distance(cdf_of({5, 5, 5}), cdf_of({5})), 0.0);
}

TEST(Divergence, WassersteinGoldenValues) {
  // Shift by 1: W1 equals the shift.
  EXPECT_DOUBLE_EQ(
      stats::wasserstein_distance(cdf_of({1, 2, 3}), cdf_of({2, 3, 4})), 1.0);
  // Half the mass moves distance 1: W1 = 0.5.
  EXPECT_DOUBLE_EQ(stats::wasserstein_distance(cdf_of({0, 0, 0, 1}),
                                               cdf_of({0, 1, 1, 1})),
                   0.5);
  // Point masses 10 apart.
  EXPECT_DOUBLE_EQ(stats::wasserstein_distance(cdf_of({0}), cdf_of({10})),
                   10.0);
}

TEST(Divergence, IdenticalSamplesGiveExactZero) {
  const EmpiricalCdf a = cdf_of({3.25, 901.0, 17.5, 42.0});
  EXPECT_EQ(stats::ks_distance(a, a), 0.0);
  EXPECT_EQ(stats::wasserstein_distance(a, a), 0.0);
}

TEST(Divergence, SymmetricInArguments) {
  const EmpiricalCdf a = cdf_of({1, 2, 2, 8});
  const EmpiricalCdf b = cdf_of({0.5, 2, 9, 9, 12});
  EXPECT_DOUBLE_EQ(stats::ks_distance(a, b), stats::ks_distance(b, a));
  EXPECT_DOUBLE_EQ(stats::wasserstein_distance(a, b),
                   stats::wasserstein_distance(b, a));
}

TEST(Divergence, EmptyInputThrows) {
  const EmpiricalCdf empty;
  const EmpiricalCdf one = cdf_of({1.0});
  EXPECT_THROW(stats::ks_distance(empty, one), std::invalid_argument);
  EXPECT_THROW(stats::ks_distance(one, empty), std::invalid_argument);
  EXPECT_THROW(stats::wasserstein_distance(empty, one),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Analytic baselines

TEST(Baseline, VisibilityHalfAngleMatchesHandComputation) {
  // h = 600 km, eps = 0: theta = acos(Re / (Re + h)).
  const double theta = val::visibility_half_angle_rad(600.0, 0.0);
  EXPECT_NEAR(theta, std::acos(6378.137 / 6978.137), 1e-6);
  // A mask shrinks the cone.
  EXPECT_LT(val::visibility_half_angle_rad(600.0, 25.0), theta);
  EXPECT_THROW(val::visibility_half_angle_rad(-1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(val::visibility_half_angle_rad(600.0, 90.0),
               std::invalid_argument);
}

TEST(Baseline, AvailabilityMonotoneInFleetSize) {
  const double one = val::constellation_availability({{1, 600.0, 97.5}}, 0.0);
  const double ten = val::constellation_availability({{10, 600.0, 97.5}}, 0.0);
  EXPECT_GT(one, 0.0);
  EXPECT_LT(one, ten);
  EXPECT_LT(ten, 1.0);
  // Single-satellite case reduces to the cap fraction.
  EXPECT_NEAR(one, val::single_satellite_visibility_fraction(600.0, 0.0),
              1e-12);
  EXPECT_NEAR(val::expected_daily_presence_hours({{10, 600.0, 97.5}}, 0.0),
              24.0 * ten, 1e-9);
}

TEST(Baseline, MaxPassDurationIsPhysicallyPlausible) {
  // A 600 km zero-mask overhead pass lasts roughly 10-20 minutes.
  const double t = val::max_pass_duration_s(600.0, 0.0, 97.5);
  EXPECT_GT(t, 500.0);
  EXPECT_LT(t, 1500.0);
  // Higher orbits give longer passes.
  EXPECT_GT(val::max_pass_duration_s(1200.0, 0.0, 97.5), t);
}

TEST(Baseline, PassDurationCdfIsARandomChordLaw) {
  const auto cdf =
      val::analytic_pass_duration_cdf({{8, 600.0, 97.5}}, 0.0, 4096);
  ASSERT_EQ(cdf.size(), 4096u);
  const double t_shell = val::max_pass_duration_s(600.0, 0.0, 97.5);
  // F(t) = 1 - sqrt(1 - (t/T)^2): no pass is longer than T, and
  // F(T/2) = 1 - sqrt(3)/2, to within the 1/4096 quantile grid.
  EXPECT_EQ(cdf.fraction_at_or_below(t_shell), 1.0);
  EXPECT_NEAR(cdf.fraction_at_or_below(t_shell / 2.0),
              1.0 - std::sqrt(3.0) / 2.0, 1.0 / 4096.0);

  // The materialized CDF has mean (pi/4) T_max per shell.
  double sum = 0.0;
  for (const double x : cdf.sorted_samples()) sum += x;
  EXPECT_NEAR(sum / 4096.0, (3.14159265358979 / 4.0) * t_shell,
              0.002 * t_shell);
}

TEST(Baseline, DeliveryRateMatchesHandComputation) {
  val::UplinkDeliveryModel m;
  m.nominal_loss = 0.5;
  m.congested_probability = 0.0;
  m.congested_loss = 1.0;
  m.max_retransmissions = 1;
  m.delivery_loss = 0.0;
  // Two attempts at 50% loss: fail 0.25 -> deliver 0.75.
  EXPECT_NEAR(val::expected_delivery_rate(m), 0.75, 1e-12);
  m.delivery_loss = 0.1;
  EXPECT_NEAR(val::expected_delivery_rate(m), 0.675, 1e-12);
  m.congested_probability = 1.0;  // always congested, loss 1 -> never
  EXPECT_NEAR(val::expected_delivery_rate(m), 0.0, 1e-12);
  m.congested_loss = 1.5;
  EXPECT_THROW(val::expected_delivery_rate(m), std::invalid_argument);
}

TEST(Baseline, RenewalWaitMatchesHandComputation) {
  // One gap of 100 s in a 200 s span: E[wait] = 100^2 / (2 * 200) = 25.
  EXPECT_NEAR(val::expected_wait_s({{100.0, 200.0}}, 0.0, 200.0), 25.0,
              1e-12);
  // Full coverage: zero wait.
  EXPECT_EQ(val::expected_wait_s({{0.0, 50.0}}, 0.0, 50.0), 0.0);
  // No windows at all: the whole span is one censored gap, E = T/2.
  EXPECT_NEAR(val::expected_wait_s({}, 0.0, 100.0), 50.0, 1e-12);
  EXPECT_EQ(val::expected_wait_s({}, 5.0, 5.0), 0.0);
}

// ---------------------------------------------------------------------
// Gate semantics

val::ValidationReport report_with(const std::string& scenario,
                                  const std::string& score, double value) {
  val::ValidationReport r;
  r.scenario = scenario;
  r.scores.push_back({score, value});
  return r;
}

val::BaselineSet one_threshold(const std::string& scenario,
                               const std::string& score, double max) {
  val::BaselineSet b;
  b.scenarios.push_back({scenario, {{score, max}}});
  return b;
}

TEST(Gate, PassesUnderThresholdFailsOver) {
  const auto b = one_threshold("quick", "x.ks", 0.1);
  EXPECT_TRUE(val::gate(report_with("quick", "x.ks", 0.05), b).passed);
  EXPECT_TRUE(val::gate(report_with("quick", "x.ks", 0.1), b).passed);
  const auto fail = val::gate(report_with("quick", "x.ks", 0.2), b);
  EXPECT_FALSE(fail.passed);
  ASSERT_EQ(fail.checks.size(), 1u);
  EXPECT_FALSE(fail.checks[0].ok);
  EXPECT_EQ(fail.checks[0].score, "x.ks");
}

TEST(Gate, MissingScoreAndNanFail) {
  const auto b = one_threshold("quick", "x.ks", 0.1);
  EXPECT_FALSE(val::gate(report_with("quick", "other", 0.0), b).passed);
  EXPECT_FALSE(val::gate(report_with("quick", "x.ks", kNaN), b).passed);
}

TEST(Gate, UnknownScenarioFails) {
  const auto b = one_threshold("quick", "x.ks", 0.1);
  EXPECT_FALSE(val::gate(report_with("reference", "x.ks", 0.0), b).passed);
}

TEST(Gate, BaselineJsonParsesAndRejectsGarbage) {
  const val::BaselineSet back = val::parse_baselines_json(
      std::string("{\"schema\": \"") + val::kBaselineSchema +
      "\", \"scenarios\": [{\"name\": \"quick\", \"thresholds\": ["
      "{\"score\": \"a.ks\", \"max\": 0.25}, "
      "{\"score\": \"b.w\", \"max\": 10}]}, "
      "{\"name\": \"reference\", \"thresholds\": []}]}");
  ASSERT_NE(back.find_scenario("quick"), nullptr);
  ASSERT_EQ(back.find_scenario("quick")->thresholds.size(), 2u);
  EXPECT_EQ(back.find_scenario("quick")->thresholds[0].score, "a.ks");
  EXPECT_EQ(back.find_scenario("quick")->thresholds[0].max, 0.25);
  ASSERT_NE(back.find_scenario("reference"), nullptr);
  EXPECT_TRUE(back.find_scenario("reference")->thresholds.empty());
  EXPECT_EQ(back.find_scenario("missing"), nullptr);
  EXPECT_THROW(val::parse_baselines_json("{\"schema\": \"wrong\"}"),
               std::exception);
  EXPECT_THROW(val::parse_baselines_json("{}"), std::exception);
}

// ---------------------------------------------------------------------
// End-to-end scenario run

TEST(RunValidation, UnknownScenarioThrows) {
  EXPECT_THROW(val::validation_scenario("nope"), std::invalid_argument);
}

TEST(RunValidation, QuickScenarioPassesCommittedGate) {
  const val::ValidationScenario sc = val::validation_scenario("quick");
  const val::ValidationReport report = val::run_validation(sc);

  // The SIMD fast arm is tolerance-bounded, not bit-exact by contract.
  // (The reference arm's bit parity with the per-pair scan is ctest's
  // EphemerisParity.ValidationScenarioPairsMatchOracle.)
  EXPECT_LE(report.score_or_nan("windows.fast_vs_reference.ks"), 0.02);

  // Analytic agreement is coarse but bounded.
  EXPECT_LT(report.score_or_nan("contact_duration.reference_vs_analytic.ks"),
            0.15);
  EXPECT_LT(report.score_or_nan("availability.daily_hours.rel_err"), 0.35);
  // Geometric renewal lower-bounds the DES wait.
  EXPECT_LE(report.score_or_nan("dts.wait.renewal_bound_ratio"), 1.0);

  // Report carries the data the scores were computed from.
  EXPECT_FALSE(report.windows.empty());
  EXPECT_FALSE(report.link_records.empty());
  const auto has_distribution = [&](const std::string& name) {
    for (const val::NamedDistribution& d : report.distributions)
      if (d.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has_distribution("contact_duration_s.reference"));
  EXPECT_TRUE(has_distribution("dts.wait_s"));

  // And the committed baseline thresholds gate it green.
  const val::BaselineSet baselines = val::read_baselines_file(
      std::string(SINET_TEST_DATA_DIR) + "/validation_baselines.json");
  const val::GateResult gated = val::gate(report, baselines);
  for (const val::GateCheck& c : gated.checks)
    EXPECT_TRUE(c.ok) << c.score << " = " << c.value << " > " << c.max;
  EXPECT_TRUE(gated.passed);

  // Exact coverage: every score the quick report computes is gated, and
  // every committed quick threshold names a score the report computes.
  std::set<std::string> scored;
  for (const auto& score : report.scores) scored.insert(score.name);
  std::set<std::string> thresholded;
  const val::BaselineSet::Scenario* quick = baselines.find_scenario("quick");
  ASSERT_NE(quick, nullptr);
  for (const val::ScoreThreshold& t : quick->thresholds)
    thresholded.insert(t.score);
  EXPECT_EQ(scored, thresholded);
  EXPECT_EQ(scored.size(), report.scores.size()) << "duplicate score names";
}

TEST(RunValidation, ScaleScenarioCatalogEntry) {
  const val::ValidationScenario sc = val::validation_scenario("scale");
  EXPECT_EQ(sc.dts_nodes, 1'000'000u);
  EXPECT_EQ(sc.dts_sats, 1'000u);
  EXPECT_EQ(sc.dts_sites, 256u);
  EXPECT_EQ(sc.dts_days, 1.0);
  // Paper scenarios must keep the legacy full-report path.
  EXPECT_EQ(val::validation_scenario("quick").dts_nodes, 0u);
  EXPECT_EQ(val::validation_scenario("reference").dts_nodes, 0u);
}

TEST(RunValidation, MiniScaleScenarioScoresAggregates) {
  // Unit-test-sized instance of the "scale" path: enough nodes to force
  // aggregate mode (above the 4096 trace threshold), small fleet and
  // horizon so the run stays in test budget. The committed "scale"
  // baselines gate the full 1M-node instance in CI.
  val::ValidationScenario sc = val::validation_scenario("scale");
  sc.name = "scale-mini";
  sc.dts_nodes = 6000;
  sc.dts_sats = 22;
  sc.dts_sites = 16;
  sc.dts_days = 0.5;
  sc.renewal_site_stride = 4;
  const val::ValidationReport report = val::run_validation(sc);

  // Aggregate mode: no per-packet exports, streaming scalars instead.
  EXPECT_TRUE(report.windows.empty());
  EXPECT_TRUE(report.link_records.empty());
  const auto scalar = [&](const std::string& name) {
    for (const val::NamedValue& v : report.scalars)
      if (v.name == name) return v.value;
    return kNaN;
  };
  EXPECT_GT(scalar("dts.reports.generated"), 0.0);
  EXPECT_GE(scalar("dts.reports.eligible"), 1.0);
  EXPECT_GT(scalar("dts.reliability.measured"), 0.0);

  const double abs_err = report.score_or_nan("dts.delivery.abs_err");
  EXPECT_TRUE(std::isfinite(abs_err));
  EXPECT_LT(abs_err, 0.3);
  // Geometric renewal lower-bounds the DES wait in the scale path too.
  EXPECT_LE(report.score_or_nan("dts.wait.renewal_bound_ratio"), 1.0);

  // The gate machinery reads the new scores like any other scenario's.
  val::BaselineSet b;
  b.scenarios.push_back(
      {"scale-mini",
       {{"dts.delivery.abs_err", 0.5},
        {"dts.wait.renewal_bound_ratio", 1.0}}});
  EXPECT_TRUE(val::gate(report, b).passed);
}

TEST(RunValidation, FastModeQuickScenarioPassesSameGate) {
  // Acceptance criterion: the SIMD fast path passes the same gate as the
  // reference mode. The DtS arm follows the ambient mode; the two scan
  // arms pin their own modes, so the cross-arm scores stay comparable.
  const orbit::PropagationMode prev = orbit::propagation_mode();
  orbit::set_propagation_mode(orbit::PropagationMode::kFast);
  val::ValidationReport report;
  try {
    report = val::run_validation(val::validation_scenario("quick"));
  } catch (...) {
    orbit::set_propagation_mode(prev);
    throw;
  }
  orbit::set_propagation_mode(prev);

  EXPECT_EQ(report.propagation_mode, "fast");
  const val::BaselineSet baselines = val::read_baselines_file(
      std::string(SINET_TEST_DATA_DIR) + "/validation_baselines.json");
  const val::GateResult gated = val::gate(report, baselines);
  for (const val::GateCheck& c : gated.checks)
    EXPECT_TRUE(c.ok) << c.score << " = " << c.value << " > " << c.max;
  EXPECT_TRUE(gated.passed);
}

}  // namespace
