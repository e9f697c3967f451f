// Bootstrap confidence-interval tests.
#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"
#include "stats/bootstrap.h"

namespace {

using namespace sinet::stats;
using sinet::sim::Rng;

TEST(Bootstrap, MeanCiCoversTrueMean) {
  Rng data_rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) samples.push_back(data_rng.normal(5.0, 2.0));
  Rng boot_rng(2);
  const ConfidenceInterval ci = bootstrap_mean_ci(samples, boot_rng, 2000);
  EXPECT_NEAR(ci.point, 5.0, 0.3);
  EXPECT_LT(ci.low, ci.point);
  EXPECT_GT(ci.high, ci.point);
  EXPECT_TRUE(ci.contains(5.0));
  // 95% CI of a N(5,2) mean with n=400: half width ~ 1.96*2/20 = 0.196.
  EXPECT_NEAR(ci.half_width(), 0.196, 0.06);
}

TEST(Bootstrap, WiderConfidenceWiderInterval) {
  Rng data_rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(data_rng.uniform());
  Rng r1(4), r2(4);
  const auto ci90 = bootstrap_mean_ci(samples, r1, 1500, 0.90);
  const auto ci99 = bootstrap_mean_ci(samples, r2, 1500, 0.99);
  EXPECT_LT(ci90.half_width(), ci99.half_width());
}

TEST(Bootstrap, DegenerateSample) {
  const std::vector<double> constant(50, 7.0);
  Rng rng(7);
  const auto ci = bootstrap_mean_ci(constant, rng, 500);
  EXPECT_DOUBLE_EQ(ci.point, 7.0);
  EXPECT_DOUBLE_EQ(ci.low, 7.0);
  EXPECT_DOUBLE_EQ(ci.high, 7.0);
}

TEST(Bootstrap, InvalidInputsThrow) {
  Rng rng(8);
  EXPECT_THROW(bootstrap_mean_ci({}, rng), std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW(bootstrap_mean_ci(one, rng, 0), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(one, rng, 100, 0.0),
               std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(one, rng, 100, 1.0),
               std::invalid_argument);
}

TEST(Bootstrap, DeterministicGivenRngState) {
  Rng data_rng(9);
  std::vector<double> samples;
  for (int i = 0; i < 100; ++i) samples.push_back(data_rng.normal());
  Rng a(10), b(10);
  const auto ca = bootstrap_mean_ci(samples, a, 500);
  const auto cb = bootstrap_mean_ci(samples, b, 500);
  EXPECT_DOUBLE_EQ(ca.low, cb.low);
  EXPECT_DOUBLE_EQ(ca.high, cb.high);
}

}  // namespace
