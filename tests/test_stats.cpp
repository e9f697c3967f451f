// Unit tests for sinet::stats (descriptive, CDF, histogram).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats/cdf.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"

namespace {

using sinet::stats::EmpiricalCdf;
using sinet::stats::Histogram;
using sinet::stats::StreamingStats;

EmpiricalCdf cdf_of(std::vector<double> samples) {
  return EmpiricalCdf(samples);
}

TEST(StreamingStats, EmptyStateIsWellDefined) {
  StreamingStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.variance()));
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(StreamingStats, SingleSample) {
  StreamingStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_TRUE(std::isnan(s.variance()));
  EXPECT_TRUE(std::isnan(s.stddev())) << "stddev undefined for n < 2";
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(StreamingStats, MeanVarianceMatchTextbook) {
  StreamingStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance is 4; sample variance = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(EmpiricalCdf, QuantilesOfKnownSamples) {
  EmpiricalCdf cdf = cdf_of({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.125), 1.5);  // interpolated
}

TEST(EmpiricalCdf, QuantileErrors) {
  EmpiricalCdf empty;
  EXPECT_THROW((void)empty.quantile(0.5), std::out_of_range);
  EmpiricalCdf one = cdf_of({1.0});
  EXPECT_THROW((void)one.quantile(-0.1), std::out_of_range);
  EXPECT_THROW((void)one.quantile(1.1), std::out_of_range);
  EXPECT_DOUBLE_EQ(one.quantile(0.7), 1.0);
}

TEST(EmpiricalCdf, FractionAtOrBelow) {
  EmpiricalCdf cdf = cdf_of({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(5.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(10.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(25.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(100.0), 1.0);
  EXPECT_DOUBLE_EQ(EmpiricalCdf{}.fraction_at_or_below(0.0), 0.0);
}

TEST(EmpiricalCdf, AddAfterQueryResorts) {
  EmpiricalCdf cdf = cdf_of({5.0, 1.0});
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
  cdf.add(0.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 1.0);
}

TEST(EmpiricalCdf, CurveIsMonotonic) {
  EmpiricalCdf cdf;
  for (int i = 0; i < 50; ++i) cdf.add(std::cos(i * 1.7) * 100.0);
  const auto curve = cdf.curve(21);
  ASSERT_EQ(curve.size(), 21u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LT(curve[i - 1].second, curve[i].second);
  }
}

TEST(EmpiricalCdf, CurveEmptyOrDegenerate) {
  EXPECT_TRUE(EmpiricalCdf{}.curve().empty());
  EmpiricalCdf one = cdf_of({3.0});
  EXPECT_TRUE(one.curve(1).empty());
}

TEST(Histogram, BinPlacement) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);
  h.add(0.999);
  h.add(5.0);
  h.add(9.999);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(5), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.5);
  h.add(1.0);  // hi edge is exclusive
  h.add(2.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Histogram, Weights) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5, 3.0);
  h.add(1.5, 1.0);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, Edges) {
  Histogram h(-1.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_width(), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_lower_edge(0), -1.0);
  EXPECT_DOUBLE_EQ(h.bin_lower_edge(3), 0.5);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, NanSamplesGetTheirOwnBucket) {
  // Regression: NaN fails both the x < lo and x >= hi guards, so it used
  // to reach the float-to-index cast — undefined behaviour (UBSan traps)
  // that in practice corrupted bin 0. NaN mass now lands in nan().
  Histogram h(0.0, 1.0, 4);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::nan(""), 2.0);
  h.add(0.5);  // one honest sample for contrast
  EXPECT_DOUBLE_EQ(h.nan(), 3.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 0.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 0.0);
  EXPECT_DOUBLE_EQ(h.count(0), 0.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
}

TEST(Histogram, RenderProducesOneLinePerBin) {
  Histogram h(0.0, 3.0, 3);
  h.add(0.5);
  h.add(1.5);
  const std::string r = h.render(10);
  EXPECT_EQ(std::count(r.begin(), r.end(), '\n'), 3);
}

TEST(HistogramMerge, CompatibleMergeEqualsSequentialFill) {
  // Golden for the parallel DtS engine's shard reduction: merging
  // shard-local histograms must equal filling one histogram with the
  // concatenated samples — exactly, bin for bin.
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  Histogram both(0.0, 10.0, 5);
  const std::vector<double> xa = {0.5, 2.5, 9.9, -1.0, 11.0};
  const std::vector<double> xb = {0.5, 4.5, 4.6, std::nan(""), 12.0};
  for (const double x : xa) {
    a.add(x);
    both.add(x);
  }
  for (const double x : xb) {
    b.add(x);
    both.add(x);
  }
  a.merge(b);
  for (std::size_t i = 0; i < both.bin_count(); ++i)
    EXPECT_EQ(a.count(i), both.count(i)) << "bin " << i;
  EXPECT_EQ(a.underflow(), both.underflow());
  EXPECT_EQ(a.overflow(), both.overflow());
  EXPECT_EQ(a.nan(), both.nan());
  EXPECT_EQ(a.total(), both.total());
  // Golden spot-checks so a binning change cannot slip through silently.
  EXPECT_EQ(a.count(0), 2.0);
  EXPECT_EQ(a.count(1), 1.0);
  EXPECT_EQ(a.count(2), 2.0);
  EXPECT_EQ(a.count(4), 1.0);
  EXPECT_EQ(a.underflow(), 1.0);
  EXPECT_EQ(a.overflow(), 2.0);
  EXPECT_EQ(a.nan(), 1.0);
  EXPECT_EQ(a.total(), 10.0);
}

TEST(HistogramMerge, MergeWithEmptyIsNoop) {
  Histogram a(0.0, 1.0, 4);
  a.add(0.3);
  const Histogram empty(0.0, 1.0, 4);
  a.merge(empty);
  EXPECT_EQ(a.total(), 1.0);
  EXPECT_EQ(a.count(1), 1.0);
}

TEST(HistogramMerge, IncompatibleBinningThrows) {
  Histogram a(0.0, 10.0, 5);
  EXPECT_THROW(a.merge(Histogram(0.0, 10.0, 6)), std::invalid_argument);
  EXPECT_THROW(a.merge(Histogram(0.0, 9.0, 5)), std::invalid_argument);
  EXPECT_THROW(a.merge(Histogram(1.0, 10.0, 5)), std::invalid_argument);
}

}  // namespace
