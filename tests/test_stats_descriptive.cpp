// Tests for descriptive statistics, with hand-computed references and
// parameterized property sweeps over random series.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "stats/descriptive.hpp"

namespace alba::stats {
namespace {

const std::vector<double> kSimple{1.0, 2.0, 3.0, 4.0, 5.0};

TEST(Descriptive, BasicMoments) {
  EXPECT_DOUBLE_EQ(sum(kSimple), 15.0);
  EXPECT_DOUBLE_EQ(mean(kSimple), 3.0);
  EXPECT_DOUBLE_EQ(variance(kSimple), 2.0);
  EXPECT_DOUBLE_EQ(sample_variance(kSimple), 2.5);
  EXPECT_NEAR(stddev(kSimple), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(minimum(kSimple), 1.0);
  EXPECT_DOUBLE_EQ(maximum(kSimple), 5.0);
  EXPECT_DOUBLE_EQ(range(kSimple), 4.0);
}

TEST(Descriptive, EmptySeriesYieldsNaN) {
  const std::vector<double> empty;
  EXPECT_TRUE(std::isnan(mean(empty)));
  EXPECT_TRUE(std::isnan(variance(empty)));
  EXPECT_TRUE(std::isnan(minimum(empty)));
  EXPECT_TRUE(std::isnan(median(empty)));
}

TEST(Descriptive, MedianAndQuantiles) {
  EXPECT_DOUBLE_EQ(median(kSimple), 3.0);
  const std::vector<double> even{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  EXPECT_DOUBLE_EQ(quantile(kSimple, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(kSimple, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(kSimple, 0.25), 2.0);
  // numpy.percentile linear interpolation convention
  const std::vector<double> two{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(two, 0.3), 3.0);
}

TEST(Descriptive, QuantileSortedEndpointsAreTheExtremes) {
  const std::vector<double> sorted{-0.0, 0.0, 1.5, 2.0, 9.25};
  EXPECT_TRUE(std::signbit(quantile_sorted(sorted, 0.0)));
  EXPECT_EQ(quantile_sorted(sorted, 0.0), -0.0);
  EXPECT_EQ(quantile_sorted(sorted, 1.0), 9.25);
  const std::vector<double> one{4.5};
  EXPECT_EQ(quantile_sorted(one, 0.0), 4.5);
  EXPECT_EQ(quantile_sorted(one, 1.0), 4.5);
  EXPECT_TRUE(std::isnan(quantile_sorted({}, 0.5)));
  // quantile sorts a copy, then interpolates the same way.
  const std::vector<double> shuffled{9.25, 1.5, -0.0, 2.0, 0.0};
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(quantile(shuffled, q), quantile_sorted(sorted, q)) << q;
  }
}

TEST(Descriptive, MomentsMatchTheSingleStatistics) {
  const Moments mo = moments(kSimple);
  EXPECT_EQ(mo.n, 5u);
  EXPECT_EQ(mo.sum, sum(kSimple));
  EXPECT_EQ(mo.ssd, 10.0);
  EXPECT_EQ(mo.range, 4.0);
  EXPECT_EQ(mo.energy, abs_energy(kSimple));
  const Moments empty = moments({});
  EXPECT_EQ(empty.sum, 0.0);
  EXPECT_TRUE(std::isnan(empty.mean));
  EXPECT_TRUE(std::isnan(empty.stddev));
  EXPECT_TRUE(std::isnan(empty.range));
}

TEST(Descriptive, SkewnessSignsMatchShape) {
  const std::vector<double> right{1, 1, 1, 1, 10};
  const std::vector<double> left{10, 10, 10, 10, 1};
  EXPECT_GT(skewness(right, moments(right)), 0.5);
  EXPECT_LT(skewness(left, moments(left)), -0.5);
  const std::vector<double> sym{1, 2, 3, 4, 5};
  EXPECT_NEAR(skewness(sym, moments(sym)), 0.0, 1e-12);
}

TEST(Descriptive, KurtosisOfUniformIsNegative) {
  std::vector<double> u;
  for (int i = 0; i < 1000; ++i) u.push_back(static_cast<double>(i));
  EXPECT_NEAR(kurtosis(u, moments(u)), -1.2, 0.05);  // exact for continuous uniform
}

TEST(Descriptive, ConstantSeriesShapeStatsAreNaN) {
  const std::vector<double> c{2.0, 2.0, 2.0, 2.0, 2.0};
  const Moments mo = moments(c);
  EXPECT_TRUE(std::isnan(skewness(c, mo)));
  EXPECT_TRUE(std::isnan(kurtosis(c, mo)));
}

TEST(Descriptive, VariationCoefficient) {
  EXPECT_NEAR(variation_coefficient(moments(kSimple)), std::sqrt(2.0) / 3.0,
              1e-12);
  const std::vector<double> zero_mean{-1.0, 1.0};
  EXPECT_TRUE(std::isnan(variation_coefficient(moments(zero_mean))));
}

TEST(Descriptive, EnergyAndRms) {
  EXPECT_DOUBLE_EQ(abs_energy(kSimple), 55.0);
  EXPECT_NEAR(root_mean_square(moments(kSimple)), std::sqrt(11.0), 1e-12);
}

TEST(Descriptive, ChangeStatistics) {
  const std::vector<double> x{1.0, 3.0, 2.0, 5.0};
  EXPECT_NEAR(mean_abs_change(x.size(), absolute_sum_of_changes(x)),
              (2.0 + 1.0 + 3.0) / 3.0, 1e-12);
  EXPECT_NEAR(mean_change(x), (5.0 - 1.0) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(absolute_sum_of_changes(x), 6.0);
}

TEST(Descriptive, MeanSecondDerivative) {
  // Linear series: second derivative 0.
  EXPECT_NEAR(mean_second_derivative_central(kSimple), 0.0, 1e-12);
  // Quadratic i^2: second difference is constant 2 → /2 = 1.
  const std::vector<double> q{0, 1, 4, 9, 16};
  EXPECT_NEAR(mean_second_derivative_central(q), 1.0, 1e-12);
}

TEST(Descriptive, CountsAboveBelowMean) {
  const std::vector<double> x{0.0, 0.0, 10.0};  // mean 3.33
  EXPECT_EQ(count_above(x, mean(x)), 1u);
  EXPECT_EQ(count_below(x, mean(x)), 2u);
}

TEST(Descriptive, LocationsOfExtremes) {
  const std::vector<double> x{1.0, 5.0, 5.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(first_location_of_maximum(x), 0.2);
  EXPECT_DOUBLE_EQ(last_location_of_maximum(x), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(first_location_of_minimum(x), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(last_location_of_minimum(x), 1.0);
}

TEST(Descriptive, LongestRuns) {
  const std::vector<double> x{1, 2, 3, 2, 3, 4, 5, 1};
  EXPECT_EQ(longest_strictly_increasing_run(x), 3u);  // 2,3,4,5 = 3 steps
  EXPECT_EQ(longest_strictly_decreasing_run(x), 1u);
  const std::vector<double> y{0, 0, 5, 5, 5, 0};  // mean 2.5
  EXPECT_EQ(longest_run_above(y, mean(y)), 3u);
  EXPECT_EQ(longest_run_below(y, mean(y)), 2u);
}

TEST(Descriptive, NumberOfPeaks) {
  const std::vector<double> x{0, 1, 0, 2, 0, 3, 0};
  EXPECT_EQ(number_of_peaks(x, 1), 3u);
  const std::vector<double> flat{1, 1, 1, 1, 1};
  EXPECT_EQ(number_of_peaks(flat, 1), 0u);
}

TEST(Descriptive, Crossings) {
  const std::vector<double> x{-1, 1, -1, 1};
  EXPECT_EQ(number_of_crossings(x, 0.0), 3u);
  EXPECT_EQ(number_of_crossings(x, 5.0), 0u);
}

TEST(Descriptive, RatioBeyondSigma) {
  std::vector<double> x(100, 0.0);
  x[0] = 100.0;  // one extreme outlier
  EXPECT_NEAR(ratio_beyond_r_sigma(x, moments(x), 2.0), 0.01, 1e-12);
}

TEST(Descriptive, Duplicates) {
  EXPECT_TRUE(has_duplicate(value_counts(std::vector<double>{1, 2, 1})));
  EXPECT_FALSE(has_duplicate(value_counts(std::vector<double>{1, 2, 3})));
  EXPECT_TRUE(has_duplicate_value(std::vector<double>{3, 3, 1}, 3.0));
  EXPECT_FALSE(has_duplicate_value(std::vector<double>{3, 2, 1}, 3.0));
  EXPECT_TRUE(has_duplicate_value(std::vector<double>{0, 0, 1}, 0.0));
}

TEST(Descriptive, ReoccurringValues) {
  const std::vector<double> x{1, 1, 2, 3, 3, 3, 4};
  const ValueCounts counts = value_counts(x);
  EXPECT_DOUBLE_EQ(sum_of_reoccurring_values(counts), 4.0);  // 1 + 3
  EXPECT_DOUBLE_EQ(percentage_of_reoccurring_datapoints(counts), 0.5);  // 2 of 4
}

TEST(Descriptive, C3AndTimeReversal) {
  // A time-symmetric series has ~zero time reversal asymmetry.
  std::vector<double> sym;
  for (int i = 0; i < 50; ++i) sym.push_back(std::sin(0.3 * i));
  EXPECT_NEAR(time_reversal_asymmetry(sym, 1), 0.0, 0.05);
  // c3 of a constant-1 series is 1.
  const std::vector<double> ones(20, 1.0);
  EXPECT_DOUBLE_EQ(c3(ones, 2), 1.0);
}

TEST(Descriptive, CidCe) {
  const std::vector<double> smooth{1, 2, 3, 4, 5};
  std::vector<double> jagged{1, 5, 1, 5, 1};
  EXPECT_LT(cid_ce(smooth, false, moments(smooth)),
            cid_ce(jagged, false, moments(jagged)));
  const std::vector<double> constant(10, 3.0);
  EXPECT_DOUBLE_EQ(cid_ce(constant, true, moments(constant)), 0.0);
}

TEST(Descriptive, LargeStdAndSymmetry) {
  const std::vector<double> x{0, 0, 0, 10};
  EXPECT_TRUE(large_standard_deviation(moments(x), 0.2));
  EXPECT_FALSE(large_standard_deviation(moments(x), 0.9));
  const std::vector<double> sym{1, 2, 3, 4, 5};
  EXPECT_TRUE(symmetry_looking(moments(sym), median(sym), 0.05));
}

// Property sweep over random series: invariants that must always hold.
class DescriptiveProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<double> make_series() {
    Rng rng(GetParam());
    std::vector<double> x(64);
    for (auto& v : x) v = rng.uniform(-10.0, 10.0);
    return x;
  }
};

TEST_P(DescriptiveProperty, OrderingInvariants) {
  const auto x = make_series();
  EXPECT_LE(minimum(x), median(x));
  EXPECT_LE(median(x), maximum(x));
  EXPECT_LE(quantile(x, 0.25), quantile(x, 0.75));
  EXPECT_GE(variance(x), 0.0);
  EXPECT_GE(abs_energy(x), 0.0);
}

TEST_P(DescriptiveProperty, CountsPartitionSeries) {
  const auto x = make_series();
  const double m = mean(x);
  EXPECT_LE(count_above(x, m) + count_below(x, m), x.size());
  EXPECT_GE(count_above(x, m) + count_below(x, m), 1u);
}

TEST_P(DescriptiveProperty, ShiftInvariance) {
  auto x = make_series();
  const double var0 = variance(x);
  const double mac0 = mean_abs_change(x.size(), absolute_sum_of_changes(x));
  for (auto& v : x) v += 100.0;
  EXPECT_NEAR(variance(x), var0, 1e-8);
  EXPECT_NEAR(mean_abs_change(x.size(), absolute_sum_of_changes(x)), mac0,
              1e-8);
}

TEST_P(DescriptiveProperty, ScaleCovariance) {
  auto x = make_series();
  const double sd0 = stddev(x);
  for (auto& v : x) v *= 3.0;
  EXPECT_NEAR(stddev(x), 3.0 * sd0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescriptiveProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace alba::stats
