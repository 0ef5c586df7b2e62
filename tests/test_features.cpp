// Tests for preprocessing (trim / difference / interpolate), both feature
// extractors, and feature-matrix assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstring>
#include <cstdint>
#include <set>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "core/config.hpp"
#include "features/extractor.hpp"
#include "stats/descriptive.hpp"
#include "stats/entropy.hpp"
#include "stats/fft.hpp"
#include "stats/regression.hpp"
#include "stats/welch.hpp"

namespace alba {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// -------------------------------------------------------- interpolation ---

TEST(Interpolate, InteriorGapIsLinear) {
  std::vector<double> x{0.0, kNaN, kNaN, 3.0};
  interpolate_nans(x);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(x[2], 2.0);
}

TEST(Interpolate, LeadingTrailingTakeNearest) {
  std::vector<double> x{kNaN, 5.0, 7.0, kNaN, kNaN};
  interpolate_nans(x);
  EXPECT_DOUBLE_EQ(x[0], 5.0);
  EXPECT_DOUBLE_EQ(x[3], 7.0);
  EXPECT_DOUBLE_EQ(x[4], 7.0);
}

TEST(Interpolate, AllNaNBecomesZero) {
  std::vector<double> x{kNaN, kNaN, kNaN};
  interpolate_nans(x);
  for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Interpolate, NoNaNIsNoop) {
  std::vector<double> x{1.0, 2.0, 3.0};
  interpolate_nans(x);
  EXPECT_EQ(x, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Interpolate, SingleElementEdges) {
  std::vector<double> lone_nan{kNaN};
  interpolate_nans(lone_nan);
  EXPECT_DOUBLE_EQ(lone_nan[0], 0.0);

  std::vector<double> lone_value{4.5};
  interpolate_nans(lone_value);
  EXPECT_DOUBLE_EQ(lone_value[0], 4.5);

  std::vector<double> empty;
  interpolate_nans(empty);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(Interpolate, LoneFiniteValueFillsBothSides) {
  std::vector<double> x{kNaN, kNaN, 9.0, kNaN, kNaN};
  interpolate_nans(x);
  for (const double v : x) EXPECT_DOUBLE_EQ(v, 9.0);
}

// ---------------------------------------------------------- differencing ---

TEST(DifferenceCounter, BasicRates) {
  const std::vector<double> x{10.0, 15.0, 18.0, 30.0};
  const auto d = difference_counter(x);
  EXPECT_EQ(d, (std::vector<double>{5.0, 3.0, 12.0}));
}

TEST(DifferenceCounter, ClampsCounterResets) {
  const std::vector<double> x{100.0, 5.0, 10.0};
  const auto d = difference_counter(x);
  EXPECT_DOUBLE_EQ(d[0], 0.0);  // wrap clamped
  EXPECT_DOUBLE_EQ(d[1], 5.0);
}

TEST(DifferenceCounter, TooShortThrows) {
  EXPECT_THROW(difference_counter(std::vector<double>{1.0}), Error);
}

TEST(DifferenceCounter, LengthTwoYieldsOneRate) {
  const auto d = difference_counter(std::vector<double>{7.0, 11.5});
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d[0], 4.5);
}

TEST(DifferenceCounter, EveryResetClampsIndependently) {
  // Two mid-run resets (e.g. repeated injected counter resets): each
  // negative step clamps to zero while the climbs in between survive.
  const std::vector<double> x{50.0, 60.0, 5.0, 15.0, 2.0, 4.0};
  const auto d = difference_counter(x);
  EXPECT_EQ(d, (std::vector<double>{10.0, 0.0, 10.0, 0.0, 2.0}));
}

// ---------------------------------------------------------- preprocess ---

class PreprocessTest : public ::testing::Test {
 protected:
  PreprocessTest() : registry_(SystemKind::Volta, [] {
                       RegistryConfig cfg;
                       cfg.cores = 1;
                       cfg.nics = 1;
                       cfg.filler_gauges = 1;
                       return cfg;
                     }()) {}
  MetricRegistry registry_;
};

TEST_F(PreprocessTest, OutputShape) {
  Matrix raw(30, registry_.size(), 1.0);
  PreprocessConfig cfg;
  cfg.trim_head = 4;
  cfg.trim_tail = 3;
  const Matrix clean = preprocess_series(raw, registry_, cfg);
  EXPECT_EQ(clean.rows(), 30u - 4u - 3u - 1u);
  EXPECT_EQ(clean.cols(), registry_.size());
}

TEST_F(PreprocessTest, CountersBecomeRates) {
  const std::size_t counter_idx = registry_.index_of("cray.energy");
  Matrix raw(20, registry_.size(), 0.0);
  for (std::size_t t = 0; t < 20; ++t) {
    raw(t, counter_idx) = 100.0 + 7.0 * static_cast<double>(t);
  }
  PreprocessConfig cfg;
  cfg.trim_head = 2;
  cfg.trim_tail = 2;
  const Matrix clean = preprocess_series(raw, registry_, cfg);
  for (std::size_t t = 0; t < clean.rows(); ++t) {
    EXPECT_NEAR(clean(t, counter_idx), 7.0, 1e-9);
  }
}

TEST_F(PreprocessTest, GaugesKeepValuesAligned) {
  const std::size_t gauge_idx = registry_.index_of("cray.power");
  Matrix raw(20, registry_.size(), 0.0);
  for (std::size_t t = 0; t < 20; ++t) {
    raw(t, gauge_idx) = static_cast<double>(t);
  }
  PreprocessConfig cfg;
  cfg.trim_head = 2;
  cfg.trim_tail = 2;
  const Matrix clean = preprocess_series(raw, registry_, cfg);
  // Gauge row t corresponds to raw sample trim_head + t + 1.
  EXPECT_DOUBLE_EQ(clean(0, gauge_idx), 3.0);
}

TEST_F(PreprocessTest, InfinitiesCountAsMissing) {
  // Two consecutive +inf counter readings would difference to inf - inf =
  // NaN; a NaN gap between +inf and -inf in a gauge would interpolate to
  // NaN. Each must come out as the same cells set to NaN do.
  const std::size_t counter = registry_.index_of("cray.energy");
  const std::size_t gauge = registry_.index_of("cray.power");
  Matrix with_inf(20, registry_.size(), 0.0);
  for (std::size_t t = 0; t < 20; ++t) {
    with_inf(t, counter) = 100.0 + 7.0 * static_cast<double>(t);
    with_inf(t, gauge) = static_cast<double>(t % 5);
  }
  Matrix with_nan = with_inf;
  const double inf = std::numeric_limits<double>::infinity();
  with_inf(8, counter) = with_inf(9, counter) = inf;
  with_inf(6, gauge) = inf;
  with_inf(7, gauge) = kNaN;
  with_inf(8, gauge) = -inf;
  with_nan(8, counter) = with_nan(9, counter) = kNaN;
  with_nan(6, gauge) = with_nan(7, gauge) = with_nan(8, gauge) = kNaN;

  PreprocessConfig cfg;
  cfg.trim_head = 2;
  cfg.trim_tail = 2;
  for (const std::size_t metric : {counter, gauge}) {
    const auto got = preprocess_metric_column(with_inf, metric, registry_, cfg);
    const auto want = preprocess_metric_column(with_nan, metric, registry_, cfg);
    EXPECT_EQ(got, want);
    for (const double v : got) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(PreprocessTest, NaNsRemoved) {
  Matrix raw(25, registry_.size(), 5.0);
  raw(10, 0) = kNaN;
  raw(11, 0) = kNaN;
  const Matrix clean = preprocess_series(raw, registry_, PreprocessConfig{});
  for (std::size_t t = 0; t < clean.rows(); ++t) {
    for (std::size_t j = 0; j < clean.cols(); ++j) {
      EXPECT_FALSE(std::isnan(clean(t, j)));
    }
  }
}

TEST_F(PreprocessTest, TooShortSeriesThrows) {
  Matrix raw(10, registry_.size(), 1.0);
  PreprocessConfig cfg;
  cfg.trim_head = 6;
  cfg.trim_tail = 5;
  EXPECT_THROW(preprocess_series(raw, registry_, cfg), Error);
}

// --------------------------------------------------------------- mvts ---

TEST(Mvts, Emits48Features) {
  const MvtsExtractor mvts;
  EXPECT_EQ(mvts.num_features(), 48u);
  EXPECT_EQ(mvts.feature_names().size(), 48u);
}

TEST(Mvts, KnownValuesOnSimpleSeries) {
  const MvtsExtractor mvts;
  std::vector<double> x;
  for (int i = 1; i <= 20; ++i) x.push_back(static_cast<double>(i));
  std::vector<double> out(mvts.num_features());
  mvts.extract(x, FeaturePlan::all(), out);

  const auto& names = mvts.feature_names();
  auto feature = [&](const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return out[i];
    }
    throw Error("feature not found: " + name);
  };
  EXPECT_DOUBLE_EQ(feature("mean"), 10.5);
  EXPECT_DOUBLE_EQ(feature("min"), 1.0);
  EXPECT_DOUBLE_EQ(feature("max"), 20.0);
  EXPECT_DOUBLE_EQ(feature("range"), 19.0);
  EXPECT_DOUBLE_EQ(feature("d_mean"), 10.0);  // halves differ by 10
  EXPECT_DOUBLE_EQ(feature("longest_inc_run"), 19.0);
  EXPECT_DOUBLE_EQ(feature("longest_dec_run"), 0.0);
  EXPECT_NEAR(feature("trend_slope"), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(feature("mean_change"), 1.0);
}

TEST(Mvts, RejectsWrongOutputSize) {
  const MvtsExtractor mvts;
  std::vector<double> x(20, 1.0);
  std::vector<double> out(10);
  EXPECT_THROW(mvts.extract(x, FeaturePlan::all(), out), Error);
}

TEST(Mvts, AllFiniteOnNoisySeries) {
  const MvtsExtractor mvts;
  Rng rng(1);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.uniform(0.0, 100.0);
  std::vector<double> out(mvts.num_features());
  mvts.extract(x, FeaturePlan::all(), out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i])) << mvts.feature_names()[i];
  }
}

// -------------------------------------------------------------- tsfresh ---

TEST(Tsfresh, EmitsAdvertisedFeatureCount) {
  const TsfreshExtractor ts;
  EXPECT_EQ(ts.num_features(), ts.feature_names().size());
  EXPECT_GT(ts.num_features(), 90u);  // substantially richer than MVTS
}

TEST(Tsfresh, NamesAreUnique) {
  const TsfreshExtractor ts;
  std::set<std::string> names(ts.feature_names().begin(),
                              ts.feature_names().end());
  EXPECT_EQ(names.size(), ts.num_features());
}

TEST(Tsfresh, MostlyFiniteOnNoisySeries) {
  const TsfreshExtractor ts;
  Rng rng(2);
  std::vector<double> x(96);
  for (auto& v : x) v = rng.uniform(1.0, 100.0);
  std::vector<double> out(ts.num_features());
  ts.extract(x, FeaturePlan::all(), out);
  std::size_t finite = 0;
  for (const double v : out) finite += std::isfinite(v) ? 1 : 0;
  EXPECT_GE(finite, out.size() - 2);  // the odd NaN (e.g. SampEn) is allowed
}

TEST(Tsfresh, PeriodicSeriesShowsSpectralPeak) {
  const TsfreshExtractor ts;
  std::vector<double> x(96);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 10.0 + std::sin(2.0 * M_PI * static_cast<double>(i) / 8.0);
  }
  std::vector<double> out(ts.num_features());
  ts.extract(x, FeaturePlan::all(), out);
  const auto& names = ts.feature_names();
  auto feature = [&](const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return out[i];
    }
    throw Error("feature not found: " + name);
  };
  EXPECT_NEAR(feature("dominant_freq"), 1.0 / 8.0, 0.02);
  EXPECT_GT(feature("acf_lag8"), 0.8);
  EXPECT_LT(feature("acf_lag4"), -0.8);
}

TEST(Tsfresh, ConfigControlsGrid) {
  TsfreshConfig cfg;
  cfg.acf_lags = 3;
  cfg.pacf_lags = 2;
  cfg.fft_coeffs = 2;
  cfg.psd_bins = 2;
  const TsfreshExtractor small(cfg);
  const TsfreshExtractor big;
  EXPECT_LT(small.num_features(), big.num_features());
}

TEST(Tsfresh, TooShortSeriesThrows) {
  const TsfreshExtractor ts;
  std::vector<double> x(4, 1.0);
  std::vector<double> out(ts.num_features());
  EXPECT_THROW(ts.extract(x, FeaturePlan::all(), out), Error);
}

// ------------------------------------------------ reference composition ---

// Both extractors composed one statistic at a time, each statistic
// recomputing its own intermediates: its own mean and variance, its own
// sorted copy, its own value-count table, an ACF rebuilt per PACF lag, and
// separate all-pairs sweeps for ApEn and SampEn. This is the definition the
// extractors' shared-intermediate kernels must reproduce bit for bit.
// Statistics that read no shared intermediate come from the library.
namespace reference {

using stats::c3;
using stats::dominant_frequency;
using stats::fft_real;
using stats::first_location_of_maximum;
using stats::first_location_of_minimum;
using stats::last_location_of_maximum;
using stats::last_location_of_minimum;
using stats::longest_strictly_decreasing_run;
using stats::longest_strictly_increasing_run;
using stats::mean_change;
using stats::mean_second_derivative_central;
using stats::number_of_crossings;
using stats::number_of_peaks;
using stats::shannon_entropy;
using stats::spectral_centroid;
using stats::time_reversal_asymmetry;
using stats::welch_psd;

double sum(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

double mean(std::span<const double> x) {
  if (x.empty()) return kNaN;
  return sum(x) / static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  if (x.empty()) return kNaN;
  const double m = mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size());
}

double stddev(std::span<const double> x) {
  const double v = variance(x);
  return std::isnan(v) ? kNaN : std::sqrt(v);
}

double minimum(std::span<const double> x) {
  if (x.empty()) return kNaN;
  return *std::min_element(x.begin(), x.end());
}

double maximum(std::span<const double> x) {
  if (x.empty()) return kNaN;
  return *std::max_element(x.begin(), x.end());
}

double range(std::span<const double> x) {
  if (x.empty()) return kNaN;
  return maximum(x) - minimum(x);
}

double quantile(std::span<const double> x, double q) {
  if (x.empty()) return kNaN;
  std::vector<double> v(x.begin(), x.end());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::span<const double> x) { return quantile(x, 0.5); }

double standardized_moment(std::span<const double> x, int power) {
  const double m = mean(x);
  const double s = stddev(x);
  if (s < 1e-300) return kNaN;
  double acc = 0.0;
  for (double v : x) {
    const double d = (v - m) / s;
    acc += power == 3 ? d * d * d : d * d * d * d;
  }
  return acc / static_cast<double>(x.size());
}

double skewness(std::span<const double> x) {
  return x.size() < 3 ? kNaN : standardized_moment(x, 3);
}

double kurtosis(std::span<const double> x) {
  return x.size() < 4 ? kNaN : standardized_moment(x, 4) - 3.0;
}

double variation_coefficient(std::span<const double> x) {
  const double m = mean(x);
  if (std::abs(m) < 1e-300) return kNaN;
  return stddev(x) / std::abs(m);
}

double abs_energy(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return acc;
}

double root_mean_square(std::span<const double> x) {
  if (x.empty()) return kNaN;
  return std::sqrt(abs_energy(x) / static_cast<double>(x.size()));
}

double absolute_sum_of_changes(std::span<const double> x) {
  double acc = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) acc += std::abs(x[i] - x[i - 1]);
  return acc;
}

double mean_abs_change(std::span<const double> x) {
  if (x.size() < 2) return kNaN;
  return absolute_sum_of_changes(x) / static_cast<double>(x.size() - 1);
}

std::size_t count_above_mean(std::span<const double> x) {
  const double m = mean(x);
  std::size_t n = 0;
  for (double v : x) n += (v > m) ? 1 : 0;
  return n;
}

std::size_t count_below_mean(std::span<const double> x) {
  const double m = mean(x);
  std::size_t n = 0;
  for (double v : x) n += (v < m) ? 1 : 0;
  return n;
}

std::size_t longest_run_mean(std::span<const double> x, bool above) {
  const double m = mean(x);
  std::size_t best = 0;
  std::size_t cur = 0;
  for (double v : x) {
    if (above ? v > m : v < m) {
      best = std::max(best, ++cur);
    } else {
      cur = 0;
    }
  }
  return best;
}

double ratio_beyond_r_sigma(std::span<const double> x, double r) {
  if (x.empty()) return kNaN;
  const double m = mean(x);
  const double s = stddev(x);
  std::size_t count = 0;
  for (double v : x) count += (std::abs(v - m) > r * s) ? 1 : 0;
  return static_cast<double>(count) / static_cast<double>(x.size());
}

bool has_duplicate(std::span<const double> x) {
  std::unordered_map<double, int> seen;
  for (double v : x) {
    if (++seen[v] > 1) return true;
  }
  return false;
}

bool has_duplicate_extreme(std::span<const double> x, double extreme) {
  std::size_t count = 0;
  for (double v : x) count += (v == extreme) ? 1 : 0;
  return count > 1;
}

double sum_of_reoccurring_values(std::span<const double> x) {
  std::unordered_map<double, std::size_t> counts;
  for (double v : x) ++counts[v];
  double acc = 0.0;
  for (const auto& [v, c] : counts) {
    if (c > 1) acc += v;
  }
  return acc;
}

double percentage_of_reoccurring_datapoints(std::span<const double> x) {
  if (x.empty()) return kNaN;
  std::unordered_map<double, std::size_t> counts;
  for (double v : x) ++counts[v];
  std::size_t reoccurring = 0;
  for (const auto& [v, c] : counts) {
    if (c > 1) ++reoccurring;
  }
  return static_cast<double>(reoccurring) / static_cast<double>(counts.size());
}

double cid_ce(std::span<const double> x, bool normalize) {
  if (x.size() < 2) return kNaN;
  double acc = 0.0;
  if (normalize) {
    const double s = stddev(x);
    if (s < 1e-300) return 0.0;
    const double m = mean(x);
    double prev = (x[0] - m) / s;
    for (std::size_t i = 1; i < x.size(); ++i) {
      const double cur = (x[i] - m) / s;
      acc += (cur - prev) * (cur - prev);
      prev = cur;
    }
    return std::sqrt(acc);
  }
  for (std::size_t i = 1; i < x.size(); ++i) {
    acc += (x[i] - x[i - 1]) * (x[i] - x[i - 1]);
  }
  return std::sqrt(acc);
}

bool large_standard_deviation(std::span<const double> x, double r) {
  return stddev(x) > r * range(x);
}

bool symmetry_looking(std::span<const double> x, double r) {
  return std::abs(mean(x) - median(x)) < r * range(x);
}

double autocorrelation(std::span<const double> x, std::size_t lag) {
  const std::size_t n = x.size();
  if (lag >= n) return kNaN;
  if (lag == 0) return 1.0;
  const double m = mean(x);
  double var_acc = 0.0;
  for (double v : x) var_acc += (v - m) * (v - m);
  if (var_acc < 1e-300) return kNaN;
  double acc = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) acc += (x[i] - m) * (x[i + lag] - m);
  return acc / var_acc;
}

double agg_autocorrelation_mean_abs(std::span<const double> x,
                                    std::size_t max_lag) {
  if (x.size() < 2) return kNaN;
  const std::size_t effective = std::min(max_lag, x.size() - 1);
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t lag = 1; lag <= effective; ++lag) {
    const double r = autocorrelation(x, lag);
    if (!std::isnan(r)) {
      acc += std::abs(r);
      ++count;
    }
  }
  return count ? acc / static_cast<double>(count) : kNaN;
}

// Durbin–Levinson over an ACF rebuilt for this lag alone.
double partial_autocorrelation(std::span<const double> x, std::size_t lag) {
  if (lag == 0) return 1.0;
  if (x.size() < lag + 1) return kNaN;
  std::vector<double> rho(lag + 1);
  for (std::size_t k = 0; k <= lag; ++k) rho[k] = autocorrelation(x, k);
  for (double r : rho) {
    if (std::isnan(r)) return kNaN;
  }
  std::vector<double> phi_prev(lag + 1, 0.0);
  std::vector<double> phi_cur(lag + 1, 0.0);
  phi_prev[1] = rho[1];
  if (lag == 1) return rho[1];
  for (std::size_t k = 2; k <= lag; ++k) {
    double num = rho[k];
    double den = 1.0;
    for (std::size_t j = 1; j < k; ++j) {
      num -= phi_prev[j] * rho[k - j];
      den -= phi_prev[j] * rho[j];
    }
    if (std::abs(den) < 1e-300) return kNaN;
    phi_cur[k] = num / den;
    for (std::size_t j = 1; j < k; ++j) {
      phi_cur[j] = phi_prev[j] - phi_cur[k] * phi_prev[k - j];
    }
    phi_prev = phi_cur;
  }
  return phi_prev[lag];
}

// ApEn's phi(m) as one full all-pairs sweep, self-matches included.
double apen_phi(std::span<const double> x, std::size_t m, double r) {
  const std::size_t count = x.size() - m + 1;
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t matches = 0;
    for (std::size_t j = 0; j < count; ++j) {
      bool ok = true;
      for (std::size_t k = 0; k < m; ++k) {
        if (std::abs(x[i + k] - x[j + k]) > r) {
          ok = false;
          break;
        }
      }
      matches += ok ? 1 : 0;
    }
    acc += std::log(static_cast<double>(matches) / static_cast<double>(count));
  }
  return acc / static_cast<double>(count);
}

double approximate_entropy(std::span<const double> x, std::size_t m,
                           double r_frac) {
  if (x.size() < m + 2) return 0.0;
  const double s = stddev(x);
  if (s < 1e-300) return 0.0;
  return apen_phi(x, m, r_frac * s) - apen_phi(x, m + 1, r_frac * s);
}

double sample_entropy(std::span<const double> x, std::size_t m, double r_frac) {
  const std::size_t n = x.size();
  if (n < m + 2) return kNaN;
  const double s = stddev(x);
  if (s < 1e-300) return kNaN;
  const double r = r_frac * s;
  std::size_t a = 0;
  std::size_t b = 0;
  for (std::size_t i = 0; i < n - m; ++i) {
    for (std::size_t j = i + 1; j < n - m; ++j) {
      bool match_m = true;
      for (std::size_t k = 0; k < m; ++k) {
        if (std::abs(x[i + k] - x[j + k]) > r) {
          match_m = false;
          break;
        }
      }
      if (!match_m) continue;
      ++b;
      if (std::abs(x[i + m] - x[j + m]) <= r) ++a;
    }
  }
  if (a == 0 || b == 0) return kNaN;
  return -std::log(static_cast<double>(a) / static_cast<double>(b));
}

double binned_entropy(std::span<const double> x, std::size_t bins) {
  const double lo = minimum(x);
  const double hi = maximum(x);
  if (hi - lo < 1e-300) return 0.0;
  std::vector<double> counts(bins, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : x) {
    auto bin = static_cast<std::size_t>((v - lo) / width);
    if (bin >= bins) bin = bins - 1;
    counts[bin] += 1.0;
  }
  const double inv_n = 1.0 / static_cast<double>(x.size());
  for (auto& c : counts) c *= inv_n;
  return shannon_entropy(counts);
}

stats::LinearTrend linear_trend(std::span<const double> y) {
  stats::LinearTrend out;
  const std::size_t n = y.size();
  const double tn = static_cast<double>(n);
  const double t_mean = (tn - 1.0) / 2.0;
  const double y_mean = mean(y);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dt = static_cast<double>(i) - t_mean;
    const double dy = y[i] - y_mean;
    sxx += dt * dt;
    sxy += dt * dy;
    syy += dy * dy;
  }
  out.slope = sxy / sxx;
  out.intercept = y_mean - out.slope * t_mean;
  if (syy < 1e-300) return out;  // rvalue = stderr_ = 0
  out.rvalue = sxy / std::sqrt(sxx * syy);
  const double sse = syy - out.slope * sxy;
  out.stderr_ = std::sqrt(std::max(0.0, sse / (tn - 2.0)) / sxx);
  return out;
}

std::vector<double> decimate(std::span<const double> x, std::size_t cap) {
  if (x.size() <= cap) return {x.begin(), x.end()};
  std::vector<double> out;
  const double stride = static_cast<double>(x.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(x[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  }
  return out;
}

double energy_ratio_by_chunk(std::span<const double> x, std::size_t chunks,
                             std::size_t k) {
  const double total = abs_energy(x);
  if (total < 1e-300) return 0.0;
  const std::size_t chunk_len = (x.size() + chunks - 1) / chunks;
  const std::size_t begin = k * chunk_len;
  if (begin >= x.size()) return 0.0;
  const std::size_t len = std::min(chunk_len, x.size() - begin);
  return abs_energy(x.subspan(begin, len)) / total;
}

double index_mass_quantile(std::span<const double> x, double q) {
  double total = 0.0;
  for (double v : x) total += std::abs(v);
  if (total < 1e-300) return 1.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += std::abs(x[i]);
    if (acc >= q * total) {
      return static_cast<double>(i + 1) / static_cast<double>(x.size());
    }
  }
  return 1.0;
}

void tsfresh(const TsfreshConfig& config, std::span<const double> x,
             std::span<double> out) {
  std::size_t i = 0;
  out[i++] = sum(x);
  out[i++] = mean(x);
  out[i++] = stddev(x);
  out[i++] = variance(x);
  out[i++] = minimum(x);
  out[i++] = maximum(x);
  out[i++] = median(x);
  out[i++] = skewness(x);
  out[i++] = kurtosis(x);
  out[i++] = root_mean_square(x);
  out[i++] = abs_energy(x);
  out[i++] = variation_coefficient(x);
  out[i++] = quantile(x, 0.75) - quantile(x, 0.25);
  for (int q = 1; q <= 9; ++q) out[i++] = quantile(x, 0.1 * q);

  out[i++] = mean_abs_change(x);
  out[i++] = mean_change(x);
  out[i++] = mean_second_derivative_central(x);
  out[i++] = absolute_sum_of_changes(x);
  out[i++] = cid_ce(x, true);
  out[i++] = cid_ce(x, false);

  out[i++] = static_cast<double>(count_above_mean(x));
  out[i++] = static_cast<double>(count_below_mean(x));
  out[i++] = static_cast<double>(number_of_crossings(x, mean(x)));
  for (std::size_t support : {1, 3, 5}) {
    out[i++] = static_cast<double>(number_of_peaks(x, support));
  }
  out[i++] = static_cast<double>(longest_run_mean(x, true));
  out[i++] = static_cast<double>(longest_run_mean(x, false));
  out[i++] = static_cast<double>(longest_strictly_increasing_run(x));
  out[i++] = static_cast<double>(longest_strictly_decreasing_run(x));
  out[i++] = first_location_of_maximum(x);
  out[i++] = first_location_of_minimum(x);
  out[i++] = last_location_of_maximum(x);
  out[i++] = last_location_of_minimum(x);
  for (double r : {1.0, 2.0, 3.0}) out[i++] = ratio_beyond_r_sigma(x, r);

  out[i++] = has_duplicate(x) ? 1.0 : 0.0;
  out[i++] = has_duplicate_extreme(x, maximum(x)) ? 1.0 : 0.0;
  out[i++] = has_duplicate_extreme(x, minimum(x)) ? 1.0 : 0.0;
  out[i++] = sum_of_reoccurring_values(x);
  out[i++] = percentage_of_reoccurring_datapoints(x);
  out[i++] = large_standard_deviation(x, 0.25) ? 1.0 : 0.0;
  out[i++] = symmetry_looking(x, 0.05) ? 1.0 : 0.0;
  out[i++] = symmetry_looking(x, 0.25) ? 1.0 : 0.0;

  for (std::size_t lag = 1; lag <= config.acf_lags; ++lag) {
    out[i++] = autocorrelation(x, lag);
  }
  out[i++] = agg_autocorrelation_mean_abs(x, config.acf_lags);
  for (std::size_t lag = 1; lag <= config.pacf_lags; ++lag) {
    out[i++] = partial_autocorrelation(x, lag);
  }

  const std::vector<double> xd = decimate(x, config.entropy_cap);
  out[i++] = binned_entropy(x, 10);
  out[i++] = approximate_entropy(xd, 2, 0.2);
  out[i++] = sample_entropy(xd, 2, 0.2);

  for (std::size_t lag = 1; lag <= 3; ++lag) out[i++] = c3(x, lag);
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    out[i++] = time_reversal_asymmetry(x, lag);
  }

  const auto spectrum = fft_real(x);
  for (std::size_t k = 1; k <= config.fft_coeffs; ++k) {
    const std::complex<double> c =
        k < spectrum.size() ? spectrum[k] : std::complex<double>(0.0, 0.0);
    out[i++] = std::abs(c);
    out[i++] = c.real();
    out[i++] = c.imag();
  }
  const stats::WelchResult psd = welch_psd(x, 64);
  for (std::size_t b = 0; b < config.psd_bins; ++b) {
    const std::size_t nb = psd.power.size();
    double acc = 0.0;
    for (std::size_t k = b * nb / config.psd_bins;
         k < (b + 1) * nb / config.psd_bins && k < nb; ++k) {
      acc += psd.power[k];
    }
    out[i++] = acc;
  }
  out[i++] = spectral_centroid(psd);
  out[i++] = dominant_frequency(psd);

  const stats::LinearTrend trend = linear_trend(x);
  out[i++] = trend.slope;
  out[i++] = trend.intercept;
  out[i++] = trend.rvalue;
  out[i++] = trend.stderr_;
  for (std::size_t k = 0; k < 4; ++k) out[i++] = energy_ratio_by_chunk(x, 4, k);
  for (double q : {0.25, 0.50, 0.75}) out[i++] = index_mass_quantile(x, q);
  ASSERT_EQ(i, out.size());
}

void mvts(std::span<const double> x, std::span<double> out) {
  std::size_t i = 0;
  out[i++] = mean(x);
  out[i++] = stddev(x);
  out[i++] = variance(x);
  out[i++] = minimum(x);
  out[i++] = maximum(x);
  out[i++] = range(x);
  out[i++] = median(x);
  out[i++] = quantile(x, 0.05);
  out[i++] = quantile(x, 0.25);
  out[i++] = quantile(x, 0.75);
  out[i++] = quantile(x, 0.95);
  out[i++] = skewness(x);
  out[i++] = kurtosis(x);
  out[i++] = quantile(x, 0.75) - quantile(x, 0.25);

  const std::size_t half = x.size() / 2;
  const std::span<const double> a = x.subspan(0, half);
  const std::span<const double> b = x.subspan(half);
  using Stat = double (*)(std::span<const double>);
  for (const Stat stat :
       {Stat{mean}, Stat{stddev}, Stat{variance}, Stat{minimum}, Stat{maximum},
        Stat{median}}) {
    out[i++] = std::abs(stat(a) - stat(b));
  }
  out[i++] = std::abs(quantile(a, 0.25) - quantile(b, 0.25));
  out[i++] = std::abs(quantile(a, 0.75) - quantile(b, 0.75));
  out[i++] = std::abs(skewness(a) - skewness(b));
  out[i++] = std::abs(kurtosis(a) - kurtosis(b));
  out[i++] = std::abs(range(a) - range(b));

  out[i++] = static_cast<double>(longest_strictly_increasing_run(x));
  out[i++] = static_cast<double>(longest_strictly_decreasing_run(x));
  out[i++] = static_cast<double>(longest_run_mean(x, true));
  out[i++] = static_cast<double>(longest_run_mean(x, false));

  out[i++] = mean_abs_change(x);
  out[i++] = mean_change(x);
  out[i++] = absolute_sum_of_changes(x);
  out[i++] = mean_second_derivative_central(x);
  out[i++] = static_cast<double>(count_above_mean(x));
  out[i++] = static_cast<double>(count_below_mean(x));
  out[i++] = first_location_of_maximum(x);
  out[i++] = first_location_of_minimum(x);
  out[i++] = last_location_of_maximum(x);
  out[i++] = last_location_of_minimum(x);
  out[i++] = static_cast<double>(number_of_crossings(x, mean(x)));
  out[i++] = static_cast<double>(number_of_peaks(x, 3));
  const stats::LinearTrend trend = linear_trend(x);
  out[i++] = trend.slope;
  out[i++] = trend.intercept;
  out[i++] = trend.rvalue;
  out[i++] = trend.stderr_;
  out[i++] = cid_ce(x, true);
  out[i++] = variation_coefficient(x);
  out[i++] = root_mean_square(x);
  ASSERT_EQ(i, out.size());
}

}  // namespace reference

// Per-metric series of both systems' runs, clean and fault-injected, plus
// synthetic series at the arithmetic's edges. Volta runs are one served
// window long (60 rows); Eclipse runs keep their full length.
std::vector<std::vector<double>> extraction_corpus() {
  std::vector<std::vector<double>> corpus;
  for (const bool faulted : {false, true}) {
    for (const SystemKind system : {SystemKind::Volta, SystemKind::Eclipse}) {
      DatasetConfig cfg =
          system == SystemKind::Volta ? volta_config() : eclipse_config();
      if (system == SystemKind::Volta) cfg.sim.duration_steps = 60;
      if (faulted) cfg.faults = production_faults();
      const RunGenerator gen(cfg.system, cfg.registry, cfg.sim, cfg.faults);
      for (int run = 0; run < 2; ++run) {
        RunSpec spec;
        spec.app_id = run;
        spec.anomaly = run == 0 ? AnomalyType::Healthy : AnomalyType::MemLeak;
        spec.intensity = 1.0;
        spec.run_id = run;
        spec.seed = 40 + static_cast<std::uint64_t>(run) + (faulted ? 10 : 0);
        for (const Sample& sample : gen.generate_run(spec)) {
          SeriesQuality quality;
          const Matrix clean = preprocess_series_robust(
              sample.series, gen.registry(), cfg.preprocess, quality);
          if (!quality.usable) continue;
          for (std::size_t j = 0; j < clean.cols(); ++j) {
            if (quality.metric_ok[j]) corpus.push_back(clean.col(j));
          }
        }
      }
    }
  }

  Rng rng(99);
  for (const std::size_t n :
       {4, 5, 7, 8, 9, 13, 31, 47, 48, 64, 65, 100, 116, 129, 200}) {
    corpus.emplace_back(n, 3.0);  // constant
    corpus.emplace_back(n, 0.0);
    std::vector<double> two_valued(n);
    std::vector<double> integer(n);
    std::vector<double> decimal(n);  // repeats whose sum depends on order
    std::vector<double> signed_zero(n);
    std::vector<double> uniform(n);
    constexpr double kDecimals[] = {0.1, 0.7, 1.3, 2.9, 1e6 + 0.1, 1e-3};
    for (std::size_t i = 0; i < n; ++i) {
      two_valued[i] = rng.uniform(0.0, 1.0) < 0.5 ? 5.0 : 7.0;
      integer[i] = std::floor(rng.uniform(0.0, 6.0));
      decimal[i] = kDecimals[static_cast<std::size_t>(rng.uniform(0.0, 6.0)) % 6];
      const double pick = rng.uniform(0.0, 4.0);
      signed_zero[i] = pick < 1.0 ? 0.0 : pick < 2.0 ? -0.0
                                         : pick < 3.0 ? 1.0 : -1.0;
      uniform[i] = rng.uniform(-50.0, 50.0);
    }
    corpus.push_back(two_valued);
    corpus.push_back(integer);
    corpus.push_back(decimal);
    corpus.push_back(signed_zero);
    std::vector<double> zeros(n);
    for (std::size_t i = 0; i < n; ++i) zeros[i] = (i % 3 == 0) ? -0.0 : 0.0;
    corpus.push_back(zeros);
    corpus.push_back(uniform);
  }
  return corpus;
}

// Counts the cells where `a` and `b` differ in any bit, reporting the first
// few with their feature names.
std::size_t count_bit_differences(std::span<const double> a,
                                  std::span<const double> b,
                                  const std::vector<std::string>& names,
                                  std::size_t series) {
  std::size_t diffs = 0;
  for (std::size_t f = 0; f < a.size(); ++f) {
    if (std::bit_cast<std::uint64_t>(a[f]) == std::bit_cast<std::uint64_t>(b[f])) {
      continue;
    }
    if (++diffs <= 3) {
      ADD_FAILURE() << "series " << series << " feature " << names[f] << ": "
                    << strformat("%.17g vs %.17g", a[f], b[f]);
    }
  }
  return diffs;
}

TEST(ExtractorBitIdentity, BothExtractorsMatchReferenceComposition) {
  const auto corpus = extraction_corpus();
  ASSERT_GT(corpus.size(), 1000u);
  const MvtsExtractor mvts;
  TsfreshConfig odd;  // PACF deeper than ACF; short series decimated
  odd.acf_lags = 3;
  odd.pacf_lags = 7;
  odd.entropy_cap = 16;
  const TsfreshExtractor tsfresh;
  const TsfreshExtractor tsfresh_odd(odd);

  std::size_t diffs = 0;
  std::size_t cells = 0;
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    const std::vector<double>& x = corpus[s];
    std::vector<double> got(mvts.num_features());
    std::vector<double> want(mvts.num_features());
    mvts.extract(x, FeaturePlan::all(), got);
    reference::mvts(x, want);
    diffs += count_bit_differences(got, want, mvts.feature_names(), s);
    cells += got.size();
    if (x.size() < 8) continue;
    for (const TsfreshExtractor* ts : {&tsfresh, &tsfresh_odd}) {
      got.assign(ts->num_features(), 0.0);
      want.assign(ts->num_features(), 0.0);
      ts->extract(x, FeaturePlan::all(), got);
      reference::tsfresh(ts == &tsfresh ? TsfreshConfig{} : odd, x, want);
      diffs += count_bit_differences(got, want, ts->feature_names(), s);
      cells += got.size();
    }
  }
  EXPECT_EQ(diffs, 0u) << "of " << cells << " cells";
}

// A quiet NaN with a payload no extractor produces: a plan must leave every
// slot it does not request holding exactly these bits.
constexpr std::uint64_t kSentinelBits = 0x7ff80000deadbeefULL;

// The plan that writes each feature of `mask` to slots[feature].
FeaturePlan plan_of(const FeatureExtractor& ex, const std::vector<bool>& mask,
                    const std::vector<std::size_t>& slots) {
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (std::size_t f = 0; f < mask.size(); ++f) {
    if (mask[f]) cells.emplace_back(f, slots[f]);
  }
  return ex.plan(cells);
}

// Random masks (about `density` of the cells) over a shuffled slot layout,
// as serving compiles them.
struct RandomPlan {
  std::vector<bool> mask;
  std::vector<std::size_t> slots;
};
RandomPlan random_plan(std::size_t features, double density, Rng& rng) {
  RandomPlan p;
  p.mask.resize(features);
  p.slots.resize(features);
  for (std::size_t f = 0; f < features; ++f) {
    p.mask[f] = rng.uniform(0.0, 1.0) < density;
    p.slots[f] = f;
  }
  for (std::size_t f = features; f > 1; --f) {
    std::swap(p.slots[f - 1],
              p.slots[static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                               static_cast<double>(f)) %
                      f]);
  }
  return p;
}

TEST(ExtractorBitIdentity, PlanCellsMatchFullExtraction) {
  const auto corpus = extraction_corpus();
  ASSERT_GT(corpus.size(), 1000u);
  const MvtsExtractor mvts;
  TsfreshConfig odd;  // as in BothExtractorsMatchReferenceComposition
  odd.acf_lags = 3;
  odd.pacf_lags = 7;
  odd.entropy_cap = 16;
  const TsfreshExtractor tsfresh;
  const TsfreshExtractor tsfresh_odd(odd);

  // A plan is per extractor, and requests a feature at most once.
  const std::vector<std::pair<std::size_t, std::size_t>> twice{{3, 0}, {3, 1}};
  EXPECT_THROW(mvts.plan(twice), Error);
  const std::vector<std::pair<std::size_t, std::size_t>> beyond{{48, 0}};
  EXPECT_THROW(mvts.plan(beyond), Error);
  const std::vector<std::pair<std::size_t, std::size_t>> far_slot{{0, 9}};
  std::vector<double> small(5);
  EXPECT_THROW(mvts.extract(corpus[0], mvts.plan(far_slot), small), Error);
  std::vector<double> wide(tsfresh.num_features());
  EXPECT_THROW(
      tsfresh.extract(std::vector<double>(48, 1.0), mvts.plan(far_slot), wide),
      Error);

  Rng rng(2024);
  std::size_t cells = 0;
  std::size_t diffs = 0;
  std::size_t clobbered = 0;
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    const std::vector<double>& x = corpus[s];
    for (const FeatureExtractor* ex :
         {static_cast<const FeatureExtractor*>(&mvts),
          static_cast<const FeatureExtractor*>(&tsfresh),
          static_cast<const FeatureExtractor*>(&tsfresh_odd)}) {
      if (ex != &mvts && x.size() < 8) continue;
      const std::size_t f_count = ex->num_features();
      std::vector<double> full(f_count);
      ex->extract(x, FeaturePlan::all(), full);

      std::vector<std::size_t> identity(f_count);
      for (std::size_t f = 0; f < f_count; ++f) identity[f] = f;
      std::vector<RandomPlan> plans;
      plans.push_back({std::vector<bool>(f_count, false), identity});  // empty
      plans.push_back({std::vector<bool>(f_count, true), identity});   // full
      for (const std::size_t one : {s % f_count, (7 * s + 3) % f_count}) {
        plans.push_back({std::vector<bool>(f_count, false), identity});
        plans.back().mask[one] = true;
      }
      for (const double density : {0.05, 0.1, 0.5}) {
        plans.push_back(random_plan(f_count, density, rng));
      }

      for (const RandomPlan& p : plans) {
        std::vector<double> out(f_count, std::bit_cast<double>(kSentinelBits));
        ex->extract(x, plan_of(*ex, p.mask, p.slots), out);
        for (std::size_t f = 0; f < f_count; ++f) {
          const std::uint64_t got = std::bit_cast<std::uint64_t>(out[p.slots[f]]);
          if (!p.mask[f]) {
            if (got != kSentinelBits && ++clobbered <= 3) {
              ADD_FAILURE() << ex->name() << " series " << s
                            << " wrote unrequested " << ex->feature_names()[f];
            }
            continue;
          }
          ++cells;
          if (got != std::bit_cast<std::uint64_t>(full[f]) && ++diffs <= 3) {
            ADD_FAILURE() << ex->name() << " series " << s << " feature "
                          << ex->feature_names()[f] << ": "
                          << strformat("%.17g vs %.17g", out[p.slots[f]],
                                       full[f]);
          }
        }
      }
    }
  }
  EXPECT_EQ(diffs, 0u) << "of " << cells << " requested cells";
  EXPECT_EQ(clobbered, 0u);
  EXPECT_GT(cells, 100000u);
}

// Extraction shares no scratch between calls, and the FFT/Hann tables are
// shared read-only: the corpus extracted on a pool — full plans and
// partial ones — gives the serial run's bits.
TEST(ExtractorBitIdentity, ConcurrentExtractionMatchesSerial) {
  const auto corpus = extraction_corpus();
  const MvtsExtractor mvts;
  const TsfreshExtractor tsfresh;
  const std::size_t mvts_f = mvts.num_features();
  const std::size_t ts_f = tsfresh.num_features();
  Rng rng(31);
  std::vector<FeaturePlan> mvts_plans;
  std::vector<FeaturePlan> ts_plans;
  for (const double density : {0.05, 0.1, 0.3}) {
    const RandomPlan m = random_plan(mvts_f, density, rng);
    mvts_plans.push_back(plan_of(mvts, m.mask, m.slots));
    const RandomPlan t = random_plan(ts_f, density, rng);
    ts_plans.push_back(plan_of(tsfresh, t.mask, t.slots));
  }
  const std::size_t width = 2 * (mvts_f + ts_f);
  auto extract_all = [&](std::vector<double>& out, std::size_t s) {
    const std::span<double> row(out.data() + s * width, width);
    const FeaturePlan& mvts_plan = mvts_plans[s % mvts_plans.size()];
    const FeaturePlan& ts_plan = ts_plans[s % ts_plans.size()];
    mvts.extract(corpus[s], FeaturePlan::all(), row.first(mvts_f));
    mvts.extract(corpus[s], mvts_plan, row.subspan(mvts_f, mvts_f));
    if (corpus[s].size() >= 8) {
      tsfresh.extract(corpus[s], FeaturePlan::all(),
                      row.subspan(2 * mvts_f, ts_f));
      tsfresh.extract(corpus[s], ts_plan, row.subspan(2 * mvts_f + ts_f));
    }
  };
  std::vector<double> serial(corpus.size() * width, 0.0);
  for (std::size_t s = 0; s < corpus.size(); ++s) extract_all(serial, s);
  std::vector<double> parallel(corpus.size() * width, 0.0);
  ThreadPool pool(4);
  pool.parallel_for(corpus.size(),
                    [&](std::size_t s) { extract_all(parallel, s); });
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                        serial.size() * sizeof(double)),
            0);

  // A length's tables are built once, by whichever thread asks first.
  constexpr std::size_t kFresh = std::size_t{1} << 13;  // unused above
  std::vector<const stats::Pow2Tables*> seen(8);
  pool.parallel_for(seen.size(), [&](std::size_t i) {
    seen[i] = &stats::pow2_tables(kFresh);
  });
  for (const stats::Pow2Tables* t : seen) EXPECT_EQ(t, seen[0]);
  EXPECT_EQ(seen[0]->hann.size(), kFresh);
  EXPECT_EQ(seen[0]->twiddles[1].size(), kFresh / 2);
}

// ------------------------------------------------------ feature matrix ---

class ExtractorTest : public ::testing::Test {
 protected:
  ExtractorTest()
      : gen_(SystemKind::Volta,
             [] {
               RegistryConfig cfg;
               cfg.cores = 1;
               cfg.nics = 1;
               cfg.filler_gauges = 1;
               return cfg;
             }(),
             [] {
               NodeSimConfig cfg;
               cfg.duration_steps = 40;
               cfg.ramp_steps = 3;
               cfg.drain_steps = 3;
               return cfg;
             }()) {
    RunSpec healthy;
    healthy.app_id = 0;
    healthy.nodes = 2;
    healthy.seed = 5;
    RunSpec anomalous;
    anomalous.app_id = 1;
    anomalous.nodes = 2;
    anomalous.anomaly = AnomalyType::MemLeak;
    anomalous.intensity = 1.0;
    anomalous.run_id = 1;
    anomalous.seed = 6;
    for (auto& s : gen_.generate_run(healthy)) samples_.push_back(std::move(s));
    for (auto& s : gen_.generate_run(anomalous)) samples_.push_back(std::move(s));
  }

  RunGenerator gen_;
  std::vector<Sample> samples_;
  PreprocessConfig preprocess_{.trim_head = 3, .trim_tail = 3};
};

TEST_F(ExtractorTest, MatrixShapeAndProvenance) {
  const MvtsExtractor mvts;
  const FeatureMatrix fm =
      extract_features(samples_, gen_.registry(), mvts, preprocess_);
  EXPECT_EQ(fm.num_samples(), 4u);
  EXPECT_EQ(fm.num_features(), gen_.registry().size() * 48u);
  EXPECT_EQ(fm.names.size(), fm.num_features());
  EXPECT_EQ(fm.labels, (std::vector<int>{0, 0, 4, 0}));  // memleak = 4
  EXPECT_EQ(fm.app_ids, (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(fm.node_ids, (std::vector<int>{0, 1, 0, 1}));
}

TEST_F(ExtractorTest, NamesCombineMetricAndFeature) {
  const MvtsExtractor mvts;
  const FeatureMatrix fm =
      extract_features(samples_, gen_.registry(), mvts, preprocess_);
  EXPECT_EQ(fm.names[0], gen_.registry().metric(0).name + "|mean");
}

TEST_F(ExtractorTest, DropUnusableColumnsRemovesBadOnes) {
  const MvtsExtractor mvts;
  FeatureMatrix fm =
      extract_features(samples_, gen_.registry(), mvts, preprocess_);
  // Poison one column with NaN and make another constant.
  for (std::size_t i = 0; i < fm.num_samples(); ++i) {
    fm.x(i, 3) = kNaN;
    fm.x(i, 7) = 42.0;
  }
  const std::size_t before = fm.num_features();
  const std::size_t dropped = drop_unusable_columns(fm);
  EXPECT_GE(dropped, 2u);
  EXPECT_EQ(fm.num_features(), before - dropped);
  EXPECT_EQ(fm.names.size(), fm.num_features());
  for (std::size_t i = 0; i < fm.num_samples(); ++i) {
    for (std::size_t j = 0; j < fm.num_features(); ++j) {
      EXPECT_TRUE(std::isfinite(fm.x(i, j)));
    }
  }
}

TEST_F(ExtractorTest, SelectRowsPreservesProvenance) {
  const MvtsExtractor mvts;
  const FeatureMatrix fm =
      extract_features(samples_, gen_.registry(), mvts, preprocess_);
  const std::vector<std::size_t> rows{2, 0};
  const FeatureMatrix sub = fm.select_rows(rows);
  EXPECT_EQ(sub.num_samples(), 2u);
  EXPECT_EQ(sub.labels, (std::vector<int>{4, 0}));
  EXPECT_EQ(sub.app_ids, (std::vector<int>{1, 0}));
}

TEST(ExtractorFactory, MakesBothKinds) {
  EXPECT_EQ(make_extractor(ExtractorKind::Mvts)->name(), "mvts");
  EXPECT_EQ(make_extractor(ExtractorKind::Tsfresh)->name(), "tsfresh");
  EXPECT_EQ(extractor_name(ExtractorKind::Mvts), "mvts");
  EXPECT_EQ(extractor_name(ExtractorKind::Tsfresh), "tsfresh");
}

}  // namespace
}  // namespace alba
