// Tests for FFT, Welch PSD, entropies, autocorrelation, regression, and
// chi-square scoring.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "stats/autocorr.hpp"
#include "stats/chi2.hpp"
#include "stats/entropy.hpp"
#include "stats/fft.hpp"
#include "stats/regression.hpp"
#include "stats/welch.hpp"

namespace alba::stats {
namespace {

// ------------------------------------------------------------------ fft ---

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(129), 256u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(6);
  EXPECT_THROW(fft_inplace(data), Error);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  fft_inplace(data);
  for (const auto& c : data) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(Fft, PureToneConcentratesAtOneBin) {
  const std::size_t n = 64;
  std::vector<std::complex<double>> data(n);
  const std::size_t k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = std::cos(2.0 * M_PI * static_cast<double>(k * i) /
                       static_cast<double>(n));
  }
  fft_inplace(data);
  EXPECT_NEAR(std::abs(data[k]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - k]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[k + 1]), 0.0, 1e-9);
}

TEST(Fft, RoundTripInverse) {
  Rng rng(3);
  std::vector<std::complex<double>> data(32);
  std::vector<std::complex<double>> orig(32);
  for (std::size_t i = 0; i < 32; ++i) {
    data[i] = {rng.uniform(), rng.uniform()};
    orig[i] = data[i];
  }
  fft_inplace(data, false);
  fft_inplace(data, true);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(4);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.normal();
  const auto spec = fft_real(x);
  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v;
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(spec.size()), time_energy,
              1e-8);
}

// ---------------------------------------------------------------- welch ---

TEST(Welch, DetectsDominantFrequency) {
  const double f0 = 0.1;  // cycles per sample
  std::vector<double> x(512);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * M_PI * f0 * static_cast<double>(i));
  }
  const WelchResult psd = welch_psd(x, 128);
  EXPECT_NEAR(dominant_frequency(psd), f0, 0.01);
}

TEST(Welch, WhiteNoiseIsFlatish) {
  Rng rng(5);
  std::vector<double> x(2048);
  for (auto& v : x) v = rng.normal();
  const WelchResult psd = welch_psd(x, 128);
  // Total power ≈ variance (one-sided density integrates to sigma²).
  double total = 0.0;
  for (std::size_t k = 0; k < psd.power.size(); ++k) {
    total += psd.power[k] * (psd.frequencies[1] - psd.frequencies[0]);
  }
  EXPECT_NEAR(total, 1.0, 0.3);
}

TEST(Welch, ShortSignalStillWorks) {
  std::vector<double> x{1, 2, 3, 2, 1, 2, 3, 2, 1, 2};
  const WelchResult psd = welch_psd(x, 256);
  EXPECT_FALSE(psd.power.empty());
  for (const double p : psd.power) EXPECT_GE(p, 0.0);
}

TEST(Welch, SpectralCentroidWithinNyquist) {
  Rng rng(6);
  std::vector<double> x(256);
  for (auto& v : x) v = rng.normal();
  const WelchResult psd = welch_psd(x, 64);
  const double c = spectral_centroid(psd);
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 0.5);
}

// -------------------------------------------------------------- entropy ---

TEST(Entropy, RegularSeriesHasLowerApEnThanNoise) {
  std::vector<double> regular(128);
  for (std::size_t i = 0; i < regular.size(); ++i) {
    regular[i] = std::sin(0.5 * static_cast<double>(i));
  }
  Rng rng(7);
  std::vector<double> noise(128);
  for (auto& v : noise) v = rng.normal();
  EXPECT_LT(template_entropies(regular, stddev(regular), 2, 0.2).approximate,
            template_entropies(noise, stddev(noise), 2, 0.2).approximate);
}

TEST(Entropy, ConstantSeriesZeroApEn) {
  const std::vector<double> c(64, 1.0);
  EXPECT_DOUBLE_EQ(template_entropies(c, stddev(c), 2, 0.2).approximate, 0.0);
}

TEST(Entropy, SampleEntropyOrdersRegularity) {
  std::vector<double> regular(128);
  for (std::size_t i = 0; i < regular.size(); ++i) {
    regular[i] = std::sin(0.5 * static_cast<double>(i));
  }
  Rng rng(8);
  std::vector<double> noise(128);
  for (auto& v : noise) v = rng.normal();
  const double se_reg =
      template_entropies(regular, stddev(regular), 2, 0.2).sample;
  const double se_noise =
      template_entropies(noise, stddev(noise), 2, 0.2).sample;
  ASSERT_FALSE(std::isnan(se_reg));
  ASSERT_FALSE(std::isnan(se_noise));
  EXPECT_LT(se_reg, se_noise);
}

TEST(Entropy, BinnedEntropyBounds) {
  const std::vector<double> uniformish{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const double h = binned_entropy(uniformish, moments(uniformish), 10);
  EXPECT_NEAR(h, std::log(10.0), 1e-9);  // each bin equally occupied
  const std::vector<double> constant(10, 5.0);
  EXPECT_DOUBLE_EQ(binned_entropy(constant, moments(constant), 10), 0.0);
}

TEST(Entropy, ShannonOfUniform) {
  const std::vector<double> p{0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(shannon_entropy(p), std::log(4.0), 1e-12);
  const std::vector<double> certain{1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(shannon_entropy(certain), 0.0);
}

// The entropies by their definitions: template pairs compared on the
// Chebyshev distance, one full sweep per template length.
std::size_t naive_matches(std::span<const double> x, std::size_t i,
                          std::size_t j, std::size_t len, double r) {
  double d = 0.0;
  for (std::size_t k = 0; k < len; ++k) {
    d = std::max(d, std::abs(x[i + k] - x[j + k]));
  }
  return d <= r ? 1 : 0;
}

double naive_apen_phi(std::span<const double> x, std::size_t len, double r) {
  const std::size_t count = x.size() - len + 1;
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t c = 0;
    for (std::size_t j = 0; j < count; ++j) c += naive_matches(x, i, j, len, r);
    acc += std::log(static_cast<double>(c) / static_cast<double>(count));
  }
  return acc / static_cast<double>(count);
}

double naive_sampen(std::span<const double> x, std::size_t m, double r) {
  std::size_t a = 0;
  std::size_t b = 0;
  for (std::size_t i = 0; i + m < x.size(); ++i) {
    for (std::size_t j = i + 1; j + m < x.size(); ++j) {
      b += naive_matches(x, i, j, m, r);
      a += naive_matches(x, i, j, m + 1, r);
    }
  }
  if (a == 0 || b == 0) return std::numeric_limits<double>::quiet_NaN();
  return -std::log(static_cast<double>(a) / static_cast<double>(b));
}

TEST(Entropy, FusedSweepMatchesDefinitionIncludingTiesAtR) {
  // Integer series with r = 1 exactly: many template distances equal r, so
  // the <= r boundary decides most matches.
  Rng rng(11);
  for (const std::size_t n : {5, 8, 13, 48, 64}) {
    std::vector<double> x(n);
    for (auto& v : x) v = std::floor(rng.uniform(0.0, 4.0));
    for (const std::size_t m : {1, 2, 3}) {
      if (n < m + 2) continue;
      const TemplateEntropies got = template_entropies(x, 1.0, m, 1.0);
      EXPECT_EQ(got.approximate,
                naive_apen_phi(x, m, 1.0) - naive_apen_phi(x, m + 1, 1.0))
          << "n=" << n << " m=" << m;
      const double want = naive_sampen(x, m, 1.0);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got.sample));
      } else {
        EXPECT_EQ(got.sample, want) << "n=" << n << " m=" << m;
      }
    }
  }
}

TEST(Entropy, DegenerateSeriesFollowEachEntropysConvention) {
  const std::vector<double> constant(16, 2.0);
  const TemplateEntropies flat = template_entropies(constant, 0.0, 2, 0.2);
  EXPECT_EQ(flat.approximate, 0.0);
  EXPECT_TRUE(std::isnan(flat.sample));
  const std::vector<double> short_series{1.0, 2.0, 3.0};
  const TemplateEntropies short_entropies =
      template_entropies(short_series, stddev(short_series), 2, 0.2);
  EXPECT_EQ(short_entropies.approximate, 0.0);
  EXPECT_TRUE(std::isnan(short_entropies.sample));
}

// ------------------------------------------------------------- autocorr ---

TEST(Autocorr, LagZeroIsOne) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(autocorrelation(x, moments(x), 0), 1.0);
}

TEST(Autocorr, PeriodicSignalPeaksAtPeriod) {
  std::vector<double> x(200);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 20.0);
  }
  const Moments mo = moments(x);
  EXPECT_GT(autocorrelation(x, mo, 20), 0.8);
  EXPECT_LT(autocorrelation(x, mo, 10), -0.8);  // half period anti-correlated
}

TEST(Autocorr, ConstantSeriesIsNaN) {
  const std::vector<double> c(20, 2.0);
  EXPECT_TRUE(std::isnan(autocorrelation(c, moments(c), 1)));
}

TEST(Autocorr, AcfVectorLength) {
  const std::vector<double> x{1, 2, 1, 2, 1, 2, 1, 2};
  const auto r = acf(x, moments(x), 3);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_LT(r[1], 0.0);  // alternating series
  EXPECT_GT(r[2], 0.0);
}

TEST(Autocorr, Pacf) {
  // AR(1) process: PACF at lag 1 ≈ phi, near zero afterwards.
  Rng rng(9);
  std::vector<double> x(4000);
  x[0] = 0.0;
  const double phi = 0.7;
  for (std::size_t i = 1; i < x.size(); ++i) {
    x[i] = phi * x[i - 1] + rng.normal();
  }
  std::vector<double> pacf(3);
  partial_autocorrelations(acf(x, moments(x), 3), pacf);
  EXPECT_NEAR(pacf[0], phi, 0.05);
  EXPECT_NEAR(pacf[2], 0.0, 0.08);
}

// PACF at `lag` by its own Durbin–Levinson recursion over acf(x, lag).
double per_lag_pacf(std::span<const double> x, std::size_t lag) {
  if (x.size() < lag + 1) return std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> rho = acf(x, moments(x), lag);
  for (double r : rho) {
    if (std::isnan(r)) return std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<double> prev(lag + 1, 0.0);
  std::vector<double> cur(lag + 1, 0.0);
  prev[1] = rho[1];
  for (std::size_t k = 2; k <= lag; ++k) {
    double num = rho[k];
    double den = 1.0;
    for (std::size_t j = 1; j < k; ++j) {
      num -= prev[j] * rho[k - j];
      den -= prev[j] * rho[j];
    }
    if (std::abs(den) < 1e-300) return std::numeric_limits<double>::quiet_NaN();
    cur[k] = num / den;
    for (std::size_t j = 1; j < k; ++j) cur[j] = prev[j] - cur[k] * prev[k - j];
    prev = cur;
  }
  return prev[lag];
}

TEST(Autocorr, PacfFromOneAcfVectorMatchesPerLagRecursion) {
  Rng rng(12);
  std::vector<std::vector<double>> series;
  for (const std::size_t n : {6, 9, 48, 116}) {
    std::vector<double> x(n);
    double prev = 0.0;
    for (auto& v : x) v = prev = 0.6 * prev + rng.normal();
    series.push_back(x);
  }
  series.emplace_back(20, 3.0);  // constant: every lag NaN
  constexpr std::size_t kLags = 8;
  for (const auto& x : series) {
    std::vector<double> fused(kLags);
    partial_autocorrelations(acf(x, moments(x), kLags), fused);
    for (std::size_t lag = 1; lag <= kLags; ++lag) {
      const double want = per_lag_pacf(x, lag);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fused[lag - 1]),
                std::bit_cast<std::uint64_t>(want))
          << "n=" << x.size() << " lag=" << lag;
      // A recursion stopped at `lag` gives the same bits.
      std::vector<double> short_run(lag);
      partial_autocorrelations(acf(x, moments(x), lag), short_run);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(short_run.back()),
                std::bit_cast<std::uint64_t>(want));
    }
  }
}

TEST(Autocorr, AggAutocorrelation) {
  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 2);
  const double agg = agg_autocorrelation_mean_abs(acf(x, moments(x), 5));
  EXPECT_GT(agg, 0.8);  // alternating → |acf| near 1 at all small lags
}

// ----------------------------------------------------------- regression ---

TEST(Regression, ExactLine) {
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) y.push_back(2.0 * i + 3.0);
  const LinearTrend t = linear_trend(y, mean(y));
  EXPECT_NEAR(t.slope, 2.0, 1e-12);
  EXPECT_NEAR(t.intercept, 3.0, 1e-12);
  EXPECT_NEAR(t.rvalue, 1.0, 1e-12);
  EXPECT_NEAR(t.stderr_, 0.0, 1e-9);
}

TEST(Regression, FlatLine) {
  const std::vector<double> y(10, 4.0);
  const LinearTrend t = linear_trend(y, mean(y));
  EXPECT_NEAR(t.slope, 0.0, 1e-12);
  EXPECT_NEAR(t.intercept, 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.rvalue, 0.0);
}

TEST(Regression, PearsonKnownValues) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 6, 8};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c{8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

// ----------------------------------------------------------------- chi2 ---

TEST(Chi2, StatisticKnownValue) {
  const std::vector<double> observed{10, 20, 30};
  const std::vector<double> expected{20, 20, 20};
  EXPECT_NEAR(chi2_statistic(observed, expected), 100.0 / 20.0 + 100.0 / 20.0,
              1e-12);
}

TEST(Chi2, InformativeFeatureScoresHigher) {
  // Feature 0 ≈ label, feature 1 is constant-ish noise.
  Rng rng(10);
  Matrix x(200, 2);
  std::vector<int> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    y[i] = static_cast<int>(i % 2);
    x(i, 0) = y[i] == 1 ? 1.0 : 0.05;
    x(i, 1) = 0.5 + 0.01 * rng.uniform();
  }
  const auto scores = chi2_scores(x, y);
  EXPECT_GT(scores[0], scores[1] * 10.0);
}

TEST(Chi2, RejectsNegativeFeatures) {
  Matrix x(2, 1);
  x(0, 0) = -1.0;
  const std::vector<int> y{0, 1};
  EXPECT_THROW(chi2_scores(x, y), Error);
}

TEST(Chi2, RejectsShapeMismatch) {
  Matrix x(3, 1, 1.0);
  const std::vector<int> y{0, 1};
  EXPECT_THROW(chi2_scores(x, y), Error);
}

}  // namespace
}  // namespace alba::stats
