// Cross-module property suites: invariants that must hold over swept
// parameters and random inputs — feature-extractor transformation
// behaviour, chi-square scoring properties, metric identities, injector
// footprint monotonicity, and serialization robustness against corrupted
// archives.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "anomaly/injector.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "features/extractor.hpp"
#include "features/mvts.hpp"
#include "features/tsfresh.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "stats/chi2.hpp"

namespace alba {
namespace {

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(1.0, 50.0);
  return x;
}

double feature_value(const FeatureExtractor& ex, std::span<const double> x,
                     const std::string& name) {
  std::vector<double> out(ex.num_features());
  ex.extract(x, FeaturePlan::all(), out);
  const auto& names = ex.feature_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return out[i];
  }
  throw Error("no such feature: " + name);
}

// ---------------------------------------------------- extractor behaviour ---

class ExtractorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtractorProperty, MvtsShiftBehaviour) {
  const MvtsExtractor mvts;
  auto x = random_series(64, GetParam());
  const double std0 = feature_value(mvts, x, "std");
  const double slope0 = feature_value(mvts, x, "trend_slope");
  const double mean0 = feature_value(mvts, x, "mean");
  for (auto& v : x) v += 1000.0;
  EXPECT_NEAR(feature_value(mvts, x, "std"), std0, 1e-6);
  EXPECT_NEAR(feature_value(mvts, x, "trend_slope"), slope0, 1e-6);
  EXPECT_NEAR(feature_value(mvts, x, "mean"), mean0 + 1000.0, 1e-6);
}

TEST_P(ExtractorProperty, MvtsScaleBehaviour) {
  const MvtsExtractor mvts;
  auto x = random_series(64, GetParam() + 100);
  const double range0 = feature_value(mvts, x, "range");
  const double max0 = feature_value(mvts, x, "max");
  for (auto& v : x) v *= 2.0;
  EXPECT_NEAR(feature_value(mvts, x, "range"), 2.0 * range0, 1e-8);
  EXPECT_NEAR(feature_value(mvts, x, "max"), 2.0 * max0, 1e-8);
}

TEST_P(ExtractorProperty, TsfreshReversalFlipsTrend) {
  const TsfreshExtractor ts;
  auto x = random_series(64, GetParam() + 200);
  // Add a clear trend so the slope is non-trivial.
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += 0.5 * i;
  const double slope = feature_value(ts, x, "trend_slope");
  std::vector<double> rev(x.rbegin(), x.rend());
  EXPECT_NEAR(feature_value(ts, rev, "trend_slope"), -slope, 1e-8);
}

TEST_P(ExtractorProperty, TsfreshLocationFeaturesInUnitRange) {
  const TsfreshExtractor ts;
  const auto x = random_series(48, GetParam() + 300);
  for (const char* name : {"first_loc_max", "first_loc_min", "last_loc_max",
                           "last_loc_min", "index_mass_q50"}) {
    const double v = feature_value(ts, x, name);
    EXPECT_GE(v, 0.0) << name;
    EXPECT_LE(v, 1.0) << name;
  }
}

TEST_P(ExtractorProperty, TsfreshEnergyChunksSumToOne) {
  const TsfreshExtractor ts;
  const auto x = random_series(80, GetParam() + 400);
  double total = 0.0;
  for (const char* name :
       {"energy_chunk0", "energy_chunk1", "energy_chunk2", "energy_chunk3"}) {
    total += feature_value(ts, x, name);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractorProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

// --------------------------------------------------------- chi2 properties ---

class Chi2Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Chi2Property, ScoresNonNegativeAndRowPermutationInvariant) {
  Rng rng(GetParam());
  const std::size_t n = 60;
  Matrix x(n, 5);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 3);
    for (std::size_t j = 0; j < 5; ++j) x(i, j) = rng.uniform();
  }
  const auto scores = stats::chi2_scores(x, y);
  for (const double s : scores) EXPECT_GE(s, 0.0);

  // Permuting the rows (keeping labels attached) leaves the scores intact.
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  rng.shuffle(perm);
  const Matrix xp = x.select_rows(perm);
  std::vector<int> yp;
  for (const std::size_t i : perm) yp.push_back(y[i]);
  const auto scores_p = stats::chi2_scores(xp, yp);
  for (std::size_t j = 0; j < scores.size(); ++j) {
    EXPECT_NEAR(scores[j], scores_p[j], 1e-9);
  }
}

TEST_P(Chi2Property, ScalingAFeatureScalesItsScore) {
  // chi2 statistics scale linearly with the feature's magnitude (they are
  // count-based), which is why Min-Max scaling precedes selection.
  Rng rng(GetParam() + 50);
  const std::size_t n = 40;
  Matrix x(n, 2);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    x(i, 0) = y[i] == 1 ? 1.0 + rng.uniform(0.0, 0.1) : rng.uniform(0.0, 0.1);
    x(i, 1) = 3.0 * x(i, 0);
  }
  const auto scores = stats::chi2_scores(x, y);
  EXPECT_NEAR(scores[1], 3.0 * scores[0], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Chi2Property,
                         ::testing::Range<std::uint64_t>(1, 6));

// -------------------------------------------------------- metric identities ---

class MetricsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricsProperty, F1BoundsAndPerfectionIdentity) {
  Rng rng(GetParam());
  const int k = 4;
  std::vector<int> y_true(100);
  std::vector<int> y_pred(100);
  for (std::size_t i = 0; i < 100; ++i) {
    y_true[i] = static_cast<int>(rng.uniform_index(k));
    y_pred[i] = static_cast<int>(rng.uniform_index(k));
  }
  const EvalResult ev = evaluate(y_true, y_pred, k);
  EXPECT_GE(ev.macro_f1, 0.0);
  EXPECT_LE(ev.macro_f1, 1.0);
  EXPECT_GE(ev.false_alarm_rate, 0.0);
  EXPECT_LE(ev.false_alarm_rate, 1.0);
  EXPECT_GE(ev.anomaly_miss_rate, 0.0);
  EXPECT_LE(ev.anomaly_miss_rate, 1.0);
  EXPECT_DOUBLE_EQ(evaluate(y_true, y_true, k).macro_f1, 1.0);
}

TEST_P(MetricsProperty, ConfusionRowSumsMatchClassCounts) {
  Rng rng(GetParam() + 10);
  const int k = 5;
  std::vector<int> y_true(80);
  std::vector<int> y_pred(80);
  std::vector<double> counts(k, 0.0);
  for (std::size_t i = 0; i < 80; ++i) {
    y_true[i] = static_cast<int>(rng.uniform_index(k));
    y_pred[i] = static_cast<int>(rng.uniform_index(k));
    counts[static_cast<std::size_t>(y_true[i])] += 1.0;
  }
  const Matrix cm = confusion_matrix(y_true, y_pred, k);
  for (int c = 0; c < k; ++c) {
    double row = 0.0;
    for (int j = 0; j < k; ++j) {
      row += cm(static_cast<std::size_t>(c), static_cast<std::size_t>(j));
    }
    EXPECT_DOUBLE_EQ(row, counts[static_cast<std::size_t>(c)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty,
                         ::testing::Range<std::uint64_t>(1, 6));

// ------------------------------------------------- injector monotonicity ---

class InjectorIntensityProperty
    : public ::testing::TestWithParam<AnomalyType> {};

TEST_P(InjectorIntensityProperty, FootprintGrowsWithIntensity) {
  // Total absolute channel deviation, averaged over a run, must be
  // monotone (within tolerance) across the Volta intensity grid.
  const AnomalyType type = GetParam();
  auto footprint = [&](double intensity) {
    const auto injector = make_injector(type, intensity);
    Rng rng(7);
    double acc = 0.0;
    for (int t = 0; t < 60; ++t) {
      InjectionContext ctx;
      ctx.t_seconds = static_cast<double>(t);
      ctx.t_frac = t / 59.0;
      ctx.mem_capacity_gb = 64.0;
      NodeLoad base;
      base.cpu_user = 0.6;
      base.cpu_system = 0.05;
      base.cache_miss_rate = 0.1;
      base.mem_used_gb = 12.0;
      base.mem_bw_util = 0.3;
      base.net_tx_rate = 200.0;
      base.net_rx_rate = 190.0;
      base.io_read_rate = 2.0;
      base.io_write_rate = 1.0;
      base.power_watts = 250.0;
      NodeLoad injected = base;
      injector->apply(ctx, injected, rng);
      acc += std::abs(injected.cpu_user - base.cpu_user) +
             std::abs(injected.cache_miss_rate - base.cache_miss_rate) +
             std::abs(injected.mem_bw_util - base.mem_bw_util) +
             std::abs(injected.mem_used_gb - base.mem_used_gb) / 64.0 +
             std::abs(injected.net_tx_rate - base.net_tx_rate) / 200.0 +
             std::abs(injected.power_watts - base.power_watts) / 250.0 +
             std::abs(injected.cpu_freq - base.cpu_freq);
    }
    return acc;
  };
  const auto grid = volta_intensities();
  double prev = footprint(grid.front());
  for (std::size_t i = 1; i < grid.size(); ++i) {
    const double cur = footprint(grid[i]);
    EXPECT_GE(cur, prev * 0.95)
        << anomaly_name(type) << " at intensity " << grid[i];
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Types, InjectorIntensityProperty,
                         ::testing::ValuesIn(kAnomalyTypes),
                         [](const auto& info) {
                           return std::string(anomaly_name(info.param));
                         });

// ------------------------------------------------ serialization robustness ---

TEST(SerializationRobustness, TruncationAlwaysThrowsNeverCrashes) {
  Rng rng(1);
  Matrix x(30, 4);
  std::vector<int> y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    y[i] = static_cast<int>(i % 3);
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.uniform();
  }
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 4;
  RandomForest rf(cfg, 1);
  rf.fit(x, y);

  std::stringstream full;
  save_classifier(full, rf);
  const std::string bytes = full.str();

  for (const double frac : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const auto cut = static_cast<std::size_t>(frac * bytes.size());
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(load_classifier(truncated), Error) << "cut at " << cut;
  }
}

TEST(SerializationRobustness, BitFlippedMagicRejected) {
  Rng rng(2);
  Matrix x(12, 2);
  std::vector<int> y(12);
  for (std::size_t i = 0; i < 12; ++i) {
    y[i] = static_cast<int>(i % 2);
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
  }
  ForestConfig cfg;
  cfg.num_classes = 2;
  cfg.n_estimators = 2;
  RandomForest rf(cfg, 1);
  rf.fit(x, y);

  std::stringstream full;
  save_classifier(full, rf);
  std::string bytes = full.str();
  bytes[3] ^= 0x40;  // corrupt the magic
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_classifier(corrupted), Error);
}

}  // namespace
}  // namespace alba
