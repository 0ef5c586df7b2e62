// Tests for the telemetry fault-injection subsystem and the graceful
// degradation it forces on the rest of the pipeline: the injector's failure
// modes and accounting, robust preprocessing quarantine, robust feature
// extraction (bit-identical to the strict path on clean data), degenerate
// column handling in chi-square selection, the ActiveLearner's pool
// validation, and the end-to-end degraded pipeline with its
// DataQualityReport and that report's CSV row.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>

#include "active/learner.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/temp_dir.hpp"
#include "core/data_quality.hpp"
#include "core/pipeline.hpp"
#include "features/extractor.hpp"
#include "ml/random_forest.hpp"
#include "preprocess/select_kbest.hpp"
#include "telemetry/faults.hpp"
#include "telemetry/run_generator.hpp"

namespace alba {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MetricRegistry small_registry() {
  RegistryConfig cfg;
  cfg.cores = 1;
  cfg.nics = 1;
  cfg.filler_gauges = 1;
  return MetricRegistry(SystemKind::Volta, cfg);
}

// A raw series where every counter climbs and every gauge wiggles, so any
// corruption is visible.
Matrix ramp_series(const MetricRegistry& registry, std::size_t rows) {
  Matrix raw(rows, registry.size());
  for (std::size_t t = 0; t < rows; ++t) {
    for (std::size_t j = 0; j < registry.size(); ++j) {
      const bool counter = registry.metric(j).kind == MetricKind::Counter;
      raw(t, j) = counter
                      ? 100.0 * static_cast<double>(j + 1) +
                            10.0 * static_cast<double>(t)
                      : 5.0 + static_cast<double>(j) +
                            0.25 * static_cast<double>(t % 7);
    }
  }
  return raw;
}

// ------------------------------------------------------------- config ---

TEST(FaultConfig, DefaultIsDisabled) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  EXPECT_TRUE(production_faults().enabled());
}

TEST(FaultConfig, ScaledMultipliesAndClamps) {
  const FaultConfig base = production_faults();
  EXPECT_FALSE(base.scaled(0.0).enabled());
  const FaultConfig doubled = base.scaled(2.0);
  EXPECT_DOUBLE_EQ(doubled.nan_burst_rate, 2.0 * base.nan_burst_rate);
  EXPECT_DOUBLE_EQ(base.scaled(1e9).metric_dropout_rate, 1.0);
  EXPECT_EQ(doubled.nan_burst_len, base.nan_burst_len);
}

TEST(FaultConfig, InjectorRejectsBadConfig) {
  FaultConfig bad;
  bad.metric_dropout_rate = 1.5;
  EXPECT_THROW(TelemetryFaultInjector{bad}, Error);
  bad = FaultConfig{};
  bad.nan_burst_len = 0;
  EXPECT_THROW(TelemetryFaultInjector{bad}, Error);
  bad = FaultConfig{};
  bad.truncate_min_frac = 0.0;
  EXPECT_THROW(TelemetryFaultInjector{bad}, Error);
}

// ----------------------------------------------------------- injector ---

TEST(FaultInjector, DeterministicForSameStream) {
  const MetricRegistry registry = small_registry();
  const TelemetryFaultInjector injector(production_faults().scaled(3.0));
  Matrix a = ramp_series(registry, 50);
  Matrix b = ramp_series(registry, 50);
  Rng rng_a(77), rng_b(77);
  const FaultSummary sa = injector.apply(a, registry, rng_a);
  const FaultSummary sb = injector.apply(b, registry, rng_b);
  EXPECT_EQ(sa.cells_corrupted, sb.cells_corrupted);
  EXPECT_EQ(sa.total_events(), sb.total_events());
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t t = 0; t < a.rows(); ++t) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const bool both_nan = std::isnan(a(t, j)) && std::isnan(b(t, j));
      EXPECT_TRUE(both_nan || a(t, j) == b(t, j));
    }
  }
}

TEST(FaultInjector, DisabledConfigIsNoop) {
  const MetricRegistry registry = small_registry();
  const TelemetryFaultInjector injector(FaultConfig{});
  Matrix series = ramp_series(registry, 30);
  const Matrix original = series;
  Rng rng(5);
  const FaultSummary summary = injector.apply(series, registry, rng);
  EXPECT_EQ(summary.total_events(), 0u);
  EXPECT_EQ(summary.cells_corrupted, 0u);
  for (std::size_t t = 0; t < series.rows(); ++t) {
    for (std::size_t j = 0; j < series.cols(); ++j) {
      EXPECT_EQ(series(t, j), original(t, j));
    }
  }
}

TEST(FaultInjector, DropoutErasesWholeColumns) {
  const MetricRegistry registry = small_registry();
  FaultConfig cfg;
  cfg.metric_dropout_rate = 1.0;
  const TelemetryFaultInjector injector(cfg);
  Matrix series = ramp_series(registry, 25);
  Rng rng(3);
  const FaultSummary summary = injector.apply(series, registry, rng);
  EXPECT_EQ(summary.metric_dropouts, registry.size());
  EXPECT_EQ(summary.cells_corrupted, 25u * registry.size());
  for (std::size_t t = 0; t < series.rows(); ++t) {
    for (std::size_t j = 0; j < series.cols(); ++j) {
      EXPECT_TRUE(std::isnan(series(t, j)));
    }
  }
}

TEST(FaultInjector, StuckFreezesEveryColumnFromItsOnset) {
  const MetricRegistry registry = small_registry();
  FaultConfig cfg;
  cfg.stuck_rate = 1.0;
  const TelemetryFaultInjector injector(cfg);
  Matrix series = ramp_series(registry, 40);
  Rng rng(11);
  const FaultSummary summary = injector.apply(series, registry, rng);
  EXPECT_EQ(summary.stuck_metrics, registry.size());
  for (std::size_t j = 0; j < series.cols(); ++j) {
    // Some suffix of the column repeats a single held value.
    const double held = series(series.rows() - 1, j);
    std::size_t frozen = 0;
    for (std::size_t t = series.rows(); t-- > 0;) {
      if (series(t, j) != held) break;
      ++frozen;
    }
    EXPECT_GE(frozen, 1u) << "column " << j << " not frozen";
  }
}

TEST(FaultInjector, NanBurstIsBoundedAndCounted) {
  const MetricRegistry registry = small_registry();
  FaultConfig cfg;
  cfg.nan_burst_rate = 1.0;
  cfg.nan_burst_len = 5;
  const TelemetryFaultInjector injector(cfg);
  Matrix series = ramp_series(registry, 60);
  Rng rng(19);
  const FaultSummary summary = injector.apply(series, registry, rng);
  EXPECT_EQ(summary.nan_bursts, registry.size());
  std::size_t nan_cells = 0;
  for (std::size_t j = 0; j < series.cols(); ++j) {
    std::size_t col_nans = 0;
    for (std::size_t t = 0; t < series.rows(); ++t) {
      if (std::isnan(series(t, j))) ++col_nans;
    }
    EXPECT_GE(col_nans, 1u);
    EXPECT_LE(col_nans, 5u);
    nan_cells += col_nans;
  }
  EXPECT_EQ(summary.cells_corrupted, nan_cells);
}

TEST(FaultInjector, CounterResetMakesANegativeStepThatPreprocessClamps) {
  const MetricRegistry registry = small_registry();
  FaultConfig cfg;
  cfg.counter_reset_rate = 1.0;
  const TelemetryFaultInjector injector(cfg);
  Matrix series = ramp_series(registry, 30);
  Rng rng(23);
  const FaultSummary summary = injector.apply(series, registry, rng);

  std::size_t counters = 0;
  for (std::size_t j = 0; j < registry.size(); ++j) {
    if (registry.metric(j).kind != MetricKind::Counter) continue;
    ++counters;
    // The reset drops the cumulative value mid-run: a raw negative step.
    bool negative_step = false;
    for (std::size_t t = 1; t < series.rows(); ++t) {
      if (series(t, j) < series(t - 1, j)) negative_step = true;
    }
    EXPECT_TRUE(negative_step) << "counter " << j << " kept climbing";
  }
  ASSERT_GT(counters, 0u);
  EXPECT_EQ(summary.counter_resets, counters);

  // The preprocessing clamp turns the negative step into a zero rate, never
  // a negative one.
  PreprocessConfig pp;
  pp.trim_head = 2;
  pp.trim_tail = 2;
  const Matrix clean = preprocess_series(series, registry, pp);
  for (std::size_t j = 0; j < registry.size(); ++j) {
    if (registry.metric(j).kind != MetricKind::Counter) continue;
    for (std::size_t t = 0; t < clean.rows(); ++t) {
      EXPECT_GE(clean(t, j), 0.0);
    }
  }
}

TEST(FaultInjector, TruncationRespectsMinimumFraction) {
  const MetricRegistry registry = small_registry();
  FaultConfig cfg;
  cfg.truncate_prob = 1.0;
  cfg.truncate_min_frac = 0.5;
  const TelemetryFaultInjector injector(cfg);
  Matrix series = ramp_series(registry, 40);
  Rng rng(29);
  const FaultSummary summary = injector.apply(series, registry, rng);
  EXPECT_EQ(summary.truncated_runs, 1u);
  EXPECT_GE(series.rows(), 20u);  // >= min_frac * 40
  EXPECT_LT(series.rows(), 40u);
  EXPECT_EQ(summary.truncated_rows, 40u - series.rows());
}

TEST(FaultInjector, RowStallDuplicatesThePreviousScan) {
  const MetricRegistry registry = small_registry();
  FaultConfig cfg;
  cfg.row_stall_rate = 1.0;
  const TelemetryFaultInjector injector(cfg);
  Matrix series = ramp_series(registry, 15);
  Rng rng(31);
  const FaultSummary summary = injector.apply(series, registry, rng);
  EXPECT_EQ(summary.stalled_rows, 14u);
  // Every row stalled, so the whole series repeats row 0.
  for (std::size_t t = 1; t < series.rows(); ++t) {
    for (std::size_t j = 0; j < series.cols(); ++j) {
      EXPECT_EQ(series(t, j), series(0, j));
    }
  }
}

TEST(FaultInjector, RunGeneratorWiresFaultsIntoSamples) {
  RegistryConfig rcfg;
  rcfg.cores = 1;
  rcfg.nics = 1;
  rcfg.filler_gauges = 1;
  NodeSimConfig sim;
  sim.duration_steps = 40;
  sim.ramp_steps = 3;
  sim.drain_steps = 3;
  FaultConfig faults;
  faults.metric_dropout_rate = 1.0;
  const RunGenerator generator(SystemKind::Volta, rcfg, sim, faults);
  RunSpec spec;
  spec.nodes = 2;
  spec.seed = 9;
  const auto samples = generator.generate_run(spec);
  ASSERT_EQ(samples.size(), 2u);
  for (const Sample& s : samples) {
    EXPECT_EQ(s.faults.metric_dropouts, generator.registry().size());
  }
}

// ------------------------------------------------- robust preprocessing ---

TEST(RobustPreprocess, QuarantinesUnrepairableMetricsAndCountsRepairs) {
  const MetricRegistry registry = small_registry();
  Matrix raw = ramp_series(registry, 20);
  // Column 0: completely missing. Column 1: only two finite samples.
  for (std::size_t t = 0; t < 20; ++t) raw(t, 0) = kNaN;
  for (std::size_t t = 0; t < 20; ++t) raw(t, 1) = kNaN;
  raw(4, 1) = 1.0;
  raw(9, 1) = 2.0;
  // Column 2: three missing cells, repairable.
  raw(5, 2) = kNaN;
  raw(6, 2) = kNaN;
  raw(12, 2) = kNaN;

  PreprocessConfig cfg;
  cfg.trim_head = 2;
  cfg.trim_tail = 2;
  SeriesQuality quality;
  const Matrix clean = preprocess_series_robust(raw, registry, cfg, quality);

  ASSERT_TRUE(quality.usable);
  EXPECT_EQ(clean.rows(), 20u - 2u - 2u - 1u);
  ASSERT_EQ(quality.metric_ok.size(), registry.size());
  EXPECT_EQ(quality.metric_ok[0], 0);
  EXPECT_EQ(quality.metric_ok[1], 0);
  EXPECT_EQ(quality.metric_ok[2], 1);
  EXPECT_EQ(quality.metrics_quarantined, 2u);
  EXPECT_EQ(quality.cells_interpolated, 3u);
  for (std::size_t t = 0; t < clean.rows(); ++t) {
    EXPECT_EQ(clean(t, 0), 0.0);  // quarantined columns zero-filled
    EXPECT_EQ(clean(t, 1), 0.0);
    EXPECT_TRUE(std::isfinite(clean(t, 2)));
  }
}

TEST(RobustPreprocess, TooShortSeriesIsUnusableNotFatal) {
  const MetricRegistry registry = small_registry();
  const Matrix raw = ramp_series(registry, 5);
  PreprocessConfig cfg;  // default trim 6 + 5 > 5 rows
  SeriesQuality quality;
  const Matrix clean = preprocess_series_robust(raw, registry, cfg, quality);
  EXPECT_FALSE(quality.usable);
  EXPECT_EQ(clean.rows(), 0u);
  // The strict path throws on the same input.
  EXPECT_THROW(preprocess_series(raw, registry, cfg), Error);
}

TEST(RobustPreprocess, ConstantQuarantineIsGated) {
  const MetricRegistry registry = small_registry();
  Matrix raw = ramp_series(registry, 20);
  for (std::size_t t = 0; t < 20; ++t) raw(t, 0) = 42.0;  // stuck gauge

  PreprocessConfig cfg;
  cfg.trim_head = 2;
  cfg.trim_tail = 2;
  SeriesQuality quality;
  preprocess_series_robust(raw, registry, cfg, quality);
  EXPECT_EQ(quality.metric_ok[0], 1);  // off by default

  cfg.quarantine_constant = true;
  preprocess_series_robust(raw, registry, cfg, quality);
  EXPECT_EQ(quality.metric_ok[0], 0);
  EXPECT_GE(quality.metrics_quarantined, 1u);
}

TEST(RobustPreprocess, MatchesStrictPathOnCleanData) {
  const MetricRegistry registry = small_registry();
  const Matrix raw = ramp_series(registry, 30);
  PreprocessConfig cfg;
  cfg.trim_head = 3;
  cfg.trim_tail = 3;
  const Matrix strict = preprocess_series(raw, registry, cfg);
  SeriesQuality quality;
  const Matrix robust = preprocess_series_robust(raw, registry, cfg, quality);
  ASSERT_EQ(strict.rows(), robust.rows());
  for (std::size_t t = 0; t < strict.rows(); ++t) {
    for (std::size_t j = 0; j < strict.cols(); ++j) {
      EXPECT_EQ(strict(t, j), robust(t, j));
    }
  }
  EXPECT_EQ(quality.metrics_quarantined, 0u);
}

// --------------------------------------------------- robust extraction ---

class RobustExtractionTest : public ::testing::Test {
 protected:
  RobustExtractionTest() {
    RegistryConfig rcfg;
    rcfg.cores = 1;
    rcfg.nics = 1;
    rcfg.filler_gauges = 1;
    NodeSimConfig sim;
    sim.duration_steps = 40;
    sim.ramp_steps = 3;
    sim.drain_steps = 3;
    generator_ =
        std::make_unique<RunGenerator>(SystemKind::Volta, rcfg, sim);
    RunSpec spec;
    spec.nodes = 3;
    spec.seed = 21;
    samples_ = generator_->generate_run(spec);
    preprocess_.trim_head = 3;
    preprocess_.trim_tail = 3;
  }

  std::unique_ptr<RunGenerator> generator_;
  std::vector<Sample> samples_;
  PreprocessConfig preprocess_;
};

TEST_F(RobustExtractionTest, BitIdenticalToStrictOnCleanData) {
  const MvtsExtractor extractor;
  const FeatureMatrix strict = extract_features(
      samples_, generator_->registry(), extractor, preprocess_);
  ExtractionQuality quality;
  const FeatureMatrix robust = extract_features_robust(
      samples_, generator_->registry(), extractor, preprocess_, quality);

  ASSERT_EQ(strict.x.rows(), robust.x.rows());
  ASSERT_EQ(strict.x.cols(), robust.x.cols());
  for (std::size_t i = 0; i < strict.x.rows(); ++i) {
    for (std::size_t j = 0; j < strict.x.cols(); ++j) {
      const double a = strict.x(i, j);
      const double b = robust.x(i, j);
      EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b)))
          << "mismatch at (" << i << ", " << j << ")";
    }
  }
  EXPECT_EQ(strict.names, robust.names);
  EXPECT_EQ(strict.labels, robust.labels);
  EXPECT_EQ(quality.rows_dropped, 0u);
  EXPECT_EQ(quality.metrics_quarantined, 0u);
  EXPECT_EQ(quality.feature_failures, 0u);
}

TEST_F(RobustExtractionTest, DropsUnusableSamplesAndZeroFillsQuarantine) {
  // Sample 1: truncated below the trim window. Sample 2: first metric
  // erased entirely.
  samples_[1].series = Matrix(4, generator_->registry().size(), 1.0);
  for (std::size_t t = 0; t < samples_[2].series.rows(); ++t) {
    samples_[2].series(t, 0) = kNaN;
  }

  const MvtsExtractor extractor;
  ExtractionQuality quality;
  const FeatureMatrix fm = extract_features_robust(
      samples_, generator_->registry(), extractor, preprocess_, quality);

  EXPECT_EQ(quality.rows_dropped, 1u);
  ASSERT_EQ(quality.dropped_samples.size(), 1u);
  EXPECT_EQ(quality.dropped_samples[0], 1u);
  EXPECT_EQ(fm.num_samples(), samples_.size() - 1);
  EXPECT_GE(quality.metrics_quarantined, 1u);

  // The quarantined metric's feature block is neutral zero, not garbage.
  const std::size_t f = extractor.num_features();
  for (std::size_t k = 0; k < f; ++k) {
    EXPECT_EQ(fm.x(1, k), 0.0);  // row 1 is original sample 2
  }
  // Provenance survives the row drop.
  EXPECT_EQ(fm.node_ids[1], samples_[2].node_index);
}

TEST_F(RobustExtractionTest, ThrowsOnlyWhenNoSampleSurvives) {
  for (Sample& s : samples_) {
    s.series = Matrix(2, generator_->registry().size(), 1.0);
  }
  const MvtsExtractor extractor;
  ExtractionQuality quality;
  EXPECT_THROW(extract_features_robust(samples_, generator_->registry(),
                                       extractor, preprocess_, quality),
               Error);
}

// ---------------------------------------------------- degenerate columns ---

TEST(SelectKBestDegenerate, SkipsConstantAndNonFiniteColumns) {
  // 6 samples x 4 features: informative, constant, NaN-poisoned,
  // informative.
  Matrix x(6, 4, 0.0);
  const std::vector<int> y{0, 0, 0, 1, 1, 1};
  for (std::size_t i = 0; i < 6; ++i) {
    x(i, 0) = y[i] == 1 ? 2.0 : 0.25;
    x(i, 1) = 3.0;
    x(i, 2) = static_cast<double>(i);
    x(i, 3) = y[i] == 1 ? 0.1 : 1.5;
  }
  x(2, 2) = kNaN;

  SelectKBestChi2 selector(4);
  selector.fit(x, y);
  EXPECT_EQ(selector.degenerate_skipped(), 2u);
  ASSERT_EQ(selector.selected_indices().size(), 2u);
  for (const std::size_t j : selector.selected_indices()) {
    EXPECT_TRUE(j == 0 || j == 3);
  }
  const Matrix out = selector.transform(x);
  EXPECT_EQ(out.cols(), 2u);
}

TEST(SelectKBestDegenerate, AllDegenerateThrows) {
  Matrix x(4, 2, 1.0);  // both columns constant
  const std::vector<int> y{0, 0, 1, 1};
  SelectKBestChi2 selector(2);
  EXPECT_THROW(selector.fit(x, y), Error);
}

TEST(SelectKBestDegenerate, CleanMatrixUnaffected) {
  Matrix x(6, 3, 0.0);
  const std::vector<int> y{0, 1, 0, 1, 0, 1};
  Rng rng(13);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      x(i, j) = rng.uniform() + (y[i] == 1 ? 0.3 * static_cast<double>(j) : 0.0);
    }
  }
  SelectKBestChi2 selector(2);
  selector.fit(x, y);
  EXPECT_EQ(selector.degenerate_skipped(), 0u);
  EXPECT_EQ(selector.selected_indices().size(), 2u);
}

// ------------------------------------------------------ learner guard ---

TEST(LearnerPoolGuard, RejectsNonFinitePoolRowNamingTheSample) {
  const Matrix seed_x = Matrix::from_rows({{0.1, 0.9}, {0.8, 0.2}});
  LabeledData seed;
  seed.append(seed_x.row(0), 0);
  seed.append(seed_x.row(1), 1);

  Matrix pool = Matrix::from_rows({{0.2, 0.7}, {0.5, 0.5}, {0.9, 0.1}});
  pool(1, 1) = kNaN;
  LabelOracle oracle({0, 1, 1}, 2);
  const Matrix test_x = Matrix::from_rows({{0.3, 0.6}, {0.7, 0.3}});
  const std::vector<int> test_y{0, 1};

  ForestConfig fcfg;
  fcfg.num_classes = 2;
  fcfg.n_estimators = 3;
  ActiveLearnerConfig cfg;
  cfg.strategy = QueryStrategy::Uncertainty;
  cfg.max_queries = 2;
  ActiveLearner learner(std::make_unique<RandomForest>(fcfg, 1), cfg);

  try {
    learner.run(seed, pool, oracle, {}, test_x, test_y);
    FAIL() << "expected alba::Error on the NaN pool row";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("pool sample 1"), std::string::npos) << msg;
  }
}

// ------------------------------------------------- end-to-end pipeline ---

TEST(DegradedPipeline, CompletesAndAccountsForDegradation) {
  // The ISSUE's acceptance scenario: 20% metric dropout + 5% stuck
  // samplers, plus some truncation to exercise row drops.
  DatasetConfig cfg = tiny_config(SystemKind::Volta);
  cfg.faults.metric_dropout_rate = 0.20;
  cfg.faults.stuck_rate = 0.05;
  cfg.faults.truncate_prob = 0.30;
  cfg.faults.truncate_min_frac = 0.05;  // some runs fall below the trim

  const ExperimentData data = build_experiment_data(cfg);

  // Every generated sample is either in the matrix or accounted as dropped.
  const auto specs = make_collection_specs(cfg.system, cfg.num_apps,
                                           cfg.inputs_per_app, cfg.plan);
  std::size_t total_samples = 0;
  for (const RunSpec& spec : specs) {
    total_samples += static_cast<std::size_t>(spec.nodes);
  }
  EXPECT_EQ(data.features.num_samples() + data.quality.rows_dropped,
            total_samples);
  EXPECT_GT(data.quality.rows_dropped, 0u);  // deterministic: cfg.seed fixed

  // With ~20% of all metrics erased per sample, quarantines must at least
  // cover the dropouts that landed in surviving samples.
  EXPECT_GT(data.quality.faults.metric_dropouts, 0u);
  EXPECT_GE(data.quality.metrics_quarantined, 1u);
  for (std::size_t i = 0; i < data.features.x.rows(); ++i) {
    for (std::size_t j = 0; j < data.features.x.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(data.features.x(i, j)));
    }
  }

  // Split, select, and run a short active-learning loop without throwing.
  const SplitIndices split = make_split(data, cfg.test_fraction, 5);
  const PreparedSplit prepared = prepare_split(data, split, cfg.select_k);
  const ALSetup setup = make_al_setup(prepared, 17);

  ForestConfig fcfg;
  fcfg.num_classes = kNumClasses;
  fcfg.n_estimators = 8;
  fcfg.max_depth = 6;
  ActiveLearnerConfig lcfg;
  lcfg.strategy = QueryStrategy::Uncertainty;
  lcfg.max_queries = 5;
  ActiveLearner learner(std::make_unique<RandomForest>(fcfg, 2), lcfg);
  LabelOracle oracle(setup.pool_y, kNumClasses);
  const auto result = learner.run(setup.seed, setup.pool_x, oracle,
                                  setup.pool_app, setup.test_x, setup.test_y);
  EXPECT_EQ(result.curve.size(), 6u);
  EXPECT_GE(result.final_f1, 0.0);
}

TEST(DegradedPipeline, DisabledFaultsReportAllZero) {
  DatasetConfig cfg = tiny_config(SystemKind::Volta);
  const ExperimentData data = build_experiment_data(cfg);
  EXPECT_EQ(data.quality.faults.total_events(), 0u);
  EXPECT_EQ(data.quality.rows_dropped, 0u);
  EXPECT_EQ(data.quality.metrics_quarantined, 0u);
  EXPECT_EQ(data.quality.cells_interpolated, 0u);
  EXPECT_EQ(data.quality.feature_failures, 0u);
}

// Sweep labels are free-form text; an embedded comma or quote must be
// RFC-4180-quoted so the row parses back column-true.
TEST(DataQualityCsv, LabelWithCommaSurvivesParseBack) {
  DataQualityReport q;
  q.faults.metric_dropouts = 3;
  q.cells_interpolated = 240;
  q.columns_dropped = 41;
  const std::string tricky = "intensity=0.5,\"robust\"";

  const ScopedTempDir dir;
  const std::string path = dir.file("data_quality.csv");
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << data_quality_csv_header() << '\n'
        << data_quality_csv_row(tricky, q) << '\n';
  }
  const CsvTable table = read_csv(path);  // throws on ragged rows

  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0].size(), table.header.size());
  EXPECT_EQ(table.rows[0][table.column_index("label")], tricky);
  EXPECT_EQ(table.rows[0][table.column_index("metric_dropouts")], "3");
  EXPECT_EQ(table.rows[0][table.column_index("cells_interpolated")], "240");
  EXPECT_EQ(table.rows[0][table.column_index("columns_dropped")], "41");
}

}  // namespace
}  // namespace alba
