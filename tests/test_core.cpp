// Integration tests for the core layer: configs, the end-to-end pipeline,
// the Proctor baseline, the experiment runners, and report rendering — all
// on tiny configurations so the whole binary stays fast.
#include <gtest/gtest.h>

#include <set>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/temp_dir.hpp"
#include "core/experiments.hpp"
#include "core/proctor.hpp"
#include "core/report.hpp"

namespace alba {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Warn);
    config_ = new DatasetConfig(tiny_config());
    config_->num_apps = 3;
    config_->inputs_per_app = 2;
    config_->plan.intensities_per_type = 1;
    data_ = new ExperimentData(build_experiment_data(*config_));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete config_;
    data_ = nullptr;
    config_ = nullptr;
  }

  static DatasetConfig* config_;
  static ExperimentData* data_;
};

DatasetConfig* CoreTest::config_ = nullptr;
ExperimentData* CoreTest::data_ = nullptr;

// --------------------------------------------------------------- config ---

TEST(Config, PresetsMatchPaperChoices) {
  const DatasetConfig volta = volta_config();
  EXPECT_EQ(volta.system, SystemKind::Volta);
  EXPECT_EQ(volta.extractor, ExtractorKind::Tsfresh);
  EXPECT_EQ(volta.plan.nodes_per_run, 4);
  const DatasetConfig eclipse = eclipse_config();
  EXPECT_EQ(eclipse.system, SystemKind::Eclipse);
  EXPECT_EQ(eclipse.extractor, ExtractorKind::Mvts);
  // Full-scale configs are strictly larger.
  EXPECT_GT(volta_config(true).sim.duration_steps, volta.sim.duration_steps);
  EXPECT_GT(volta_config(true).select_k, volta.select_k);
}

// ------------------------------------------------------------- pipeline ---

TEST_F(CoreTest, BuildProducesLabeledFeatures) {
  EXPECT_GT(data_->features.num_samples(), 50u);
  EXPECT_GT(data_->features.num_features(), 100u);
  EXPECT_EQ(data_->num_apps, 3u);
  EXPECT_EQ(data_->app_names.size(), 3u);
  // All six classes present.
  std::set<int> classes(data_->features.labels.begin(),
                        data_->features.labels.end());
  EXPECT_EQ(classes.size(), static_cast<std::size_t>(kNumClasses));
}

TEST_F(CoreTest, PrepareSplitScalesAndSelects) {
  const SplitIndices split = make_split(*data_, 0.3, 1);
  const PreparedSplit prep = prepare_split(*data_, split, 40);
  EXPECT_EQ(prep.train_x.cols(), 40u);
  EXPECT_EQ(prep.test_x.cols(), 40u);
  EXPECT_EQ(prep.selected_names.size(), 40u);
  EXPECT_EQ(prep.train_x.rows(), split.train.size());
  // Min-Max scaled: all values in [0, 1].
  for (std::size_t i = 0; i < prep.train_x.rows(); ++i) {
    for (const double v : prep.train_x.row(i)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
  for (std::size_t i = 0; i < prep.test_x.rows(); ++i) {
    for (const double v : prep.test_x.row(i)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST_F(CoreTest, AlSetupSeedsOnePerAppAnomalyPair) {
  const SplitIndices split = make_split(*data_, 0.3, 2);
  const PreparedSplit prep = prepare_split(*data_, split, 40);
  const ALSetup setup = make_al_setup(prep, 3);
  // Up to 3 apps × 5 anomaly types; the tiny config has so few anomalous
  // samples that a pair can land entirely in the test partition, so the
  // seed may be slightly smaller — but never contains healthy samples and
  // never repeats an (app, anomaly) pair.
  EXPECT_LE(setup.seed.size(), 15u);
  EXPECT_GE(setup.seed.size(), 10u);
  for (const int label : setup.seed.y) EXPECT_NE(label, 0);
  std::set<std::pair<int, int>> pairs;
  for (const std::size_t row : setup.seed_rows) {
    pairs.insert({prep.train_app[row], prep.train_y[row]});
  }
  EXPECT_EQ(pairs.size(), setup.seed.size());
  // Pool + seed = training partition.
  EXPECT_EQ(setup.pool_x.rows() + setup.seed.size(), prep.train_x.rows());
  EXPECT_EQ(setup.pool_y.size(), setup.pool_x.rows());
  EXPECT_EQ(setup.pool_app.size(), setup.pool_x.rows());
}

TEST_F(CoreTest, AlSetupSeedAppsRestriction) {
  const SplitIndices split = make_split(*data_, 0.3, 4);
  const PreparedSplit prep = prepare_split(*data_, split, 40);
  const std::vector<int> seed_apps{1};
  const ALSetup setup = make_al_setup(prep, 5, seed_apps);
  EXPECT_LE(setup.seed.size(), 5u);  // one app × up to five anomalies
  EXPECT_GE(setup.seed.size(), 3u);
  for (const std::size_t row : setup.seed_rows) {
    EXPECT_EQ(prep.train_app[row], 1);
  }
  // Pool still spans all applications.
  std::set<int> pool_apps(setup.pool_app.begin(), setup.pool_app.end());
  EXPECT_EQ(pool_apps.size(), 3u);
}

// -------------------------------------------------------------- proctor ---

TEST_F(CoreTest, ProctorNeedsPretraining) {
  ProctorConfig cfg;
  cfg.num_classes = kNumClasses;
  cfg.autoencoder.epochs = 2;
  ProctorClassifier proctor(cfg, 1);
  Matrix x(4, 10, 0.5);
  const std::vector<int> y{1, 2, 3, 4};
  EXPECT_THROW(proctor.fit(x, y), Error);
}

TEST_F(CoreTest, ProctorFitsAfterPretraining) {
  const SplitIndices split = make_split(*data_, 0.3, 6);
  const PreparedSplit prep = prepare_split(*data_, split, 30);
  const ALSetup setup = make_al_setup(prep, 7);

  ProctorConfig cfg;
  cfg.num_classes = kNumClasses;
  cfg.autoencoder.encoder_layers = {32};
  cfg.autoencoder.code_size = 8;
  cfg.autoencoder.epochs = 4;
  cfg.head.max_iter = 80;
  ProctorClassifier proctor(cfg, 1);
  proctor.pretrain(setup.pool_x);
  EXPECT_TRUE(proctor.pretrained());

  LabeledData all = setup.seed;
  for (std::size_t i = 0; i < setup.pool_x.rows(); ++i) {
    all.append(setup.pool_x.row(i), setup.pool_y[i]);
  }
  proctor.fit(all.x, all.y);
  EXPECT_TRUE(proctor.fitted());
  const Matrix probs = proctor.predict_proba(setup.test_x);
  EXPECT_EQ(probs.cols(), static_cast<std::size_t>(kNumClasses));
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    double sum = 0.0;
    for (const double p : probs.row(i)) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_F(CoreTest, ProctorCloneSharesEncoder) {
  ProctorConfig cfg;
  cfg.num_classes = kNumClasses;
  cfg.autoencoder.encoder_layers = {16};
  cfg.autoencoder.code_size = 4;
  cfg.autoencoder.epochs = 2;
  ProctorClassifier proctor(cfg, 1);
  Matrix x(20, 12, 0.3);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, i % 12) = 0.9;
  }
  proctor.pretrain(x);
  auto clone = proctor.clone();
  auto* cloned = dynamic_cast<ProctorClassifier*>(clone.get());
  ASSERT_NE(cloned, nullptr);
  EXPECT_TRUE(cloned->pretrained());
  EXPECT_EQ(&cloned->encoder(), &proctor.encoder());
}

// ---------------------------------------------------------- experiments ---

TEST_F(CoreTest, QueryCurveExperimentShapes) {
  ExperimentOptions opt;
  opt.max_queries = 8;
  opt.repeats = 2;
  opt.methods = {"uncertainty", "random"};
  const QueryCurveResult result = run_query_curve_experiment(*data_, opt);
  ASSERT_EQ(result.methods.size(), 2u);
  for (const auto& m : result.methods) {
    EXPECT_EQ(m.repeats.size(), 2u);
    EXPECT_EQ(m.aggregated.queries.size(), 9u);  // 0..8
    EXPECT_EQ(m.queried_label_app.size(), 16u);  // 8 queries × 2 repeats
  }
  EXPECT_GT(result.al_train_size, 0u);
  EXPECT_GE(result.full_train_f1, 0.0);
  EXPECT_LE(result.cv_max_f1, 1.0);
}

TEST_F(CoreTest, Table5SummaryFromResult) {
  ExperimentOptions opt;
  opt.max_queries = 5;
  opt.repeats = 2;
  opt.methods = {"uncertainty"};
  const QueryCurveResult result = run_query_curve_experiment(*data_, opt);
  const Table5Row row = summarize_table5(*data_, result, "uncertainty");
  EXPECT_EQ(row.dataset, "volta");
  EXPECT_EQ(row.initial_samples, 15u);  // 3 apps × 5 anomalies
  EXPECT_EQ(row.query_strategy, "uncertainty");
  EXPECT_THROW(summarize_table5(*data_, result, "margin"), Error);
  const std::string rendered = render_table5({row});
  EXPECT_NE(rendered.find("volta"), std::string::npos);
}

TEST_F(CoreTest, QueryDistributionCountsAddUp) {
  ExperimentOptions opt;
  opt.repeats = 2;
  opt.methods = {"uncertainty"};
  const QueryDistribution dist = run_query_distribution(*data_, 10, opt);
  EXPECT_EQ(dist.first_n, 10);
  double total = 0.0;
  for (const double v : dist.label_totals) total += v;
  EXPECT_NEAR(total, 10.0, 1e-9);  // mean queries per repeat
  const std::string rendered = render_query_distribution(dist);
  EXPECT_NE(rendered.find("healthy"), std::string::npos);
}

TEST_F(CoreTest, UnseenAppsScenarios) {
  ExperimentOptions opt;
  opt.max_queries = 5;
  opt.repeats = 2;
  opt.methods = {"uncertainty", "random"};
  const auto scenarios = run_unseen_apps_experiment(*data_, {1, 2}, opt);
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].train_apps, 1);
  EXPECT_EQ(scenarios[1].train_apps, 2);
  for (const auto& s : scenarios) {
    ASSERT_EQ(s.methods.size(), 2u);
    EXPECT_EQ(s.methods[0].aggregated.queries.size(), 6u);
  }
}

TEST_F(CoreTest, RobustnessExperimentShapes) {
  ExperimentOptions opt;
  opt.repeats = 2;
  const RobustnessResult result =
      run_robustness_experiment(*data_, {1, 2}, 1, opt);
  ASSERT_EQ(result.points.size(), 2u);
  for (const auto& p : result.points) {
    EXPECT_GE(p.f1_mean, 0.0);
    EXPECT_LE(p.f1_mean, 1.0);
    EXPECT_LE(p.f1_lo, p.f1_mean);
    EXPECT_GE(p.f1_hi, p.f1_mean);
  }
  EXPECT_GT(result.cv_f1, 0.0);
  const std::string rendered = render_robustness(result);
  EXPECT_NE(rendered.find("train apps"), std::string::npos);
}

TEST_F(CoreTest, UnseenInputsExperiment) {
  ExperimentOptions opt;
  opt.max_queries = 5;
  opt.repeats = 2;
  opt.methods = {"uncertainty", "random"};
  const UnseenInputsResult result =
      run_unseen_inputs_experiment(*data_, opt);
  ASSERT_EQ(result.methods.size(), 2u);
  EXPECT_EQ(result.methods[0].repeats.size(), 2u);
  EXPECT_GE(result.starting_f1, 0.0);
  EXPECT_GE(result.full_train_f1, 0.0);
}

TEST_F(CoreTest, ReportRenderingAndCsv) {
  ExperimentOptions opt;
  opt.max_queries = 4;
  opt.repeats = 2;
  opt.methods = {"uncertainty", "random"};
  const QueryCurveResult result = run_query_curve_experiment(*data_, opt);
  const std::string text = render_query_curves(result.methods, 2);
  EXPECT_NE(text.find("uncertainty F1"), std::string::npos);
  EXPECT_NE(text.find("legend"), std::string::npos);

  const ScopedTempDir dir;
  const std::string path = dir.file("curves.csv");
  write_curves_csv(path, result.methods);
  const CsvTable table = read_csv(path);
  EXPECT_EQ(table.header.size(), 11u);
  EXPECT_EQ(table.rows.size(), 2u * 5u);  // 2 methods × (0..4)
}

TEST_F(CoreTest, ExperimentsDeterministic) {
  ExperimentOptions opt;
  opt.max_queries = 4;
  opt.repeats = 1;
  opt.methods = {"uncertainty"};
  opt.seed = 123;
  const auto a = run_query_curve_experiment(*data_, opt);
  const auto b = run_query_curve_experiment(*data_, opt);
  ASSERT_EQ(a.methods[0].aggregated.f1_mean.size(),
            b.methods[0].aggregated.f1_mean.size());
  for (std::size_t i = 0; i < a.methods[0].aggregated.f1_mean.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.methods[0].aggregated.f1_mean[i],
                     b.methods[0].aggregated.f1_mean[i]);
  }
}

}  // namespace
}  // namespace alba
