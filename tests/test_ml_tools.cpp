// Tests for grid search (incl. the Table IV spaces/factories) and binary
// model serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "ml/gbm.hpp"
#include "ml/grid_search.hpp"
#include "ml/logreg.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "temp_dir.hpp"

namespace alba {
namespace {

struct Blobs {
  Matrix x;
  std::vector<int> y;
};

Blobs make_blobs(std::size_t per_class, double spread, std::uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {4.0, 4.0}, {0.0, 4.0}};
  Blobs blobs;
  blobs.x = Matrix(3 * per_class, 2);
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = static_cast<std::size_t>(c) * per_class + i;
      blobs.x(row, 0) = centers[c][0] + spread * rng.normal();
      blobs.x(row, 1) = centers[c][1] + spread * rng.normal();
      blobs.y.push_back(c);
    }
  }
  return blobs;
}

// ---------------------------------------------------------- grid search ---

TEST(GridSearch, EnumerateGridCartesianProduct) {
  const ParamGrid grid{{"a", {"1", "2"}}, {"b", {"x", "y", "z"}}};
  const auto combos = enumerate_grid(grid);
  EXPECT_EQ(combos.size(), 6u);
  // Every combination distinct.
  std::set<std::string> keys;
  for (const auto& p : combos) keys.insert(p.at("a") + p.at("b"));
  EXPECT_EQ(keys.size(), 6u);
}

TEST(GridSearch, EmptyGridIsSingleCombo) {
  EXPECT_EQ(enumerate_grid({}).size(), 1u);
}

TEST(GridSearch, PicksObviouslyBetterParams) {
  // Overlapping blobs: a single tree clearly loses to a 25-tree forest.
  const Blobs blobs = make_blobs(40, 1.8, 1);
  const ParamGrid grid{{"n_estimators", {"1", "25"}},
                       {"max_depth", {"None"}},
                       {"criterion", {"gini"}}};
  const auto factory = make_model_factory("rf", 3, 7);
  const auto result = grid_search_cv(factory, grid, blobs.x, blobs.y, 3, 5);
  EXPECT_EQ(result.best_params.at("n_estimators"), "25");
  EXPECT_EQ(result.entries.size(), 2u);
  EXPECT_GE(result.best_score, result.entries[0].mean_score);
  EXPECT_GE(result.best_score, result.entries[1].mean_score);
}

TEST(GridSearch, EntryScoresBoundedAndOrdered) {
  const Blobs blobs = make_blobs(20, 1.0, 2);
  const ParamGrid grid{{"C", {"0.01", "1.0"}}, {"penalty", {"l2"}}};
  const auto factory = make_model_factory("lr", 3, 7);
  const auto result = grid_search_cv(factory, grid, blobs.x, blobs.y, 3, 5);
  for (const auto& e : result.entries) {
    EXPECT_GE(e.mean_score, 0.0);
    EXPECT_LE(e.mean_score, 1.0);
    EXPECT_GE(e.std_score, 0.0);
    EXPECT_LE(result.best_score, 1.0);
    EXPECT_GE(result.best_score, e.mean_score - 1e-12);
  }
}

TEST(GridSearch, ParallelBitIdenticalToSerial) {
  const Blobs blobs = make_blobs(30, 1.2, 9);
  const ParamGrid grid{{"n_estimators", {"5", "15"}},
                       {"max_depth", {"4", "8"}}};
  const auto factory = make_model_factory("rf", 3, 21);
  const auto par = grid_search_cv(factory, grid, blobs.x, blobs.y, 3, 5);
  const auto ser = grid_search_cv_serial(factory, grid, blobs.x, blobs.y, 3, 5);
  EXPECT_EQ(par.best_params, ser.best_params);
  EXPECT_DOUBLE_EQ(par.best_score, ser.best_score);
  ASSERT_EQ(par.entries.size(), ser.entries.size());
  for (std::size_t i = 0; i < par.entries.size(); ++i) {
    EXPECT_EQ(par.entries[i].params, ser.entries[i].params);
    EXPECT_DOUBLE_EQ(par.entries[i].mean_score, ser.entries[i].mean_score);
    EXPECT_DOUBLE_EQ(par.entries[i].std_score, ser.entries[i].std_score);
  }
}

TEST(GridSearch, SurvivesFoldMissingAClass) {
  // One singleton class: with 3 folds two of them never see label 3 in
  // training and two never see it in test. The pinned class count must
  // keep every fold's macro-F1 dimensions consistent instead of throwing
  // or scoring against a shrunken label set.
  Blobs blobs = make_blobs(12, 0.8, 10);
  blobs.x.append_row(std::vector<double>{9.0, -9.0});
  blobs.y.push_back(3);
  const ParamGrid grid{{"n_estimators", {"5"}}};
  const auto factory = make_model_factory("rf", 4, 13);
  const auto result = grid_search_cv(factory, grid, blobs.x, blobs.y, 3, 5);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_GT(result.entries[0].mean_score, 0.0);
  EXPECT_LE(result.entries[0].mean_score, 1.0);
  const auto serial =
      grid_search_cv_serial(factory, grid, blobs.x, blobs.y, 3, 5);
  EXPECT_DOUBLE_EQ(result.entries[0].mean_score,
                   serial.entries[0].mean_score);
}

TEST(GridSearch, ReportsPerComboWallTime) {
  const Blobs blobs = make_blobs(20, 1.0, 11);
  const ParamGrid grid{{"n_estimators", {"2", "20"}}};
  const auto factory = make_model_factory("rf", 3, 17);
  const auto result = grid_search_cv(factory, grid, blobs.x, blobs.y, 3, 5);
  for (const auto& entry : result.entries) {
    EXPECT_GT(entry.wall_ms, 0.0);
  }
}

TEST(Table4, GridsMatchPaperSizes) {
  EXPECT_EQ(enumerate_grid(table4_grid("lr")).size(), 2u * 5u);
  EXPECT_EQ(enumerate_grid(table4_grid("rf")).size(), 5u * 5u * 2u);
  EXPECT_EQ(enumerate_grid(table4_grid("lgbm")).size(), 4u * 3u * 3u * 2u);
  EXPECT_EQ(enumerate_grid(table4_grid("mlp")).size(), 4u * 3u * 3u);
  EXPECT_THROW(table4_grid("svm"), Error);
}

TEST(Table4, OptimaAreInsideTheirGrids) {
  for (const auto& model : model_names()) {
    const auto grid = table4_grid(model);
    for (const bool eclipse : {false, true}) {
      const ParamSet opt = table4_optimum(model, eclipse);
      for (const auto& [key, value] : opt) {
        bool found_key = false;
        for (const auto& [gkey, gvalues] : grid) {
          if (gkey != key) continue;
          found_key = true;
          EXPECT_NE(std::find(gvalues.begin(), gvalues.end(), value),
                    gvalues.end())
              << model << "." << key << "=" << value;
        }
        EXPECT_TRUE(found_key) << model << "." << key;
      }
    }
  }
}

TEST(Table4, FactoriesBuildWorkingModels) {
  const Blobs blobs = make_blobs(25, 0.5, 3);
  for (const auto& model : model_names()) {
    const auto factory = make_model_factory(model, 3, 11);
    ParamSet params = table4_optimum(model, false);
    if (model == "mlp") params["max_iter"] = "40";  // keep the test fast
    auto clf = factory(params);
    clf->fit(blobs.x, blobs.y);
    EXPECT_GT(accuracy(blobs.y, clf->predict(blobs.x)), 0.85) << model;
  }
  EXPECT_THROW(make_model_factory("nope", 3, 1), Error);
}

TEST(Table4, FactoryValidatesValues) {
  const auto factory = make_model_factory("lr", 3, 1);
  EXPECT_THROW(factory({{"penalty", "l3"}}), Error);
  const auto rf_factory = make_model_factory("rf", 3, 1);
  EXPECT_THROW(rf_factory({{"criterion", "mse"}}), Error);
}

// ------------------------------------------------------------ serialize ---

TEST(Serialize, ArchiveRoundTripPrimitives) {
  std::stringstream ss;
  {
    ArchiveWriter w(ss);
    w.write_u64(42);
    w.write_i64(-7);
    w.write_double(3.25);
    w.write_string("hello world");
    w.write_doubles({1.5, -2.5});
    w.write_ints({3, -4, 5});
    Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
    w.write_matrix(m);
  }
  ArchiveReader r(ss);
  EXPECT_EQ(r.read_u64(), 42u);
  EXPECT_EQ(r.read_i64(), -7);
  EXPECT_DOUBLE_EQ(r.read_double(), 3.25);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_doubles(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(r.read_ints(), (std::vector<int>{3, -4, 5}));
  const Matrix m = r.read_matrix();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Serialize, TruncatedArchiveThrows) {
  std::stringstream ss;
  {
    ArchiveWriter w(ss);
    w.write_u64(1);
  }
  ArchiveReader r(ss);
  r.read_u64();
  EXPECT_THROW(r.read_u64(), Error);
}

// Parameterized roundtrip across all four model types: the restored model
// must produce bit-identical probabilities.
class SerializeRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(SerializeRoundTrip, PredictionsSurviveRoundTrip) {
  const Blobs blobs = make_blobs(25, 0.8, 4);
  const auto factory = make_model_factory(GetParam(), 3, 17);
  ParamSet params = table4_optimum(GetParam(), false);
  if (GetParam() == "mlp") params["max_iter"] = "25";
  auto model = factory(params);
  model->fit(blobs.x, blobs.y);
  const Matrix before = model->predict_proba(blobs.x);

  std::stringstream ss;
  save_classifier(ss, *model);
  auto restored = load_classifier(ss);
  ASSERT_TRUE(restored->fitted());
  EXPECT_EQ(restored->name(), model->name());
  const Matrix after = restored->predict_proba(blobs.x);
  ASSERT_TRUE(before.same_shape(after));
  for (std::size_t i = 0; i < before.rows(); ++i) {
    for (std::size_t j = 0; j < before.cols(); ++j) {
      EXPECT_DOUBLE_EQ(before(i, j), after(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, SerializeRoundTrip,
                         ::testing::Values("rf", "lr", "lgbm", "mlp"));

TEST(Serialize, RefusesUnfittedModel) {
  RandomForest rf(ForestConfig{.num_classes = 2}, 1);
  std::stringstream ss;
  EXPECT_THROW(save_classifier(ss, rf), Error);
}

TEST(Serialize, RejectsGarbageStream) {
  std::stringstream ss("this is not a model archive, definitely not");
  EXPECT_THROW(load_classifier(ss), Error);
}

TEST(Serialize, FileRoundTrip) {
  const Blobs blobs = make_blobs(10, 0.5, 5);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 5;
  RandomForest rf(cfg, 1);
  rf.fit(blobs.x, blobs.y);
  const ScopedTempDir dir;
  const std::string path = dir.file("model.bin");
  save_classifier_file(path, rf);
  auto restored = load_classifier_file(path);
  EXPECT_EQ(restored->predict(blobs.x), rf.predict(blobs.x));
  EXPECT_THROW(load_classifier_file("/nonexistent/model.bin"), Error);
}

}  // namespace
}  // namespace alba
