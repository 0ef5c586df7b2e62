// Tests for the tree-based models: CART decision tree, random forest, and
// the LightGBM-style gradient boosting classifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbm.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace alba {
namespace {

// Three well-separated Gaussian blobs in 2D.
struct Blobs {
  Matrix x;
  std::vector<int> y;
};

Blobs make_blobs(std::size_t per_class, double spread, std::uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {5.0, 5.0}, {0.0, 5.0}};
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

TreeConfig blob_tree_config() {
  TreeConfig cfg;
  cfg.num_classes = 3;
  return cfg;
}

// ---------------------------------------------------------------- tree ---

TEST(DecisionTree, PerfectlyFitsTrainingData) {
  const Blobs blobs = make_blobs(30, 0.4, 1);
  DecisionTree tree(blob_tree_config(), 1);
  tree.fit(blobs.x, blobs.y);
  EXPECT_DOUBLE_EQ(accuracy(blobs.y, tree.predict(blobs.x)), 1.0);
}

TEST(DecisionTree, GeneralizesOnSeparatedBlobs) {
  const Blobs train = make_blobs(50, 0.5, 2);
  const Blobs test = make_blobs(30, 0.5, 3);
  DecisionTree tree(blob_tree_config(), 1);
  tree.fit(train.x, train.y);
  EXPECT_GT(accuracy(test.y, tree.predict(test.x)), 0.95);
}

TEST(DecisionTree, MaxDepthLimitsDepth) {
  const Blobs blobs = make_blobs(50, 1.5, 4);
  TreeConfig cfg = blob_tree_config();
  cfg.max_depth = 2;
  DecisionTree tree(cfg, 1);
  tree.fit(blobs.x, blobs.y);
  EXPECT_LE(tree.depth(), 2);
  EXPECT_LE(tree.leaf_count(), 4u);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const Blobs blobs = make_blobs(20, 1.0, 5);
  TreeConfig cfg = blob_tree_config();
  cfg.min_samples_leaf = 10;
  DecisionTree tree(cfg, 1);
  tree.fit(blobs.x, blobs.y);
  // Every leaf distribution must be built from >= 10 samples; with 60
  // samples that caps leaves at 6.
  EXPECT_LE(tree.leaf_count(), 6u);
}

TEST(DecisionTree, PureDataYieldsSingleLeaf) {
  Matrix x = Matrix::from_rows({{1.0}, {2.0}, {3.0}});
  const std::vector<int> y{1, 1, 1};
  TreeConfig cfg;
  cfg.num_classes = 2;
  DecisionTree tree(cfg, 1);
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  const Matrix probs = tree.predict_proba(x);
  EXPECT_DOUBLE_EQ(probs(0, 1), 1.0);
}

TEST(DecisionTree, ProbabilitiesAreLeafFrequencies) {
  // One feature, mixed leaf when depth = 0 is forced by constant feature.
  Matrix x = Matrix::from_rows({{1.0}, {1.0}, {1.0}, {1.0}});
  const std::vector<int> y{0, 0, 0, 1};
  TreeConfig cfg;
  cfg.num_classes = 2;
  DecisionTree tree(cfg, 1);
  tree.fit(x, y);
  const Matrix probs = tree.predict_proba(x);
  EXPECT_DOUBLE_EQ(probs(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(probs(0, 1), 0.25);
}

TEST(DecisionTree, EntropyAndGiniBothLearn) {
  const Blobs blobs = make_blobs(40, 0.5, 6);
  for (const auto criterion : {SplitCriterion::Gini, SplitCriterion::Entropy}) {
    TreeConfig cfg = blob_tree_config();
    cfg.criterion = criterion;
    DecisionTree tree(cfg, 1);
    tree.fit(blobs.x, blobs.y);
    EXPECT_GT(accuracy(blobs.y, tree.predict(blobs.x)), 0.97);
  }
}

TEST(DecisionTree, DeterministicForSeed) {
  const Blobs blobs = make_blobs(30, 1.0, 7);
  TreeConfig cfg = blob_tree_config();
  cfg.max_features = 1;  // force feature subsampling randomness
  DecisionTree t1(cfg, 42);
  DecisionTree t2(cfg, 42);
  t1.fit(blobs.x, blobs.y);
  t2.fit(blobs.x, blobs.y);
  EXPECT_EQ(t1.predict(blobs.x), t2.predict(blobs.x));
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree(blob_tree_config(), 1);
  Matrix x(1, 2, 0.0);
  EXPECT_THROW(tree.predict_proba(x), Error);
}

TEST(DecisionTree, RejectsBadLabels) {
  Matrix x(2, 1, 0.0);
  const std::vector<int> y{0, 5};
  TreeConfig cfg;
  cfg.num_classes = 3;
  DecisionTree tree(cfg, 1);
  EXPECT_THROW(tree.fit(x, y), Error);
}

TEST(DecisionTree, CloneIsUnfittedWithSameConfig) {
  DecisionTree tree(blob_tree_config(), 9);
  auto clone = tree.clone();
  EXPECT_FALSE(clone->fitted());
  EXPECT_EQ(clone->num_classes(), 3);
}

// --------------------------------------------------------------- forest ---

TEST(RandomForest, LearnsBlobs) {
  const Blobs train = make_blobs(60, 0.8, 8);
  const Blobs test = make_blobs(30, 0.8, 9);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 30;
  RandomForest rf(cfg, 1);
  rf.fit(train.x, train.y);
  EXPECT_GT(accuracy(test.y, rf.predict(test.x)), 0.95);
}

TEST(RandomForest, ProbabilityRowsSumToOne) {
  const Blobs blobs = make_blobs(20, 1.0, 10);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 10;
  RandomForest rf(cfg, 2);
  rf.fit(blobs.x, blobs.y);
  const Matrix probs = rf.predict_proba(blobs.x);
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    double sum = 0.0;
    for (const double p : probs.row(i)) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForest, DeterministicAcrossRuns) {
  const Blobs blobs = make_blobs(40, 1.2, 11);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 15;
  RandomForest a(cfg, 7);
  RandomForest b(cfg, 7);
  a.fit(blobs.x, blobs.y);
  b.fit(blobs.x, blobs.y);
  const Matrix pa = a.predict_proba(blobs.x);
  const Matrix pb = b.predict_proba(blobs.x);
  for (std::size_t i = 0; i < pa.rows(); ++i) {
    for (std::size_t j = 0; j < pa.cols(); ++j) {
      EXPECT_DOUBLE_EQ(pa(i, j), pb(i, j));
    }
  }
}

TEST(RandomForest, DifferentSeedsGiveDifferentForests) {
  const Blobs blobs = make_blobs(40, 1.5, 12);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 5;
  RandomForest a(cfg, 1);
  RandomForest b(cfg, 2);
  a.fit(blobs.x, blobs.y);
  b.fit(blobs.x, blobs.y);
  const Matrix pa = a.predict_proba(blobs.x);
  const Matrix pb = b.predict_proba(blobs.x);
  bool any_diff = false;
  for (std::size_t i = 0; i < pa.rows() && !any_diff; ++i) {
    for (std::size_t j = 0; j < pa.cols(); ++j) {
      if (pa(i, j) != pb(i, j)) any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomForest, TreeCountMatchesConfig) {
  const Blobs blobs = make_blobs(10, 1.0, 13);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 7;
  RandomForest rf(cfg, 1);
  rf.fit(blobs.x, blobs.y);
  EXPECT_EQ(rf.trees().size(), 7u);
}

TEST(RandomForest, UnseenClassGetsZeroProbability) {
  // Training data lacks class 0 (the ALBADross seed-set situation).
  const Blobs blobs = make_blobs(20, 0.5, 14);
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < blobs.y.size(); ++i) {
    if (blobs.y[i] != 0) keep.push_back(i);
  }
  const Matrix x = blobs.x.select_rows(keep);
  std::vector<int> y;
  for (const auto i : keep) y.push_back(blobs.y[i]);

  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 10;
  RandomForest rf(cfg, 1);
  rf.fit(x, y);
  const Matrix probs = rf.predict_proba(x);
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    EXPECT_DOUBLE_EQ(probs(i, 0), 0.0);
  }
}

// ------------------------------------------------------------------ gbm ---

TEST(Gbm, LearnsBlobs) {
  const Blobs train = make_blobs(60, 0.8, 15);
  const Blobs test = make_blobs(30, 0.8, 16);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 30;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(train.x, train.y);
  EXPECT_GT(accuracy(test.y, gbm.predict(test.x)), 0.95);
}

TEST(Gbm, ProbabilitiesSumToOne) {
  const Blobs blobs = make_blobs(20, 1.0, 17);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 10;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(blobs.x, blobs.y);
  const Matrix probs = gbm.predict_proba(blobs.x);
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    double sum = 0.0;
    for (const double p : probs.row(i)) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Gbm, NumLeavesCapsTreeSize) {
  const Blobs blobs = make_blobs(80, 2.5, 18);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 3;
  cfg.num_leaves = 4;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(blobs.x, blobs.y);
  for (const auto& round : gbm.rounds()) {
    for (const auto& tree : round) {
      std::size_t leaves = 0;
      for (const auto& node : tree.nodes) leaves += (node.feature < 0) ? 1 : 0;
      EXPECT_LE(leaves, 4u);
    }
  }
}

TEST(Gbm, MoreRoundsImproveTrainingFit) {
  const Blobs blobs = make_blobs(50, 2.0, 19);
  GbmConfig weak;
  weak.num_classes = 3;
  weak.n_estimators = 1;
  weak.num_leaves = 3;
  GbmConfig strong = weak;
  strong.n_estimators = 40;
  strong.num_leaves = 16;
  GbmClassifier a(weak, 1);
  GbmClassifier b(strong, 1);
  a.fit(blobs.x, blobs.y);
  b.fit(blobs.x, blobs.y);
  EXPECT_GE(accuracy(blobs.y, b.predict(blobs.x)),
            accuracy(blobs.y, a.predict(blobs.x)));
}

TEST(Gbm, ColsampleRestrictsFeatures) {
  // With colsample ~ 0, each tree sees 1 of 2 features; still learns some.
  const Blobs blobs = make_blobs(50, 0.5, 20);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 20;
  cfg.colsample_bytree = 0.5;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(blobs.x, blobs.y);
  EXPECT_GT(accuracy(blobs.y, gbm.predict(blobs.x)), 0.9);
}

TEST(Gbm, MaxDepthRespected) {
  const Blobs blobs = make_blobs(60, 2.0, 21);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 2;
  cfg.max_depth = 2;
  cfg.num_leaves = 64;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(blobs.x, blobs.y);
  // Depth-2 trees have at most 4 leaves / 7 nodes.
  for (const auto& round : gbm.rounds()) {
    for (const auto& tree : round) EXPECT_LE(tree.nodes.size(), 7u);
  }
}

TEST(Gbm, DeterministicForSeed) {
  const Blobs blobs = make_blobs(30, 1.0, 22);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 5;
  cfg.colsample_bytree = 0.5;
  GbmClassifier a(cfg, 3);
  GbmClassifier b(cfg, 3);
  a.fit(blobs.x, blobs.y);
  b.fit(blobs.x, blobs.y);
  const Matrix pa = a.predict_proba(blobs.x);
  const Matrix pb = b.predict_proba(blobs.x);
  for (std::size_t i = 0; i < pa.rows(); ++i) {
    for (std::size_t j = 0; j < pa.cols(); ++j) {
      EXPECT_DOUBLE_EQ(pa(i, j), pb(i, j));
    }
  }
}

// --------------------------------------------- GBM histogram splitting ---

TEST(HistSplit, GbmMatchesExactAccuracy) {
  const Blobs train = make_blobs(60, 1.2, 35);
  const Blobs test = make_blobs(40, 1.2, 36);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 12;
  cfg.num_leaves = 15;
  GbmClassifier exact(cfg, 7);
  exact.fit(train.x, train.y);
  cfg.split_algo = SplitAlgo::Hist;
  GbmClassifier hist(cfg, 7);
  hist.fit(train.x, train.y);
  const double f1_exact = macro_f1(test.y, exact.predict(test.x), 3);
  const double f1_hist = macro_f1(test.y, hist.predict(test.x), 3);
  EXPECT_NEAR(f1_hist, f1_exact, 0.02);
}

TEST(NaNRouting, NonFiniteValuesGoLeftAtPredictTime) {
  // Regression test for the NaN-routing fix: training codes non-finite
  // values as the leftmost class (ExactRanks rank 0, BinnedMatrix bin 0),
  // so raw-value traversal must send them left too. Before the fix
  // `NaN <= threshold` evaluated false and NaN windows were scored by a
  // branch training never saw.
  std::vector<DecisionTree::Node> nodes(3);
  nodes[0].feature = 0;
  nodes[0].threshold = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].leaf_start = 0;  // left leaf: class 0
  nodes[2].leaf_start = 2;  // right leaf: class 1
  TreeConfig cfg;
  cfg.num_classes = 2;
  DecisionTree tree(cfg, 0);
  tree.restore(std::move(nodes), {1.0, 0.0, 0.0, 1.0});

  double probs[2];
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {nan, -inf, inf}) {
    const double row[1] = {v};
    tree.predict_proba_row(std::span<const double>(row, 1),
                           std::span<double>(probs, 2));
    EXPECT_DOUBLE_EQ(probs[0], 1.0) << "value " << v << " must route left";
  }
  const double row[1] = {0.7};
  tree.predict_proba_row(std::span<const double>(row, 1),
                         std::span<double>(probs, 2));
  EXPECT_DOUBLE_EQ(probs[1], 1.0);
}

TEST(NaNRouting, ExactTreesCanIsolateNaNWithMinusInfThreshold) {
  // When missingness itself carries the label, the exact splitter can cut
  // after rank 0 (all non-finite left, all finite right);
  // exact_cut_threshold stores -inf so raw traversal reproduces the
  // partition exactly.
  Rng rng(41);
  Matrix x(80, 1);
  std::vector<int> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    y[i] = static_cast<int>(i % 2);
    x(i, 0) = y[i] == 0 ? std::numeric_limits<double>::quiet_NaN()
                        : rng.normal();
  }
  TreeConfig cfg;
  cfg.num_classes = 2;
  DecisionTree tree(cfg, 7);
  tree.fit(x, y);
  ASSERT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.nodes()[0].threshold,
            -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(accuracy(y, tree.predict(x)), 1.0);
}

TEST(HistSplit, HandlesNaNFeaturesEndToEnd) {
  // Both codings route NaN left at every split — the exact forest's rank 0
  // and the histogram booster's bin 0 — consistently between training and
  // raw-value prediction.
  Blobs blobs = make_blobs(40, 0.6, 38);
  Rng rng(39);
  for (std::size_t i = 0; i < blobs.x.rows(); ++i) {
    if (rng.uniform() < 0.1) {
      blobs.x(i, rng.uniform_index(2)) =
          std::numeric_limits<double>::quiet_NaN();
    }
  }
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 15;
  RandomForest rf(cfg, 11);
  rf.fit(blobs.x, blobs.y);
  EXPECT_GT(accuracy(blobs.y, rf.predict(blobs.x)), 0.9);

  GbmConfig gcfg;
  gcfg.num_classes = 3;
  gcfg.n_estimators = 12;
  gcfg.num_leaves = 15;
  gcfg.split_algo = SplitAlgo::Hist;
  GbmClassifier gbm(gcfg, 11);
  gbm.fit(blobs.x, blobs.y);
  EXPECT_GT(accuracy(blobs.y, gbm.predict(blobs.x)), 0.9);
}

TEST(FeatureImportances, InformativeFeatureDominates) {
  // Feature 0 carries the class; feature 1 is noise.
  Rng rng(50);
  Matrix x(120, 2);
  std::vector<int> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    y[i] = static_cast<int>(i % 2);
    x(i, 0) = static_cast<double>(y[i]) + 0.1 * rng.normal();
    x(i, 1) = rng.normal();
  }
  TreeConfig tc;
  tc.num_classes = 2;
  DecisionTree tree(tc, 1);
  tree.fit(x, y);
  const auto tree_imp = tree.feature_importances(2);
  EXPECT_GT(tree_imp[0], 0.9);
  EXPECT_NEAR(tree_imp[0] + tree_imp[1], 1.0, 1e-9);

  ForestConfig fc;
  fc.num_classes = 2;
  fc.n_estimators = 10;
  fc.max_features = 0;  // both features considered at every split
  RandomForest rf(fc, 1);
  rf.fit(x, y);
  const auto rf_imp = rf.feature_importances(2);
  EXPECT_GT(rf_imp[0], 0.8);
  EXPECT_NEAR(rf_imp[0] + rf_imp[1], 1.0, 1e-9);
}

TEST(FeatureImportances, SingleLeafTreeIsAllZero) {
  Matrix x = Matrix::from_rows({{1.0}, {2.0}});
  const std::vector<int> y{1, 1};
  TreeConfig tc;
  tc.num_classes = 2;
  DecisionTree tree(tc, 1);
  tree.fit(x, y);
  const auto imp = tree.feature_importances(1);
  EXPECT_DOUBLE_EQ(imp[0], 0.0);
}

TEST(FeatureImportances, RejectsTooFewFeatures) {
  const Blobs blobs = make_blobs(20, 0.5, 51);
  TreeConfig tc;
  tc.num_classes = 3;
  DecisionTree tree(tc, 1);
  tree.fit(blobs.x, blobs.y);
  EXPECT_THROW(tree.feature_importances(1), Error);
  DecisionTree unfitted(tc, 1);
  EXPECT_THROW(unfitted.feature_importances(2), Error);
}

// ---------------------------------------------------- exact-split oracle ---

// The exact splitter as it stood before rank codes, kept here as the
// reference the rank-code splitter must match node for node: every node
// draws its features with Rng::sample_without_replacement, then copies and
// sorts (value, label) pairs per candidate feature and scans the sorted
// order, calling log2 directly at every candidate cut.
class SortingSplitter {
 public:
  struct Tree {
    std::vector<DecisionTree::Node> nodes;
    std::vector<double> leaf_probs;
  };

  SortingSplitter(const TreeConfig& config, const Matrix& x,
                  std::span<const int> y)
      : config_(config), x_(x), y_(y) {}

  Tree fit_on(std::uint64_t seed, std::vector<std::size_t> indices) {
    tree_ = {};
    Rng rng(seed);
    build_node(indices, 0, indices.size(), 0, rng);
    return std::move(tree_);
  }

 private:
  static double impurity(std::span<const double> counts, double total,
                         SplitCriterion criterion) {
    if (total <= 0.0) return 0.0;
    if (criterion == SplitCriterion::Gini) {
      double acc = 0.0;
      for (const double c : counts) {
        const double p = c / total;
        acc += p * p;
      }
      return 1.0 - acc;
    }
    double acc = 0.0;
    for (const double c : counts) {
      if (c <= 0.0) continue;
      const double p = c / total;
      acc -= p * std::log2(p);
    }
    return acc;
  }

  std::vector<std::size_t> sample_features(Rng& rng) const {
    const std::size_t f_total = x_.cols();
    std::size_t f_try = f_total;
    if (config_.max_features == -1) {
      f_try = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::sqrt(static_cast<double>(f_total))));
    } else if (config_.max_features > 0) {
      f_try = std::min<std::size_t>(
          static_cast<std::size_t>(config_.max_features), f_total);
    }
    if (f_try == f_total) {
      std::vector<std::size_t> all(f_total);
      std::iota(all.begin(), all.end(), std::size_t{0});
      return all;
    }
    return rng.sample_without_replacement(f_total, f_try);
  }

  int make_leaf(std::span<const std::size_t> rows) {
    const auto k = static_cast<std::size_t>(config_.num_classes);
    const int leaf_start = static_cast<int>(tree_.leaf_probs.size());
    tree_.leaf_probs.resize(tree_.leaf_probs.size() + k, 0.0);
    double* probs = tree_.leaf_probs.data() + leaf_start;
    for (const std::size_t i : rows) {
      probs[static_cast<std::size_t>(y_[i])] += 1.0;
    }
    const double inv = 1.0 / static_cast<double>(rows.size());
    for (std::size_t c = 0; c < k; ++c) probs[c] *= inv;
    DecisionTree::Node node;
    node.leaf_start = leaf_start;
    tree_.nodes.push_back(node);
    return static_cast<int>(tree_.nodes.size() - 1);
  }

  int build_node(std::vector<std::size_t>& indices, std::size_t begin,
                 std::size_t end, int depth, Rng& rng) {
    const std::size_t n = end - begin;
    const auto k = static_cast<std::size_t>(config_.num_classes);
    const auto node_span =
        std::span<const std::size_t>(indices.data() + begin, n);
    std::vector<double> counts(k, 0.0);
    for (const std::size_t i : node_span) {
      counts[static_cast<std::size_t>(y_[i])] += 1.0;
    }
    bool pure = false;
    for (const double c : counts) {
      if (c == static_cast<double>(n)) pure = true;
    }
    const bool depth_capped =
        config_.max_depth >= 0 && depth >= config_.max_depth;
    if (pure || depth_capped ||
        n < static_cast<std::size_t>(config_.min_samples_split)) {
      return make_leaf(node_span);
    }

    const std::vector<std::size_t> features = sample_features(rng);
    const double parent_impurity =
        impurity(counts, static_cast<double>(n), config_.criterion);
    double best_gain = 1e-12;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    std::vector<std::pair<double, int>> sorted(n);
    std::vector<double> left_counts(k);
    std::vector<double> right_counts(k);
    const auto min_leaf = static_cast<std::size_t>(config_.min_samples_leaf);
    for (const std::size_t f : features) {
      for (std::size_t i = 0; i < n; ++i) {
        sorted[i] = {x_(node_span[i], f), y_[node_span[i]]};
      }
      std::sort(sorted.begin(), sorted.end(),
                [](const std::pair<double, int>& a,
                   const std::pair<double, int>& b) {
                  if (!exact_value_equal(a.first, b.first)) {
                    return exact_value_less(a.first, b.first);
                  }
                  return a.second < b.second;
                });
      if (exact_value_equal(sorted.front().first, sorted.back().first)) {
        continue;
      }
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        left_counts[static_cast<std::size_t>(sorted[i].second)] += 1.0;
        const std::size_t n_left = i + 1;
        const std::size_t n_right = n - n_left;
        if (n_left < min_leaf || n_right < min_leaf) continue;
        if (exact_value_equal(sorted[i].first, sorted[i + 1].first)) continue;
        double right_total = 0.0;
        const double imp_left = impurity(
            left_counts, static_cast<double>(n_left), config_.criterion);
        for (std::size_t c = 0; c < k; ++c) {
          right_counts[c] = counts[c] - left_counts[c];
          right_total += right_counts[c];
        }
        const double imp_right =
            impurity(right_counts, right_total, config_.criterion);
        const double weighted = (static_cast<double>(n_left) * imp_left +
                                 static_cast<double>(n_right) * imp_right) /
                                static_cast<double>(n);
        const double gain = parent_impurity - weighted;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold =
              exact_cut_threshold(sorted[i].first, sorted[i + 1].first);
        }
      }
    }
    if (best_gain <= 1e-12) return make_leaf(node_span);

    const auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(begin),
        indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t i) {
          const double v = x_(i, best_feature);
          return v <= best_threshold || !std::isfinite(v);
        });
    const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) return make_leaf(node_span);

    DecisionTree::Node node;
    node.feature = static_cast<int>(best_feature);
    node.threshold = best_threshold;
    node.importance = best_gain * static_cast<double>(n);
    const int self = static_cast<int>(tree_.nodes.size());
    tree_.nodes.push_back(node);
    const int left = build_node(indices, begin, mid, depth + 1, rng);
    const int right = build_node(indices, mid, end, depth + 1, rng);
    tree_.nodes[static_cast<std::size_t>(self)].left = left;
    tree_.nodes[static_cast<std::size_t>(self)].right = right;
    return self;
  }

  TreeConfig config_;
  const Matrix& x_;
  std::span<const int> y_;
  Tree tree_;
};

std::uint64_t double_bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Node-for-node bit equality: feature, threshold, children, leaf offset,
// importance and every leaf probability.
void expect_same_tree(const DecisionTree& tree,
                      const SortingSplitter::Tree& oracle,
                      const std::string& what) {
  ASSERT_EQ(tree.nodes().size(), oracle.nodes.size()) << what;
  for (std::size_t i = 0; i < oracle.nodes.size(); ++i) {
    const DecisionTree::Node& a = tree.nodes()[i];
    const DecisionTree::Node& b = oracle.nodes[i];
    ASSERT_EQ(a.feature, b.feature) << what << " node " << i;
    ASSERT_EQ(double_bits(a.threshold), double_bits(b.threshold))
        << what << " node " << i << ": " << a.threshold << " vs "
        << b.threshold;
    ASSERT_EQ(a.left, b.left) << what << " node " << i;
    ASSERT_EQ(a.right, b.right) << what << " node " << i;
    ASSERT_EQ(a.leaf_start, b.leaf_start) << what << " node " << i;
    ASSERT_EQ(double_bits(a.importance), double_bits(b.importance))
        << what << " node " << i;
  }
  ASSERT_EQ(tree.leaf_probs().size(), oracle.leaf_probs.size()) << what;
  for (std::size_t i = 0; i < oracle.leaf_probs.size(); ++i) {
    ASSERT_EQ(double_bits(tree.leaf_probs()[i]),
              double_bits(oracle.leaf_probs[i]))
        << what << " leaf prob " << i;
  }
}

// A seeded 3-class matrix whose columns cover what the exact scan must
// order and cut exactly: continuous values with class signal, heavy ties,
// a constant column, NaN/±inf mixed into finite values, an all-NaN column,
// a ±0.0 column, neighbouring doubles whose midpoint rounds onto the upper
// one, and values near ±DBL_MAX whose midpoints overflow.
Blobs exact_split_corpus(std::size_t rows, std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double below_one = std::nextafter(1.0, 0.0);
  Rng rng(seed);
  Blobs out;
  out.x = Matrix(rows, 10);
  for (std::size_t i = 0; i < rows; ++i) {
    const int label = static_cast<int>(rng.uniform_index(3));
    out.y.push_back(label);
    const double signal = static_cast<double>(label);
    const auto r = [&](std::size_t f, double v) { out.x(i, f) = v; };
    r(0, signal + rng.normal());
    r(1, std::round(signal + 1.5 * rng.normal()));
    r(2, 3.5);
    const double u = rng.uniform();
    r(3, u < 0.08 ? kNaN
         : u < 0.14 ? kInf
         : u < 0.2  ? -kInf
                    : signal * 0.5 + rng.normal());
    r(4, kNaN);
    const double z = rng.uniform();
    r(5, z < 0.3 ? 0.0 : z < 0.6 ? -0.0 : (z < 0.8 ? 1.0 : -1.0) * (signal + 1.0));
    const double w = rng.uniform();
    r(6, w < 0.33 ? below_one : w < 0.66 ? 1.0 : 2.0 + signal);
    r(7, (rng.uniform() < 0.5 ? 1.0 : -1.0) * (1.5e308 + 1e307 * signal));
    r(8, static_cast<double>(rng.uniform_index(4)));
    r(9, rng.normal());
  }
  return out;
}

struct OracleCase {
  SplitCriterion criterion;
  int min_samples_leaf;
  int max_features;
  std::size_t rows;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  for (const auto criterion : {SplitCriterion::Gini, SplitCriterion::Entropy}) {
    for (const int leaf : {1, 3}) {
      for (const int mf : {0, -1, 5}) {
        // 600 rows puts root nodes above the 256-row entropy table.
        for (const std::size_t rows : {std::size_t{40}, std::size_t{600}}) {
          cases.push_back({criterion, leaf, mf, rows});
        }
      }
    }
  }
  return cases;
}

std::string describe(const OracleCase& c) {
  return std::string(c.criterion == SplitCriterion::Gini ? "gini" : "entropy") +
         " leaf=" + std::to_string(c.min_samples_leaf) +
         " max_features=" + std::to_string(c.max_features) +
         " rows=" + std::to_string(c.rows);
}

TEST(ExactSplitOracle, DecisionTreeMatchesSortingSplitterNodeForNode) {
  std::uint64_t seed = 300;
  for (const OracleCase& c : oracle_cases()) {
    const Blobs data = exact_split_corpus(c.rows, ++seed);
    TreeConfig cfg;
    cfg.num_classes = 3;
    cfg.criterion = c.criterion;
    cfg.min_samples_leaf = c.min_samples_leaf;
    cfg.max_features = c.max_features;
    SortingSplitter oracle(cfg, data.x, data.y);

    DecisionTree tree(cfg, seed);
    tree.fit(data.x, data.y);
    std::vector<std::size_t> all(c.rows);
    std::iota(all.begin(), all.end(), std::size_t{0});
    expect_same_tree(tree, oracle.fit_on(seed, all), "fit " + describe(c));

    // Bootstrap duplicates: the same row counted several times per rank.
    Rng boot(seed ^ 0x5EEDULL);
    const std::vector<std::size_t> idx = boot.bootstrap_indices(c.rows);
    DecisionTree bagged(cfg, seed + 1);
    bagged.fit_on(data.x, data.y, idx);
    expect_same_tree(bagged, oracle.fit_on(seed + 1, idx),
                     "fit_on bootstrap " + describe(c));
  }
}

TEST(ExactSplitOracle, ForestMatchesSortingSplitterNodeForNode) {
  std::uint64_t seed = 400;
  for (const OracleCase& c : oracle_cases()) {
    const Blobs data = exact_split_corpus(c.rows, ++seed);
    ForestConfig cfg;
    cfg.num_classes = 3;
    cfg.n_estimators = 4;
    cfg.max_depth = 8;
    cfg.criterion = c.criterion;
    cfg.min_samples_leaf = c.min_samples_leaf;
    cfg.max_features = c.max_features;
    RandomForest rf(cfg, seed);
    rf.fit(data.x, data.y);

    TreeConfig tc;
    tc.num_classes = cfg.num_classes;
    tc.max_depth = cfg.max_depth;
    tc.min_samples_leaf = cfg.min_samples_leaf;
    tc.max_features = cfg.max_features;
    tc.criterion = cfg.criterion;
    SortingSplitter oracle(tc, data.x, data.y);
    // RandomForest::fit's seeding: one seed per tree from the forest seed,
    // each tree's bootstrap drawn from its own stream.
    Rng seeder(seed);
    ASSERT_EQ(rf.trees().size(), 4u);
    for (std::size_t t = 0; t < rf.trees().size(); ++t) {
      const std::uint64_t tree_seed = seeder.next();
      Rng boot(tree_seed ^ 0xB0075742ULL);
      expect_same_tree(rf.trees()[t],
                       oracle.fit_on(tree_seed,
                                     boot.bootstrap_indices(c.rows)),
                       "forest tree " + std::to_string(t) + " " + describe(c));
    }
  }
}

// Property sweep: every tree model's probabilities are valid distributions
// on random data.
class TreeModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeModelProperty, ForestProbsAreDistributions) {
  const Blobs blobs = make_blobs(15, 3.0, GetParam());
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 5;
  cfg.max_depth = 4;
  RandomForest rf(cfg, GetParam());
  rf.fit(blobs.x, blobs.y);
  const Matrix probs = rf.predict_proba(blobs.x);
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    double sum = 0.0;
    for (const double p : probs.row(i)) {
      EXPECT_GE(p, -1e-12);
      EXPECT_LE(p, 1.0 + 1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeModelProperty,
                         ::testing::Range<std::uint64_t>(100, 108));

}  // namespace
}  // namespace alba
