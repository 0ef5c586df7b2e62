// Random forest: bagged CART trees with sqrt-feature subsampling, class
// probabilities = average of per-tree leaf distributions (sklearn's
// soft-voting convention). The paper's best model on both systems
// (Table IV: n_estimators 20/200, max_depth 8, criterion entropy).
#pragma once

#include "ml/decision_tree.hpp"

namespace alba {

struct ForestConfig {
  int num_classes = 2;
  int n_estimators = 100;
  int max_depth = 8;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  int max_features = -1;  // -1 = sqrt(F), the RF default
  SplitCriterion criterion = SplitCriterion::Entropy;
  bool bootstrap = true;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(ForestConfig config, std::uint64_t seed = 0);

  void fit(const Matrix& x, std::span<const int> y) override;
  Matrix predict_proba(const Matrix& x) const override;
  Matrix predict_proba_reference(const Matrix& x) const override;
  void predict_proba_rows(const Matrix& x, std::span<const std::size_t> rows,
                          Matrix& out) const override;

  std::unique_ptr<Classifier> clone() const override;
  std::unique_ptr<Classifier> clone_reseeded(std::uint64_t seed) const override {
    return std::make_unique<RandomForest>(config_, seed);
  }
  std::string name() const override { return "random_forest"; }
  int num_classes() const noexcept override { return config_.num_classes; }
  bool fitted() const noexcept override { return !trees_.empty(); }

  const ForestConfig& config() const noexcept { return config_; }

  /// Mean-decrease-in-impurity importances averaged over the trees,
  /// normalized to sum 1 — the "most important metrics" signal the paper's
  /// planned annotator dashboard would surface.
  std::vector<double> feature_importances(std::size_t num_features) const;

  const std::vector<DecisionTree>& trees() const noexcept { return trees_; }
  std::vector<DecisionTree>& mutable_trees() noexcept { return trees_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Rebuilds the compiled flat-SoA ensemble predictor from the current
  /// trees. fit() calls this itself; callers that mutate the forest through
  /// mutable_trees() (the serializer's loader) must call it afterwards.
  void recompile();

  /// Compiled ensemble predictor; null before fit or when compilation
  /// fell back to the reference traversal.
  const std::shared_ptr<const CompiledTreePredictor>& compiled()
      const noexcept {
    return compiled_;
  }

 private:
  ForestConfig config_;
  std::uint64_t seed_;
  std::vector<DecisionTree> trees_;
  std::shared_ptr<const CompiledTreePredictor> compiled_;
};

}  // namespace alba
