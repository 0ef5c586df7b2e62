// CART decision-tree classifier with exact splits: every boundary between
// distinct raw values is scored, counting the node's rows per `ExactRanks`
// code built once per fit (ml/binning.hpp) — no per-node sort. Per-node
// feature subsampling is the randomness source of the forest; gini or
// entropy impurity (both appear in the paper's Table IV grid).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "ml/binning.hpp"
#include "ml/classifier.hpp"

namespace alba {

class CompiledTreePredictor;

enum class SplitCriterion { Gini, Entropy };

struct TreeConfig {
  int num_classes = 2;
  int max_depth = -1;        // -1 = unlimited
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  // Features examined per split: 0 = all, -1 = floor(sqrt(F)), >0 = exactly.
  int max_features = 0;
  SplitCriterion criterion = SplitCriterion::Gini;
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(TreeConfig config, std::uint64_t seed = 0);

  void fit(const Matrix& x, std::span<const int> y) override;

  /// Fits on a row subset (duplicates allowed — bootstrap sampling).
  /// `ranks` is a caller-built rank coding of `x` — the forest ranks its
  /// training matrix once and shares it across all trees; null means the
  /// tree ranks `x` for itself. It is not retained past the call.
  void fit_on(const Matrix& x, std::span<const int> y,
              std::vector<std::size_t> indices,
              const ExactRanks* ranks = nullptr);

  Matrix predict_proba(const Matrix& x) const override;
  Matrix predict_proba_reference(const Matrix& x) const override;
  void predict_proba_rows(const Matrix& x, std::span<const std::size_t> rows,
                          Matrix& out) const override;
  void predict_proba_row(std::span<const double> row,
                         std::span<double> out) const;

  /// Compiled flat-SoA predictor, built by fit()/restore(); null for trees
  /// fitted via fit_on (forest members predict through the forest's own
  /// compiled ensemble) or when compilation fell back.
  const std::shared_ptr<const CompiledTreePredictor>& compiled()
      const noexcept {
    return compiled_;
  }

  std::unique_ptr<Classifier> clone() const override;
  std::unique_ptr<Classifier> clone_reseeded(std::uint64_t seed) const override {
    return std::make_unique<DecisionTree>(config_, seed);
  }
  std::string name() const override { return "decision_tree"; }
  int num_classes() const noexcept override { return config_.num_classes; }
  bool fitted() const noexcept override { return !nodes_.empty(); }

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t leaf_count() const noexcept;
  int depth() const noexcept;
  const TreeConfig& config() const noexcept { return config_; }

  /// Mean-decrease-in-impurity feature importances, normalized to sum 1
  /// (all-zero when the tree is a single leaf). `num_features` must cover
  /// every feature index the tree splits on.
  std::vector<double> feature_importances(std::size_t num_features) const;

  /// Flat node layout, exposed for serialization.
  struct Node {
    int feature = -1;       // -1 for leaves
    double threshold = 0.0; // go left when value <= threshold
    int left = -1;
    int right = -1;
    int leaf_start = -1;    // index into leaf_probs_ for leaves
    // Total impurity decrease this split achieved (gain × node samples);
    // the raw material of mean-decrease-in-impurity importances.
    double importance = 0.0;
  };
  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<double>& leaf_probs() const noexcept { return leaf_probs_; }
  void restore(std::vector<Node> nodes, std::vector<double> leaf_probs);

 private:
  struct SplitScratch;  // per-fit buffers, reused by every node

  int build_node(const Matrix& x, const ExactRanks& ranks,
                 std::span<const int> y, std::vector<std::size_t>& indices,
                 std::size_t begin, std::size_t end, int depth, Rng& rng,
                 SplitScratch& scratch);
  int make_leaf(std::span<const int> y,
                std::span<const std::size_t> indices);

  TreeConfig config_;
  std::uint64_t seed_;
  std::vector<Node> nodes_;
  std::vector<double> leaf_probs_;
  std::shared_ptr<const CompiledTreePredictor> compiled_;
};

}  // namespace alba
