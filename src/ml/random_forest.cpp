#include "ml/random_forest.hpp"

#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ml/compiled_tree.hpp"

namespace alba {

RandomForest::RandomForest(ForestConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  ALBA_CHECK(config_.n_estimators >= 1);
  ALBA_CHECK(config_.num_classes >= 2);
}

void RandomForest::fit(const Matrix& x, std::span<const int> y) {
  ALBA_CHECK(x.rows() == y.size());
  ALBA_CHECK(x.rows() > 0);

  TreeConfig tree_config;
  tree_config.num_classes = config_.num_classes;
  tree_config.max_depth = config_.max_depth;
  tree_config.min_samples_split = config_.min_samples_split;
  tree_config.min_samples_leaf = config_.min_samples_leaf;
  tree_config.max_features = config_.max_features;
  tree_config.criterion = config_.criterion;

  const auto t = static_cast<std::size_t>(config_.n_estimators);
  trees_.clear();
  compiled_.reset();
  trees_.reserve(t);
  // Per-tree seeds derived up front so parallel tree fitting stays
  // deterministic regardless of scheduling.
  Rng seeder(seed_);
  std::vector<std::uint64_t> tree_seeds(t);
  for (auto& s : tree_seeds) s = seeder.next();
  for (std::size_t i = 0; i < t; ++i) {
    trees_.emplace_back(tree_config, tree_seeds[i]);
  }

  // Rank the training matrix once and share the read-only coding across
  // every tree (each tree's split search stays single-threaded, so per-tree
  // determinism is schedule-independent).
  const ExactRanks ranks(x);

  parallel_for(t, [&](std::size_t i) {
    Rng rng(tree_seeds[i] ^ 0xB0075742ULL);
    std::vector<std::size_t> idx;
    if (config_.bootstrap) {
      idx = rng.bootstrap_indices(x.rows());
    } else {
      idx.resize(x.rows());
      std::iota(idx.begin(), idx.end(), std::size_t{0});
    }
    trees_[i].fit_on(x, y, std::move(idx), &ranks);
  });
  recompile();
}

void RandomForest::recompile() {
  compiled_ = CompiledTreePredictor::compile(*this);
}

Matrix RandomForest::predict_proba_reference(const Matrix& x) const {
  ALBA_CHECK(fitted()) << "predict before fit";
  const auto k = static_cast<std::size_t>(config_.num_classes);
  Matrix out(x.rows(), k, 0.0);

  parallel_for(x.rows(), [&](std::size_t i) {
    std::vector<double> buf(k);
    auto row_out = out.row(i);
    for (const DecisionTree& tree : trees_) {
      tree.predict_proba_row(x.row(i), buf);
      for (std::size_t c = 0; c < k; ++c) row_out[c] += buf[c];
    }
    const double inv = 1.0 / static_cast<double>(trees_.size());
    for (std::size_t c = 0; c < k; ++c) row_out[c] *= inv;
  });
  return out;
}

Matrix RandomForest::predict_proba(const Matrix& x) const {
  if (compiled_ == nullptr) return predict_proba_reference(x);
  Matrix out(x.rows(), static_cast<std::size_t>(config_.num_classes));
  global_pool().parallel_for_chunked(
      x.rows(), [&](std::size_t begin, std::size_t end) {
        compiled_->predict_range(x, begin, end, out);
      });
  return out;
}

void RandomForest::predict_proba_rows(const Matrix& x,
                                      std::span<const std::size_t> rows,
                                      Matrix& out) const {
  ALBA_CHECK(fitted()) << "predict before fit";
  const auto k = static_cast<std::size_t>(config_.num_classes);
  out.reshape(rows.size(), k);
  if (compiled_ != nullptr) {
    compiled_->predict_rows(x, rows, out);
    return;
  }
  out.fill(0.0);
  const double inv = 1.0 / static_cast<double>(trees_.size());
  std::vector<double> buf(k);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto row_out = out.row(i);
    for (const DecisionTree& tree : trees_) {
      tree.predict_proba_row(x.row(rows[i]), buf);
      for (std::size_t c = 0; c < k; ++c) row_out[c] += buf[c];
    }
    for (std::size_t c = 0; c < k; ++c) row_out[c] *= inv;
  }
}

std::unique_ptr<Classifier> RandomForest::clone() const {
  return std::make_unique<RandomForest>(config_, seed_);
}

std::vector<double> RandomForest::feature_importances(
    std::size_t num_features) const {
  ALBA_CHECK(fitted()) << "importances before fit";
  std::vector<double> importances(num_features, 0.0);
  for (const DecisionTree& tree : trees_) {
    const auto per_tree = tree.feature_importances(num_features);
    for (std::size_t j = 0; j < num_features; ++j) {
      importances[j] += per_tree[j];
    }
  }
  double total = 0.0;
  for (const double v : importances) total += v;
  if (total > 0.0) {
    for (auto& v : importances) v /= total;
  }
  return importances;
}

}  // namespace alba
