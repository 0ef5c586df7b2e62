#include "ml/decision_tree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ml/compiled_tree.hpp"

namespace alba {

namespace {

// One entropy term p·log2(p) for p = c / total. The table below and the
// direct path both evaluate this one expression, so a tabled term is the
// bits the direct path would compute.
double entropy_term(double c, double total) noexcept {
  const double p = c / total;
  return p * std::log2(p);
}

// Node totals up to this many rows read their entropy terms from a table
// built once per process; larger totals compute them directly. A table of
// every total a fit can see ((n+1)² entries) costs more to build than it
// saves on large fits, and the small totals are where nodes spend the
// most evaluations (every deep node, and every AL refit).
constexpr std::size_t kEntropyTableMax = 256;

// Row t (t(t+1)/2 entries in) holds entropy_term(c, t) for c = 0..t.
const double* entropy_table() {
  static const std::vector<double> table = [] {
    std::vector<double> t((kEntropyTableMax + 1) * (kEntropyTableMax + 2) / 2,
                          0.0);
    for (std::size_t total = 1; total <= kEntropyTableMax; ++total) {
      double* row = t.data() + total * (total + 1) / 2;
      for (std::size_t c = 1; c <= total; ++c) {
        row[c] = entropy_term(static_cast<double>(c),
                              static_cast<double>(total));
      }
    }
    return t;
  }();
  return table.data();
}

// `counts` and `total` hold integer values (row counts).
double impurity(std::span<const double> counts, double total,
                SplitCriterion criterion, const double* entropy) noexcept {
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
  if (total <= static_cast<double>(kEntropyTableMax)) {
    const auto t = static_cast<std::size_t>(total);
    const double* row = entropy + t * (t + 1) / 2;
    for (const double c : counts) {
      if (c <= 0.0) continue;
      acc -= row[static_cast<std::size_t>(c)];
    }
    return acc;
  }
  for (const double c : counts) {
    if (c <= 0.0) continue;
    acc -= entropy_term(c, total);
  }
  return acc;
}

// Candidate features per split, drawn into one reused permutation. A draw
// makes the same uniform_index calls, in the same order, as
// Rng::sample_without_replacement (a partial Fisher–Yates over the
// identity); the next draw first undoes those swaps, so every draw starts
// from the identity: O(f_try) per node instead of allocating and filling
// all f_total indices.
class FeatureSampler {
 public:
  FeatureSampler(std::size_t f_total, int max_features)
      : f_try_(f_total), perm_(f_total) {
    if (max_features == -1) {
      f_try_ = std::max<std::size_t>(
          1,
          static_cast<std::size_t>(std::sqrt(static_cast<double>(f_total))));
    } else if (max_features > 0) {
      f_try_ = std::min<std::size_t>(static_cast<std::size_t>(max_features),
                                     f_total);
    }
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    swaps_.reserve(f_try_);
  }

  // The node's candidate features; valid until the next draw.
  std::span<const std::size_t> draw(Rng& rng) {
    const std::size_t n = perm_.size();
    if (f_try_ == n) return perm_;
    ALBA_CHECK(f_try_ <= n) << "cannot sample " << f_try_ << " from " << n;
    for (std::size_t i = swaps_.size(); i-- > 0;) {
      std::swap(perm_[i], perm_[swaps_[i]]);
    }
    swaps_.clear();
    for (std::size_t i = 0; i < f_try_; ++i) {
      swaps_.push_back(i + rng.uniform_index(n - i));
      std::swap(perm_[i], perm_[swaps_.back()]);
    }
    return {perm_.data(), f_try_};
  }

 private:
  std::size_t f_try_;
  std::vector<std::size_t> perm_;   // the identity, permuted by the last draw
  std::vector<std::size_t> swaps_;  // the last draw's swap partners
};

// Class counts per code and a bitmap of the codes a node's rows touch, for
// the compact scan below; both are all-zero between scans.
struct CodeCounts {
  std::vector<double> counts;           // [code][class]
  std::vector<std::uint64_t> occupied;  // one bit per code

  CodeCounts(std::size_t codes, std::size_t k)
      : counts(codes * k, 0.0), occupied((codes + 63) / 64, 0) {}
};

// The compact scan the split finder runs per candidate feature: counts the
// node's rows per rank code × class, then walks the occupied codes in
// ascending order, cumulating each into `left` and calling `cut(code,
// next_code, n_left)` for every code but the last (cutting there would leave
// the right side empty). A node of m rows costs O(m + occupied × k), however
// many codes the column has. Leaves `s` zeroed again.
template <typename Cut>
void scan_occupied(const std::uint32_t* codes,
                   std::span<const std::size_t> rows, std::span<const int> y,
                   std::size_t k, CodeCounts& s, std::span<double> left,
                   Cut&& cut) {
  std::size_t lo = s.occupied.size();
  std::size_t hi = 0;
  for (const std::size_t row : rows) {
    const std::size_t c = codes[row];
    s.occupied[c >> 6] |= std::uint64_t{1} << (c & 63);
    s.counts[c * k + static_cast<std::size_t>(y[row])] += 1.0;
    lo = std::min(lo, c >> 6);
    hi = std::max(hi, c >> 6);
  }
  std::fill(left.begin(), left.end(), 0.0);
  double n_left = 0.0;
  std::size_t prev = 0;
  bool have_prev = false;
  for (std::size_t w = lo; w <= hi; ++w) {
    std::uint64_t bits = s.occupied[w];
    s.occupied[w] = 0;
    while (bits != 0) {
      const std::size_t c =
          (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (have_prev) {
        double* pc = s.counts.data() + prev * k;
        for (std::size_t j = 0; j < k; ++j) {
          left[j] += pc[j];
          n_left += pc[j];
          pc[j] = 0.0;
        }
        cut(prev, c, n_left);
      }
      prev = c;
      have_prev = true;
    }
  }
  if (have_prev) std::fill_n(s.counts.data() + prev * k, k, 0.0);
}

}  // namespace

// Buffers one fit reuses at every node (nodes fill them before recursing,
// so children may overwrite them).
struct DecisionTree::SplitScratch {
  SplitCriterion criterion;
  double min_leaf;
  std::vector<double> counts;  // the node's class counts
  std::vector<double> left;    // class counts left of the cut being scored
  std::vector<double> right;
  FeatureSampler features;
  CodeCounts codes;
  const double* entropy = entropy_table();

  SplitScratch(const TreeConfig& config, std::size_t f_total,
               std::size_t num_codes)
      : criterion(config.criterion),
        min_leaf(static_cast<double>(config.min_samples_leaf)),
        counts(static_cast<std::size_t>(config.num_classes)),
        left(counts.size()),
        right(counts.size()),
        features(f_total, config.max_features),
        codes(num_codes, counts.size()) {}

  // Fills `counts` from the node's rows; true when one class holds them all.
  bool count_classes(std::span<const int> y,
                     std::span<const std::size_t> rows) {
    std::fill(counts.begin(), counts.end(), 0.0);
    for (const std::size_t i : rows) {
      counts[static_cast<std::size_t>(y[i])] += 1.0;
    }
    bool pure = false;
    for (const double c : counts) {
      if (c == static_cast<double>(rows.size())) pure = true;
    }
    return pure;
  }

  double node_impurity(double n) const {
    return impurity(counts, n, criterion, entropy);
  }

  // Gain of cutting the node (n rows, impurity `parent`) into `left`
  // (n_left rows) and the rest, or -inf when a side holds fewer than
  // `min_leaf` rows.
  double gain(double n, double parent, double n_left) {
    const double n_right = n - n_left;
    if (n_left < min_leaf || n_right < min_leaf) {
      return -std::numeric_limits<double>::infinity();
    }
    const double imp_left = impurity(left, n_left, criterion, entropy);
    double right_total = 0.0;
    for (std::size_t c = 0; c < counts.size(); ++c) {
      right[c] = counts[c] - left[c];
      right_total += right[c];
    }
    const double imp_right = impurity(right, right_total, criterion, entropy);
    const double weighted = (n_left * imp_left + n_right * imp_right) / n;
    return parent - weighted;
  }
};

DecisionTree::DecisionTree(TreeConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  ALBA_CHECK(config_.num_classes >= 2);
  ALBA_CHECK(config_.min_samples_split >= 2);
  ALBA_CHECK(config_.min_samples_leaf >= 1);
  ALBA_CHECK(config_.max_features >= -1);
}

void DecisionTree::fit(const Matrix& x, std::span<const int> y) {
  std::vector<std::size_t> idx(x.rows());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  fit_on(x, y, std::move(idx));
  compiled_ = CompiledTreePredictor::compile(*this);
}

void DecisionTree::fit_on(const Matrix& x, std::span<const int> y,
                          std::vector<std::size_t> indices,
                          const ExactRanks* ranks) {
  ALBA_CHECK(x.rows() == y.size());
  ALBA_CHECK(!indices.empty()) << "fitting a tree on zero samples";
  for (const int label : y) {
    ALBA_CHECK(label >= 0 && label < config_.num_classes)
        << "label " << label << " outside [0, " << config_.num_classes << ")";
  }
  nodes_.clear();
  leaf_probs_.clear();
  compiled_.reset();  // stale fast path must never outlive a refit
  Rng rng(seed_);
  // Rank `x` locally when the caller didn't share a coding (the forest
  // builds one per fit and passes it to every tree).
  const ExactRanks local = ranks == nullptr ? ExactRanks(x) : ExactRanks();
  const ExactRanks& codes = ranks == nullptr ? local : *ranks;
  ALBA_CHECK(codes.rows() == x.rows() && codes.cols() == x.cols())
      << "rank codes shape mismatch";
  SplitScratch scratch(config_, x.cols(), codes.max_ranks());
  build_node(x, codes, y, indices, 0, indices.size(), 0, rng, scratch);
}

int DecisionTree::make_leaf(std::span<const int> y,
                            std::span<const std::size_t> indices) {
  const auto k = static_cast<std::size_t>(config_.num_classes);
  const int leaf_start = static_cast<int>(leaf_probs_.size());
  leaf_probs_.resize(leaf_probs_.size() + k, 0.0);
  double* probs = leaf_probs_.data() + leaf_start;
  for (const std::size_t i : indices) {
    probs[static_cast<std::size_t>(y[i])] += 1.0;
  }
  const double inv = 1.0 / static_cast<double>(indices.size());
  for (std::size_t c = 0; c < k; ++c) probs[c] *= inv;

  Node node;
  node.leaf_start = leaf_start;
  nodes_.push_back(node);
  return static_cast<int>(nodes_.size() - 1);
}

// Exact split finder: every boundary between distinct values of a candidate
// feature is scored, over the node's rows counted per rank code — the same
// boundaries, in the same order and with the same integer counts, as
// sorting the node's raw values would give.
int DecisionTree::build_node(const Matrix& x, const ExactRanks& ranks,
                             std::span<const int> y,
                             std::vector<std::size_t>& indices,
                             std::size_t begin, std::size_t end, int depth,
                             Rng& rng, SplitScratch& scratch) {
  const std::size_t n = end - begin;
  const auto k = static_cast<std::size_t>(config_.num_classes);
  const auto node_span =
      std::span<const std::size_t>(indices.data() + begin, n);

  const bool pure = scratch.count_classes(y, node_span);
  const bool depth_capped =
      config_.max_depth >= 0 && depth >= config_.max_depth;
  if (pure || depth_capped ||
      n < static_cast<std::size_t>(config_.min_samples_split)) {
    return make_leaf(y, node_span);
  }

  const std::span<const std::size_t> features = scratch.features.draw(rng);

  const auto nd = static_cast<double>(n);
  const double parent_impurity = scratch.node_impurity(nd);
  double best_gain = 1e-12;
  std::size_t best_feature = 0;
  std::size_t best_rank = 0;  // left side ends at this rank ...
  std::size_t best_next = 0;  // ... and the right starts at this one

  for (const std::size_t f : features) {
    if (ranks.num_ranks(f) <= 1) continue;  // constant column
    scan_occupied(ranks.column(f), node_span, y, k, scratch.codes,
                  scratch.left,
                  [&](std::size_t rank, std::size_t next, double n_left) {
                    const double gain =
                        scratch.gain(nd, parent_impurity, n_left);
                    if (gain > best_gain) {
                      best_gain = gain;
                      best_feature = f;
                      best_rank = rank;
                      best_next = next;
                    }
                  });
  }

  if (best_gain <= 1e-12) return make_leaf(y, node_span);

  // The threshold sits between this rank and the next one occupied in this
  // node, not the column's next rank: the cut lies midway between the two
  // values the node actually separates.
  const double best_threshold =
      exact_cut_threshold(ranks.key(best_feature, best_rank),
                          ranks.key(best_feature, best_next));

  // Partition [begin, end) around the threshold; non-finite values go left,
  // the same routing raw-value prediction uses.
  const auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) {
        const double v = x(i, best_feature);
        return v <= best_threshold || !std::isfinite(v);
      });
  const std::size_t mid =
      static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf(y, node_span);

  Node node;
  node.feature = static_cast<int>(best_feature);
  node.threshold = best_threshold;
  node.importance = best_gain * nd;
  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);

  const int left =
      build_node(x, ranks, y, indices, begin, mid, depth + 1, rng, scratch);
  const int right =
      build_node(x, ranks, y, indices, mid, end, depth + 1, rng, scratch);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

void DecisionTree::predict_proba_row(std::span<const double> row,
                                     std::span<double> out) const {
  ALBA_CHECK(fitted()) << "predict before fit";
  ALBA_CHECK(out.size() == static_cast<std::size_t>(config_.num_classes));
  int node = 0;
  for (;;) {
    const Node& cur = nodes_[static_cast<std::size_t>(node)];
    if (cur.feature < 0) {
      const double* probs = leaf_probs_.data() + cur.leaf_start;
      std::copy_n(probs, out.size(), out.begin());
      return;
    }
    // Non-finite values route left, matching rank 0 — the leftmost rank —
    // so a quarantined/NaN feature at serving time lands in the branch its
    // training rows took.
    const double v = row[static_cast<std::size_t>(cur.feature)];
    node = split_routes_right(v, cur.threshold) ? cur.right : cur.left;
  }
}

Matrix DecisionTree::predict_proba_reference(const Matrix& x) const {
  Matrix out(x.rows(), static_cast<std::size_t>(config_.num_classes));
  for (std::size_t i = 0; i < x.rows(); ++i) {
    predict_proba_row(x.row(i), out.row(i));
  }
  return out;
}

Matrix DecisionTree::predict_proba(const Matrix& x) const {
  if (compiled_ == nullptr) return predict_proba_reference(x);
  Matrix out(x.rows(), static_cast<std::size_t>(config_.num_classes));
  global_pool().parallel_for_chunked(
      x.rows(), [&](std::size_t begin, std::size_t end) {
        compiled_->predict_range(x, begin, end, out);
      });
  return out;
}

void DecisionTree::predict_proba_rows(const Matrix& x,
                                      std::span<const std::size_t> rows,
                                      Matrix& out) const {
  out.reshape(rows.size(), static_cast<std::size_t>(config_.num_classes));
  if (compiled_ != nullptr) {
    compiled_->predict_rows(x, rows, out);
    return;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    predict_proba_row(x.row(rows[i]), out.row(i));
  }
}

std::unique_ptr<Classifier> DecisionTree::clone() const {
  return std::make_unique<DecisionTree>(config_, seed_);
}

std::size_t DecisionTree::leaf_count() const noexcept {
  std::size_t count = 0;
  for (const Node& n : nodes_) count += (n.feature < 0) ? 1 : 0;
  return count;
}

int DecisionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the flat layout.
  std::vector<std::pair<int, int>> stack{{0, 0}};
  int best = 0;
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    if (n.feature >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return best;
}

std::vector<double> DecisionTree::feature_importances(
    std::size_t num_features) const {
  ALBA_CHECK(fitted()) << "importances before fit";
  std::vector<double> importances(num_features, 0.0);
  double total = 0.0;
  for (const Node& node : nodes_) {
    if (node.feature < 0) continue;
    ALBA_CHECK(static_cast<std::size_t>(node.feature) < num_features)
        << "tree splits on feature " << node.feature << ", only "
        << num_features << " given";
    importances[static_cast<std::size_t>(node.feature)] += node.importance;
    total += node.importance;
  }
  if (total > 0.0) {
    for (auto& v : importances) v /= total;
  }
  return importances;
}

void DecisionTree::restore(std::vector<Node> nodes,
                           std::vector<double> leaf_probs) {
  ALBA_CHECK(!nodes.empty());
  nodes_ = std::move(nodes);
  leaf_probs_ = std::move(leaf_probs);
  compiled_ = CompiledTreePredictor::compile(*this);
}

}  // namespace alba
