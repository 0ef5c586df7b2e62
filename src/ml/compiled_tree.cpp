#include "ml/compiled_tree.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "linalg/ops.hpp"
#include "ml/binning.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbm.hpp"
#include "ml/random_forest.hpp"

namespace alba {

namespace {

// Rows per block: 64 payload slots and one code column per used feature
// keep the whole working set (codes + SoA nodes) L1/L2-resident while
// amortizing the binning pass across every tree of the ensemble.
constexpr std::size_t kBlockRows = 64;

// Crossover between the small-batch threshold kernel and the binned block
// path. The threshold kernel wins while the per-call binning cost (U used
// features × one lower-bound each) dwarfs the traversal work it can
// share. On serving-shaped ensembles (tens of trees — the bench_serving
// latency sweep) that holds through mid-teens batches; very large
// ensembles amortize binning across trees instead and cross by batch ~2
// (the bench_micro_ml batch sweep records both curves).
constexpr std::size_t kDefaultSmallBatchCutoff = 16;

std::atomic<std::size_t>& cutoff_atomic() noexcept {
  static std::atomic<std::size_t> cutoff{kDefaultSmallBatchCutoff};
  return cutoff;
}

// Per-thread scratch for the block path's code columns, reused across
// calls so steady-state prediction never allocates — a malloc per serving
// request is latency the small-batch work just removed elsewhere.
struct BlockArena {
  std::vector<std::uint8_t> codes8;
  std::vector<std::uint16_t> codes16;
};

BlockArena& block_arena() noexcept {
  thread_local BlockArena arena;
  return arena;
}

// Rank of `v` against the ascending cut table: the number of cuts strictly
// below v. Non-finite values take rank 0 so they ride left at every split
// (every bin index is >= 0), matching the raw-value rule
// `v <= t || !isfinite(v)`. The lower-bound advance is forced branchless
// with mask arithmetic — a ternary here compiles to a data-dependent
// branch that mispredicts ~50% on quantile cuts and costs 5x the whole
// search. NaN comparisons are quiet and always false, so the scan itself
// needs no guard; the final mask zeroes the rank for +inf (which would
// otherwise outrank every cut).
template <typename CodeT>
inline CodeT code_of(double v, const double* cuts, std::size_t m) noexcept {
  if (m == 0) return 0;
  std::size_t lo = 0, n = m;
  while (n > 1) {
    const std::size_t half = n >> 1;
    lo += half & (0 - static_cast<std::size_t>(cuts[lo + half - 1] < v));
    n -= half;
  }
  const std::size_t code =
      lo + static_cast<std::size_t>(cuts[lo] < v);
  return static_cast<CodeT>(
      code & (0 - static_cast<std::size_t>(std::isfinite(v))));
}

// Eight ranks against one shared cut table in lockstep. All eight
// searches take identical trip counts (they depend only on m), so the
// load-compare chains interleave in the out-of-order window instead of
// serializing — the binning phase is latency-bound, not throughput-bound.
template <typename CodeT>
inline void code_of8(const double* v, const double* cuts, std::size_t m,
                     CodeT* out) noexcept {
  std::size_t l[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t n = m;
  while (n > 1) {
    const std::size_t half = n >> 1;
    for (int j = 0; j < 8; ++j) {
      l[j] +=
          half & (0 - static_cast<std::size_t>(cuts[l[j] + half - 1] < v[j]));
    }
    n -= half;
  }
  for (int j = 0; j < 8; ++j) {
    const std::size_t code =
        l[j] + static_cast<std::size_t>(cuts[l[j]] < v[j]);
    out[j] = static_cast<CodeT>(
        code & (0 - static_cast<std::size_t>(std::isfinite(v[j]))));
  }
}

}  // namespace

std::shared_ptr<const CompiledTreePredictor> CompiledTreePredictor::build(
    Kind kind, int num_classes, double scale, std::vector<double> base,
    const std::vector<std::vector<BuildNode>>& trees,
    std::vector<double> leaf_values, std::vector<std::int32_t> tree_class) {
  if (trees.empty() || num_classes < 2) return nullptr;
  for (const auto& t : trees) {
    if (t.empty()) return nullptr;
  }
  constexpr std::size_t kMaxIndex =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  if (leaf_values.size() > kMaxIndex) return nullptr;

  // Per-feature sorted-unique threshold tables from the thresholds the
  // trees actually store (works for exact- and histogram-trained models).
  std::vector<std::pair<int, double>> ft;
  std::size_t total_nodes = 0;
  for (const auto& t : trees) {
    total_nodes += t.size();
    for (const BuildNode& n : t) {
      if (n.feature < 0) continue;
      if (std::isnan(n.threshold)) return nullptr;
      ft.emplace_back(n.feature, n.threshold);
    }
  }
  if (total_nodes > kMaxIndex) return nullptr;
  std::sort(ft.begin(), ft.end());
  ft.erase(std::unique(ft.begin(), ft.end()), ft.end());

  auto p = std::make_shared<CompiledTreePredictor>();
  p->kind_ = kind;
  p->num_classes_ = num_classes;
  p->scale_ = scale;
  p->base_ = std::move(base);
  p->leaf_values_ = std::move(leaf_values);
  p->tree_class_ = std::move(tree_class);

  int max_feature = -1;
  for (const auto& [f, t] : ft) {
    if (p->slot_feature_.empty() ||
        p->slot_feature_.back() != static_cast<std::uint32_t>(f)) {
      p->slot_feature_.push_back(static_cast<std::uint32_t>(f));
      p->cut_offset_.push_back(p->cuts_.size());
    }
    p->cuts_.push_back(t);
    max_feature = std::max(max_feature, f);
  }
  p->cut_offset_.push_back(p->cuts_.size());
  p->min_features_ = static_cast<std::size_t>(max_feature + 1);

  // Codes are uint8 unless some feature carries more than 255 distinct
  // thresholds (never the case for histogram-trained GBMs); past 65535 the
  // bin field itself would overflow and the caller falls back.
  for (std::size_t u = 0; u + 1 < p->cut_offset_.size(); ++u) {
    const std::size_t m = p->cut_offset_[u + 1] - p->cut_offset_[u];
    if (m > 65535) return nullptr;
    if (m > 255) p->wide_codes_ = true;
  }

  std::vector<std::int32_t> slot_of(
      static_cast<std::size_t>(max_feature + 1), -1);
  for (std::size_t u = 0; u < p->slot_feature_.size(); ++u) {
    slot_of[p->slot_feature_[u]] = static_cast<std::int32_t>(u);
  }

  // Lower each tree in BFS order so siblings land adjacent (right child =
  // left child + 1) and the traversal step needs no branch.
  p->feat_.reserve(total_nodes);
  p->bin_.reserve(total_nodes);
  p->thresh_.reserve(total_nodes);
  p->child_.reserve(total_nodes);
  std::vector<int> order;
  for (const auto& src : trees) {
    const std::size_t base_idx = p->feat_.size();
    p->tree_root_.push_back(base_idx);
    order.clear();
    order.push_back(0);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const BuildNode& n = src[static_cast<std::size_t>(order[i])];
      if (n.feature < 0) {
        p->feat_.push_back(-1);
        p->bin_.push_back(0);
        p->thresh_.push_back(0.0);
        p->child_.push_back(n.payload);
        continue;
      }
      if (n.left < 0 || n.right < 0) return nullptr;  // malformed
      const std::int32_t slot = slot_of[static_cast<std::size_t>(n.feature)];
      const double* cb = p->cuts_.data() + p->cut_offset_[
          static_cast<std::size_t>(slot)];
      const std::size_t m =
          p->cut_offset_[static_cast<std::size_t>(slot) + 1] -
          p->cut_offset_[static_cast<std::size_t>(slot)];
      const std::size_t bin = static_cast<std::size_t>(
          std::lower_bound(cb, cb + m, n.threshold) - cb);
      ALBA_DCHECK(bin < m && cb[bin] == n.threshold);
      const std::size_t left_new = base_idx + order.size();
      order.push_back(n.left);
      order.push_back(n.right);
      p->feat_.push_back(slot);
      p->bin_.push_back(static_cast<std::uint16_t>(bin));
      p->thresh_.push_back(n.threshold);
      p->child_.push_back(static_cast<std::int32_t>(left_new));
    }
  }
  return p;
}

std::shared_ptr<const CompiledTreePredictor> CompiledTreePredictor::compile(
    const DecisionTree& tree) {
  if (!tree.fitted()) return nullptr;
  std::vector<std::vector<BuildNode>> trees(1);
  trees[0].reserve(tree.nodes().size());
  for (const DecisionTree::Node& n : tree.nodes()) {
    BuildNode b;
    b.feature = n.feature;
    b.threshold = n.threshold;
    b.left = n.left;
    b.right = n.right;
    b.payload = n.leaf_start;
    trees[0].push_back(b);
  }
  return build(Kind::Average, tree.num_classes(), 1.0, {}, trees,
               tree.leaf_probs(), {});
}

std::shared_ptr<const CompiledTreePredictor> CompiledTreePredictor::compile(
    const RandomForest& forest) {
  if (!forest.fitted()) return nullptr;
  const auto& src = forest.trees();
  std::vector<std::vector<BuildNode>> trees(src.size());
  std::vector<double> leaf_values;
  for (std::size_t t = 0; t < src.size(); ++t) {
    if (!src[t].fitted()) return nullptr;
    const auto offset = static_cast<std::size_t>(leaf_values.size());
    if (offset + src[t].leaf_probs().size() >
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
      return nullptr;
    }
    leaf_values.insert(leaf_values.end(), src[t].leaf_probs().begin(),
                       src[t].leaf_probs().end());
    trees[t].reserve(src[t].nodes().size());
    for (const DecisionTree::Node& n : src[t].nodes()) {
      BuildNode b;
      b.feature = n.feature;
      b.threshold = n.threshold;
      b.left = n.left;
      b.right = n.right;
      b.payload = n.feature < 0 ? static_cast<std::int32_t>(offset) +
                                      n.leaf_start
                                : 0;
      trees[t].push_back(b);
    }
  }
  // Matches the reference accumulation: sum per-tree leaf distributions in
  // tree order, then scale by 1/T.
  return build(Kind::Average, forest.num_classes(),
               1.0 / static_cast<double>(src.size()), {}, trees,
               std::move(leaf_values), {});
}

std::shared_ptr<const CompiledTreePredictor> CompiledTreePredictor::compile(
    const GbmClassifier& gbm) {
  if (!gbm.fitted()) return nullptr;
  const auto k = static_cast<std::size_t>(gbm.num_classes());
  std::vector<std::vector<BuildNode>> trees;
  std::vector<std::int32_t> tree_class;
  std::vector<double> leaf_values;
  // Round-major, class-inner order: each (row, class) margin accumulates
  // its rounds in exactly the reference's sequence.
  for (const auto& round : gbm.rounds()) {
    if (round.size() != k) return nullptr;
    for (std::size_t c = 0; c < k; ++c) {
      std::vector<BuildNode> out;
      out.reserve(round[c].nodes.size());
      for (const GbmClassifier::RegNode& n : round[c].nodes) {
        BuildNode b;
        b.feature = n.feature;
        b.threshold = n.threshold;
        b.left = n.left;
        b.right = n.right;
        if (n.feature < 0) {
          if (leaf_values.size() >= static_cast<std::size_t>(
                                        std::numeric_limits<std::int32_t>::max())) {
            return nullptr;
          }
          b.payload = static_cast<std::int32_t>(leaf_values.size());
          leaf_values.push_back(n.value);
        }
        out.push_back(b);
      }
      trees.push_back(std::move(out));
      tree_class.push_back(static_cast<std::int32_t>(c));
    }
  }
  return build(Kind::Boosted, gbm.num_classes(), gbm.config().learning_rate,
               gbm.base_score(), trees, std::move(leaf_values),
               std::move(tree_class));
}

std::size_t CompiledTreePredictor::small_batch_cutoff() noexcept {
  return cutoff_atomic().load(std::memory_order_relaxed);
}

std::size_t CompiledTreePredictor::set_small_batch_cutoff(
    std::size_t cutoff) noexcept {
  return cutoff_atomic().exchange(cutoff, std::memory_order_relaxed);
}

void CompiledTreePredictor::run_small(const double* const* rowp,
                                      double* const* outp,
                                      std::size_t b) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::int32_t* feat = feat_.data();
  const double* thresh = thresh_.data();
  const std::int32_t* child = child_.data();
  const std::uint32_t* slot_col = slot_feature_.data();

  // One traversal touches only the ~depth features on its taken path, read
  // straight from the caller's row — no binning pass, no scratch. The
  // routing predicate is the shared split_routes_right, so this reaches
  // exactly the leaf the code-based step `child + (code > bin)` reaches.
  //
  // A single walk is a serial dependent-load chain (feat → column → row
  // value → compare → child) the core cannot overlap, so trees are walked
  // in interleaved groups of kLanes: independent chains fill the load
  // ports the way the block path's 8-row lockstep does for large batches.
  // Leaves land in `payload` per tree and are accumulated afterwards in
  // tree order, so probabilities stay bit-identical to the block path and
  // the object walk.
  constexpr std::size_t kLanes = 8;
  const std::size_t num_trees = tree_root_.size();

  for (std::size_t r = 0; r < b; ++r) {
    const double* row = rowp[r];
    double* o = outp[r];
    if (kind_ == Kind::Average) {
      std::fill_n(o, k, 0.0);
    } else {
      std::copy_n(base_.data(), k, o);
    }
    for (std::size_t t0 = 0; t0 < num_trees; t0 += kLanes) {
      const std::size_t g = std::min(kLanes, num_trees - t0);
      std::size_t node[kLanes];
      std::int32_t cur[kLanes];
      for (std::size_t i = 0; i < g; ++i) {
        node[i] = tree_root_[t0 + i];
        cur[i] = feat[node[i]];
      }
      bool active = true;
      while (active) {
        active = false;
        for (std::size_t i = 0; i < g; ++i) {
          if (cur[i] >= 0) {
            const double v = row[slot_col[cur[i]]];
            node[i] =
                static_cast<std::size_t>(child[node[i]]) +
                static_cast<std::size_t>(split_routes_right(v, thresh[node[i]]));
            cur[i] = feat[node[i]];
            active |= cur[i] >= 0;
          }
        }
      }
      // Accumulate in reference order — per-tree adds in tree order — so
      // floating-point summation matches the reference bit for bit.
      if (kind_ == Kind::Average) {
        for (std::size_t i = 0; i < g; ++i) {
          const double* lv =
              leaf_values_.data() + static_cast<std::size_t>(child[node[i]]);
          for (std::size_t c = 0; c < k; ++c) o[c] += lv[c];
        }
      } else {
        for (std::size_t i = 0; i < g; ++i) {
          o[static_cast<std::size_t>(tree_class_[t0 + i])] +=
              scale_ *
              leaf_values_[static_cast<std::size_t>(child[node[i]])];
        }
      }
    }
    if (kind_ == Kind::Average) {
      for (std::size_t c = 0; c < k; ++c) o[c] *= scale_;
    } else {
      softmax(std::span<double>(o, k));
    }
  }
}

template <typename CodeT>
void CompiledTreePredictor::run_block(const double* const* rowp,
                                      double* const* outp, std::size_t b,
                                      CodeT* codes,
                                      std::int32_t* leaf_payload) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t U = slot_feature_.size();

  // Phase 1 — bin the block once, shared by every tree. Feature-outer so
  // each feature's cut table stays L1-resident across all rows of the
  // block (row-outer would re-stream every cut table per row), while the
  // block's x cache lines stay hot across adjacent features. Codes land
  // column-major (one span of b codes per used feature) so the traversal's
  // neighboring rows read from the same cache line.
  double colv[kBlockRows];
  for (std::size_t u = 0; u < U; ++u) {
    const double* cuts = cuts_.data() + cut_offset_[u];
    const std::size_t m = cut_offset_[u + 1] - cut_offset_[u];
    const std::size_t col = slot_feature_[u];
    CodeT* cc = codes + u * b;
    for (std::size_t i = 0; i < b; ++i) colv[i] = rowp[i][col];
    std::size_t i = 0;
    for (; i + 8 <= b; i += 8) code_of8<CodeT>(colv + i, cuts, m, cc + i);
    for (; i < b; ++i) cc[i] = code_of<CodeT>(colv[i], cuts, m);
  }

  // Phase 2 — initialize accumulators.
  if (kind_ == Kind::Average) {
    for (std::size_t i = 0; i < b; ++i) std::fill_n(outp[i], k, 0.0);
  } else {
    for (std::size_t i = 0; i < b; ++i) {
      std::copy_n(base_.data(), k, outp[i]);
    }
  }

  // Phase 3 — traverse every tree over the block, four rows in lockstep.
  const std::int32_t* feat = feat_.data();
  const std::uint16_t* bin = bin_.data();
  const std::int32_t* child = child_.data();
  for (std::size_t t = 0; t < tree_root_.size(); ++t) {
    const std::size_t root = tree_root_[t];
    // Advance one cursor: finished rows (leaf, feat < 0) stay put; live
    // rows jump to child + (code > bin). The clamped feature index keeps
    // the (discarded) code load in bounds for finished rows. Mask
    // arithmetic instead of ternaries: rows finish at unpredictable
    // depths, so a conditional select here would mispredict.
    const auto step = [&](std::size_t n, std::int32_t f,
                          std::size_t i) noexcept {
      const auto done =
          static_cast<std::size_t>(static_cast<std::int64_t>(f) >> 63);
      const auto fi = static_cast<std::size_t>(f) & ~done;
      const std::size_t taken =
          static_cast<std::size_t>(child[n]) +
          static_cast<std::size_t>(codes[fi * b + i] > bin[n]);
      return (n & done) | (taken & ~done);
    };
    std::size_t i = 0;
    for (; i + 8 <= b; i += 8) {
      std::size_t n[8];
      for (int j = 0; j < 8; ++j) n[j] = root;
      for (;;) {
        std::int32_t f[8];
        for (int j = 0; j < 8; ++j) f[j] = feat[n[j]];
        // Sign bits AND together: negative only when all eight hit leaves.
        if ((f[0] & f[1] & f[2] & f[3] & f[4] & f[5] & f[6] & f[7]) < 0) {
          break;
        }
        for (int j = 0; j < 8; ++j) {
          n[j] = step(n[j], f[j], i + static_cast<std::size_t>(j));
        }
      }
      for (int j = 0; j < 8; ++j) {
        leaf_payload[i + static_cast<std::size_t>(j)] = child[n[j]];
      }
    }
    for (; i < b; ++i) {
      std::size_t n = root;
      while (feat[n] >= 0) n = step(n, feat[n], i);
      leaf_payload[i] = child[n];
    }

    if (kind_ == Kind::Average) {
      for (std::size_t r = 0; r < b; ++r) {
        const double* lv =
            leaf_values_.data() + static_cast<std::size_t>(leaf_payload[r]);
        double* o = outp[r];
        for (std::size_t c = 0; c < k; ++c) o[c] += lv[c];
      }
    } else {
      const auto c = static_cast<std::size_t>(tree_class_[t]);
      for (std::size_t r = 0; r < b; ++r) {
        outp[r][c] +=
            scale_ *
            leaf_values_[static_cast<std::size_t>(leaf_payload[r])];
      }
    }
  }

  // Phase 4 — finalize exactly as the reference does: mean for Average
  // (scale_ = 1/T), per-row softmax over margins for Boosted.
  if (kind_ == Kind::Average) {
    for (std::size_t r = 0; r < b; ++r) {
      double* o = outp[r];
      for (std::size_t c = 0; c < k; ++c) o[c] *= scale_;
    }
  } else {
    for (std::size_t r = 0; r < b; ++r) {
      softmax(std::span<double>(outp[r], k));
    }
  }
}

void CompiledTreePredictor::predict_dispatch(const Matrix& x,
                                             const std::size_t* xrow_ids,
                                             std::size_t xrow_first,
                                             std::size_t n, Matrix& out,
                                             std::size_t out_first) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  ALBA_CHECK(out.cols() == k);
  ALBA_CHECK(out_first + n <= out.rows());
  if (n == 0) return;
  ALBA_CHECK(x.cols() >= min_features_)
      << "input has " << x.cols() << " features, model needs "
      << min_features_;

  const std::size_t cols = x.cols();
  const double* rowp[kBlockRows];
  double* outp[kBlockRows];
  const bool small = n <= small_batch_cutoff();

  std::int32_t leaf_payload[kBlockRows];
  std::uint8_t* codes8 = nullptr;
  std::uint16_t* codes16 = nullptr;
  if (!small) {
    // Grow-only per-thread arena: the block path's code columns are
    // reused across calls so steady-state prediction never allocates.
    const std::size_t need =
        std::max<std::size_t>(1, slot_feature_.size()) * kBlockRows;
    BlockArena& arena = block_arena();
    if (wide_codes_) {
      if (arena.codes16.size() < need) arena.codes16.resize(need);
      codes16 = arena.codes16.data();
    } else {
      if (arena.codes8.size() < need) arena.codes8.resize(need);
      codes8 = arena.codes8.data();
    }
  }

  for (std::size_t done = 0; done < n; done += kBlockRows) {
    const std::size_t b = std::min(kBlockRows, n - done);
    for (std::size_t j = 0; j < b; ++j) {
      const std::size_t r =
          xrow_ids != nullptr ? xrow_ids[done + j] : xrow_first + done + j;
      ALBA_DCHECK(r < x.rows());
      rowp[j] = x.data() + r * cols;
      outp[j] = out.data() + (out_first + done + j) * k;
    }
    if (small) {
      run_small(rowp, outp, b);
    } else if (wide_codes_) {
      run_block<std::uint16_t>(rowp, outp, b, codes16, leaf_payload);
    } else {
      run_block<std::uint8_t>(rowp, outp, b, codes8, leaf_payload);
    }
  }
}

void CompiledTreePredictor::predict_range(const Matrix& x, std::size_t begin,
                                          std::size_t end, Matrix& out) const {
  ALBA_CHECK(begin <= end && end <= x.rows());
  ALBA_CHECK(out.rows() == x.rows());
  predict_dispatch(x, nullptr, begin, end - begin, out, begin);
}

void CompiledTreePredictor::predict_rows(const Matrix& x,
                                         std::span<const std::size_t> rows,
                                         Matrix& out) const {
  ALBA_CHECK(out.rows() == rows.size());
  predict_dispatch(x, rows.data(), 0, rows.size(), out, 0);
}

}  // namespace alba
