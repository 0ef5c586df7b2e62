// Compiled flat-SoA inference for the fitted tree models: a fitted
// DecisionTree / RandomForest / GbmClassifier is lowered once, at fit or
// restore time, into contiguous per-node arrays (feature slot, bin
// threshold, child offset) plus flat leaf payloads, and traversed
// branchlessly against per-block bin codes.
//
// Why it is fast: the object walk chases 48-byte heap Node structs one row
// at a time and compares raw doubles at every level. The compiled form
// instead (1) quantizes each block of rows once — every used feature's
// value is ranked against the model's per-feature threshold table
// ("cuts"), yielding a small integer code — and then (2) every tree of the
// forest/boosting ensemble reuses those codes: a split is `code > bin`, a
// one-byte compare against a 10-byte SoA node that stays cache-resident.
// Children are BFS-renumbered to be adjacent (right = left + 1) so the
// traversal step is `next = child + (code > bin)` with no branch.
//
// Bit-identity contract: the compiled path reaches the same leaf as the
// reference traversal on every input (including non-finite values, which
// take code 0 and ride left — the NaN-left rule of ml/binning.hpp) and
// accumulates leaf payloads in the same floating-point order the reference
// uses, so probabilities are bit-identical, not merely close. The object
// walk stays available as `predict_proba_reference` on each model.
//
// Compilation works for every trained model — exact-split trees and
// forests, exact- and histogram-trained GBMs: the cut table is built from
// the thresholds actually stored in the trees, so it is the per-feature
// sorted-unique union of split points, not the training histogram's edges.
//
// Small batches take a different kernel. Quantizing a block ranks every
// used feature's value against its whole cut table, which amortizes
// beautifully across 64 rows × all trees — and is pure overhead for the
// single-window requests the streaming front end triggers: one traversal
// only touches the ~depth features on its taken path. Below a crossover
// batch size (16, measured; see compiled_tree.cpp) predict takes the
// threshold-SoA kernel instead: each node also carries its raw double
// threshold in the same BFS-adjacent layout, and the walk compares
// `value > threshold` directly on the taken path — no code quantization,
// no scratch buffers, no allocation. Both kernels reproduce the NaN-left
// rule through ml/binning.hpp's split_routes_right and accumulate leaf
// payloads in reference order, so all three paths are bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace alba {

class DecisionTree;
class RandomForest;
class GbmClassifier;

class CompiledTreePredictor {
 public:
  /// Lower a fitted model. Returns nullptr when compilation is not
  /// possible (unfitted model, or a feature with more than 65535 distinct
  /// thresholds); callers fall back to the reference traversal.
  static std::shared_ptr<const CompiledTreePredictor> compile(
      const DecisionTree& tree);
  static std::shared_ptr<const CompiledTreePredictor> compile(
      const RandomForest& forest);
  static std::shared_ptr<const CompiledTreePredictor> compile(
      const GbmClassifier& gbm);

  /// Fills rows [begin, end) of `out` with the probabilities for the same
  /// rows of `x`. `out` must already be x.rows() × num_classes. Serial and
  /// const-thread-safe: disjoint ranges may run on different threads.
  void predict_range(const Matrix& x, std::size_t begin, std::size_t end,
                     Matrix& out) const;

  /// Gathered variant: out row i = probabilities for x.row(rows[i]).
  /// `out` must already be rows.size() × num_classes. Serial (the
  /// active-learning pool scorer calls it per thread-pool chunk).
  void predict_rows(const Matrix& x, std::span<const std::size_t> rows,
                    Matrix& out) const;

  int num_classes() const noexcept { return num_classes_; }
  std::size_t num_trees() const noexcept { return tree_root_.size(); }
  std::size_t num_nodes() const noexcept { return feat_.size(); }
  /// Features the model actually splits on (= code columns per block).
  std::size_t num_used_features() const noexcept {
    return slot_feature_.size();
  }
  /// True when some feature has more than 255 cuts and block codes widen
  /// to uint16 (histogram-trained GBMs always stay on the uint8 path).
  bool wide_codes() const noexcept { return wide_codes_; }
  /// Minimum x.cols() an input matrix must have.
  std::size_t min_features() const noexcept { return min_features_; }

  /// Crossover batch size: predict calls with at most this many rows take
  /// the small-batch threshold kernel, larger ones the binned block path.
  /// Process-wide; starts at the measured default of 16.
  static std::size_t small_batch_cutoff() noexcept;
  /// Overrides the crossover at runtime — benches and tests force each
  /// variant with 0 (always block) or SIZE_MAX (always small). Returns
  /// the previous value so callers can restore it.
  static std::size_t set_small_batch_cutoff(std::size_t cutoff) noexcept;

 private:
  // Leaf payload semantics per model family: Average sums k-wide leaf
  // distributions then scales by 1/T (DT is the T = 1 case); Boosted adds
  // learning_rate × scalar leaf value into the tree's class margin on top
  // of the base scores, then softmaxes each row.
  enum class Kind { Average, Boosted };

  // Uniform pre-lowering form the three model adapters produce.
  struct BuildNode {
    int feature = -1;       // -1 = leaf
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::int32_t payload = 0;  // leaf: index into leaf_values_
  };

  static std::shared_ptr<const CompiledTreePredictor> build(
      Kind kind, int num_classes, double scale, std::vector<double> base,
      const std::vector<std::vector<BuildNode>>& trees,
      std::vector<double> leaf_values, std::vector<std::int32_t> tree_class);

  // Shared driver: predicts n rows, x row j = xrow_ids ? xrow_ids[j]
  // : xrow_first + j, writing out row out_first + j.
  void predict_dispatch(const Matrix& x, const std::size_t* xrow_ids,
                        std::size_t xrow_first, std::size_t n, Matrix& out,
                        std::size_t out_first) const;
  template <typename CodeT>
  void run_block(const double* const* rowp, double* const* outp,
                 std::size_t b, CodeT* codes,
                 std::int32_t* leaf_payload) const;
  // Small-batch kernel: row-at-a-time traversal with raw `value >
  // threshold` compares on the taken path only — no binning, no scratch.
  void run_small(const double* const* rowp, double* const* outp,
                 std::size_t b) const;

  Kind kind_ = Kind::Average;
  int num_classes_ = 0;
  double scale_ = 1.0;         // Average: 1/T; Boosted: learning_rate
  std::vector<double> base_;   // Boosted: per-class base scores
  std::size_t min_features_ = 0;
  bool wide_codes_ = false;

  // Per-feature threshold tables ("cuts"), ascending, one contiguous span
  // per used-feature slot. code(v) = #cuts < v, 0 for non-finite v.
  std::vector<std::uint32_t> slot_feature_;  // slot -> matrix column
  std::vector<std::size_t> cut_offset_;      // slot -> cuts_ span, size U+1
  std::vector<double> cuts_;

  // SoA nodes of all trees concatenated, BFS order (children adjacent).
  std::vector<std::size_t> tree_root_;
  std::vector<std::int32_t> feat_;    // used-feature slot, -1 = leaf
  std::vector<std::uint16_t> bin_;    // cut index: go left when code <= bin
  std::vector<double> thresh_;        // raw cut value: cuts[bin]; leaf: 0
  std::vector<std::int32_t> child_;   // internal: left child; leaf: payload
  std::vector<double> leaf_values_;   // Average: k per leaf; Boosted: 1
  std::vector<std::int32_t> tree_class_;  // Boosted: class each tree updates
};

}  // namespace alba
