// Feature codings for tree training. `ExactRanks` is the lossless rank
// coding behind the exact split finder of decision trees and forests.
// `BinnedMatrix` is the feature quantizer behind gradient boosting's
// histogram mode (LightGBM-style, Ke et al. NeurIPS 2017): each feature
// column is cut once into at most 255 uint8 bins at quantile boundaries,
// with bin 0 reserved for NaN, and `SplitAlgo::Hist` boosters search splits
// over bin histograms in O(n × f_try) per node instead of re-sorting raw
// values, while the stored thresholds stay raw-valued so prediction never
// touches the binned view.
//
// Both are built once per `fit` and shared read-only across all trees /
// boosting rounds; neither outlives training.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "linalg/matrix.hpp"

namespace alba {

/// Value ordering for the exact split scans. Every non-finite value (NaN,
/// ±inf) routes left at predict time — `v <= t || !isfinite(v)` — so no
/// split can tell them apart: they form one equivalence class that sorts
/// before every finite value. This also keeps std::sort away from raw NaN
/// comparisons, which violate strict weak ordering.
inline bool exact_value_less(double a, double b) noexcept {
  const bool fa = std::isfinite(a);
  const bool fb = std::isfinite(b);
  if (fa != fb) return !fa;  // non-finite first
  return fa && a < b;
}

inline bool exact_value_equal(double a, double b) noexcept {
  const bool fa = std::isfinite(a);
  const bool fb = std::isfinite(b);
  if (fa != fb) return false;
  return !fa || a == b;
}

/// Raw-value threshold realizing the cut "left group ends at `left`, right
/// group starts at `right`" between adjacent distinct sort keys: -inf when
/// the left group is the non-finite class (only non-finite values satisfy
/// `v <= -inf || !isfinite(v)`), else the usual midpoint of the two finite
/// neighbors — the same two forms GBM's histogram splitter emits.
inline double exact_cut_threshold(double left, double right) noexcept {
  return std::isfinite(left) ? 0.5 * (left + right)
                             : -std::numeric_limits<double>::infinity();
}

/// Predict-time routing against a stored raw threshold: `v` takes the
/// right child iff it is finite and strictly above the cut — the
/// complement of the NaN-left rule `v <= t || !isfinite(v)`. Every
/// traversal (the object walk, the compiled block path via bin codes, the
/// compiled small-batch threshold kernel) must agree on this one
/// predicate, so it lives here next to the cut semantics it completes.
/// The comparisons combine with `&`, not `&&`: a short-circuit compiles
/// to a data-dependent branch, and the hot traversals want a select.
inline bool split_routes_right(double v, double threshold) noexcept {
  return (static_cast<int>(v > threshold) &
          static_cast<int>(std::isfinite(v))) != 0;
}

/// Split-finding algorithm for gradient boosting (`GbmConfig::split_algo`;
/// decision trees and forests always split exactly, over `ExactRanks`).
/// `Exact` (the default) scores every boundary between distinct raw values
/// by sorting them per node and is the reference implementation. `Hist`
/// quantizes features once into at most 255 bins and scans bin histograms —
/// near-identical accuracy, cheaper on large wide matrices.
enum class SplitAlgo { Exact, Hist };

/// Lossless rank coding for the exact tree split finder. Each column's
/// values are replaced by their rank among the column's distinct values
/// under `exact_value_less`; rank 0 is the non-finite class when the column
/// has one. Counting a node's rows per rank gives the same value groups, in
/// the same order, as sorting the node's raw values, so the splitter scans
/// integer counts without sorting at any node. Built once per `fit`
/// (columns ranked in parallel on the global pool) and shared read-only
/// across trees; it never outlives training.
class ExactRanks {
 public:
  ExactRanks() noexcept = default;
  explicit ExactRanks(const Matrix& x);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// Rank codes of feature `f` for all rows (column-major).
  const std::uint32_t* column(std::size_t f) const noexcept {
    ALBA_DCHECK(f < cols_);
    return codes_.data() + f * rows_;
  }

  /// Distinct values (ranks) of feature `f`; 1 means a constant column.
  std::size_t num_ranks(std::size_t f) const noexcept {
    return keys_[f].size();
  }

  /// Largest num_ranks over all columns: the code range a scan must cover.
  std::size_t max_ranks() const noexcept { return max_ranks_; }

  /// A value of rank `rank` in feature `f` (NaN for the non-finite class).
  /// Every value of one rank gives the same `exact_cut_threshold` against
  /// any other rank's value, so any representative serves.
  double key(std::size_t f, std::size_t rank) const noexcept {
    ALBA_DCHECK(rank < keys_[f].size());
    return keys_[f][rank];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t max_ranks_ = 0;
  std::vector<std::uint32_t> codes_;       // column-major, cols_ × rows_
  std::vector<std::vector<double>> keys_;  // per feature: value of each rank
};

class BinnedMatrix {
 public:
  /// Total bins per feature including the reserved NaN bin 0, so at most
  /// 255 finite-value bins — codes always fit a uint8.
  static constexpr int kMaxBins = 256;

  BinnedMatrix() noexcept = default;

  /// Quantizes every column of `x`. Cut points sit at the column's
  /// quantiles (midpoints between the straddling sorted values, so columns
  /// with fewer than 255 distinct values get exactly one bin per value and
  /// reproduce the exact splitter's midpoint thresholds). Columns with more
  /// than 1024 finite values find their cut points from a deterministic
  /// 1024-value subsample (seeded per column), so the midpoint guarantee
  /// holds only up to that size. Non-finite values map to bin 0. Columns
  /// are quantized in parallel on the global pool; the result is
  /// independent of the schedule.
  explicit BinnedMatrix(const Matrix& x, int max_bins = kMaxBins);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return codes_.empty(); }

  /// Bin codes of feature `f` for all rows (column-major storage: one
  /// contiguous span per feature, the histogram-building access pattern).
  const std::uint8_t* column(std::size_t f) const noexcept {
    ALBA_DCHECK(f < cols_);
    return codes_.data() + f * rows_;
  }

  std::uint8_t code(std::size_t row, std::size_t f) const noexcept {
    ALBA_DCHECK(row < rows_ && f < cols_);
    return codes_[f * rows_ + row];
  }

  /// Bins used by feature `f`, including bin 0; finite codes are
  /// 1..num_bins(f)-1. A value of 1 means the column was entirely NaN.
  int num_bins(std::size_t f) const noexcept {
    return static_cast<int>(edges_[f].size()) + 1;
  }

  /// Raw-value threshold realizing the split "bins 0..bin left, higher bins
  /// right": the upper edge of `bin`. Trees store this so prediction works
  /// on raw features, where `value <= edge || !isfinite(value)` routes left
  /// — NaN travels with bin 0, the leftmost bin, at train and predict time
  /// alike. `bin` must be in [1, num_bins(f) - 1]; a cut after bin 0 itself
  /// (non-finite left, all finite right) is represented as -inf by the
  /// tree builders.
  double upper_edge(std::size_t f, int bin) const noexcept {
    ALBA_DCHECK(bin >= 1 && bin < num_bins(f));
    return edges_[f][static_cast<std::size_t>(bin - 1)];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> codes_;         // column-major, cols_ × rows_
  std::vector<std::vector<double>> edges_;  // per feature: ascending upper
                                            // edges, edges_[f][b-1] closes
                                            // finite bin b
};

}  // namespace alba
