#include "ml/binning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace alba {

namespace {

// Columns quantized per pool task, and the square tile side for the
// row-major → column-major transpose each task starts with.
constexpr std::size_t kColBlock = 64;

// Edge finding sorts at most this many values per column; larger columns
// are subsampled first (deterministically, seeded by the column index).
// Quantile cut points from ~4 samples per bin are statistically stable,
// and the full sort would otherwise dominate training on wide matrices —
// the same tradeoff LightGBM makes when capping bin-construction samples.
// The coding pass still visits every value.
constexpr std::size_t kEdgeSampleCap = 1024;

// Ascending upper edges for one column's finite values (sorted, first `n`
// entries of `sorted`). Fewer distinct values than bins: one bin per value,
// interior edges at midpoints (matching the exact splitter's thresholds),
// last edge = max value. More: edges at quantile boundaries, deduplicated
// so every bin is non-empty.
std::vector<double> make_edges(const double* sorted, std::size_t n,
                               std::size_t max_finite_bins) {
  std::vector<double> edges;
  if (n == 0) return edges;

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < n; ++i) {
    distinct += sorted[i] != sorted[i - 1] ? 1 : 0;
  }

  if (distinct <= max_finite_bins) {
    edges.reserve(distinct);
    for (std::size_t i = 1; i < n; ++i) {
      if (sorted[i] != sorted[i - 1]) {
        edges.push_back(0.5 * (sorted[i - 1] + sorted[i]));
      }
    }
    edges.push_back(sorted[n - 1]);
    return edges;
  }

  edges.reserve(max_finite_bins);
  for (std::size_t b = 1; b < max_finite_bins; ++b) {
    const std::size_t pos = b * n / max_finite_bins;
    if (pos == 0 || sorted[pos] == sorted[pos - 1]) continue;
    const double edge = 0.5 * (sorted[pos - 1] + sorted[pos]);
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  edges.push_back(sorted[n - 1]);
  return edges;
}

// Index of the first edge >= v, i.e. std::lower_bound — but branchless,
// which matters when this runs once per matrix entry. The bool→integer
// multiply (rather than a ternary, which compilers turn back into a
// mispredicting branch) is what keeps the search chain branch-free; it
// measures >3× faster than std::lower_bound here. `n` must be >= 1.
std::size_t lower_bound_index(const double* edges, std::size_t n,
                              double v) noexcept {
  const double* base = edges;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len / 2;
    base += half * static_cast<std::size_t>(base[half - 1] < v);
    len -= half;
  }
  return static_cast<std::size_t>(base - edges) +
         static_cast<std::size_t>(*base < v);
}

// Columns [f0, f0 + bf) of row-major `x` as one column-major block
// (bf × rows), copied by square tiles: the per-column passes below want
// sequential column reads instead of cache-hostile row-stride jumps.
std::vector<double> transpose_columns(const Matrix& x, std::size_t f0,
                                      std::size_t bf) {
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();
  std::vector<double> scratch(bf * rows);
  for (std::size_t r0 = 0; r0 < rows; r0 += kColBlock) {
    const std::size_t r1 = std::min(rows, r0 + kColBlock);
    for (std::size_t i = r0; i < r1; ++i) {
      const double* row = x.data() + i * cols + f0;
      for (std::size_t j = 0; j < bf; ++j) scratch[j * rows + i] = row[j];
    }
  }
  return scratch;
}

}  // namespace

BinnedMatrix::BinnedMatrix(const Matrix& x, int max_bins)
    : rows_(x.rows()), cols_(x.cols()) {
  ALBA_CHECK(max_bins >= 2 && max_bins <= kMaxBins)
      << "max_bins " << max_bins << " outside [2, " << kMaxBins << "]";
  const auto max_finite_bins = static_cast<std::size_t>(max_bins - 1);
  codes_.resize(rows_ * cols_);
  edges_.resize(cols_);

  // Block-parallel over columns: each task owns a contiguous range of
  // features (code spans and edge vectors), so the result is
  // schedule-independent.
  const std::size_t n_blocks = (cols_ + kColBlock - 1) / kColBlock;
  parallel_for(n_blocks, [&](std::size_t blk) {
    const std::size_t f0 = blk * kColBlock;
    const std::size_t bf = std::min(kColBlock, cols_ - f0);

    const std::vector<double> scratch = transpose_columns(x, f0, bf);

    std::vector<double> finite;
    finite.reserve(rows_);
    for (std::size_t j = 0; j < bf; ++j) {
      const std::size_t f = f0 + j;
      const double* col = scratch.data() + j * rows_;

      finite.clear();
      for (std::size_t i = 0; i < rows_; ++i) {
        if (std::isfinite(col[i])) finite.push_back(col[i]);
      }

      std::size_t nf = finite.size();
      if (nf > kEdgeSampleCap) {
        // Partial Fisher–Yates: move a without-replacement sample into the
        // buffer's head. The per-column seed keeps the sample (and so the
        // whole binned view) identical for every pool size.
        Rng rng(0x9E3779B97F4A7C15ULL ^ f);
        for (std::size_t i = 0; i < kEdgeSampleCap; ++i) {
          std::swap(finite[i], finite[i + rng.uniform_index(nf - i)]);
        }
        nf = kEdgeSampleCap;
      }
      std::sort(finite.begin(),
                finite.begin() + static_cast<std::ptrdiff_t>(nf));
      edges_[f] = make_edges(finite.data(), nf, max_finite_bins);

      const std::vector<double>& edges = edges_[f];
      const std::size_t m = edges.size();
      std::uint8_t* codes = codes_.data() + f * rows_;
      for (std::size_t i = 0; i < rows_; ++i) {
        const double v = col[i];
        if (!std::isfinite(v)) {
          codes[i] = 0;
          continue;
        }
        // Values above every sampled edge clamp into the last bin; that
        // bin is never a left-side cut, so training and raw-value
        // prediction still route them the same way.
        const std::size_t idx =
            std::min(lower_bound_index(edges.data(), m, v), m - 1);
        codes[i] = static_cast<std::uint8_t>(1 + idx);
      }
    }
  });
}

ExactRanks::ExactRanks(const Matrix& x) : rows_(x.rows()), cols_(x.cols()) {
  ALBA_CHECK(rows_ <= std::numeric_limits<std::uint32_t>::max())
      << rows_ << " rows exceed the 32-bit rank codes";
  codes_.resize(rows_ * cols_);
  keys_.resize(cols_);

  // Block-parallel over columns, as in BinnedMatrix: each task owns its
  // columns' codes and keys, so the result is schedule-independent.
  const std::size_t n_blocks = (cols_ + kColBlock - 1) / kColBlock;
  parallel_for(n_blocks, [&](std::size_t blk) {
    const std::size_t f0 = blk * kColBlock;
    const std::size_t bf = std::min(kColBlock, cols_ - f0);
    const std::vector<double> scratch = transpose_columns(x, f0, bf);

    std::vector<double> finite;
    finite.reserve(rows_);
    for (std::size_t j = 0; j < bf; ++j) {
      const std::size_t f = f0 + j;
      const double* col = scratch.data() + j * rows_;

      finite.clear();
      for (std::size_t i = 0; i < rows_; ++i) {
        if (std::isfinite(col[i])) finite.push_back(col[i]);
      }
      // Rank 0 is the non-finite class when the column has one.
      const std::size_t base = finite.size() < rows_ ? 1 : 0;
      // Distinct finite values ascending; `==` merges -0.0 with +0.0, the
      // one pair of bit patterns exact_value_equal also merges.
      std::sort(finite.begin(), finite.end());
      finite.erase(std::unique(finite.begin(), finite.end()), finite.end());

      std::vector<double>& keys = keys_[f];
      keys.reserve(base + finite.size());
      if (base == 1) keys.push_back(std::numeric_limits<double>::quiet_NaN());
      keys.insert(keys.end(), finite.begin(), finite.end());

      std::uint32_t* codes = codes_.data() + f * rows_;
      for (std::size_t i = 0; i < rows_; ++i) {
        const double v = col[i];
        codes[i] = std::isfinite(v)
                       ? static_cast<std::uint32_t>(
                             base + lower_bound_index(finite.data(),
                                                      finite.size(), v))
                       : 0;
      }
    }
  });
  for (const std::vector<double>& keys : keys_) {
    max_ranks_ = std::max(max_ranks_, keys.size());
  }
}

}  // namespace alba
