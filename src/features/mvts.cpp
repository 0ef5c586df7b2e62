#include "features/mvts.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "stats/descriptive.hpp"
#include "stats/regression.hpp"

namespace alba {

namespace {
using namespace alba::stats;

// The 11 descriptive statistics whose first-half/second-half absolute
// differences are also emitted. `sorted` is the half, sorted ascending.
struct HalfStats {
  double mean_, std_, var_, min_, max_, median_, q25_, q75_, skew_, kurt_, range_;
};

HalfStats half_stats(std::span<const double> x, std::span<const double> sorted) {
  const Moments mo = moments(x);
  HalfStats h;
  h.mean_ = mo.mean;
  h.std_ = mo.stddev;
  h.var_ = mo.variance;
  h.min_ = mo.min;
  h.max_ = mo.max;
  h.median_ = quantile_sorted(sorted, 0.5);
  h.q25_ = quantile_sorted(sorted, 0.25);
  h.q75_ = quantile_sorted(sorted, 0.75);
  h.skew_ = skewness(x, mo);
  h.kurt_ = kurtosis(x, mo);
  h.range_ = mo.range;
  return h;
}
}  // namespace

MvtsExtractor::MvtsExtractor() {
  names_ = {
      // 14 whole-series descriptive statistics
      "mean", "std", "var", "min", "max", "range", "median", "q05", "q25",
      "q75", "q95", "skewness", "kurtosis", "iqr",
      // 11 first/second-half absolute differences
      "d_mean", "d_std", "d_var", "d_min", "d_max", "d_median", "d_q25",
      "d_q75", "d_skewness", "d_kurtosis", "d_range",
      // 4 long-run trends
      "longest_inc_run", "longest_dec_run", "longest_above_mean",
      "longest_below_mean",
      // 19 change / location / trend statistics
      "mean_abs_change", "mean_change", "abs_sum_changes",
      "mean_second_derivative", "count_above_mean", "count_below_mean",
      "first_loc_max", "first_loc_min", "last_loc_max", "last_loc_min",
      "crossings_mean", "num_peaks3", "trend_slope", "trend_intercept",
      "trend_rvalue", "trend_stderr", "cid_norm", "variation_coef", "rms"};
  ALBA_CHECK(names_.size() == 48) << "MVTS must emit 48 features, has "
                                  << names_.size();
}

void MvtsExtractor::extract(std::span<const double> x,
                            std::span<double> out) const {
  ALBA_CHECK(out.size() == names_.size());
  ALBA_CHECK(x.size() >= 4) << "series too short for MVTS extraction";
  // The intermediates the statistics share, each computed once: the
  // moments, and one sort each of the series and of its two halves. The
  // sort buffer is per call: extract is const and runs concurrently, and a
  // buffer kept per thread pins pool-thread heap (it raised the offline
  // dataset build's peak RSS by 4%).
  const Moments mo = moments(x);
  const std::size_t n = x.size();
  const std::size_t half = n / 2;
  std::vector<double> buffer(2 * n);
  const std::span<double> sorted(buffer.data(), n);
  const std::span<double> sorted_halves(buffer.data() + n, n);
  std::copy(x.begin(), x.end(), sorted.begin());
  std::copy(x.begin(), x.end(), sorted_halves.begin());
  std::sort(sorted.begin(), sorted.end());
  std::sort(sorted_halves.begin(), sorted_halves.begin() + half);
  std::sort(sorted_halves.begin() + half, sorted_halves.end());
  std::size_t i = 0;

  out[i++] = mo.mean;
  out[i++] = mo.stddev;
  out[i++] = mo.variance;
  out[i++] = mo.min;
  out[i++] = mo.max;
  out[i++] = mo.range;
  out[i++] = quantile_sorted(sorted, 0.5);
  out[i++] = quantile_sorted(sorted, 0.05);
  out[i++] = quantile_sorted(sorted, 0.25);
  out[i++] = quantile_sorted(sorted, 0.75);
  out[i++] = quantile_sorted(sorted, 0.95);
  out[i++] = skewness(x, mo);
  out[i++] = kurtosis(x, mo);
  out[i++] = quantile_sorted(sorted, 0.75) - quantile_sorted(sorted, 0.25);

  const HalfStats a = half_stats(x.first(half), sorted_halves.first(half));
  const HalfStats b = half_stats(x.subspan(half), sorted_halves.subspan(half));
  out[i++] = std::abs(a.mean_ - b.mean_);
  out[i++] = std::abs(a.std_ - b.std_);
  out[i++] = std::abs(a.var_ - b.var_);
  out[i++] = std::abs(a.min_ - b.min_);
  out[i++] = std::abs(a.max_ - b.max_);
  out[i++] = std::abs(a.median_ - b.median_);
  out[i++] = std::abs(a.q25_ - b.q25_);
  out[i++] = std::abs(a.q75_ - b.q75_);
  out[i++] = std::abs(a.skew_ - b.skew_);
  out[i++] = std::abs(a.kurt_ - b.kurt_);
  out[i++] = std::abs(a.range_ - b.range_);

  out[i++] = static_cast<double>(longest_strictly_increasing_run(x));
  out[i++] = static_cast<double>(longest_strictly_decreasing_run(x));
  out[i++] = static_cast<double>(longest_run_above(x, mo.mean));
  out[i++] = static_cast<double>(longest_run_below(x, mo.mean));

  const double abs_changes = absolute_sum_of_changes(x);
  out[i++] = mean_abs_change(n, abs_changes);
  out[i++] = mean_change(x);
  out[i++] = abs_changes;
  out[i++] = mean_second_derivative_central(x);
  out[i++] = static_cast<double>(count_above(x, mo.mean));
  out[i++] = static_cast<double>(count_below(x, mo.mean));
  out[i++] = first_location_of_maximum(x);
  out[i++] = first_location_of_minimum(x);
  out[i++] = last_location_of_maximum(x);
  out[i++] = last_location_of_minimum(x);
  out[i++] = static_cast<double>(number_of_crossings(x, mo.mean));
  out[i++] = static_cast<double>(number_of_peaks(x, 3));
  const LinearTrend trend = linear_trend(x, mo.mean);
  out[i++] = trend.slope;
  out[i++] = trend.intercept;
  out[i++] = trend.rvalue;
  out[i++] = trend.stderr_;
  out[i++] = cid_ce(x, /*normalize=*/true, mo);
  out[i++] = variation_coefficient(mo);
  out[i++] = root_mean_square(mo);

  ALBA_CHECK(i == names_.size());
}

}  // namespace alba
