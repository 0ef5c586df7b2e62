#include "features/mvts.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "features/cell_writer.hpp"
#include "stats/descriptive.hpp"
#include "stats/regression.hpp"

namespace alba {

namespace {
using namespace alba::stats;
constexpr std::uint32_t kMo = FeaturePlan::kMoments;
}  // namespace

MvtsExtractor::MvtsExtractor() {
  using P = FeaturePlan;
  // 14 whole-series descriptive statistics
  for (const char* n : {"mean", "std", "var", "min", "max", "range"}) {
    add_feature(n, kMo);
  }
  for (const char* n : {"median", "q05", "q25", "q75", "q95"}) {
    add_feature(n, P::kSorted);
  }
  add_feature("skewness", kMo);
  add_feature("kurtosis", kMo);
  add_feature("iqr", P::kSorted);
  // 11 first/second-half absolute differences
  for (const char* n : {"d_mean", "d_std", "d_var", "d_min", "d_max"}) {
    add_feature(n, P::kHalfMoments);
  }
  for (const char* n : {"d_median", "d_q25", "d_q75"}) {
    add_feature(n, P::kSortedHalves);
  }
  for (const char* n : {"d_skewness", "d_kurtosis", "d_range"}) {
    add_feature(n, P::kHalfMoments);
  }
  // 4 long-run trends
  add_feature("longest_inc_run", 0);
  add_feature("longest_dec_run", 0);
  add_feature("longest_above_mean", kMo);
  add_feature("longest_below_mean", kMo);
  // 19 change / location / trend statistics
  for (const char* n : {"mean_abs_change", "mean_change", "abs_sum_changes",
                        "mean_second_derivative"}) {
    add_feature(n, 0);
  }
  add_feature("count_above_mean", kMo);
  add_feature("count_below_mean", kMo);
  for (const char* n :
       {"first_loc_max", "first_loc_min", "last_loc_max", "last_loc_min"}) {
    add_feature(n, 0);
  }
  add_feature("crossings_mean", kMo);
  add_feature("num_peaks3", 0);
  for (const char* n :
       {"trend_slope", "trend_intercept", "trend_rvalue", "trend_stderr",
        "cid_norm", "variation_coef", "rms"}) {
    add_feature(n, kMo);
  }
  ALBA_CHECK(num_features() == 48) << "MVTS must emit 48 features, has "
                                   << num_features();
}

namespace {

// Writes the cells `w` wants of x, in feature order; returns the feature
// count.
template <bool kFull>
std::size_t extract_cells(std::span<const double> x, CellWriter<kFull> w) {
  // The intermediates the statistics share, each built once and only when
  // a wanted cell reads it: the moments of the series and of its halves,
  // and one sort each of the series and of its two halves. The sort buffer
  // is per call: extract is const and runs concurrently, and a buffer kept
  // per thread pins pool-thread heap (it raised the offline dataset
  // build's peak RSS by 4%).
  using P = FeaturePlan;
  const std::size_t n = x.size();
  const std::size_t half = n / 2;
  const std::span<const double> xa = x.first(half);
  const std::span<const double> xb = x.subspan(half);
  Moments mo;
  if (w.reads(P::kMoments)) mo = moments(x);
  Moments ma;
  Moments mb;
  if (w.reads(P::kHalfMoments)) {
    ma = moments(xa);
    mb = moments(xb);
  }
  const bool sort_all = w.reads(P::kSorted);
  const bool sort_halves = w.reads(P::kSortedHalves);
  std::vector<double> buffer((sort_all ? n : 0) + (sort_halves ? n : 0));
  double* next = buffer.data();
  std::span<double> sorted;  // the series, ascending
  std::span<double> sa;      // its first half, ascending
  std::span<double> sb;      // its second half, ascending
  if (sort_all) {
    sorted = std::span<double>(next, n);
    next += n;
    std::copy(x.begin(), x.end(), sorted.begin());
    std::sort(sorted.begin(), sorted.end());
  }
  if (sort_halves) {
    sa = std::span<double>(next, half);
    sb = std::span<double>(next + half, n - half);
    std::copy(x.begin(), x.end(), next);
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
  }
  std::size_t i = 0;

  w.put(i++, [&] { return mo.mean; });
  w.put(i++, [&] { return mo.stddev; });
  w.put(i++, [&] { return mo.variance; });
  w.put(i++, [&] { return mo.min; });
  w.put(i++, [&] { return mo.max; });
  w.put(i++, [&] { return mo.range; });
  w.put(i++, [&] { return quantile_sorted(sorted, 0.5); });
  w.put(i++, [&] { return quantile_sorted(sorted, 0.05); });
  w.put(i++, [&] { return quantile_sorted(sorted, 0.25); });
  w.put(i++, [&] { return quantile_sorted(sorted, 0.75); });
  w.put(i++, [&] { return quantile_sorted(sorted, 0.95); });
  w.put(i++, [&] { return skewness(x, mo); });
  w.put(i++, [&] { return kurtosis(x, mo); });
  w.put(i++, [&] {
    return quantile_sorted(sorted, 0.75) - quantile_sorted(sorted, 0.25);
  });

  w.put(i++, [&] { return std::abs(ma.mean - mb.mean); });
  w.put(i++, [&] { return std::abs(ma.stddev - mb.stddev); });
  w.put(i++, [&] { return std::abs(ma.variance - mb.variance); });
  w.put(i++, [&] { return std::abs(ma.min - mb.min); });
  w.put(i++, [&] { return std::abs(ma.max - mb.max); });
  for (const double q : {0.5, 0.25, 0.75}) {
    w.put(i++, [&] {
      return std::abs(quantile_sorted(sa, q) - quantile_sorted(sb, q));
    });
  }
  w.put(i++, [&] { return std::abs(skewness(xa, ma) - skewness(xb, mb)); });
  w.put(i++, [&] { return std::abs(kurtosis(xa, ma) - kurtosis(xb, mb)); });
  w.put(i++, [&] { return std::abs(ma.range - mb.range); });

  w.put(i++, [&] {
    return static_cast<double>(longest_strictly_increasing_run(x));
  });
  w.put(i++, [&] {
    return static_cast<double>(longest_strictly_decreasing_run(x));
  });
  w.put(i++, [&] { return static_cast<double>(longest_run_above(x, mo.mean)); });
  w.put(i++, [&] { return static_cast<double>(longest_run_below(x, mo.mean)); });

  // mean_abs_change (this cell) and abs_sum_changes (two on) share it.
  const double abs_changes =
      w.wants(i) || w.wants(i + 2) ? absolute_sum_of_changes(x) : 0.0;
  w.put(i++, [&] { return mean_abs_change(n, abs_changes); });
  w.put(i++, [&] { return mean_change(x); });
  w.put(i++, [&] { return abs_changes; });
  w.put(i++, [&] { return mean_second_derivative_central(x); });
  w.put(i++, [&] { return static_cast<double>(count_above(x, mo.mean)); });
  w.put(i++, [&] { return static_cast<double>(count_below(x, mo.mean)); });
  w.put(i++, [&] { return first_location_of_maximum(x); });
  w.put(i++, [&] { return first_location_of_minimum(x); });
  w.put(i++, [&] { return last_location_of_maximum(x); });
  w.put(i++, [&] { return last_location_of_minimum(x); });
  w.put(i++, [&] {
    return static_cast<double>(number_of_crossings(x, mo.mean));
  });
  w.put(i++, [&] { return static_cast<double>(number_of_peaks(x, 3)); });
  LinearTrend trend;
  if (w.wants_any(i, 4)) trend = linear_trend(x, mo.mean);
  w.put(i++, [&] { return trend.slope; });
  w.put(i++, [&] { return trend.intercept; });
  w.put(i++, [&] { return trend.rvalue; });
  w.put(i++, [&] { return trend.stderr_; });
  w.put(i++, [&] { return cid_ce(x, /*normalize=*/true, mo); });
  w.put(i++, [&] { return variation_coefficient(mo); });
  w.put(i++, [&] { return root_mean_square(mo); });

  return i;
}

}  // namespace

void MvtsExtractor::extract(std::span<const double> x, const FeaturePlan& plan,
                            std::span<double> out) const {
  check_out(plan, out);
  ALBA_CHECK(x.size() >= 4) << "series too short for MVTS extraction";
  const std::size_t cells =
      plan.full() ? extract_cells(x, CellWriter<true>(plan, out))
                  : extract_cells(x, CellWriter<false>(plan, out));
  ALBA_CHECK(cells == num_features());
}

}  // namespace alba
