// Descriptive statistics over a time series (span of doubles). These are the
// primitives both feature extractors are built from. All functions treat the
// input as-is (no NaN filtering — the preprocessing layer removes NaNs
// before extraction) and return NaN for undefined cases (e.g. variance of a
// single point) so downstream NaN-column dropping mirrors the paper's
// pipeline.
//
// Statistics that read a shared intermediate — the moments, the sorted
// series, the value-count table — take it as an argument, so an extractor
// computes each intermediate once per series, and only when a statistic it
// extracts reads it (features/feature_plan.hpp); there is no series-only
// overload that rebuilds it.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

namespace alba::stats {

double sum(std::span<const double> x) noexcept;
double minimum(std::span<const double> x) noexcept;
double maximum(std::span<const double> x) noexcept;
double abs_energy(std::span<const double> x) noexcept;

/// The intermediates most statistics share, each computed once.
struct Moments {
  std::size_t n = 0;
  double sum = 0.0;
  double mean = 0.0;
  double ssd = 0.0;       // sum of squared deviations from the mean
  double variance = 0.0;  // population variance (ddof = 0), numpy's default
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double range = 0.0;     // max - min
  double energy = 0.0;    // sum of squares (abs_energy)
};

/// Moments of x; every field but `n`, `sum` and `energy` is NaN for an
/// empty x.
Moments moments(std::span<const double> x) noexcept;

double mean(std::span<const double> x) noexcept;
double variance(std::span<const double> x) noexcept;
/// Sample variance (ddof = 1); NaN for n < 2.
double sample_variance(std::span<const double> x) noexcept;
double stddev(std::span<const double> x) noexcept;
double range(std::span<const double> x) noexcept;

/// Linear-interpolated quantile of an ascending-sorted series, q in [0,1]
/// (numpy 'linear' method).
double quantile_sorted(std::span<const double> sorted, double q) noexcept;
/// quantile_sorted over a sorted copy of x.
double quantile(std::span<const double> x, double q);
double median(std::span<const double> x);

/// Fisher skewness (g1); NaN when stddev is ~0.
double skewness(std::span<const double> x, const Moments& mo) noexcept;
/// Excess kurtosis (g2); NaN when stddev is ~0.
double kurtosis(std::span<const double> x, const Moments& mo) noexcept;
/// Coefficient of variation: stddev / |mean|; NaN when mean ~ 0.
double variation_coefficient(const Moments& mo) noexcept;
double root_mean_square(const Moments& mo) noexcept;
double absolute_sum_of_changes(std::span<const double> x) noexcept;
/// absolute_sum_of_changes / (n - 1).
double mean_abs_change(std::size_t n, double abs_sum_of_changes) noexcept;
double mean_change(std::span<const double> x) noexcept;
/// Second derivative central mean: mean of (x[i+1] - 2x[i] + x[i-1]) / 2.
double mean_second_derivative_central(std::span<const double> x) noexcept;
std::size_t count_above(std::span<const double> x, double t) noexcept;
std::size_t count_below(std::span<const double> x, double t) noexcept;
/// Index (0-based) of first/last occurrence of min/max, as a fraction of n.
double first_location_of_maximum(std::span<const double> x) noexcept;
double first_location_of_minimum(std::span<const double> x) noexcept;
double last_location_of_maximum(std::span<const double> x) noexcept;
double last_location_of_minimum(std::span<const double> x) noexcept;
/// Longest run of strictly increasing / decreasing values.
std::size_t longest_strictly_increasing_run(std::span<const double> x) noexcept;
std::size_t longest_strictly_decreasing_run(std::span<const double> x) noexcept;
/// Longest run of values strictly above / below t.
std::size_t longest_run_above(std::span<const double> x, double t) noexcept;
std::size_t longest_run_below(std::span<const double> x, double t) noexcept;
/// Number of local maxima with support window `support` on each side.
std::size_t number_of_peaks(std::span<const double> x, std::size_t support) noexcept;
/// Number of times the series crosses value `t` (sign changes of x - t).
std::size_t number_of_crossings(std::span<const double> x, double t) noexcept;
/// Fraction of values farther than r standard deviations from the mean.
double ratio_beyond_r_sigma(std::span<const double> x, const Moments& mo,
                            double r) noexcept;

/// Occurrences of each distinct value, inserted in index order (the table's
/// iteration order, and so the reoccurring-value sum, depends on that).
using ValueCounts = std::unordered_map<double, std::size_t>;
ValueCounts value_counts(std::span<const double> x);

/// Whether any value occurs more than once.
bool has_duplicate(const ValueCounts& counts) noexcept;
/// Whether `extreme` (the series' min or max) occurs more than once.
bool has_duplicate_value(std::span<const double> x, double extreme) noexcept;
/// Sum of values occurring more than once (tsfresh sum_of_reoccurring_values).
double sum_of_reoccurring_values(const ValueCounts& counts) noexcept;
/// Percentage of distinct values appearing more than once.
double percentage_of_reoccurring_datapoints(const ValueCounts& counts) noexcept;

/// Nonlinearity measure c3(lag): mean of x[i+2l]*x[i+l]*x[i].
double c3(std::span<const double> x, std::size_t lag) noexcept;
/// Complexity-invariant distance: sqrt(sum of squared diffs), optionally of
/// the z-normalized series (which reads mo.mean and mo.stddev).
double cid_ce(std::span<const double> x, bool normalize,
              const Moments& mo) noexcept;
/// Time reversal asymmetry statistic with lag.
double time_reversal_asymmetry(std::span<const double> x, std::size_t lag) noexcept;
/// Large standard deviation test: stddev > r * range.
bool large_standard_deviation(const Moments& mo, double r) noexcept;
/// Symmetry: |mean - median| < r * range.
bool symmetry_looking(const Moments& mo, double median, double r) noexcept;

}  // namespace alba::stats
