#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace alba::stats {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

double sum(std::span<const double> x) noexcept {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

double minimum(std::span<const double> x) noexcept {
  if (x.empty()) return kNaN;
  return *std::min_element(x.begin(), x.end());
}

double maximum(std::span<const double> x) noexcept {
  if (x.empty()) return kNaN;
  return *std::max_element(x.begin(), x.end());
}

double abs_energy(std::span<const double> x) noexcept {
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return acc;
}

Moments moments(std::span<const double> x) noexcept {
  Moments mo;
  mo.n = x.size();
  mo.sum = sum(x);
  mo.energy = abs_energy(x);
  if (x.empty()) {
    mo.mean = mo.ssd = mo.variance = mo.stddev = kNaN;
    mo.min = mo.max = mo.range = kNaN;
    return mo;
  }
  const double n = static_cast<double>(x.size());
  mo.mean = mo.sum / n;
  double acc = 0.0;
  for (double v : x) acc += (v - mo.mean) * (v - mo.mean);
  mo.ssd = acc;
  mo.variance = acc / n;
  mo.stddev = std::isnan(mo.variance) ? kNaN : std::sqrt(mo.variance);
  mo.min = minimum(x);
  mo.max = maximum(x);
  mo.range = mo.max - mo.min;
  return mo;
}

double mean(std::span<const double> x) noexcept { return moments(x).mean; }
double variance(std::span<const double> x) noexcept { return moments(x).variance; }
double stddev(std::span<const double> x) noexcept { return moments(x).stddev; }
double range(std::span<const double> x) noexcept { return moments(x).range; }

double sample_variance(std::span<const double> x) noexcept {
  if (x.size() < 2) return kNaN;
  return moments(x).ssd / static_cast<double>(x.size() - 1);
}

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  if (sorted.empty()) return kNaN;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::span<const double> x, double q) {
  std::vector<double> v(x.begin(), x.end());
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

double median(std::span<const double> x) { return quantile(x, 0.5); }

double skewness(std::span<const double> x, const Moments& mo) noexcept {
  if (x.size() < 3) return kNaN;
  const double m = mo.mean;
  const double s = mo.stddev;
  if (s < 1e-300) return kNaN;
  double acc = 0.0;
  for (double v : x) {
    const double d = (v - m) / s;
    acc += d * d * d;
  }
  return acc / static_cast<double>(x.size());
}

double kurtosis(std::span<const double> x, const Moments& mo) noexcept {
  if (x.size() < 4) return kNaN;
  const double m = mo.mean;
  const double s = mo.stddev;
  if (s < 1e-300) return kNaN;
  double acc = 0.0;
  for (double v : x) {
    const double d = (v - m) / s;
    acc += d * d * d * d;
  }
  return acc / static_cast<double>(x.size()) - 3.0;
}

double variation_coefficient(const Moments& mo) noexcept {
  if (std::abs(mo.mean) < 1e-300) return kNaN;
  return mo.stddev / std::abs(mo.mean);
}

double root_mean_square(const Moments& mo) noexcept {
  if (mo.n == 0) return kNaN;
  return std::sqrt(mo.energy / static_cast<double>(mo.n));
}

double absolute_sum_of_changes(std::span<const double> x) noexcept {
  double acc = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) acc += std::abs(x[i] - x[i - 1]);
  return acc;
}

double mean_abs_change(std::size_t n, double abs_sum_of_changes) noexcept {
  if (n < 2) return kNaN;
  return abs_sum_of_changes / static_cast<double>(n - 1);
}

double mean_change(std::span<const double> x) noexcept {
  if (x.size() < 2) return kNaN;
  return (x.back() - x.front()) / static_cast<double>(x.size() - 1);
}

double mean_second_derivative_central(std::span<const double> x) noexcept {
  if (x.size() < 3) return kNaN;
  double acc = 0.0;
  for (std::size_t i = 1; i + 1 < x.size(); ++i) {
    acc += (x[i + 1] - 2.0 * x[i] + x[i - 1]) * 0.5;
  }
  return acc / static_cast<double>(x.size() - 2);
}

std::size_t count_above(std::span<const double> x, double t) noexcept {
  std::size_t n = 0;
  for (double v : x) n += (v > t) ? 1 : 0;
  return n;
}

std::size_t count_below(std::span<const double> x, double t) noexcept {
  std::size_t n = 0;
  for (double v : x) n += (v < t) ? 1 : 0;
  return n;
}

namespace {
template <typename Cmp>
double first_location(std::span<const double> x, Cmp cmp) noexcept {
  if (x.empty()) return kNaN;
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (cmp(x[i], x[best])) best = i;
  }
  return static_cast<double>(best) / static_cast<double>(x.size());
}

template <typename Cmp>
double last_location(std::span<const double> x, Cmp cmp) noexcept {
  if (x.empty()) return kNaN;
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (!cmp(x[best], x[i])) best = i;  // ties move forward
  }
  return static_cast<double>(best + 1) / static_cast<double>(x.size());
}
}  // namespace

double first_location_of_maximum(std::span<const double> x) noexcept {
  return first_location(x, [](double a, double b) { return a > b; });
}
double first_location_of_minimum(std::span<const double> x) noexcept {
  return first_location(x, [](double a, double b) { return a < b; });
}
double last_location_of_maximum(std::span<const double> x) noexcept {
  return last_location(x, [](double a, double b) { return a > b; });
}
double last_location_of_minimum(std::span<const double> x) noexcept {
  return last_location(x, [](double a, double b) { return a < b; });
}

namespace {
template <typename Pred>
std::size_t longest_run(std::span<const double> x, Pred pred) noexcept {
  std::size_t best = 0;
  std::size_t cur = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (pred(i)) {
      ++cur;
      best = std::max(best, cur);
    } else {
      cur = 0;
    }
  }
  return best;
}
}  // namespace

std::size_t longest_strictly_increasing_run(std::span<const double> x) noexcept {
  if (x.size() < 2) return 0;
  return longest_run(x.subspan(1), [&x](std::size_t i) { return x[i + 1] > x[i]; });
}

std::size_t longest_strictly_decreasing_run(std::span<const double> x) noexcept {
  if (x.size() < 2) return 0;
  return longest_run(x.subspan(1), [&x](std::size_t i) { return x[i + 1] < x[i]; });
}

std::size_t longest_run_above(std::span<const double> x, double t) noexcept {
  return longest_run(x, [&x, t](std::size_t i) { return x[i] > t; });
}

std::size_t longest_run_below(std::span<const double> x, double t) noexcept {
  return longest_run(x, [&x, t](std::size_t i) { return x[i] < t; });
}

std::size_t number_of_peaks(std::span<const double> x, std::size_t support) noexcept {
  if (x.size() < 2 * support + 1 || support == 0) return 0;
  std::size_t count = 0;
  for (std::size_t i = support; i + support < x.size(); ++i) {
    bool is_peak = true;
    for (std::size_t s = 1; s <= support && is_peak; ++s) {
      if (x[i] <= x[i - s] || x[i] <= x[i + s]) is_peak = false;
    }
    count += is_peak ? 1 : 0;
  }
  return count;
}

std::size_t number_of_crossings(std::span<const double> x, double t) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    const bool above_prev = x[i - 1] > t;
    const bool above_cur = x[i] > t;
    count += (above_prev != above_cur) ? 1 : 0;
  }
  return count;
}

double ratio_beyond_r_sigma(std::span<const double> x, const Moments& mo,
                            double r) noexcept {
  if (x.empty()) return kNaN;
  std::size_t count = 0;
  for (double v : x) count += (std::abs(v - mo.mean) > r * mo.stddev) ? 1 : 0;
  return static_cast<double>(count) / static_cast<double>(x.size());
}

ValueCounts value_counts(std::span<const double> x) {
  ValueCounts counts;
  for (double v : x) ++counts[v];
  return counts;
}

bool has_duplicate(const ValueCounts& counts) noexcept {
  for (const auto& [v, c] : counts) {
    if (c > 1) return true;
  }
  return false;
}

bool has_duplicate_value(std::span<const double> x, double extreme) noexcept {
  std::size_t count = 0;
  for (double v : x) count += (v == extreme) ? 1 : 0;
  return count > 1;
}

double sum_of_reoccurring_values(const ValueCounts& counts) noexcept {
  double acc = 0.0;
  for (const auto& [v, c] : counts) {
    if (c > 1) acc += v;
  }
  return acc;
}

double percentage_of_reoccurring_datapoints(const ValueCounts& counts) noexcept {
  if (counts.empty()) return kNaN;
  std::size_t reoccurring = 0;
  for (const auto& [v, c] : counts) {
    if (c > 1) ++reoccurring;
  }
  return static_cast<double>(reoccurring) / static_cast<double>(counts.size());
}

double c3(std::span<const double> x, std::size_t lag) noexcept {
  if (x.size() < 2 * lag + 1) return kNaN;
  const std::size_t n = x.size() - 2 * lag;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i + 2 * lag] * x[i + lag] * x[i];
  return acc / static_cast<double>(n);
}

double cid_ce(std::span<const double> x, bool normalize,
              const Moments& mo) noexcept {
  if (x.size() < 2) return kNaN;
  if (normalize) {
    const double s = mo.stddev;
    if (s < 1e-300) return 0.0;
    const double m = mo.mean;
    double acc = 0.0;
    double prev = (x[0] - m) / s;
    for (std::size_t i = 1; i < x.size(); ++i) {
      const double cur = (x[i] - m) / s;
      acc += (cur - prev) * (cur - prev);
      prev = cur;
    }
    return std::sqrt(acc);
  }
  double acc = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    acc += (x[i] - x[i - 1]) * (x[i] - x[i - 1]);
  }
  return std::sqrt(acc);
}

double time_reversal_asymmetry(std::span<const double> x, std::size_t lag) noexcept {
  if (x.size() < 2 * lag + 1) return kNaN;
  const std::size_t n = x.size() - 2 * lag;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += x[i + 2 * lag] * x[i + 2 * lag] * x[i + lag] -
           x[i + lag] * x[i] * x[i];
  }
  return acc / static_cast<double>(n);
}

bool large_standard_deviation(const Moments& mo, double r) noexcept {
  return mo.stddev > r * mo.range;
}

bool symmetry_looking(const Moments& mo, double median, double r) noexcept {
  return std::abs(mo.mean - median) < r * mo.range;
}

}  // namespace alba::stats
