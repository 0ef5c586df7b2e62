// Ordinary least squares over (index, value) pairs — the "linear trend"
// features of both extractors (slope, intercept, correlation, stderr).
#pragma once

#include <span>

namespace alba::stats {

struct LinearTrend {
  double slope = 0.0;
  double intercept = 0.0;
  double rvalue = 0.0;   // Pearson correlation between index and value
  double stderr_ = 0.0;  // standard error of the slope estimate
};

/// Fits y = slope·t + intercept with t = 0..n-1, given y_mean = mean(y).
/// NaN fields for n < 2 or zero variance.
LinearTrend linear_trend(std::span<const double> y, double y_mean) noexcept;

/// Pearson correlation of two equal-length series.
double pearson(std::span<const double> a, std::span<const double> b) noexcept;

}  // namespace alba::stats
