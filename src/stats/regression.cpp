#include "stats/regression.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace alba::stats {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

LinearTrend linear_trend(std::span<const double> y, double y_mean) noexcept {
  LinearTrend out;
  const std::size_t n = y.size();
  if (n < 2) {
    out.slope = out.intercept = out.rvalue = out.stderr_ = kNaN;
    return out;
  }

  const double tn = static_cast<double>(n);
  const double t_mean = (tn - 1.0) / 2.0;

  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dt = static_cast<double>(i) - t_mean;
    const double dy = y[i] - y_mean;
    sxx += dt * dt;
    sxy += dt * dy;
    syy += dy * dy;
  }

  out.slope = sxy / sxx;
  out.intercept = y_mean - out.slope * t_mean;
  if (syy < 1e-300) {
    out.rvalue = 0.0;
    out.stderr_ = 0.0;
    return out;
  }
  out.rvalue = sxy / std::sqrt(sxx * syy);
  if (n > 2) {
    const double sse = syy - out.slope * sxy;
    out.stderr_ = std::sqrt(std::max(0.0, sse / (tn - 2.0)) / sxx);
  } else {
    out.stderr_ = 0.0;
  }
  return out;
}

double pearson(std::span<const double> a, std::span<const double> b) noexcept {
  ALBA_DCHECK(a.size() == b.size());
  const std::size_t n = a.size();
  if (n < 2) return kNaN;
  const double ma = mean(a);
  const double mb = mean(b);
  double saa = 0.0;
  double sbb = 0.0;
  double sab = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    saa += da * da;
    sbb += db * db;
    sab += da * db;
  }
  if (saa < 1e-300 || sbb < 1e-300) return kNaN;
  return sab / std::sqrt(saa * sbb);
}

}  // namespace alba::stats
