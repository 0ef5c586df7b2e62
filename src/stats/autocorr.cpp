#include "stats/autocorr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace alba::stats {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

double autocorrelation(std::span<const double> x, const Moments& mo,
                       std::size_t lag) noexcept {
  const std::size_t n = x.size();
  if (lag >= n) return kNaN;
  if (lag == 0) return 1.0;
  if (mo.ssd < 1e-300) return kNaN;
  const double m = mo.mean;
  double acc = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    acc += (x[i] - m) * (x[i + lag] - m);
  }
  return acc / mo.ssd;
}

std::vector<double> acf(std::span<const double> x, const Moments& mo,
                        std::size_t max_lag) {
  std::vector<double> out(max_lag + 1);
  for (std::size_t lag = 0; lag <= max_lag; ++lag) {
    out[lag] = autocorrelation(x, mo, lag);
  }
  return out;
}

double agg_autocorrelation_mean_abs(std::span<const double> rho) noexcept {
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t lag = 1; lag < rho.size(); ++lag) {
    if (!std::isnan(rho[lag])) {
      acc += std::abs(rho[lag]);
      ++count;
    }
  }
  return count ? acc / static_cast<double>(count) : kNaN;
}

void partial_autocorrelations(std::span<const double> rho,
                              std::span<double> out) {
  ALBA_CHECK(!rho.empty() && out.size() == rho.size() - 1);
  const std::size_t max_lag = out.size();
  // Durbin–Levinson: phi[k][k] is the PACF at lag k. The step for lag k
  // reads rho[0..k] and the previous step only, so one recursion yields
  // every lag.
  std::fill(out.begin(), out.end(), kNaN);
  if (std::isnan(rho[0])) return;
  std::vector<double> phi_prev(max_lag + 1, 0.0);
  std::vector<double> phi_cur(max_lag + 1, 0.0);
  for (std::size_t k = 1; k <= max_lag; ++k) {
    if (std::isnan(rho[k])) return;
    if (k == 1) {
      phi_prev[1] = rho[1];
      out[0] = rho[1];
      continue;
    }
    double num = rho[k];
    double den = 1.0;
    for (std::size_t j = 1; j < k; ++j) {
      num -= phi_prev[j] * rho[k - j];
      den -= phi_prev[j] * rho[j];
    }
    if (std::abs(den) < 1e-300) return;
    phi_cur[k] = num / den;
    for (std::size_t j = 1; j < k; ++j) {
      phi_cur[j] = phi_prev[j] - phi_cur[k] * phi_prev[k - j];
    }
    phi_prev = phi_cur;
    out[k - 1] = phi_prev[k];
  }
}

}  // namespace alba::stats
