// Autocorrelation and partial autocorrelation, matching statsmodels/tsfresh
// conventions (denominator n·var, biased estimator).
#pragma once

#include <span>
#include <vector>

#include "stats/descriptive.hpp"

namespace alba::stats {

/// Autocorrelation at a single lag from the series' moments (mean and sum
/// of squared deviations); NaN when variance ~ 0 or lag >= n.
double autocorrelation(std::span<const double> x, const Moments& mo,
                       std::size_t lag) noexcept;

/// ACF for lags 0..max_lag inclusive.
std::vector<double> acf(std::span<const double> x, const Moments& mo,
                        std::size_t max_lag);

/// Aggregated ACF statistic: mean of |rho| over the non-NaN lags 1.. of an
/// ACF vector rho (NaN when there is none).
double agg_autocorrelation_mean_abs(std::span<const double> rho) noexcept;

/// PACF at lags 1..rho.size()-1 from one ACF vector rho[0..], by one
/// Durbin–Levinson recursion: out[k-1] is the PACF at lag k, NaN once an
/// ACF value is NaN or the recursion degenerates.
void partial_autocorrelations(std::span<const double> rho,
                              std::span<double> out);

}  // namespace alba::stats
