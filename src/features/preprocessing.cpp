#include "features/preprocessing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace alba {

void interpolate_nans(std::span<double> x) noexcept {
  const std::size_t n = x.size();
  std::size_t i = 0;
  while (i < n) {
    if (!std::isnan(x[i])) {
      ++i;
      continue;
    }
    // Find the NaN gap [i, j).
    std::size_t j = i;
    while (j < n && std::isnan(x[j])) ++j;

    const bool has_left = i > 0;
    const bool has_right = j < n;
    if (!has_left && !has_right) {
      for (std::size_t k = 0; k < n; ++k) x[k] = 0.0;
      return;
    }
    if (!has_left) {
      for (std::size_t k = i; k < j; ++k) x[k] = x[j];
    } else if (!has_right) {
      for (std::size_t k = i; k < j; ++k) x[k] = x[i - 1];
    } else {
      const double left = x[i - 1];
      const double right = x[j];
      const double span_len = static_cast<double>(j - (i - 1));
      for (std::size_t k = i; k < j; ++k) {
        const double frac = static_cast<double>(k - (i - 1)) / span_len;
        x[k] = left + frac * (right - left);
      }
    }
    i = j;
  }
}

std::vector<double> difference_counter(std::span<const double> x) {
  ALBA_CHECK(x.size() >= 2) << "cannot difference a series of length " << x.size();
  std::vector<double> out(x.size() - 1);
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double d = x[i + 1] - x[i];
    out[i] = d < 0.0 ? 0.0 : d;  // counter reset/wrap
  }
  return out;
}

namespace {

// Shared shape validation for the full-series and per-column entry points;
// returns the number of samples kept after trimming.
std::size_t check_trim(const Matrix& raw, const MetricRegistry& registry,
                       const PreprocessConfig& config) {
  ALBA_CHECK(raw.cols() == registry.size())
      << "series has " << raw.cols() << " metrics, registry has "
      << registry.size();
  ALBA_CHECK(config.trim_head >= 0 && config.trim_tail >= 0);
  const std::size_t t_raw = raw.rows();
  const auto head = static_cast<std::size_t>(config.trim_head);
  const auto tail = static_cast<std::size_t>(config.trim_tail);
  ALBA_CHECK(t_raw > head + tail + 1)
      << "series too short (" << t_raw << ") for trim " << head << "+" << tail;
  return t_raw - head - tail;
}

}  // namespace

std::vector<double> preprocess_metric_column(const Matrix& raw,
                                             std::size_t metric,
                                             const MetricRegistry& registry,
                                             const PreprocessConfig& config) {
  const std::size_t t_kept = check_trim(raw, registry, config);
  ALBA_CHECK(metric < raw.cols());
  const auto head = static_cast<std::size_t>(config.trim_head);

  // A non-finite reading counts as missing: two +inf counter readings
  // would difference to NaN, and a NaN gap between +inf and -inf would
  // interpolate to NaN.
  std::vector<double> col(t_kept);
  for (std::size_t t = 0; t < t_kept; ++t) {
    const double v = raw(head + t, metric);
    col[t] = std::isfinite(v) ? v : std::numeric_limits<double>::quiet_NaN();
  }
  interpolate_nans(col);
  if (registry.metric(metric).kind == MetricKind::Counter) {
    return difference_counter(col);
  }
  // Drop the first kept sample so gauge rows align with counter rates.
  col.erase(col.begin());
  return col;
}

Matrix preprocess_series(const Matrix& raw, const MetricRegistry& registry,
                         const PreprocessConfig& config) {
  const std::size_t t_kept = check_trim(raw, registry, config);
  const std::size_t t_out = t_kept - 1;  // after differencing
  const std::size_t m = raw.cols();

  Matrix out(t_out, m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::vector<double> col =
        preprocess_metric_column(raw, j, registry, config);
    for (std::size_t t = 0; t < t_out; ++t) out(t, j) = col[t];
  }
  return out;
}

Matrix preprocess_series_robust(const Matrix& raw,
                                const MetricRegistry& registry,
                                const PreprocessConfig& config,
                                SeriesQuality& quality) {
  ALBA_CHECK(raw.cols() == registry.size())
      << "series has " << raw.cols() << " metrics, registry has "
      << registry.size();
  ALBA_CHECK(config.trim_head >= 0 && config.trim_tail >= 0);
  quality = SeriesQuality{};

  const std::size_t t_raw = raw.rows();
  const auto head = static_cast<std::size_t>(config.trim_head);
  const auto tail = static_cast<std::size_t>(config.trim_tail);
  if (t_raw <= head + tail + 1) return Matrix();  // truncated past repair
  quality.usable = true;

  const std::size_t t_kept = t_raw - head - tail;
  const std::size_t m = raw.cols();
  quality.metric_ok.assign(m, 1);

  Matrix out(t_kept - 1, m);  // a quarantined column stays zero
  for (std::size_t j = 0; j < m; ++j) {
    std::size_t finite = 0;
    for (std::size_t t = 0; t < t_kept; ++t) {
      finite += std::isfinite(raw(head + t, j)) ? 1 : 0;
    }
    bool ok = finite >= kMinFiniteSamples;
    if (ok) {
      quality.cells_interpolated += t_kept - finite;
      const std::vector<double> col =
          preprocess_metric_column(raw, j, registry, config);
      ok = !config.quarantine_constant ||
           std::any_of(col.begin(), col.end(),
                       [&](double v) { return v != col.front(); });
      if (ok) {
        for (std::size_t t = 0; t < col.size(); ++t) out(t, j) = col[t];
      }
    }
    if (!ok) {
      quality.metric_ok[j] = 0;
      ++quality.metrics_quarantined;
    }
  }
  return out;
}

}  // namespace alba
