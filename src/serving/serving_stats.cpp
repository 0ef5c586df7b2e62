#include "serving/serving_stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace alba {

double latency_percentile(std::span<const double> latencies_ms, double q) {
  if (latencies_ms.empty()) return 0.0;
  std::vector<double> sorted(latencies_ms.begin(), latencies_ms.end());
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

OutcomeWindow::OutcomeWindow(std::size_t capacity) : capacity_(capacity) {
  ALBA_CHECK(capacity_ > 0) << "an outcome window needs a positive capacity";
}

void OutcomeWindow::push(const Outcome& outcome) {
  if (samples_.size() < capacity_) {
    samples_.push_back(outcome);
  } else {
    samples_[next_] = outcome;
  }
  next_ = (next_ + 1) % capacity_;
}

void OutcomeWindow::clear() noexcept {
  samples_.clear();
  next_ = 0;
}

double OutcomeWindow::error_rate() const noexcept {
  if (samples_.empty()) return 0.0;
  std::size_t failed = 0;
  for (const Outcome& o : samples_) failed += o.failed ? 1 : 0;
  return static_cast<double>(failed) / static_cast<double>(samples_.size());
}

double OutcomeWindow::percentile(double Outcome::*field, double q) const {
  std::vector<double> values;
  values.reserve(samples_.size());
  for (const Outcome& o : samples_) values.push_back(o.*field);
  return latency_percentile(values, q);
}

std::string format_serving_summary(const ServingStats& s) {
  return strformat(
      "%llu windows: %.1f win/s, p50 %.2fms, p99 %.2fms, p99.9 %.2fms, "
      "min %.2fms (extract %.2fms, predict %.2fms)",
      static_cast<unsigned long long>(s.windows), s.windows_per_second(),
      s.latency_p50_ms, s.latency_p99_ms, s.latency_p999_ms,
      s.latency_min_ms, s.extract_seconds * 1e3, s.predict_seconds * 1e3);
}

}  // namespace alba
