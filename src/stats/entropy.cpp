#include "stats/entropy.hpp"

#include <cmath>
#include <limits>
#include <vector>

namespace alba::stats {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ApEn's phi: the mean over templates of log(matches / templates), summed
// in template order.
double phi(std::span<const std::size_t> matches) {
  const double count = static_cast<double>(matches.size());
  double acc = 0.0;
  for (const std::size_t c : matches) {
    acc += std::log(static_cast<double>(c) / count);
  }
  return acc / count;
}
}  // namespace

TemplateEntropies template_entropies(std::span<const double> x, double stddev,
                                     std::size_t m, double r_frac) {
  const std::size_t n = x.size();
  if (n < m + 2 || stddev < 1e-300) return {0.0, kNaN};
  const double r = r_frac * stddev;

  // Per-template match counts of length m (n-m+1 templates) and m+1 (n-m
  // templates), self-matches included.
  const std::size_t count_m = n - m + 1;
  const std::size_t count_m1 = n - m;
  std::vector<std::size_t> matches_m(count_m, 0);
  std::vector<std::size_t> matches_m1(count_m1, 0);

  std::size_t a = 0;  // SampEn pairs i < j matching at length m + 1
  std::size_t b = 0;  // ... at length m
  for (std::size_t i = 0; i < count_m; ++i) {
    for (std::size_t j = i; j < count_m; ++j) {
      bool match_m = true;
      for (std::size_t k = 0; k < m; ++k) {
        if (std::abs(x[i + k] - x[j + k]) > r) {
          match_m = false;
          break;
        }
      }
      if (!match_m) continue;
      ++matches_m[i];
      if (j != i) ++matches_m[j];
      if (j >= count_m1) continue;
      const double d = std::abs(x[i + m] - x[j + m]);
      if (!(d > r)) {
        ++matches_m1[i];
        if (j != i) ++matches_m1[j];
      }
      if (j > i) {
        ++b;
        if (d <= r) ++a;
      }
    }
  }
  TemplateEntropies out;
  out.approximate = phi(matches_m) - phi(matches_m1);
  out.sample = (a == 0 || b == 0)
                   ? kNaN
                   : -std::log(static_cast<double>(a) / static_cast<double>(b));
  return out;
}

double binned_entropy(std::span<const double> x, const Moments& mo,
                      std::size_t bins) {
  if (x.empty() || bins == 0) return kNaN;
  const double lo = mo.min;
  const double hi = mo.max;
  if (hi - lo < 1e-300) return 0.0;

  std::vector<double> counts(bins, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : x) {
    auto bin = static_cast<std::size_t>((v - lo) / width);
    if (bin >= bins) bin = bins - 1;  // v == hi
    counts[bin] += 1.0;
  }
  const double inv_n = 1.0 / static_cast<double>(x.size());
  for (auto& c : counts) c *= inv_n;
  return shannon_entropy(counts);
}

double shannon_entropy(std::span<const double> probs) noexcept {
  double h = 0.0;
  for (double p : probs) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

}  // namespace alba::stats
