// Entropy measures used by the TSFRESH-like extractor: approximate entropy
// (Pincus 1991, cited by the paper via Yentes et al.), sample entropy, and
// binned (histogram) entropy.
#pragma once

#include <span>

#include "stats/descriptive.hpp"

namespace alba::stats {

struct TemplateEntropies {
  double approximate = 0.0;  // ApEn(m, r); 0 for constant/too-short series
  double sample = 0.0;       // SampEn(m, r); NaN without template matches
};

/// ApEn and SampEn with tolerance r = r_frac · `stddev` (the series'
/// population standard deviation), from one symmetric sweep over template
/// pairs i <= j. Two length-m templates match when no point pair differs
/// by more than r (`!(d > r)`); ApEn counts self-matches, SampEn does not
/// and tests its (m+1)-th point with `d <= r`. O(n^2) — the dominant cost
/// of the TSFRESH extractor; keep m small.
TemplateEntropies template_entropies(std::span<const double> x, double stddev,
                                     std::size_t m, double r_frac);

/// Shannon entropy of the histogram of x with `bins` equal-width bins over
/// [min, max]. Matches tsfresh binned_entropy.
double binned_entropy(std::span<const double> x, const Moments& mo,
                      std::size_t bins);

/// Shannon entropy of a discrete probability vector (base e); ignores zeros.
double shannon_entropy(std::span<const double> probs) noexcept;

}  // namespace alba::stats
