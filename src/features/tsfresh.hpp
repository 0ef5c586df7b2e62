// TSFRESH-style feature extractor (Christ et al., Neurocomputing 2018):
// a substantially richer per-metric feature set than MVTS, covering the
// characterization-method families the paper highlights — approximate
// entropy, Welch power spectral density, variation coefficient — plus FFT
// coefficients, autocorrelation/PACF, nonlinearity statistics (c3, time
// reversal asymmetry, CID), distribution shape, and recurrence features.
//
// tsfresh's canonical set reaches 794 features per metric by sweeping large
// parameter grids per method; we emit ~100 features from the same ~40
// method families with compact grids, which preserves the extractor's role
// in the pipeline (a wider, more redundant feature space than MVTS that
// chi-square selection then prunes).
//
// Cost note: approximate/sample entropy are O(n²) (one shared template-
// match sweep computes both); series longer than `entropy_cap` are
// decimated (stride subsampling) before those two features only.
#pragma once

#include "features/mvts.hpp"

namespace alba {

struct TsfreshConfig {
  std::size_t acf_lags = 10;     // autocorrelation lags 1..acf_lags
  std::size_t pacf_lags = 5;     // partial autocorrelation lags 1..pacf_lags
  std::size_t fft_coeffs = 5;    // FFT coefficients 1..fft_coeffs
  std::size_t psd_bins = 5;      // Welch PSD band powers
  std::size_t entropy_cap = 64;  // max points fed to ApEn/SampEn
};

class TsfreshExtractor final : public FeatureExtractor {
 public:
  explicit TsfreshExtractor(TsfreshConfig config = {});

  std::string name() const override { return "tsfresh"; }
  void extract(std::span<const double> series, const FeaturePlan& plan,
               std::span<double> out) const override;

 private:
  TsfreshConfig config_;
};

}  // namespace alba
