#include "features/tsfresh.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "stats/autocorr.hpp"
#include "stats/descriptive.hpp"
#include "stats/entropy.hpp"
#include "stats/fft.hpp"
#include "stats/regression.hpp"
#include "stats/welch.hpp"

namespace alba {

namespace {
using namespace alba::stats;

// Stride-decimates x (longer than `cap`) to `cap` points.
std::vector<double> decimate(std::span<const double> x, std::size_t cap) {
  std::vector<double> out;
  out.reserve(cap);
  const double stride =
      static_cast<double>(x.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(x[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  }
  return out;
}

// Energy of chunk k out of `chunks` equal slices, as a fraction of the
// series' total energy.
double energy_ratio_by_chunk(std::span<const double> x, double total,
                             std::size_t chunks, std::size_t k) {
  if (total < 1e-300 || x.empty()) return 0.0;
  const std::size_t chunk_len = (x.size() + chunks - 1) / chunks;
  const std::size_t begin = k * chunk_len;
  if (begin >= x.size()) return 0.0;
  const std::size_t len = std::min(chunk_len, x.size() - begin);
  return abs_energy(x.subspan(begin, len)) / total;
}

// Relative index where the cumulative |x| mass reaches fraction q of
// `total`, the series' whole |x| mass.
double index_mass_quantile(std::span<const double> x, double total, double q) {
  if (total < 1e-300) return 1.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += std::abs(x[i]);
    if (acc >= q * total) {
      return static_cast<double>(i + 1) / static_cast<double>(x.size());
    }
  }
  return 1.0;
}
}  // namespace

TsfreshExtractor::TsfreshExtractor(TsfreshConfig config) : config_(config) {
  ALBA_CHECK(config_.acf_lags >= 1 && config_.pacf_lags >= 1);
  ALBA_CHECK(config_.fft_coeffs >= 1 && config_.psd_bins >= 1);
  ALBA_CHECK(config_.entropy_cap >= 8);

  // --- distribution / descriptive ---
  names_ = {"sum",      "mean",     "std",      "var",       "min",
            "max",      "median",   "skewness", "kurtosis",  "rms",
            "abs_energy", "variation_coef", "iqr"};
  for (int q = 1; q <= 9; ++q) names_.push_back(strformat("quantile_q%d0", q));

  // --- change statistics ---
  for (const char* n :
       {"mean_abs_change", "mean_change", "mean_second_derivative",
        "abs_sum_changes", "cid_norm", "cid_raw"}) {
    names_.emplace_back(n);
  }

  // --- counts / locations / runs ---
  for (const char* n :
       {"count_above_mean", "count_below_mean", "crossings_mean",
        "num_peaks1", "num_peaks3", "num_peaks5", "longest_above_mean",
        "longest_below_mean", "longest_inc_run", "longest_dec_run",
        "first_loc_max", "first_loc_min", "last_loc_max", "last_loc_min",
        "ratio_beyond_1sigma", "ratio_beyond_2sigma", "ratio_beyond_3sigma"}) {
    names_.emplace_back(n);
  }

  // --- recurrence / duplicates / symmetry ---
  for (const char* n :
       {"has_duplicate", "has_duplicate_max", "has_duplicate_min",
        "sum_reoccurring", "perc_reoccurring", "large_std_r025",
        "symmetry_r005", "symmetry_r025"}) {
    names_.emplace_back(n);
  }

  // --- autocorrelation family ---
  for (std::size_t lag = 1; lag <= config_.acf_lags; ++lag) {
    names_.push_back(strformat("acf_lag%zu", lag));
  }
  names_.emplace_back("agg_acf_mean_abs");
  for (std::size_t lag = 1; lag <= config_.pacf_lags; ++lag) {
    names_.push_back(strformat("pacf_lag%zu", lag));
  }

  // --- entropies ---
  for (const char* n : {"binned_entropy10", "approx_entropy", "sample_entropy"}) {
    names_.emplace_back(n);
  }

  // --- nonlinearity ---
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    names_.push_back(strformat("c3_lag%zu", lag));
  }
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    names_.push_back(strformat("time_rev_asym_lag%zu", lag));
  }

  // --- spectral: FFT coefficients + Welch PSD ---
  for (std::size_t k = 1; k <= config_.fft_coeffs; ++k) {
    names_.push_back(strformat("fft_abs_k%zu", k));
    names_.push_back(strformat("fft_real_k%zu", k));
    names_.push_back(strformat("fft_imag_k%zu", k));
  }
  for (std::size_t b = 0; b < config_.psd_bins; ++b) {
    names_.push_back(strformat("welch_band%zu", b));
  }
  names_.emplace_back("spectral_centroid");
  names_.emplace_back("dominant_freq");

  // --- trend / mass distribution ---
  for (const char* n : {"trend_slope", "trend_intercept", "trend_rvalue",
                        "trend_stderr", "energy_chunk0", "energy_chunk1",
                        "energy_chunk2", "energy_chunk3", "index_mass_q25",
                        "index_mass_q50", "index_mass_q75"}) {
    names_.emplace_back(n);
  }
}

void TsfreshExtractor::extract(std::span<const double> x,
                               std::span<double> out) const {
  ALBA_CHECK(out.size() == names_.size());
  ALBA_CHECK(x.size() >= 8) << "series too short for TSFRESH extraction";
  // The intermediates the statistics share, each computed once, in per-call
  // buffers: extract is const and runs concurrently.
  const Moments mo = moments(x);
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  const double median = quantile_sorted(sorted, 0.5);
  std::size_t i = 0;

  out[i++] = mo.sum;
  out[i++] = mo.mean;
  out[i++] = mo.stddev;
  out[i++] = mo.variance;
  out[i++] = mo.min;
  out[i++] = mo.max;
  out[i++] = median;
  out[i++] = skewness(x, mo);
  out[i++] = kurtosis(x, mo);
  out[i++] = root_mean_square(mo);
  out[i++] = mo.energy;
  out[i++] = variation_coefficient(mo);
  out[i++] = quantile_sorted(sorted, 0.75) - quantile_sorted(sorted, 0.25);
  for (int q = 1; q <= 9; ++q) out[i++] = quantile_sorted(sorted, 0.1 * q);

  const double abs_changes = absolute_sum_of_changes(x);
  out[i++] = mean_abs_change(x.size(), abs_changes);
  out[i++] = mean_change(x);
  out[i++] = mean_second_derivative_central(x);
  out[i++] = abs_changes;
  out[i++] = cid_ce(x, true, mo);
  out[i++] = cid_ce(x, false, mo);

  out[i++] = static_cast<double>(count_above(x, mo.mean));
  out[i++] = static_cast<double>(count_below(x, mo.mean));
  out[i++] = static_cast<double>(number_of_crossings(x, mo.mean));
  out[i++] = static_cast<double>(number_of_peaks(x, 1));
  out[i++] = static_cast<double>(number_of_peaks(x, 3));
  out[i++] = static_cast<double>(number_of_peaks(x, 5));
  out[i++] = static_cast<double>(longest_run_above(x, mo.mean));
  out[i++] = static_cast<double>(longest_run_below(x, mo.mean));
  out[i++] = static_cast<double>(longest_strictly_increasing_run(x));
  out[i++] = static_cast<double>(longest_strictly_decreasing_run(x));
  out[i++] = first_location_of_maximum(x);
  out[i++] = first_location_of_minimum(x);
  out[i++] = last_location_of_maximum(x);
  out[i++] = last_location_of_minimum(x);
  out[i++] = ratio_beyond_r_sigma(x, mo, 1.0);
  out[i++] = ratio_beyond_r_sigma(x, mo, 2.0);
  out[i++] = ratio_beyond_r_sigma(x, mo, 3.0);

  const ValueCounts counts = value_counts(x);
  out[i++] = has_duplicate(counts) ? 1.0 : 0.0;
  out[i++] = has_duplicate_value(x, mo.max) ? 1.0 : 0.0;
  out[i++] = has_duplicate_value(x, mo.min) ? 1.0 : 0.0;
  out[i++] = sum_of_reoccurring_values(counts);
  out[i++] = percentage_of_reoccurring_datapoints(counts);
  out[i++] = large_standard_deviation(mo, 0.25) ? 1.0 : 0.0;
  out[i++] = symmetry_looking(mo, median, 0.05) ? 1.0 : 0.0;
  out[i++] = symmetry_looking(mo, median, 0.25) ? 1.0 : 0.0;

  const std::vector<double> rho =
      acf(x, mo, std::max(config_.acf_lags, config_.pacf_lags));
  for (std::size_t lag = 1; lag <= config_.acf_lags; ++lag) out[i++] = rho[lag];
  out[i++] = agg_autocorrelation_mean_abs(
      std::span(rho).first(config_.acf_lags + 1));
  partial_autocorrelations(std::span(rho).first(config_.pacf_lags + 1),
                           out.subspan(i, config_.pacf_lags));
  i += config_.pacf_lags;

  out[i++] = binned_entropy(x, mo, 10);
  // ApEn/SampEn are O(n²): a series longer than entropy_cap is decimated
  // for those two only.
  std::vector<double> decimated;
  std::span<const double> xe = x;
  double xe_stddev = mo.stddev;
  if (x.size() > config_.entropy_cap) {
    decimated = decimate(x, config_.entropy_cap);
    xe = decimated;
    xe_stddev = stddev(decimated);
  }
  const TemplateEntropies entropies = template_entropies(xe, xe_stddev, 2, 0.2);
  out[i++] = entropies.approximate;
  out[i++] = entropies.sample;

  for (std::size_t lag = 1; lag <= 3; ++lag) out[i++] = c3(x, lag);
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    out[i++] = time_reversal_asymmetry(x, lag);
  }

  const auto spectrum = fft_real(x);
  for (std::size_t k = 1; k <= config_.fft_coeffs; ++k) {
    const std::complex<double> c =
        k < spectrum.size() ? spectrum[k] : std::complex<double>(0.0, 0.0);
    out[i++] = std::abs(c);
    out[i++] = c.real();
    out[i++] = c.imag();
  }

  const WelchResult psd = welch_psd(x, 64);
  // Band powers: psd_bins equal frequency bands.
  for (std::size_t b = 0; b < config_.psd_bins; ++b) {
    const std::size_t nb = psd.power.size();
    const std::size_t begin = b * nb / config_.psd_bins;
    const std::size_t end = (b + 1) * nb / config_.psd_bins;
    double acc = 0.0;
    for (std::size_t k = begin; k < end && k < nb; ++k) acc += psd.power[k];
    out[i++] = acc;
  }
  out[i++] = spectral_centroid(psd);
  out[i++] = dominant_frequency(psd);

  const LinearTrend trend = linear_trend(x, mo.mean);
  out[i++] = trend.slope;
  out[i++] = trend.intercept;
  out[i++] = trend.rvalue;
  out[i++] = trend.stderr_;
  for (std::size_t k = 0; k < 4; ++k) {
    out[i++] = energy_ratio_by_chunk(x, mo.energy, 4, k);
  }
  double mass = 0.0;
  for (double v : x) mass += std::abs(v);
  out[i++] = index_mass_quantile(x, mass, 0.25);
  out[i++] = index_mass_quantile(x, mass, 0.50);
  out[i++] = index_mass_quantile(x, mass, 0.75);

  ALBA_CHECK(i == names_.size());
}

}  // namespace alba
