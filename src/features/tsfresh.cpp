#include "features/tsfresh.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "features/cell_writer.hpp"
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
  using P = FeaturePlan;
  constexpr std::uint32_t kMo = P::kMoments;

  // --- distribution / descriptive ---
  for (const char* n : {"sum", "mean", "std", "var", "min", "max"}) {
    add_feature(n, kMo);
  }
  add_feature("median", P::kSorted);
  for (const char* n :
       {"skewness", "kurtosis", "rms", "abs_energy", "variation_coef"}) {
    add_feature(n, kMo);
  }
  add_feature("iqr", P::kSorted);
  for (int q = 1; q <= 9; ++q) {
    add_feature(strformat("quantile_q%d0", q), P::kSorted);
  }

  // --- change statistics ---
  for (const char* n : {"mean_abs_change", "mean_change",
                        "mean_second_derivative", "abs_sum_changes"}) {
    add_feature(n, 0);
  }
  add_feature("cid_norm", kMo);
  add_feature("cid_raw", 0);

  // --- counts / locations / runs ---
  for (const char* n :
       {"count_above_mean", "count_below_mean", "crossings_mean"}) {
    add_feature(n, kMo);
  }
  for (const char* n : {"num_peaks1", "num_peaks3", "num_peaks5"}) {
    add_feature(n, 0);
  }
  add_feature("longest_above_mean", kMo);
  add_feature("longest_below_mean", kMo);
  for (const char* n :
       {"longest_inc_run", "longest_dec_run", "first_loc_max",
        "first_loc_min", "last_loc_max", "last_loc_min"}) {
    add_feature(n, 0);
  }
  for (const char* n :
       {"ratio_beyond_1sigma", "ratio_beyond_2sigma", "ratio_beyond_3sigma"}) {
    add_feature(n, kMo);
  }

  // --- recurrence / duplicates / symmetry ---
  add_feature("has_duplicate", P::kValueCounts);
  add_feature("has_duplicate_max", kMo);
  add_feature("has_duplicate_min", kMo);
  add_feature("sum_reoccurring", P::kValueCounts);
  add_feature("perc_reoccurring", P::kValueCounts);
  add_feature("large_std_r025", kMo);
  add_feature("symmetry_r005", kMo | P::kSorted);
  add_feature("symmetry_r025", kMo | P::kSorted);

  // --- autocorrelation family ---
  for (std::size_t lag = 1; lag <= config_.acf_lags; ++lag) {
    add_feature(strformat("acf_lag%zu", lag), kMo | P::kAcf);
  }
  add_feature("agg_acf_mean_abs", kMo | P::kAcf);
  for (std::size_t lag = 1; lag <= config_.pacf_lags; ++lag) {
    add_feature(strformat("pacf_lag%zu", lag), kMo | P::kAcf);
  }

  // --- entropies ---
  add_feature("binned_entropy10", kMo);
  add_feature("approx_entropy", kMo | P::kTemplateSweep);
  add_feature("sample_entropy", kMo | P::kTemplateSweep);

  // --- nonlinearity ---
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    add_feature(strformat("c3_lag%zu", lag), 0);
  }
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    add_feature(strformat("time_rev_asym_lag%zu", lag), 0);
  }

  // --- spectral: FFT coefficients + Welch PSD ---
  for (std::size_t k = 1; k <= config_.fft_coeffs; ++k) {
    add_feature(strformat("fft_abs_k%zu", k), P::kFft);
    add_feature(strformat("fft_real_k%zu", k), P::kFft);
    add_feature(strformat("fft_imag_k%zu", k), P::kFft);
  }
  for (std::size_t b = 0; b < config_.psd_bins; ++b) {
    add_feature(strformat("welch_band%zu", b), P::kWelch);
  }
  add_feature("spectral_centroid", P::kWelch);
  add_feature("dominant_freq", P::kWelch);

  // --- trend / mass distribution ---
  for (const char* n : {"trend_slope", "trend_intercept", "trend_rvalue",
                        "trend_stderr", "energy_chunk0", "energy_chunk1",
                        "energy_chunk2", "energy_chunk3"}) {
    add_feature(n, kMo);
  }
  for (const char* n : {"index_mass_q25", "index_mass_q50", "index_mass_q75"}) {
    add_feature(n, 0);
  }
}

namespace {

// Writes the cells `w` wants of x, in feature order; returns the feature
// count.
template <bool kFull>
std::size_t extract_cells(const TsfreshConfig& config,
                          std::span<const double> x, CellWriter<kFull> w) {
  // The intermediates the statistics share, each built once and only when
  // a wanted cell reads it, in per-call buffers: extract is const and runs
  // concurrently.
  using P = FeaturePlan;
  Moments mo;
  if (w.reads(P::kMoments)) mo = moments(x);
  std::vector<double> sorted;
  double median = 0.0;
  if (w.reads(P::kSorted)) {
    sorted.assign(x.begin(), x.end());
    std::sort(sorted.begin(), sorted.end());
    median = quantile_sorted(sorted, 0.5);
  }
  std::size_t i = 0;

  w.put(i++, [&] { return mo.sum; });
  w.put(i++, [&] { return mo.mean; });
  w.put(i++, [&] { return mo.stddev; });
  w.put(i++, [&] { return mo.variance; });
  w.put(i++, [&] { return mo.min; });
  w.put(i++, [&] { return mo.max; });
  w.put(i++, [&] { return median; });
  w.put(i++, [&] { return skewness(x, mo); });
  w.put(i++, [&] { return kurtosis(x, mo); });
  w.put(i++, [&] { return root_mean_square(mo); });
  w.put(i++, [&] { return mo.energy; });
  w.put(i++, [&] { return variation_coefficient(mo); });
  w.put(i++, [&] {
    return quantile_sorted(sorted, 0.75) - quantile_sorted(sorted, 0.25);
  });
  for (int q = 1; q <= 9; ++q) {
    w.put(i++, [&] { return quantile_sorted(sorted, 0.1 * q); });
  }

  // mean_abs_change (this cell) and abs_sum_changes (three on) share it.
  const double abs_changes =
      w.wants(i) || w.wants(i + 3) ? absolute_sum_of_changes(x) : 0.0;
  w.put(i++, [&] { return mean_abs_change(x.size(), abs_changes); });
  w.put(i++, [&] { return mean_change(x); });
  w.put(i++, [&] { return mean_second_derivative_central(x); });
  w.put(i++, [&] { return abs_changes; });
  w.put(i++, [&] { return cid_ce(x, true, mo); });
  w.put(i++, [&] { return cid_ce(x, false, mo); });

  w.put(i++, [&] { return static_cast<double>(count_above(x, mo.mean)); });
  w.put(i++, [&] { return static_cast<double>(count_below(x, mo.mean)); });
  w.put(i++, [&] {
    return static_cast<double>(number_of_crossings(x, mo.mean));
  });
  for (const std::size_t support : {1, 3, 5}) {
    w.put(i++, [&] {
      return static_cast<double>(number_of_peaks(x, support));
    });
  }
  w.put(i++, [&] { return static_cast<double>(longest_run_above(x, mo.mean)); });
  w.put(i++, [&] { return static_cast<double>(longest_run_below(x, mo.mean)); });
  w.put(i++, [&] {
    return static_cast<double>(longest_strictly_increasing_run(x));
  });
  w.put(i++, [&] {
    return static_cast<double>(longest_strictly_decreasing_run(x));
  });
  w.put(i++, [&] { return first_location_of_maximum(x); });
  w.put(i++, [&] { return first_location_of_minimum(x); });
  w.put(i++, [&] { return last_location_of_maximum(x); });
  w.put(i++, [&] { return last_location_of_minimum(x); });
  for (const double r : {1.0, 2.0, 3.0}) {
    w.put(i++, [&] { return ratio_beyond_r_sigma(x, mo, r); });
  }

  ValueCounts counts;
  if (w.reads(P::kValueCounts)) counts = value_counts(x);
  w.put(i++, [&] { return has_duplicate(counts) ? 1.0 : 0.0; });
  w.put(i++, [&] { return has_duplicate_value(x, mo.max) ? 1.0 : 0.0; });
  w.put(i++, [&] { return has_duplicate_value(x, mo.min) ? 1.0 : 0.0; });
  w.put(i++, [&] { return sum_of_reoccurring_values(counts); });
  w.put(i++, [&] { return percentage_of_reoccurring_datapoints(counts); });
  w.put(i++, [&] { return large_standard_deviation(mo, 0.25) ? 1.0 : 0.0; });
  w.put(i++, [&] { return symmetry_looking(mo, median, 0.05) ? 1.0 : 0.0; });
  w.put(i++, [&] { return symmetry_looking(mo, median, 0.25) ? 1.0 : 0.0; });

  std::vector<double> rho;
  if (w.reads(P::kAcf)) {
    rho = acf(x, mo, std::max(config.acf_lags, config.pacf_lags));
  }
  for (std::size_t lag = 1; lag <= config.acf_lags; ++lag) {
    w.put(i++, [&] { return rho[lag]; });
  }
  w.put(i++, [&] {
    return agg_autocorrelation_mean_abs(
        std::span(rho).first(config.acf_lags + 1));
  });
  if (w.wants_any(i, config.pacf_lags)) {
    std::vector<double> pacf(config.pacf_lags);
    partial_autocorrelations(std::span(rho).first(config.pacf_lags + 1),
                             pacf);
    for (const double v : pacf) w.put(i++, [v] { return v; });
  } else {
    i += config.pacf_lags;
  }

  w.put(i++, [&] { return binned_entropy(x, mo, 10); });
  TemplateEntropies entropies;
  if (w.reads(P::kTemplateSweep)) {
    // ApEn/SampEn are O(n²): a series longer than entropy_cap is decimated
    // for those two only.
    std::vector<double> decimated;
    std::span<const double> xe = x;
    double xe_stddev = mo.stddev;
    if (x.size() > config.entropy_cap) {
      decimated = decimate(x, config.entropy_cap);
      xe = decimated;
      xe_stddev = stddev(decimated);
    }
    entropies = template_entropies(xe, xe_stddev, 2, 0.2);
  }
  w.put(i++, [&] { return entropies.approximate; });
  w.put(i++, [&] { return entropies.sample; });

  for (std::size_t lag = 1; lag <= 3; ++lag) {
    w.put(i++, [&] { return c3(x, lag); });
  }
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    w.put(i++, [&] { return time_reversal_asymmetry(x, lag); });
  }

  std::vector<std::complex<double>> spectrum;
  if (w.reads(P::kFft)) spectrum = fft_real(x);
  for (std::size_t k = 1; k <= config.fft_coeffs; ++k) {
    const std::complex<double> c =
        k < spectrum.size() ? spectrum[k] : std::complex<double>(0.0, 0.0);
    w.put(i++, [&] { return std::abs(c); });
    w.put(i++, [&] { return c.real(); });
    w.put(i++, [&] { return c.imag(); });
  }

  WelchResult psd;
  if (w.reads(P::kWelch)) psd = welch_psd(x, 64);
  // Band powers: psd_bins equal frequency bands.
  for (std::size_t b = 0; b < config.psd_bins; ++b) {
    w.put(i++, [&] {
      const std::size_t nb = psd.power.size();
      const std::size_t begin = b * nb / config.psd_bins;
      const std::size_t end = (b + 1) * nb / config.psd_bins;
      double acc = 0.0;
      for (std::size_t k = begin; k < end && k < nb; ++k) acc += psd.power[k];
      return acc;
    });
  }
  w.put(i++, [&] { return spectral_centroid(psd); });
  w.put(i++, [&] { return dominant_frequency(psd); });

  LinearTrend trend;
  if (w.wants_any(i, 4)) trend = linear_trend(x, mo.mean);
  w.put(i++, [&] { return trend.slope; });
  w.put(i++, [&] { return trend.intercept; });
  w.put(i++, [&] { return trend.rvalue; });
  w.put(i++, [&] { return trend.stderr_; });
  for (std::size_t k = 0; k < 4; ++k) {
    w.put(i++, [&] { return energy_ratio_by_chunk(x, mo.energy, 4, k); });
  }
  double mass = 0.0;
  if (w.wants_any(i, 3)) {
    for (double v : x) mass += std::abs(v);
  }
  for (const double q : {0.25, 0.50, 0.75}) {
    w.put(i++, [&] { return index_mass_quantile(x, mass, q); });
  }

  return i;
}

}  // namespace

void TsfreshExtractor::extract(std::span<const double> x,
                               const FeaturePlan& plan,
                               std::span<double> out) const {
  check_out(plan, out);
  ALBA_CHECK(x.size() >= 8) << "series too short for TSFRESH extraction";
  const std::size_t cells =
      plan.full() ? extract_cells(config_, x, CellWriter<true>(plan, out))
                  : extract_cells(config_, x, CellWriter<false>(plan, out));
  ALBA_CHECK(cells == num_features());
}

}  // namespace alba
