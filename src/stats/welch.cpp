#include "stats/welch.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "stats/fft.hpp"

namespace alba::stats {

WelchResult welch_psd(std::span<const double> signal,
                      std::size_t segment_length, double fs) {
  ALBA_CHECK(!signal.empty()) << "welch_psd of empty signal";
  ALBA_CHECK(fs > 0.0);

  // Clamp segment to the signal and round down to a power of two (>= 8).
  std::size_t seg = std::min(segment_length, signal.size());
  std::size_t p = 1;
  while (p * 2 <= seg) p *= 2;
  seg = std::max<std::size_t>(8, p);
  if (seg > signal.size()) seg = next_pow2(signal.size()) / 2;
  seg = std::max<std::size_t>(2, std::min(seg, signal.size()));
  // Ensure power-of-two after all clamping.
  {
    std::size_t q = 1;
    while (q * 2 <= seg) q *= 2;
    seg = q;
  }

  const std::size_t step = std::max<std::size_t>(1, seg / 2);  // 50% overlap
  const std::size_t nbins = seg / 2 + 1;

  // Hann window and its normalization, shared per segment length.
  const Pow2Tables& tables = pow2_tables(seg);
  const std::vector<double>& window = tables.hann;
  const double win_power = tables.hann_power;

  WelchResult result;
  result.frequencies.resize(nbins);
  result.power.assign(nbins, 0.0);
  for (std::size_t k = 0; k < nbins; ++k) {
    result.frequencies[k] =
        fs * static_cast<double>(k) / static_cast<double>(seg);
  }

  std::size_t nsegments = 0;
  std::vector<std::complex<double>> buf(seg);
  for (std::size_t start = 0; start + seg <= signal.size(); start += step) {
    // Detrend (mean removal) per segment, as scipy does by default.
    double seg_mean = 0.0;
    for (std::size_t i = 0; i < seg; ++i) seg_mean += signal[start + i];
    seg_mean /= static_cast<double>(seg);
    for (std::size_t i = 0; i < seg; ++i) {
      buf[i] = (signal[start + i] - seg_mean) * window[i];
    }
    fft_inplace(buf);
    for (std::size_t k = 0; k < nbins; ++k) {
      double scale = 1.0 / (fs * win_power);
      // One-sided spectrum: double everything except DC and Nyquist.
      if (k != 0 && k != seg / 2) scale *= 2.0;
      result.power[k] += std::norm(buf[k]) * scale;
    }
    ++nsegments;
    if (start + seg == signal.size()) break;
  }

  if (nsegments == 0) {
    // Signal shorter than one segment: single zero-padded periodogram.
    for (std::size_t i = 0; i < signal.size(); ++i) buf[i] = signal[i] * window[i];
    for (std::size_t i = signal.size(); i < seg; ++i) buf[i] = 0.0;
    fft_inplace(buf);
    for (std::size_t k = 0; k < nbins; ++k) {
      result.power[k] = std::norm(buf[k]) / (fs * win_power);
    }
    nsegments = 1;
  }

  const double inv = 1.0 / static_cast<double>(nsegments);
  for (auto& pwr : result.power) pwr *= inv;
  return result;
}

double spectral_centroid(const WelchResult& psd) noexcept {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t k = 0; k < psd.power.size(); ++k) {
    num += psd.frequencies[k] * psd.power[k];
    den += psd.power[k];
  }
  if (den < 1e-300) return 0.0;
  return num / den;
}

double dominant_frequency(const WelchResult& psd) noexcept {
  if (psd.power.size() < 2) return 0.0;
  std::size_t best = 1;
  for (std::size_t k = 2; k < psd.power.size(); ++k) {
    if (psd.power[k] > psd.power[best]) best = k;
  }
  return psd.frequencies[best];
}

}  // namespace alba::stats
