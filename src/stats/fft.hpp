// Iterative radix-2 Cooley–Tukey FFT with zero-padding for arbitrary sizes.
// Feeds the Welch PSD estimator and the TSFRESH-like FFT-coefficient
// features.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace alba::stats {

/// In-place FFT of a power-of-two-length complex buffer.
/// Throws alba::Error when the length is not a power of two.
void fft_inplace(std::vector<std::complex<double>>& data, bool inverse = false);

/// FFT of a real signal. The signal is zero-padded to the next power of two;
/// returns the full complex spectrum of the padded length.
std::vector<std::complex<double>> fft_real(std::span<const double> signal);

/// Returns the smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n) noexcept;

/// Tables of one power-of-two length n, built once per process on first
/// use and read-only after, so every thread shares them.
struct Pow2Tables {
  /// Twiddles of the FFT stage of length n: w_k for k < n/2, by the
  /// recurrence w_0 = 1, w_{k+1} = w_k · e^{∓2πi/n} — the bits the
  /// butterfly loop would compute itself ([0] forward, [1] inverse).
  std::vector<std::complex<double>> twiddles[2];
  /// Periodic Hann window of length n and its sum of squares.
  std::vector<double> hann;
  double hann_power = 0.0;
};
/// The tables of length n, a power of two; thread-safe.
const Pow2Tables& pow2_tables(std::size_t n);

}  // namespace alba::stats
