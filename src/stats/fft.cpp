#include "stats/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <mutex>

#include "common/error.hpp"

namespace alba::stats {

namespace {
struct Pow2Slot {
  std::once_flag once;
  Pow2Tables tables;
};
}  // namespace

const Pow2Tables& pow2_tables(std::size_t n) {
  ALBA_CHECK(n > 0 && (n & (n - 1)) == 0)
      << "table length must be a power of two, got " << n;
  static std::array<Pow2Slot, 64> slots;
  Pow2Slot& slot = slots[static_cast<std::size_t>(std::countr_zero(n))];
  std::call_once(slot.once, [&] {
    Pow2Tables& t = slot.tables;
    for (const bool inverse : {false, true}) {
      const double angle =
          (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(n);
      const std::complex<double> wlen(std::cos(angle), std::sin(angle));
      auto& tw = t.twiddles[inverse ? 1 : 0];
      tw.resize(n / 2);
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < n / 2; ++k) {
        tw[k] = w;
        w *= wlen;
      }
    }
    t.hann.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      t.hann[i] = 0.5 - 0.5 * std::cos(2.0 * M_PI * static_cast<double>(i) /
                                       static_cast<double>(n));
      t.hann_power += t.hann[i] * t.hann[i];
    }
  });
  return slot.tables;
}

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  ALBA_CHECK(n > 0 && (n & (n - 1)) == 0)
      << "FFT length must be a power of two, got " << n;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::complex<double>* w =
        pow2_tables(len).twiddles[inverse ? 1 : 0].data();
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w[k];
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& c : data) c *= inv_n;
  }
}

std::vector<std::complex<double>> fft_real(std::span<const double> signal) {
  ALBA_CHECK(!signal.empty()) << "FFT of empty signal";
  const std::size_t n = next_pow2(signal.size());
  std::vector<std::complex<double>> data(n);
  for (std::size_t i = 0; i < signal.size(); ++i) data[i] = signal[i];
  fft_inplace(data);
  return data;
}

}  // namespace alba::stats
