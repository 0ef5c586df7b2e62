// Private to src/features: included by the extractors' sources only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "features/feature_plan.hpp"

namespace alba {

/// How an extractor body writes through a plan. With kFull every cell is
/// wanted and every intermediate read, as compile-time constants, so the
/// full plan runs straight-line code with no per-cell test.
template <bool kFull>
class CellWriter {
 public:
  CellWriter(const FeaturePlan& plan, std::span<double> out) noexcept
      : plan_(plan), out_(out) {}

  bool reads(std::uint32_t intermediates) const noexcept {
    if constexpr (kFull) return true;
    return plan_.reads(intermediates);
  }
  bool wants(std::size_t f) const noexcept {
    if constexpr (kFull) return true;
    return plan_.slot(f) != FeaturePlan::kNoSlot;
  }
  /// Whether any of the `count` features from `first` on is wanted.
  bool wants_any(std::size_t first, std::size_t count) const noexcept {
    if constexpr (kFull) return true;
    for (std::size_t f = first; f < first + count; ++f) {
      if (wants(f)) return true;
    }
    return false;
  }
  /// Writes compute() as feature f when the plan wants it; compute runs
  /// only then.
  template <typename Compute>
  void put(std::size_t f, Compute&& compute) {
    if constexpr (kFull) {
      out_[f] = compute();
    } else {
      const std::uint32_t slot = plan_.slot(f);
      if (slot != FeaturePlan::kNoSlot) out_[slot] = compute();
    }
  }

 private:
  const FeaturePlan& plan_;
  std::span<double> out_;
};

}  // namespace alba
