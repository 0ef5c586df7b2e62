// The per-metric extractor interface and the plan it extracts through.
//
// A `FeaturePlan` says which of an extractor's cells one series needs and
// where each one goes, and so which shared intermediates (moments, sorted
// copies, value counts, ACF vector, template sweep, FFT, Welch PSD) have to
// be built for them: tsfresh's `kind_to_fc_parameters` idiom. Offline
// extraction passes `FeaturePlan::all()` — every cell at its own index,
// every intermediate; serving compiles one plan per metric from the columns
// its bundle selected. Every requested cell is bit for bit what the full
// plan gives; an unrequested cell is never written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace alba {

class FeaturePlan {
 public:
  /// Shared intermediates, as bits: the ones a feature reads.
  enum Reads : std::uint32_t {
    kMoments = 1u << 0,        // moments() of the whole series
    kSorted = 1u << 1,         // ascending copy of the series
    kHalfMoments = 1u << 2,    // moments() of each half (MVTS)
    kSortedHalves = 1u << 3,   // ascending copy of each half (MVTS)
    kValueCounts = 1u << 4,    // occurrences of each distinct value
    kAcf = 1u << 5,            // ACF vector, lags 0..max
    kTemplateSweep = 1u << 6,  // ApEn/SampEn template-match sweep
    kFft = 1u << 7,            // fft_real spectrum
    kWelch = 1u << 8,          // Welch PSD
  };
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// Every cell f, written to out[f], and every intermediate.
  static FeaturePlan all() noexcept { return FeaturePlan(); }

  bool full() const noexcept { return full_; }
  /// Output slot of feature f, kNoSlot when the plan does not request it.
  /// Partial plans only.
  std::uint32_t slot(std::size_t f) const noexcept { return slots_[f]; }
  /// Whether any of `intermediates` must be built.
  bool reads(std::uint32_t intermediates) const noexcept {
    return full_ || (reads_ & intermediates) != 0;
  }

 private:
  friend class FeatureExtractor;
  bool full_ = true;
  std::uint32_t reads_ = 0;
  std::size_t out_size_ = 0;          // slots a partial plan writes below
  std::vector<std::uint32_t> slots_;  // per feature; kNoSlot = skip
};

/// Common interface of the per-metric feature extractors.
class FeatureExtractor {
 public:
  virtual ~FeatureExtractor() = default;

  /// Extractor id ("mvts" / "tsfresh").
  virtual std::string name() const = 0;

  /// Names of the features produced for a single metric, in output order.
  const std::vector<std::string>& feature_names() const noexcept {
    return names_;
  }
  std::size_t num_features() const noexcept { return names_.size(); }

  /// Compiles the plan that writes feature `first` to out[second] for each
  /// pair, and builds only the intermediates those features read. Throws
  /// when a feature is out of range or requested twice.
  FeaturePlan plan(
      std::span<const std::pair<std::size_t, std::size_t>> cells) const;

  /// Computes the cells `plan` requests of one metric's (preprocessed)
  /// series into `out` and leaves every other slot of `out` as it was. The
  /// full plan needs exactly num_features() slots, a partial plan at least
  /// one past its largest slot.
  virtual void extract(std::span<const double> series, const FeaturePlan& plan,
                       std::span<double> out) const = 0;

 protected:
  /// Appends a feature and the intermediates it reads; the extractor's
  /// constructor declares its features in output order.
  void add_feature(std::string name, std::uint32_t reads);
  /// Throws unless `out` fits `plan` for this extractor.
  void check_out(const FeaturePlan& plan, std::span<const double> out) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::uint32_t> reads_;
};

}  // namespace alba
