// Raw-series preprocessing, replicating Sec. IV-E-1 of the paper:
//  1. trim the init/termination intervals (metrics fluctuate there),
//  2. difference cumulative counters (the change matters, not the value),
//  3. linearly interpolate missing samples (LDMS drops occur in practice);
//     a non-finite reading (NaN or ±inf) counts as missing.
// The output of `preprocess_series` is a clean T' x M matrix of
// gauge-values / counter-rates with no NaNs, ready for feature extraction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "telemetry/registry.hpp"

namespace alba {

struct PreprocessConfig {
  int trim_head = 6;  // samples dropped at the start (init phase)
  int trim_tail = 5;  // samples dropped at the end (termination phase)
  // Robust path only (`preprocess_series_robust`): additionally quarantine
  // metrics whose processed column is constant — a stuck gauge or dead
  // counter. Off by default because clean simulated data legitimately
  // contains idle counters (zero rate throughout a run); the pipeline turns
  // it on when fault injection is enabled.
  bool quarantine_constant = false;
};

/// Linear interpolation of NaNs in place. Interior gaps are interpolated
/// between the nearest finite neighbours; leading/trailing NaNs take the
/// nearest finite value. An all-NaN series becomes all zeros.
void interpolate_nans(std::span<double> x) noexcept;

/// First difference: out[i] = x[i+1] - x[i] (length n-1). Negative steps
/// (counter wrap/reset) are clamped to 0.
std::vector<double> difference_counter(std::span<const double> x);

/// Full preprocessing of one sample's raw series. The result has
/// T - trim_head - trim_tail - 1 rows (one row lost to differencing; gauge
/// columns drop their first trimmed sample to stay aligned).
Matrix preprocess_series(const Matrix& raw, const MetricRegistry& registry,
                         const PreprocessConfig& config);

/// Preprocesses a single metric column of a raw series — bit-identical to
/// column `metric` of preprocess_series(raw, ...). The serving path uses
/// this to process only the metrics that feed selected features instead of
/// the whole registry.
std::vector<double> preprocess_metric_column(const Matrix& raw,
                                             std::size_t metric,
                                             const MetricRegistry& registry,
                                             const PreprocessConfig& config);

/// A metric needs at least this many finite samples in the kept window to
/// be repairable by interpolation; below it the column is quarantined.
inline constexpr std::size_t kMinFiniteSamples = 3;

/// Repair/quarantine accounting for one sample's robust preprocessing.
struct SeriesQuality {
  bool usable = false;                  // false: series too short to trim
  std::size_t cells_interpolated = 0;   // NaN cells repaired
  std::size_t metrics_quarantined = 0;  // columns zero-filled
  std::vector<std::uint8_t> metric_ok;  // per column, 1 = trustworthy
};

/// Degraded-telemetry variant of `preprocess_series`. Shape mismatches
/// against the registry still throw, but bad *data* no longer does: a
/// metric that cannot be repaired — all-NaN, fewer than kMinFiniteSamples
/// finite samples, or (with `config.quarantine_constant`) constant after
/// processing — is quarantined, i.e. its output column is zero-filled and
/// flagged in `quality.metric_ok`. A series too short for the configured
/// trim returns an empty matrix with `quality.usable == false`. On clean
/// input (and quarantine_constant off) the output is bit-identical to
/// `preprocess_series`.
Matrix preprocess_series_robust(const Matrix& raw,
                                const MetricRegistry& registry,
                                const PreprocessConfig& config,
                                SeriesQuality& quality);

}  // namespace alba
