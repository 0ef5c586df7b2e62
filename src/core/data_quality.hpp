// Data-quality accounting for one built dataset: what was injected into
// the raw telemetry, what the robust pipeline had to repair, quarantine, or
// drop, and how many feature columns died downstream. Rides along in
// ExperimentData the same way RoundStats rides in ActiveLearnerResult, so
// experiments and benches can report how degraded their input was without
// re-instrumenting the pipeline; render/CSV helpers mirror round_stats.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "features/extractor.hpp"
#include "telemetry/faults.hpp"

namespace alba {

struct DataQualityReport {
  // Injected degradation, summed over every generated sample (all zero
  // when fault injection is disabled).
  FaultSummary faults;

  // Repair / degradation bookkeeping from the (robust) pipeline.
  std::size_t cells_interpolated = 0;   // NaN cells linearly repaired
  std::size_t metrics_quarantined = 0;  // per-sample metric quarantines
  std::size_t feature_failures = 0;     // per-metric extractor throws caught
  std::size_t rows_dropped = 0;         // samples removed (unusable series)
  std::size_t columns_dropped = 0;      // unusable feature columns removed
  std::size_t degenerate_columns = 0;   // skipped by chi-square selection

  void add(const FaultSummary& s) noexcept { faults += s; }
  void add(const ExtractionQuality& q) noexcept;
};

/// One human-readable line, e.g.
///   "faults: 12 events (3 dropouts, ...); repaired 240 cells, quarantined
///    9 metrics, dropped 2 rows / 41 columns".
std::string format_data_quality(const DataQualityReport& q);

/// CSV column names, matching data_quality_csv_row field order. The
/// leading `label` column tags the dataset (e.g. a fault intensity) so
/// several datasets can share one file.
std::string data_quality_csv_header();
/// One row; the label is RFC-4180-escaped, so it may hold commas.
std::string data_quality_csv_row(std::string_view label,
                                 const DataQualityReport& q);

}  // namespace alba
