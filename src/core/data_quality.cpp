#include "core/data_quality.hpp"

#include <sstream>

#include "common/csv.hpp"

namespace alba {

void DataQualityReport::add(const ExtractionQuality& q) noexcept {
  cells_interpolated += q.cells_interpolated;
  metrics_quarantined += q.metrics_quarantined;
  feature_failures += q.feature_failures;
  rows_dropped += q.rows_dropped;
}

std::string format_data_quality(const DataQualityReport& q) {
  std::ostringstream os;
  os << "faults: " << q.faults.total_events() << " events ("
     << q.faults.metric_dropouts << " dropouts, " << q.faults.stuck_metrics
     << " stuck, " << q.faults.nan_bursts << " NaN bursts, "
     << q.faults.counter_resets << " counter resets, "
     << q.faults.stalled_rows << " stalled rows, " << q.faults.truncated_runs
     << " truncations); repaired " << q.cells_interpolated
     << " cells, quarantined " << q.metrics_quarantined
     << " metrics, dropped " << q.rows_dropped << " rows / "
     << q.columns_dropped << " columns";
  if (q.feature_failures > 0) {
    os << ", " << q.feature_failures << " extractor failures";
  }
  if (q.degenerate_columns > 0) {
    os << ", " << q.degenerate_columns << " degenerate at selection";
  }
  return os.str();
}

std::string data_quality_csv_header() {
  return "label,fault_events,metric_dropouts,stuck_metrics,nan_bursts,"
         "counter_resets,stalled_rows,truncated_runs,truncated_rows,"
         "cells_corrupted,cells_interpolated,metrics_quarantined,"
         "feature_failures,rows_dropped,columns_dropped,degenerate_columns";
}

std::string data_quality_csv_row(std::string_view label,
                                 const DataQualityReport& q) {
  std::ostringstream os;
  os << csv_escape(std::string(label)) << ',' << q.faults.total_events() << ','
     << q.faults.metric_dropouts << ',' << q.faults.stuck_metrics << ','
     << q.faults.nan_bursts << ',' << q.faults.counter_resets << ','
     << q.faults.stalled_rows << ',' << q.faults.truncated_runs << ','
     << q.faults.truncated_rows << ',' << q.faults.cells_corrupted << ','
     << q.cells_interpolated << ',' << q.metrics_quarantined << ','
     << q.feature_failures << ',' << q.rows_dropped << ','
     << q.columns_dropped << ',' << q.degenerate_columns;
  return os.str();
}

}  // namespace alba
