// Online diagnosis serving: the first end-to-end inference path from a raw
// per-node telemetry window (T x M matrix, as collected) to an anomaly
// label, using nothing but a frozen ModelBundle. The service replays the
// training-time pipeline — preprocess, extract, project onto the selected
// training columns, Min-Max scale, predict — with serving-only
// optimizations that keep results bit-identical to the offline path:
//
//  * only metrics that feed at least one selected feature are preprocessed
//    (preprocessing and extraction are per-metric, so the skipped work
//    cannot change the kept columns);
//  * of those, only the selected cells are extracted: the constructor
//    compiles one FeaturePlan per needed metric, which builds only the
//    intermediates its cells read and writes each cell straight into its
//    model input column;
//  * scaling and column selection are composed per selected column, in
//    place in the model row, so no feature_names-wide row or per-metric
//    feature vector is ever materialized.
//
// Each call serves one window: extraction runs inline on the calling
// thread, and the classifier sees a batch of one, which predict_dispatch
// routes to the small-batch threshold kernel. Every window runs the
// pipeline: there is no content cache, because online every window is new
// (the ingestor drops re-delivered rows by seq before they can form a
// repeated window).
//
// Thread-safety contract: diagnose may be called concurrently from any
// number of threads; each thread reuses its own scratch rows. The
// statistics are mutex-guarded; the pipeline itself only reads the frozen
// bundle. stats()/reset_stats() are safe concurrently with serving.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "features/extractor.hpp"
#include "linalg/matrix.hpp"
#include "serving/diagnoser.hpp"
#include "serving/model_bundle.hpp"
#include "serving/serving_stats.hpp"
#include "telemetry/registry.hpp"

namespace alba {

struct ServingConfig {
  // Inert: serving keeps no window cache. Kept only because e2ebench/
  // sets it; nothing reads it.
  std::size_t cache_capacity = 0;
  // Called once per window at the start of feature extraction; the chaos
  // harness (serving/chaos.hpp) uses it to inject slow or failing
  // extractions. A throw from the hook aborts that window's pipeline pass
  // and propagates out of diagnose — exactly like a real extraction
  // failure. Leave empty in production.
  std::function<void(const Matrix&)> extraction_hook;
};

// Diagnosis itself lives in serving/diagnoser.hpp with the rest of the
// tier-uniform request/response types.

class DiagnosisService : public Diagnoser {
 public:
  /// Latency-percentile window: stats() computes p50/p99 over at most this
  /// many most-recent windows.
  static constexpr std::size_t kLatencyWindow = 4096;

  /// Takes ownership of the bundle and precomputes the serving plan
  /// (needed metrics, their feature plans, per-column scaling). Throws
  /// when the bundle's feature names cannot be produced by its own
  /// registry/extractor configuration, or two selected columns name the
  /// same cell.
  explicit DiagnosisService(ModelBundle bundle, ServingConfig config = {});

  /// Diagnoses one raw T x M window (M must match the bundle's registry,
  /// T must exceed the configured trim; throws alba::Error otherwise).
  Diagnosis diagnose(const Matrix& window);

  /// Diagnoser interface: the non-throwing, deadline-aware entry point.
  /// Pipeline exceptions become status Failed; a request whose deadline is
  /// already expired (or that finishes past it) comes back RejectedDeadline
  /// with no diagnosis, so Ok always met its deadline. ServiceHost's
  /// workers serve through this call, so the two tiers share these rules.
  /// Reports generation 1 (a bare service never reloads), attempts 1.
  DiagnosisResult diagnose(const DiagnoseRequest& request) override;

  const ModelBundle& bundle() const noexcept { return bundle_; }
  const ServingConfig& config() const noexcept { return config_; }
  const MetricRegistry& registry() const noexcept { return registry_; }
  std::string_view label_name(int label) const;

  /// Counter snapshot including latency percentiles; see ServingStats.
  ServingStats stats() const;
  void reset_stats();

 private:
  // Extraction plan for one needed metric: its registry column and the
  // feature plan that writes the extractor cells the bundle selected
  // straight into their model input columns.
  struct MetricPlan {
    std::size_t metric = 0;
    FeaturePlan features;
  };

  void extract_row(const Matrix& window, std::span<double> out) const;
  void record_window(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end,
                     double extract_s, double predict_s);

  ModelBundle bundle_;
  ServingConfig config_;
  MetricRegistry registry_;
  std::unique_ptr<FeatureExtractor> extractor_;

  // Precomputed plan: per-needed-metric extraction targets and, per model
  // input column, the Min-Max parameters of its source feature column.
  std::vector<MetricPlan> plan_;
  std::vector<double> col_min_;
  std::vector<double> col_max_;

  // Aggregate counters + per-window latency ring (RoundStats idiom).
  // wall-clock span endpoints: first window start, latest window end.
  mutable std::mutex stats_mutex_;
  ServingStats totals_;
  OutcomeWindow latency_{kLatencyWindow};  // total_ms per window
  bool span_started_ = false;
  std::chrono::steady_clock::time_point span_first_{};
  std::chrono::steady_clock::time_point span_last_{};
};

/// 64-bit FNV-1a content hash of a raw window (shape + bit pattern of
/// every cell): a cheap fingerprint for checking that two raw windows are
/// bit-identical, as the streaming parity checks and tests do.
std::uint64_t hash_window(const Matrix& window) noexcept;

}  // namespace alba
