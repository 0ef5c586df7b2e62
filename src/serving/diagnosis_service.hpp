// Online diagnosis serving: the first end-to-end inference path from a raw
// per-node telemetry window (T x M matrix, as collected) to an anomaly
// label, using nothing but a frozen ModelBundle. The service replays the
// training-time pipeline — preprocess, extract, project onto the selected
// training columns, Min-Max scale, predict — with two serving-only
// optimizations that keep results bit-identical to the offline path:
//
//  * only metrics that feed at least one selected feature are preprocessed
//    and extracted (preprocessing and extraction are per-metric, so the
//    skipped work cannot change the kept columns);
//  * scaling and column selection are composed per selected column, so the
//    full feature_names-wide row is never materialized.
//
// Windows are served as micro-batches: feature rows are extracted in
// parallel on the shared ThreadPool and predicted with one classifier
// forward pass per batch. An LRU cache keyed on the window's content hash
// answers repeated windows (a stalled collector re-delivering the same
// scan, a dashboard re-asking about the same incident) without touching
// the pipeline.
//
// Thread-safety contract: diagnose and diagnose_batch may be called
// concurrently from any number of threads. The cache and the statistics
// are mutex-guarded; the pipeline itself only reads the frozen bundle.
// stats()/reset_stats() are safe concurrently with serving.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "features/extractor.hpp"
#include "linalg/matrix.hpp"
#include "serving/diagnoser.hpp"
#include "serving/model_bundle.hpp"
#include "serving/serving_stats.hpp"
#include "telemetry/registry.hpp"

namespace alba {

struct ServingConfig {
  // Windows per classifier forward pass; larger batches amortize the
  // per-call overhead at the cost of per-window latency.
  std::size_t max_batch = 32;
  // LRU entries keyed on window content hash; 0 disables caching.
  std::size_t cache_capacity = 1024;
  // Pool for parallel feature extraction; nullptr = the process-wide
  // global_pool().
  ThreadPool* pool = nullptr;
  // Called once per window at the start of feature extraction; the chaos
  // harness (serving/chaos.hpp) uses it to inject slow or failing
  // extractions. A throw from the hook aborts that window's pipeline pass
  // and propagates out of diagnose — exactly like a real extraction
  // failure. Leave empty in production.
  std::function<void(const Matrix&)> extraction_hook;
};

// Diagnosis itself lives in serving/diagnoser.hpp with the rest of the
// tier-uniform request/response types.

/// Full cache identity of a raw window: the 64-bit FNV-1a content hash
/// plus a cheap verifier (shape and the bit patterns of the first and last
/// cells). The cache indexes by `hash` but only answers when the verifier
/// matches too — a 64-bit hash collision between distinct windows must not
/// silently return another window's diagnosis.
struct WindowKey {
  std::uint64_t hash = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t first_bits = 0;  // bit pattern of cell (0, 0); 0 if empty
  std::uint64_t last_bits = 0;   // bit pattern of the last cell; 0 if empty

  bool matches(const WindowKey& o) const noexcept {
    return hash == o.hash && rows == o.rows && cols == o.cols &&
           first_bits == o.first_bits && last_bits == o.last_bits;
  }
};

/// Computes the full cache key of a window. Exposed for tests.
WindowKey window_key(const Matrix& window) noexcept;

/// Thread-safe LRU keyed on WindowKey — the DiagnosisService's window
/// cache, factored out so hash-collision handling is testable with
/// synthetic keys (crafting real 64-bit FNV collisions is infeasible).
/// A lookup whose hash matches but whose verifier does not is a miss; an
/// insert over such an entry evicts it and counts a collision eviction.
class WindowCache {
 public:
  /// `capacity` of 0 disables the cache (lookup misses, insert drops).
  explicit WindowCache(std::size_t capacity) : capacity_(capacity) {}

  /// On a verified hit, copies the stored diagnosis into `out` with
  /// cache_hit flagged and refreshes recency.
  bool lookup(const WindowKey& key, Diagnosis& out);
  void insert(const WindowKey& key, const Diagnosis& d);

  std::size_t size() const;
  /// Entries replaced because the full key disproved a hash match.
  std::uint64_t collision_evictions() const;

 private:
  struct Entry {
    WindowKey key;
    Diagnosis result;  // stored with cache_hit=false; flagged on lookup
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // most-recent at the front; map points into it
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t collision_evictions_ = 0;
};

class DiagnosisService : public Diagnoser {
 public:
  /// Latency-percentile window: stats() computes p50/p99 over at most this
  /// many most-recent requests.
  static constexpr std::size_t kLatencyWindow = 4096;

  /// Takes ownership of the bundle and precomputes the serving plan
  /// (needed metrics, per-column scaling). Throws when the bundle's
  /// feature names cannot be produced by its own registry/extractor
  /// configuration.
  explicit DiagnosisService(ModelBundle bundle, ServingConfig config = {});

  /// Diagnoses one raw T x M window (M must match the bundle's registry,
  /// T must exceed the configured trim; throws alba::Error otherwise).
  Diagnosis diagnose(const Matrix& window);

  /// Diagnoser interface: the non-throwing, deadline-aware entry point.
  /// Pipeline exceptions become status Failed; a request whose deadline is
  /// already expired (or that finishes past it) comes back RejectedDeadline
  /// with no diagnosis — the Ok-met-its-deadline contract of the hosted
  /// tiers, honored here too. Reports generation 1 (a bare service never
  /// reloads), replica 0, attempts 1.
  DiagnosisResult diagnose(const DiagnoseRequest& request) override;

  /// Diagnoses a stream of windows as micro-batches of at most
  /// config.max_batch, preserving order. Duplicate windows — within the
  /// batch or across requests — are answered once and deduplicated.
  std::vector<Diagnosis> diagnose_batch(std::span<const Matrix> windows);

  const ModelBundle& bundle() const noexcept { return bundle_; }
  const ServingConfig& config() const noexcept { return config_; }
  const MetricRegistry& registry() const noexcept { return registry_; }
  std::string_view label_name(int label) const;

  /// Counter snapshot including latency percentiles; see ServingStats.
  ServingStats stats() const;
  void reset_stats();

 private:
  // Extraction plan for one needed metric: which extractor outputs feed
  // which model-input columns.
  struct MetricPlan {
    std::size_t metric = 0;  // registry column
    // (extractor feature index, model input column) pairs.
    std::vector<std::pair<std::size_t, std::size_t>> outputs;
  };

  void extract_row(const Matrix& window, std::span<double> out) const;
  void serve_micro_batch(std::span<const Matrix> windows,
                         std::span<Diagnosis> out);
  // Single-window fast path: no dedup bookkeeping, no pool dispatch, and
  // the feature row + probability matrices are per-thread scratch reused
  // across requests, so a cached-model request performs no batch-assembly
  // copies or steady-state allocations before the predictor runs. Results
  // are bit-identical to serve_micro_batch on a one-window span.
  void serve_single(const Matrix& window, Diagnosis& out);
  void record_request(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end,
                      std::size_t windows, double extract_s, double predict_s,
                      std::size_t hits, std::size_t misses,
                      std::size_t batches);

  ModelBundle bundle_;
  ServingConfig config_;
  MetricRegistry registry_;
  std::unique_ptr<FeatureExtractor> extractor_;
  ThreadPool* pool_;

  // Precomputed plan: per-needed-metric extraction targets and, per model
  // input column, the Min-Max parameters of its source feature column.
  std::vector<MetricPlan> plan_;
  std::vector<double> col_min_;
  std::vector<double> col_max_;

  // Window cache with verified (collision-safe) hits.
  WindowCache cache_;

  // Aggregate counters + per-request latency ring (RoundStats idiom).
  // wall-clock span endpoints: first request start, latest request end.
  mutable std::mutex stats_mutex_;
  ServingStats totals_;
  OutcomeWindow latency_{kLatencyWindow};  // total_ms per request
  bool span_started_ = false;
  std::chrono::steady_clock::time_point span_first_{};
  std::chrono::steady_clock::time_point span_last_{};
  // Cache collision count at the last reset_stats (the cache itself is
  // not reset, so stats() reports the delta).
  std::uint64_t collisions_at_reset_ = 0;
};

/// Content hash of a raw window (shape + bit pattern of every cell) — the
/// cache key. Exposed for tests.
std::uint64_t hash_window(const Matrix& window) noexcept;

}  // namespace alba
