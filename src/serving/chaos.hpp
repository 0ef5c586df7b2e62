// Service-level chaos injection, the serving-layer sibling of
// telemetry/faults: where TelemetryFaultInjector degrades the *data*
// a collector delivers, ServingChaos degrades the *service* itself —
// feature extractions that stall (a node's metric store hanging) or throw
// (a window the pipeline chokes on), and model-bundle pushes that arrive
// poisoned (truncated upload, bit rot, wrong file). Injection is seeded
// and per-event deterministic: event k of a run draws from a stream
// derived from (seed, k), so a chaos schedule replays exactly regardless
// of which thread happens to serve which window.
//
// The injector attaches to a DiagnosisService through
// ServingConfig::extraction_hook; ServiceHost then sees the injected
// failures exactly as it would see real ones (typed Failed results, late
// completions, health-window error spikes). bench_serving --chaos-smoke
// and tests/test_service_host.cpp are the consumers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "linalg/matrix.hpp"

namespace alba {

/// Rates are per-extraction probabilities. All-zero (the default) means
/// the hook does nothing and the serving path behaves exactly as without
/// the harness.
struct ChaosConfig {
  // Probability one extraction sleeps for slow_extract_ms before running
  // (a stalled metric store; the request still completes, late).
  double slow_extract_rate = 0.0;
  double slow_extract_ms = 20.0;
  // Probability one extraction throws alba::Error (an unparseable window;
  // the request fails with a typed, retriable error).
  double extract_fail_rate = 0.0;
  std::uint64_t seed = 0;

  bool enabled() const noexcept {
    return slow_extract_rate > 0.0 || extract_fail_rate > 0.0;
  }
};

/// Seeded injector of slow and failing feature extractions. Thread-safe:
/// any number of service threads may run the hook concurrently; each
/// extraction consumes one event index from an atomic counter and derives
/// its decisions from (seed, index) alone.
class ServingChaos {
 public:
  /// Validates rates in [0, 1] and a non-negative delay; throws
  /// alba::Error otherwise.
  explicit ServingChaos(ChaosConfig config);

  const ChaosConfig& config() const noexcept { return config_; }

  /// The extraction hook to install as ServingConfig::extraction_hook.
  /// The returned callable references this injector, which must outlive
  /// every service it is attached to.
  std::function<void(const Matrix&)> hook();

  /// Events injected so far (monotonic; safe to read concurrently).
  std::uint64_t extractions_seen() const noexcept;
  std::uint64_t slowdowns_injected() const noexcept;
  std::uint64_t failures_injected() const noexcept;

 private:
  void on_extraction(const Matrix& window);

  ChaosConfig config_;
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> slowdowns_{0};
  std::atomic<std::uint64_t> failures_{0};
};

/// Ways a bundle push can arrive broken at the serving host.
enum class BundlePoison {
  Truncate,   // upload cut short: keep a prefix of the file
  BitFlip,    // storage rot: flip one byte somewhere past the header
  BadMagic,   // wrong file entirely: corrupt the magic
};

/// Reads the valid bundle at `src_path` and writes a poisoned copy to
/// `dst_path` (deterministic in `seed`). The result is exactly what a
/// failed hot-reload must reject and roll back from. Throws alba::Error
/// on IO failure.
void write_poisoned_bundle(const std::string& src_path,
                           const std::string& dst_path, BundlePoison mode,
                           std::uint64_t seed);

}  // namespace alba
