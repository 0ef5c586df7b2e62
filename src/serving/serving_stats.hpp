// Aggregate instrumentation of the online diagnosis path, following the
// RoundStats idiom from the active-learning loop: the service records phase
// timings (feature extraction vs. model forward pass) and a window count as
// it serves, and exposes an immutable snapshot with derived throughput and
// latency percentiles. Benches and the smoke stage consume the same
// snapshot instead of re-instrumenting the service.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace alba {

/// Snapshot of a DiagnosisService's counters since construction (or the
/// last reset_stats). Latency percentiles cover the most recent windows
/// (a bounded ring; see DiagnosisService::kLatencyWindow).
struct ServingStats {
  std::uint64_t windows = 0;       // windows diagnosed, one per call
  double extract_seconds = 0.0;    // preprocess + feature extraction
  double predict_seconds = 0.0;    // classifier forward passes
  // Per-call time summed across workers — under concurrent serving this
  // exceeds elapsed time, so throughput must not divide by it.
  double total_seconds = 0.0;
  // Monotonic span from the first window's start to the latest window's
  // end — the denominator of windows_per_second().
  double wall_seconds = 0.0;
  double latency_p50_ms = 0.0;     // per-window latency percentiles
  double latency_p99_ms = 0.0;
  // Tail and floor of the same ring: p99.9 is the metric the small-batch
  // serving path optimizes, min bounds what the hardware allows.
  double latency_p999_ms = 0.0;
  double latency_min_ms = 0.0;

  // Inert: serving keeps no window cache, so this is always 0. Kept only
  // because e2ebench/ reports it.
  double hit_rate() const noexcept { return 0.0; }
  /// Throughput over the wall-clock serving span. Falls back to the
  /// accumulated per-call time for hand-built snapshots that never set
  /// wall_seconds (single-threaded, the two coincide).
  double windows_per_second() const noexcept {
    const double denom = wall_seconds > 0.0 ? wall_seconds : total_seconds;
    return denom > 0.0 ? static_cast<double>(windows) / denom : 0.0;
  }
};

/// Linear-interpolation percentile over unsorted samples; q in [0, 1].
/// Returns 0 for an empty span.
double latency_percentile(std::span<const double> latencies_ms, double q);

/// One pipeline pass as the host's health window and the service's latency
/// window see it. Deliberate shedding never becomes an Outcome.
struct Outcome {
  bool failed = false;
  double queue_ms = 0.0;  // admission -> dequeue (0 where untracked)
  double total_ms = 0.0;  // admission -> completion
};

/// The most recent `capacity` outcomes; once full, each push overwrites
/// the oldest. Samples are kept in ring order, not arrival order — every
/// summary below is order-free. Not thread-safe: owners lock around it.
class OutcomeWindow {
 public:
  explicit OutcomeWindow(std::size_t capacity);

  void push(const Outcome& outcome);
  void clear() noexcept;

  std::size_t size() const noexcept { return samples_.size(); }
  std::span<const Outcome> samples() const noexcept { return samples_; }
  /// Fraction of retained outcomes that failed; 0 when empty.
  double error_rate() const noexcept;
  /// latency_percentile over one field (&Outcome::total_ms or
  /// &Outcome::queue_ms) of the retained outcomes; 0 when empty.
  double percentile(double Outcome::*field, double q) const;

 private:
  std::size_t capacity_;
  std::vector<Outcome> samples_;
  std::size_t next_ = 0;
};

/// One human-readable line, e.g.
///   "640 windows: 123.4 win/s, p50 1.2ms, p99 4.5ms, p99.9 6.0ms,
///    min 0.8ms (extract 310.2ms, predict 12.4ms)".
std::string format_serving_summary(const ServingStats& s);

}  // namespace alba
