// Overload-safe host around DiagnosisService: the layer that keeps the
// diagnosis path answering — with typed answers — while the cluster
// misbehaves. DiagnosisService is a library object: call it and it either
// returns or throws, however long that takes. A production endpoint needs
// more: a bound on concurrent work, a bound on waiting work, per-request
// deadlines, an admission decision that reflects recent health, a drain
// path for shutdown, and bundle swaps that cannot tear. ServiceHost adds
// exactly that:
//
//  * admission control — a bounded FIFO queue served by a fixed worker
//    set; when the queue is full the request is rejected *immediately*
//    with RequestStatus::RejectedQueueFull instead of piling latency onto
//    everyone behind it;
//  * deadlines — every request carries a Deadline; expired requests are
//    shed at dequeue (no work wasted) and requests that finish late are
//    reported as RejectedDeadline, so an Ok result *always* met its
//    deadline;
//  * health — a rolling window over recent completions trips the host
//    Unhealthy on error-rate or p99 breach; while unhealthy, admissions
//    are shed (RejectedUnhealthy) except a deterministic 1-in-N probe
//    trickle that lets the window recover (circuit-breaker half-open);
//  * drain — stop admitting (RejectedDraining), finish everything already
//    admitted, then idle; the destructor drains;
//  * hot reload — an incoming bundle is validated against the probe
//    window set (serving/hot_reload.hpp) *before* the single
//    pointer-swap; on any failure the old service keeps serving,
//    untouched. In-flight requests hold a reference to the service that
//    admitted them, so a swap can never tear a half-served request, and
//    every result carries the generation that produced it.
//
// Thread-safety: every public method may be called concurrently from any
// number of threads, including reload/drain racing diagnose.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "serving/diagnosis_service.hpp"
#include "serving/hot_reload.hpp"

namespace alba {

// RequestStatus and its to_string/is_rejection/is_retriable helpers live in
// serving/diagnoser.hpp (pulled in via diagnosis_service.hpp) — they are
// the tier-uniform outcome vocabulary, not a host-only concept.

struct HostConfig {
  // Worker threads serving the queue; also the bound on concurrent
  // pipeline passes.
  std::size_t workers = 2;
  // Waiting requests beyond the ones being served; 0 means "reject
  // whenever every worker is busy".
  std::size_t queue_capacity = 64;
  // Deadline applied by diagnose(window) when the caller brings none;
  // <= 0 means no default deadline.
  double default_deadline_ms = 0.0;

  // Health window: outcomes of the last `health_window` completed
  // requests. The breaker needs at least `health_min_samples` of them
  // before it will trip on `unhealthy_error_rate` (fraction Failed) or
  // `unhealthy_p99_ms` (0 disables the latency trip). While unhealthy,
  // every `probe_every`-th submission is admitted as a recovery probe.
  std::size_t health_window = 64;
  std::size_t health_min_samples = 16;
  double unhealthy_error_rate = 0.5;
  double unhealthy_p99_ms = 0.0;
  std::size_t probe_every = 4;
};

/// One hosted request's outcome. `diagnosis` is meaningful only when
/// `status == Ok`; `generation` names the bundle that served it (0 =
/// never served); timings cover queue wait and service time.
struct HostResult {
  RequestStatus status = RequestStatus::Failed;
  Diagnosis diagnosis;
  std::string error;        // what() of the pipeline failure, for Failed
  std::uint64_t generation = 0;
  double queue_ms = 0.0;    // admission -> dequeue
  double service_ms = 0.0;  // dequeue -> completion
  double total_ms = 0.0;    // admission -> completion (or rejection)

  bool ok() const noexcept { return status == RequestStatus::Ok; }
};

/// Host health, coarsened for readiness checks: Ready serves everything,
/// Unhealthy sheds all but probes, Draining/Stopped shed everything.
enum class HostHealth { Ready, Unhealthy, Draining, Stopped };

std::string_view to_string(HostHealth health) noexcept;

/// Counter snapshot; percentiles cover the same rolling window the health
/// breaker reads.
struct HostStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;          // Ok
  std::uint64_t failed = 0;             // Failed
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;  // shed queued + finished-late
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_unhealthy = 0;
  std::uint64_t deadline_misses = 0;    // admitted but finished late
  std::uint64_t health_probes = 0;      // admissions granted while unhealthy
  std::uint64_t reloads_ok = 0;
  std::uint64_t reloads_failed = 0;
  double queue_p50_ms = 0.0;
  double queue_p99_ms = 0.0;
  double total_p50_ms = 0.0;
  double total_p99_ms = 0.0;

  std::uint64_t rejected() const noexcept {
    return rejected_queue_full + rejected_deadline + rejected_draining +
           rejected_unhealthy;
  }
};

std::string format_host_summary(const HostStats& s);

class ServiceHost : public Diagnoser {
 public:
  /// Takes a ready service (generation 1) and starts the workers. The
  /// service's ServingConfig is reused for every reloaded generation.
  explicit ServiceHost(std::shared_ptr<DiagnosisService> service,
                       HostConfig config = {});
  ~ServiceHost();

  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  /// Admits, waits, and returns the typed outcome. Never throws on
  /// overload, deadline, drain, health, or pipeline failure — those are
  /// all statuses. The window must stay alive for the duration of the
  /// call (it does: the call blocks).
  HostResult diagnose(const Matrix& window);
  HostResult diagnose(const Matrix& window, Deadline deadline);

  /// Diagnoser interface: same admission/deadline/health semantics as the
  /// HostResult overloads, mapped onto the uniform result (replica 0,
  /// attempts 1). A never() deadline applies config.default_deadline_ms,
  /// matching diagnose(window).
  DiagnosisResult diagnose(const DiagnoseRequest& request) override;

  /// Submits every window up front (so they share the queue and the
  /// worker set — a burst, not a sequence) and waits for all outcomes.
  /// Windows past the admission bound come back RejectedQueueFull.
  std::vector<HostResult> diagnose_batch(std::span<const Matrix> windows,
                                         Deadline deadline);

  /// Validates `bundle` against the probe set and atomically swaps it in;
  /// on any failure the previous service keeps serving (rolled_back).
  /// Reloads serialize against each other but not against serving.
  ReloadReport reload(ModelBundle bundle);
  ReloadReport reload_from_file(const std::string& path);

  /// Probe windows each reload must answer correctly before the swap.
  /// Defaults to empty (construction-time validation only).
  void set_probe_windows(std::vector<Matrix> probes);

  /// Stops admitting (RejectedDraining), waits for every admitted request
  /// to finish, and leaves the host in Draining; terminal and idempotent.
  void drain();

  HostHealth health() const;
  bool ready() const { return health() == HostHealth::Ready; }

  /// Current bundle generation: 1 for the constructor's service, +1 per
  /// successful reload.
  std::uint64_t generation() const;

  /// The currently serving service (for stats or direct inspection); the
  /// pointer stays valid across reloads, serving its own generation.
  std::shared_ptr<const DiagnosisService> service() const;

  HostStats stats() const;

 private:
  struct Request {
    const Matrix* window = nullptr;  // caller-owned; caller blocks until done
    Deadline deadline = Deadline::never();
    Deadline::Clock::time_point admitted_at;
    std::promise<HostResult> promise;
  };

  void worker_loop();
  // Admission decision + enqueue; returns the future to wait on, or
  // fulfills immediately on rejection.
  std::future<HostResult> submit(const Matrix& window, Deadline deadline);
  // Reload plumbing: snapshot the serving config + probe set, then swap
  // the validated service in (or record the rollback).
  std::pair<ServingConfig, std::vector<Matrix>> reload_inputs() const;
  ReloadReport install(std::shared_ptr<DiagnosisService> fresh,
                       ReloadReport report);
  HostHealth health_locked() const;
  bool unhealthy_locked() const;

  HostConfig config_;

  // Serving state: current service + generation, swapped under its own
  // mutex so reload never blocks behind a slow queue operation.
  mutable std::mutex service_mutex_;
  std::shared_ptr<DiagnosisService> service_;
  std::uint64_t generation_ = 1;
  std::mutex reload_mutex_;  // serializes reload attempts
  std::vector<Matrix> probes_;

  // Queue + counters + health window, all under one mutex (admission and
  // bookkeeping are a few hundred nanoseconds; the pipeline work happens
  // outside it).
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers: queue non-empty or stopping
  std::condition_variable idle_cv_;   // drain: queue empty and nothing in flight
  std::deque<Request> queue_;
  std::size_t in_flight_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  std::uint64_t admission_counter_ = 0;  // drives the 1-in-N probe trickle
  HostStats totals_;
  // Rolling outcome window (health + percentiles): one entry per
  // completed admission, newest overwrite oldest.
  struct Outcome {
    bool failed = false;
    double queue_ms = 0.0;
    double total_ms = 0.0;
  };
  std::vector<Outcome> window_;
  std::size_t window_next_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace alba
