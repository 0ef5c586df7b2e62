#include "serving/service_host.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "serving/serving_stats.hpp"

namespace alba {

namespace {

double ms_between(Deadline::Clock::time_point from,
                  Deadline::Clock::time_point to) noexcept {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::future<HostResult> rejected_future(HostResult result) {
  std::promise<HostResult> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

}  // namespace

// to_string(RequestStatus)/is_rejection/is_retriable moved to
// serving/diagnoser.cpp with the RequestStatus type itself.

std::string_view to_string(HostHealth health) noexcept {
  switch (health) {
    case HostHealth::Ready: return "ready";
    case HostHealth::Unhealthy: return "unhealthy";
    case HostHealth::Draining: return "draining";
    case HostHealth::Stopped: return "stopped";
  }
  return "unknown";
}

std::string format_host_summary(const HostStats& s) {
  return strformat(
      "%llu submitted: %llu ok, %llu failed, %llu shed "
      "(%llu queue, %llu deadline, %llu draining, %llu unhealthy), "
      "%llu late, queue p99 %.2fms, total p99 %.2fms, "
      "reloads %llu ok / %llu rolled back",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.rejected()),
      static_cast<unsigned long long>(s.rejected_queue_full),
      static_cast<unsigned long long>(s.rejected_deadline),
      static_cast<unsigned long long>(s.rejected_draining),
      static_cast<unsigned long long>(s.rejected_unhealthy),
      static_cast<unsigned long long>(s.deadline_misses), s.queue_p99_ms,
      s.total_p99_ms, static_cast<unsigned long long>(s.reloads_ok),
      static_cast<unsigned long long>(s.reloads_failed));
}

ServiceHost::ServiceHost(std::shared_ptr<DiagnosisService> service,
                         HostConfig config)
    : config_(config), service_(std::move(service)) {
  ALBA_CHECK(service_ != nullptr) << "ServiceHost needs a service";
  ALBA_CHECK(config_.workers > 0) << "ServiceHost needs at least one worker";
  ALBA_CHECK(config_.health_window > 0 && config_.health_min_samples > 0)
      << "health window sizes must be positive";
  ALBA_CHECK(config_.unhealthy_error_rate >= 0.0 &&
             config_.unhealthy_error_rate <= 1.0)
      << "unhealthy_error_rate must be in [0, 1]";
  window_.reserve(config_.health_window);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServiceHost::~ServiceHost() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ServiceHost::unhealthy_locked() const {
  if (window_.size() < config_.health_min_samples) return false;
  std::size_t failed = 0;
  for (const Outcome& o : window_) failed += o.failed ? 1 : 0;
  const double rate =
      static_cast<double>(failed) / static_cast<double>(window_.size());
  if (rate > config_.unhealthy_error_rate) return true;
  if (config_.unhealthy_p99_ms > 0.0) {
    std::vector<double> totals;
    totals.reserve(window_.size());
    for (const Outcome& o : window_) totals.push_back(o.total_ms);
    if (latency_percentile(totals, 0.99) > config_.unhealthy_p99_ms) {
      return true;
    }
  }
  return false;
}

HostHealth ServiceHost::health_locked() const {
  if (stop_) return HostHealth::Stopped;
  if (draining_) return HostHealth::Draining;
  return unhealthy_locked() ? HostHealth::Unhealthy : HostHealth::Ready;
}

HostHealth ServiceHost::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_locked();
}

std::future<HostResult> ServiceHost::submit(const Matrix& window,
                                            Deadline deadline) {
  const auto admitted_at = Deadline::Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.submitted;

  const auto reject = [&](RequestStatus status) {
    switch (status) {
      case RequestStatus::RejectedQueueFull:
        ++totals_.rejected_queue_full;
        break;
      case RequestStatus::RejectedDeadline:
        ++totals_.rejected_deadline;
        break;
      case RequestStatus::RejectedDraining:
        ++totals_.rejected_draining;
        break;
      case RequestStatus::RejectedUnhealthy:
        ++totals_.rejected_unhealthy;
        break;
      default: break;
    }
    HostResult r;
    r.status = status;
    return rejected_future(std::move(r));
  };

  if (stop_ || draining_) return reject(RequestStatus::RejectedDraining);
  if (deadline.expired()) return reject(RequestStatus::RejectedDeadline);
  if (unhealthy_locked()) {
    // Circuit-breaker half-open: a deterministic 1-in-N trickle keeps
    // probing so the outcome window can recover; everything else sheds.
    ++admission_counter_;
    if (config_.probe_every == 0 ||
        admission_counter_ % config_.probe_every != 0) {
      return reject(RequestStatus::RejectedUnhealthy);
    }
    ++totals_.health_probes;
  }
  // Idle workers will take that many queued requests immediately, so the
  // bound on *waiting* work is capacity plus one per idle worker. (Not
  // "admit while any worker is idle": between notify and dequeue a burst
  // could pile arbitrarily far past the bound.)
  const std::size_t idle_workers = config_.workers - in_flight_;
  if (queue_.size() >= config_.queue_capacity + idle_workers) {
    return reject(RequestStatus::RejectedQueueFull);
  }

  Request req;
  req.window = &window;
  req.deadline = deadline;
  req.admitted_at = admitted_at;
  std::future<HostResult> future = req.promise.get_future();
  queue_.push_back(std::move(req));
  work_cv_.notify_one();
  return future;
}

void ServiceHost::worker_loop() {
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      req = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }

    const auto dequeued_at = Deadline::Clock::now();
    HostResult result;
    result.queue_ms = ms_between(req.admitted_at, dequeued_at);

    if (req.deadline.expired()) {
      // Shed without doing the work: the answer could only arrive late.
      result.status = RequestStatus::RejectedDeadline;
      result.total_ms = result.queue_ms;
      std::lock_guard<std::mutex> lock(mutex_);
      ++totals_.rejected_deadline;
    } else {
      std::shared_ptr<DiagnosisService> service;
      std::uint64_t generation = 0;
      {
        std::lock_guard<std::mutex> lock(service_mutex_);
        service = service_;
        generation = generation_;
      }
      try {
        result.diagnosis = service->diagnose(*req.window);
        result.status = RequestStatus::Ok;
      } catch (const std::exception& e) {
        result.status = RequestStatus::Failed;
        result.error = e.what();
      }
      const auto finished_at = Deadline::Clock::now();
      result.generation = generation;
      result.service_ms = ms_between(dequeued_at, finished_at);
      result.total_ms = ms_between(req.admitted_at, finished_at);

      std::lock_guard<std::mutex> lock(mutex_);
      if (result.status == RequestStatus::Ok && req.deadline.expired()) {
        // The work finished, but past its deadline: an Ok result must
        // always have met its deadline, so this one is reported as shed.
        result.status = RequestStatus::RejectedDeadline;
        result.diagnosis = Diagnosis{};
        ++totals_.deadline_misses;
        ++totals_.rejected_deadline;
      } else if (result.status == RequestStatus::Ok) {
        ++totals_.completed;
      } else {
        ++totals_.failed;
      }
      // Health sees pipeline outcomes (success vs failure + latency);
      // deliberate shedding stays out so overload alone cannot trip it.
      Outcome o;
      o.failed = result.status == RequestStatus::Failed;
      o.queue_ms = result.queue_ms;
      o.total_ms = result.total_ms;
      if (window_.size() < config_.health_window) {
        window_.push_back(o);
      } else {
        window_[window_next_] = o;
      }
      window_next_ = (window_next_ + 1) % config_.health_window;
    }

    req.promise.set_value(std::move(result));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

HostResult ServiceHost::diagnose(const Matrix& window) {
  return diagnose(window, config_.default_deadline_ms > 0.0
                              ? Deadline::after_ms(config_.default_deadline_ms)
                              : Deadline::never());
}

HostResult ServiceHost::diagnose(const Matrix& window, Deadline deadline) {
  return submit(window, deadline).get();
}

DiagnosisResult ServiceHost::diagnose(const DiagnoseRequest& request) {
  ALBA_CHECK(request.window != nullptr) << "DiagnoseRequest needs a window";
  const HostResult h =
      request.deadline.is_never() ? diagnose(*request.window)
                                  : diagnose(*request.window, request.deadline);
  DiagnosisResult r;
  r.status = h.status;
  r.diagnosis = h.diagnosis;
  r.error = h.error;
  r.generation = h.generation;
  r.queue_ms = h.queue_ms;
  r.service_ms = h.service_ms;
  r.total_ms = h.total_ms;
  return r;
}

std::vector<HostResult> ServiceHost::diagnose_batch(
    std::span<const Matrix> windows, Deadline deadline) {
  std::vector<std::future<HostResult>> futures;
  futures.reserve(windows.size());
  for (const Matrix& w : windows) futures.push_back(submit(w, deadline));
  std::vector<HostResult> results;
  results.reserve(windows.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

ReloadReport ServiceHost::reload(ModelBundle bundle) {
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  ReloadReport report;
  const auto [serving_config, probes] = reload_inputs();
  auto fresh = build_validated_service(std::move(bundle), serving_config,
                                       probes, report);
  return install(std::move(fresh), std::move(report));
}

ReloadReport ServiceHost::reload_from_file(const std::string& path) {
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  ReloadReport report;
  const auto [serving_config, probes] = reload_inputs();
  auto fresh = load_validated_service(path, serving_config, probes, report);
  return install(std::move(fresh), std::move(report));
}

std::pair<ServingConfig, std::vector<Matrix>> ServiceHost::reload_inputs()
    const {
  std::lock_guard<std::mutex> lock(service_mutex_);
  return {service_->config(), probes_};
}

ReloadReport ServiceHost::install(std::shared_ptr<DiagnosisService> fresh,
                                  ReloadReport report) {
  std::lock_guard<std::mutex> lock(service_mutex_);
  if (fresh == nullptr) {
    report.rolled_back = true;
    report.generation = generation_;
    std::lock_guard<std::mutex> stats_lock(mutex_);
    ++totals_.reloads_failed;
    return report;
  }
  service_ = std::move(fresh);
  report.generation = ++generation_;
  std::lock_guard<std::mutex> stats_lock(mutex_);
  ++totals_.reloads_ok;
  return report;
}

void ServiceHost::set_probe_windows(std::vector<Matrix> probes) {
  std::lock_guard<std::mutex> lock(service_mutex_);
  probes_ = std::move(probes);
}

void ServiceHost::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::uint64_t ServiceHost::generation() const {
  std::lock_guard<std::mutex> lock(service_mutex_);
  return generation_;
}

std::shared_ptr<const DiagnosisService> ServiceHost::service() const {
  std::lock_guard<std::mutex> lock(service_mutex_);
  return service_;
}

HostStats ServiceHost::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HostStats s = totals_;
  std::vector<double> queue_ms;
  std::vector<double> total_ms;
  queue_ms.reserve(window_.size());
  total_ms.reserve(window_.size());
  for (const Outcome& o : window_) {
    queue_ms.push_back(o.queue_ms);
    total_ms.push_back(o.total_ms);
  }
  s.queue_p50_ms = latency_percentile(queue_ms, 0.50);
  s.queue_p99_ms = latency_percentile(queue_ms, 0.99);
  s.total_p50_ms = latency_percentile(total_ms, 0.50);
  s.total_p99_ms = latency_percentile(total_ms, 0.99);
  return s;
}

}  // namespace alba
