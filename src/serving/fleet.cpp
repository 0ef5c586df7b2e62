#include "serving/fleet.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "serving/model_bundle.hpp"
#include "serving/serving_stats.hpp"

namespace alba {

std::string_view to_string(RolloutState state) noexcept {
  switch (state) {
    case RolloutState::Idle: return "idle";
    case RolloutState::Canarying: return "canarying";
    case RolloutState::Promoted: return "promoted";
    case RolloutState::RolledBack: return "rolled-back";
    case RolloutState::CanaryRejected: return "canary-rejected";
  }
  return "unknown";
}

std::string format_fleet_summary(const FleetStats& s) {
  std::size_t in_ring = 0;
  std::uint64_t probes_sum = 0;
  for (const ReplicaStats& r : s.replicas) {
    in_ring += r.in_ring ? 1 : 0;
    probes_sum += r.probes;
  }
  return strformat(
      "%llu requests: %llu served (%llu spilled, %llu failovers), "
      "%llu failed, %llu all-shed; p50 %.2fms, p99 %.2fms; "
      "ring %zu/%zu, %llu ejections, %llu readmissions, %llu probes",
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.served),
      static_cast<unsigned long long>(s.spilled),
      static_cast<unsigned long long>(s.failovers),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.all_shed), s.p50_ms, s.p99_ms,
      in_ring, s.replicas.size(),
      static_cast<unsigned long long>(s.ejections),
      static_cast<unsigned long long>(s.readmissions),
      static_cast<unsigned long long>(probes_sum));
}

std::string RolloutReport::summary() const {
  std::string out = "rollout " + std::string(to_string(state));
  if (!reason.empty()) out += " (" + reason + ")";
  out += strformat(
      ": canary %zu/%zu samples, err %.3f vs %.3f baseline, "
      "p99 %.2fms vs %.2fms, %zu promotion(s)",
      canary_samples, baseline_samples, canary_error_rate,
      baseline_error_rate, canary_p99_ms, baseline_p99_ms,
      promotions.size());
  return out;
}

ServingFleet::ServingFleet(
    std::vector<std::shared_ptr<DiagnosisService>> services,
    FleetConfig config)
    : config_(config) {
  ALBA_CHECK(!services.empty()) << "ServingFleet needs at least one replica";
  ALBA_CHECK(config_.health_min_samples > 0)
      << "fleet health_min_samples must be positive";
  ALBA_CHECK(config_.eject_error_rate >= 0.0 &&
             config_.eject_error_rate <= 1.0)
      << "eject_error_rate must be in [0, 1]";
  hosts_.reserve(services.size());
  outstanding_.reserve(services.size());
  replicas_.reserve(services.size());
  for (auto& service : services) {
    replicas_.push_back(
        Replica{.window = OutcomeWindow(config_.health_window)});
    hosts_.push_back(
        std::make_unique<ServiceHost>(std::move(service), config_.host));
    outstanding_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
}

ServingFleet::~ServingFleet() {
  // Host destructors drain; nothing fleet-level left to tear down.
}

std::vector<std::size_t> ServingFleet::candidates_locked(
    std::size_t& preferred) {
  std::vector<std::size_t> active;
  std::vector<std::size_t> ejected;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].dead) continue;
    (replicas_[i].in_ring ? active : ejected).push_back(i);
  }

  std::vector<std::size_t> order;
  // Probe-driven readmission: while anything is ejected, a deterministic
  // 1-in-N trickle detours a request to an ejected replica first (a
  // successful answer readmits it; a failed one spills onward like any
  // other shed).
  if (!ejected.empty() && config_.readmit_probe_every > 0 &&
      ++probe_counter_ % config_.readmit_probe_every == 0) {
    const std::size_t p = ejected[probe_rotor_++ % ejected.size()];
    order.push_back(p);
    ++readmit_probes_;
    ++replicas_[p].probes;
  }

  preferred = replicas_.size();  // sentinel: no in-ring preference
  if (!active.empty()) {
    preferred =
        active[static_cast<std::size_t>(round_robin_++) % active.size()];
    ++replicas_[preferred].preferred;
    if (order.empty() || order.front() != preferred) {
      order.push_back(preferred);
    }
    // Spill targets: the remaining in-ring replicas, least-loaded first
    // (fleet-side in-flight count; ties break on id for determinism). The
    // counts move under concurrent requests, so sort one snapshot of them:
    // a comparator that reads live counters is no strict weak order, and
    // std::sort then reads past the range.
    std::vector<std::pair<std::uint64_t, std::size_t>> rest;
    for (const std::size_t r : active) {
      if (r != preferred) rest.emplace_back(outstanding_[r]->load(), r);
    }
    std::sort(rest.begin(), rest.end());
    for (const auto& [load, r] : rest) order.push_back(r);
  }
  if (preferred == replicas_.size() && !order.empty()) {
    preferred = order.front();
  }
  return order;
}

void ServingFleet::eject_locked(std::size_t replica) {
  Replica& r = replicas_[replica];
  if (!r.in_ring) return;
  r.in_ring = false;
  ++r.ejections;
}

void ServingFleet::readmit_locked(std::size_t replica) {
  Replica& r = replicas_[replica];
  if (r.in_ring || r.dead) return;
  r.in_ring = true;
  ++r.readmissions;
  // Fresh start: the window that got it ejected must not re-trip the
  // breaker on the first post-recovery completion.
  r.window.clear();
}

void ServingFleet::record_outcome_locked(std::size_t replica,
                                         const DiagnosisResult& r) {
  Replica& rep = replicas_[replica];
  const bool pipeline_outcome = r.status == RequestStatus::Ok ||
                                r.status == RequestStatus::Failed;
  if (r.status == RequestStatus::Ok) {
    ++rep.served;
  } else if (r.status == RequestStatus::Failed) {
    ++rep.failed;
  } else {
    ++rep.shed;
  }

  if (pipeline_outcome) {
    const Outcome o{.failed = r.status == RequestStatus::Failed,
                    .queue_ms = r.queue_ms,
                    .total_ms = r.total_ms};
    rep.window.push(o);
    // Rollout guard: live canary-vs-baseline outcomes under the candidate
    // bundle (deliberate shedding stays out — overload is not a bundle
    // property).
    if (rollout_state_ == RolloutState::Canarying) {
      (replica == rollout_config_.canary ? guard_canary_ : guard_baseline_)
          .push_back(o);
    }
  }

  if (!rep.in_ring && !rep.dead && r.status == RequestStatus::Ok) {
    // A readmission probe answered: the replica is back.
    readmit_locked(replica);
    return;
  }

  if (!rep.in_ring) return;
  // The host's own breaker/drain already decided this replica is not
  // serving; mirror that in the ring immediately.
  if (r.status == RequestStatus::RejectedUnhealthy ||
      r.status == RequestStatus::RejectedDraining) {
    eject_locked(replica);
    return;
  }
  // Fleet-observed breaker over the rolling window.
  if (rep.window.size() >= config_.health_min_samples &&
      rep.window.error_rate() > config_.eject_error_rate) {
    eject_locked(replica);
  }
}

DiagnosisResult ServingFleet::diagnose(const DiagnoseRequest& request) {
  ALBA_CHECK(request.window != nullptr) << "DiagnoseRequest needs a window";
  std::size_t preferred = 0;
  std::vector<std::size_t> order;
  DiagnosisResult out;
  out.attempts = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++requests_;
    if (draining_) {
      ++all_shed_;
      out.status = RequestStatus::RejectedDraining;
      return out;
    }
    order = candidates_locked(preferred);
  }

  // The request's own counters move in the same critical section as its
  // last replica outcome, so a stats() snapshot never sees a replica's
  // serve without the fleet's.
  const auto finish_locked = [&] {
    if (out.ok()) {
      out.spilled = out.replica != preferred;
      ++served_;
      if (out.spilled) ++spilled_;
    } else if (is_rejection(out.status)) {
      ++all_shed_;
    } else {
      ++failed_;
    }
    if (out.attempts > 1) {
      failovers_ += static_cast<std::uint64_t>(out.attempts - 1);
    }
  };
  out.replica = preferred < hosts_.size() ? preferred : 0;
  out.status = RequestStatus::RejectedUnhealthy;  // nothing to try
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t c = order[i];
    outstanding_[c]->fetch_add(1, std::memory_order_relaxed);
    DiagnosisResult r = hosts_[c]->diagnose(request);
    outstanding_[c]->fetch_sub(1, std::memory_order_relaxed);
    r.replica = c;
    r.attempts = i + 1;
    // A deadline rejection is the caller's budget, not this replica's
    // fault — no other replica can answer in negative time.
    const bool last = r.ok() || r.status == RequestStatus::RejectedDeadline ||
                      request.deadline.expired() || i + 1 == order.size();
    std::lock_guard<std::mutex> lock(mutex_);
    record_outcome_locked(c, r);
    if (c != preferred) ++replicas_[c].spill_in;
    out = std::move(r);
    if (last) {
      finish_locked();
      return out;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  finish_locked();
  return out;
}

bool ServingFleet::in_ring(std::size_t replica) const {
  std::lock_guard<std::mutex> lock(mutex_);
  ALBA_CHECK(replica < replicas_.size())
      << "replica " << replica << " out of range";
  return replicas_[replica].in_ring;
}

void ServingFleet::set_probe_windows(std::vector<Matrix> probes) {
  for (auto& host : hosts_) host->set_probe_windows(probes);
}

ServiceHost& ServingFleet::host(std::size_t replica) {
  ALBA_CHECK(replica < hosts_.size())
      << "replica " << replica << " out of range";
  return *hosts_[replica];
}

void ServingFleet::kill(std::size_t replica) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ALBA_CHECK(replica < replicas_.size())
        << "replica " << replica << " out of range";
    Replica& r = replicas_[replica];
    r.dead = true;
    if (r.in_ring) {
      r.in_ring = false;
      ++r.ejections;
    }
  }
  // Outside the fleet mutex: the drain blocks on in-flight work, and that
  // work's completion path takes the fleet mutex to record its outcome.
  hosts_[replica]->drain();
}

void ServingFleet::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  for (auto& host : hosts_) host->drain();
}

FleetStats ServingFleet::stats() const {
  FleetStats s;
  std::vector<Outcome> merged;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.requests = requests_;
    s.served = served_;
    s.spilled = spilled_;
    s.failovers = failovers_;
    s.failed = failed_;
    s.all_shed = all_shed_;
    s.readmit_probes = readmit_probes_;
    s.replicas.reserve(replicas_.size());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      const Replica& rep = replicas_[i];
      ReplicaStats r;
      r.id = i;
      r.in_ring = rep.in_ring;
      r.dead = rep.dead;
      r.preferred = rep.preferred;
      r.served = rep.served;
      r.failed = rep.failed;
      r.shed = rep.shed;
      r.spill_in = rep.spill_in;
      r.probes = rep.probes;
      r.ejections = rep.ejections;
      r.readmissions = rep.readmissions;
      r.p50_ms = rep.window.percentile(&Outcome::total_ms, 0.50);
      r.p99_ms = rep.window.percentile(&Outcome::total_ms, 0.99);
      s.ejections += rep.ejections;
      s.readmissions += rep.readmissions;
      merged.insert(merged.end(), rep.window.samples().begin(),
                    rep.window.samples().end());
      s.replicas.push_back(std::move(r));
    }
  }
  // Exact merge of the actual samples across replicas (0/1-sample
  // replicas included), not an average of per-replica percentiles.
  s.p50_ms = outcome_percentile(merged, &Outcome::total_ms, 0.50);
  s.p99_ms = outcome_percentile(merged, &Outcome::total_ms, 0.99);
  // Host/service snapshots outside the fleet mutex (they take host locks).
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    s.replicas[i].host = hosts_[i]->stats();
    s.replicas[i].service = hosts_[i]->service()->stats();
    s.replicas[i].health = hosts_[i]->health();
  }
  return s;
}

// --- staged rollout --------------------------------------------------------

ReloadReport ServingFleet::start_rollout(const std::string& bundle_path,
                                         RolloutConfig config) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ALBA_CHECK(rollout_state_ != RolloutState::Canarying)
        << "a rollout is already in flight";
    ALBA_CHECK(config.canary < hosts_.size())
        << "canary replica " << config.canary << " out of range";
    ALBA_CHECK(!replicas_[config.canary].dead)
        << "canary replica " << config.canary << " is dead";
    ALBA_CHECK(config.guard_min_samples > 0)
        << "guard_min_samples must be positive";
    rollout_config_ = config;
    rollout_bundle_path_ = bundle_path;
    rollout_report_ = RolloutReport{};
    guard_canary_.clear();
    guard_baseline_.clear();
  }

  // Snapshot the canary's pre-push bundle for rollback, then push. Both
  // happen outside the fleet mutex: serving continues throughout.
  std::ostringstream snapshot(std::ios::binary);
  save_model_bundle(snapshot, hosts_[config.canary]->service()->bundle());
  const ReloadReport push =
      hosts_[config.canary]->reload_from_file(bundle_path);

  std::lock_guard<std::mutex> lock(mutex_);
  rollout_snapshot_ = snapshot.str();
  rollout_report_.canary_push = push;
  if (push.ok) {
    rollout_state_ = RolloutState::Canarying;
  } else {
    // The canary's own probe-validated reload rolled back internally; the
    // bundle never served a request and never reaches another replica.
    rollout_state_ = RolloutState::CanaryRejected;
    rollout_report_.reason = "canary push rejected: " + push.error;
  }
  rollout_report_.state = rollout_state_;
  return push;
}

RolloutDecision ServingFleet::decide_rollout_locked(
    std::string& reason) const {
  const Replica& canary = replicas_[rollout_config_.canary];
  if (!canary.in_ring || canary.dead) {
    reason = "canary ejected during the guard window";
    return RolloutDecision::RolledBack;
  }
  if (guard_canary_.size() < rollout_config_.guard_min_samples) {
    return RolloutDecision::NeedMoreTraffic;
  }
  const auto p99 = [](std::span<const Outcome> outcomes) {
    return outcome_percentile(outcomes, &Outcome::total_ms, 0.99);
  };
  const double canary_err = error_rate(guard_canary_);
  const double baseline_err = error_rate(guard_baseline_);
  if (canary_err > baseline_err + rollout_config_.max_error_rate_delta) {
    reason = strformat("canary error rate %.3f exceeds baseline %.3f + %.3f",
                       canary_err, baseline_err,
                       rollout_config_.max_error_rate_delta);
    return RolloutDecision::RolledBack;
  }
  if (rollout_config_.max_p99_ratio > 0.0 && !guard_baseline_.empty()) {
    const double canary_p99 = p99(guard_canary_);
    const double baseline_p99 = p99(guard_baseline_);
    if (baseline_p99 > 0.0 &&
        canary_p99 > rollout_config_.max_p99_ratio * baseline_p99) {
      reason = strformat("canary p99 %.2fms exceeds %.1fx baseline %.2fms",
                         canary_p99, rollout_config_.max_p99_ratio,
                         baseline_p99);
      return RolloutDecision::RolledBack;
    }
  }
  return RolloutDecision::Promoted;
}

RolloutDecision ServingFleet::advance_rollout() {
  std::string reason;
  RolloutDecision decision;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    switch (rollout_state_) {
      case RolloutState::Idle:
        return RolloutDecision::NeedMoreTraffic;  // nothing in flight
      case RolloutState::Promoted:
        return RolloutDecision::Promoted;
      case RolloutState::RolledBack:
      case RolloutState::CanaryRejected:
        return RolloutDecision::RolledBack;
      case RolloutState::Canarying:
        break;
    }
    decision = decide_rollout_locked(reason);
    if (decision == RolloutDecision::NeedMoreTraffic) return decision;

    // Record the guard measurements behind the decision and flip the
    // state *before* the reloads below, so a concurrent advance_rollout
    // sees a terminal state and never double-promotes.
    rollout_report_.canary_samples = guard_canary_.size();
    rollout_report_.baseline_samples = guard_baseline_.size();
    rollout_report_.canary_error_rate = error_rate(guard_canary_);
    rollout_report_.baseline_error_rate = error_rate(guard_baseline_);
    rollout_report_.canary_p99_ms =
        outcome_percentile(guard_canary_, &Outcome::total_ms, 0.99);
    rollout_report_.baseline_p99_ms =
        outcome_percentile(guard_baseline_, &Outcome::total_ms, 0.99);
    rollout_report_.reason = reason;
    rollout_state_ = decision == RolloutDecision::Promoted
                         ? RolloutState::Promoted
                         : RolloutState::RolledBack;
    rollout_report_.state = rollout_state_;
  }
  finish_rollout(decision, reason);
  return decision;
}

void ServingFleet::finish_rollout(RolloutDecision decision,
                                  const std::string& reason) {
  (void)reason;
  if (decision == RolloutDecision::Promoted) {
    // The bundle survived probes and the live guard on the canary; push it
    // to every other replica through the same probe-validated reload.
    std::vector<ReloadReport> promotions;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      bool skip = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        skip = i == rollout_config_.canary || replicas_[i].dead;
      }
      if (skip) continue;
      promotions.push_back(hosts_[i]->reload_from_file(rollout_bundle_path_));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    rollout_report_.promotions = std::move(promotions);
    return;
  }
  // Roll the canary back to its pre-push bundle. The snapshot was taken
  // from a serving bundle, so this reload re-validates and swaps cleanly.
  std::string snapshot;
  std::size_t canary = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = rollout_snapshot_;
    canary = rollout_config_.canary;
  }
  ReloadReport restore;
  try {
    std::istringstream in(snapshot, std::ios::binary);
    restore = hosts_[canary]->reload(load_model_bundle(in));
  } catch (const std::exception& e) {
    restore.ok = false;
    restore.rolled_back = true;
    restore.error = e.what();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  rollout_report_.rollback = restore;
}

RolloutState ServingFleet::rollout_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rollout_state_;
}

RolloutReport ServingFleet::rollout_report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rollout_report_;
}

}  // namespace alba
