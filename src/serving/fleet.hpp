// Replicated serving: N ServiceHosts behind one router — the layer that
// turns "a host can shed" into "the fleet survives". One overload-safe
// ServiceHost (service_host.hpp) is still a single point of failure: one
// unhealthy host is a full outage, and a bad bundle push is a fleet-wide
// incident. ServingFleet adds exactly the three fleet-level properties a
// production deployment needs:
//
//  * routing — the preferred replica rotates over the ring (the replicas
//    neither ejected nor killed): on a fresh fleet request n prefers
//    replica n mod R, so a healthy fleet spreads load evenly. There is no
//    affinity to keep, since serving holds no per-replica cache;
//
//  * failover — when the preferred replica sheds (queue_full, unhealthy,
//    draining) or fails, the request spills to the least-loaded remaining
//    replica instead of bouncing back to the caller; only when every
//    candidate sheds does the caller see the last candidate's typed
//    rejection (an admitted request fails over or sheds with a type, it
//    never silently vanishes). Replicas whose fleet-observed rolling
//    error rate breaches the ejection threshold — or whose own breaker
//    trips — are ejected from the ring; while any
//    replica is ejected, a deterministic 1-in-N probe trickle keeps
//    routing the occasional request to it, and a successful probe readmits
//    it (the host breaker's half-open state, one level up);
//
//  * staged rollout — FleetRollout pushes a new bundle through the
//    existing probe-validated hot_reload to ONE canary replica, then
//    compares the canary's live error-rate/p99 against the rest of the
//    fleet over a guard window before promoting fleet-wide or rolling the
//    canary back to its pre-push bundle. A poisoned bundle dies on the
//    canary's probe validation and never reaches a second replica; a
//    bundle that loads but regresses live dies in the guard comparison.
//
// Like the host, its one entry point is Diagnoser::diagnose: the answer is
// the DiagnosisResult of the last replica tried, with `replica`,
// `attempts` (replicas tried) and `spilled` filled by the fleet.
//
// Thread-safety: every public method may be called concurrently; host
// calls (which block) happen outside the fleet mutex.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serving/service_host.hpp"

namespace alba {

struct FleetConfig {
  // Fleet-observed per-replica breaker: outcomes of the last
  // `health_window` pipeline passes routed to a replica. With at least
  // `health_min_samples` of them, the replica is ejected from the ring on
  // `eject_error_rate` (fraction Failed, strict >).
  std::size_t health_window = 64;
  std::size_t health_min_samples = 8;
  double eject_error_rate = 0.5;
  // While any replica is ejected, every `readmit_probe_every`-th request
  // is routed to an ejected replica as a readmission probe; one Ok
  // readmits it with a cleared outcome window.
  std::size_t readmit_probe_every = 8;
  // Applied to every replica's ServiceHost.
  HostConfig host;
};

/// Per-replica slice of a FleetStats snapshot: fleet-side routing/outcome
/// counters, the fleet-observed latency percentiles, and the replica's own
/// HostStats/ServingStats.
struct ReplicaStats {
  std::size_t id = 0;
  bool in_ring = true;
  bool dead = false;  // killed: never probed, never readmitted
  HostHealth health = HostHealth::Ready;
  std::uint64_t preferred = 0;   // requests the rotation sent here first
  std::uint64_t served = 0;      // Ok results produced
  std::uint64_t failed = 0;      // Failed results produced
  std::uint64_t shed = 0;        // typed rejections produced
  std::uint64_t spill_in = 0;    // served/attempted as a spill target
  std::uint64_t probes = 0;      // readmission probes routed here
  std::uint64_t ejections = 0;
  std::uint64_t readmissions = 0;
  double p50_ms = 0.0;  // fleet-observed pipeline latency percentiles
  double p99_ms = 0.0;
  HostStats host;
  ServingStats service;
};

/// Aggregate + per-replica snapshot. Fleet percentiles are computed over
/// the union of the per-replica fleet-observed latency windows (exact
/// merge of the actual samples — not an average of percentiles), so
/// replicas with 0 or 1 samples merge correctly.
struct FleetStats {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t spilled = 0;    // Ok from a non-preferred replica
  std::uint64_t failovers = 0;  // extra attempts past the first
  std::uint64_t failed = 0;     // last candidate's pipeline threw
  std::uint64_t all_shed = 0;   // every candidate rejected (typed shed)
  std::uint64_t readmit_probes = 0;
  std::uint64_t ejections = 0;
  std::uint64_t readmissions = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<ReplicaStats> replicas;
};

std::string format_fleet_summary(const FleetStats& s);

/// Where a rollout stands. Idle -> Canarying -> {Promoted, RolledBack};
/// CanaryRejected is the short-circuit when the canary push itself fails
/// validation (the bundle never served a single request anywhere).
enum class RolloutState { Idle, Canarying, Promoted, RolledBack,
                          CanaryRejected };

std::string_view to_string(RolloutState state) noexcept;

/// advance_rollout's answer: keep sending traffic, or the terminal
/// decision it just executed.
enum class RolloutDecision { NeedMoreTraffic, Promoted, RolledBack };

struct RolloutConfig {
  // Replica that takes the canary push.
  std::size_t canary = 0;
  // Pipeline outcomes the canary must serve under the new bundle before
  // the guard comparison may decide.
  std::size_t guard_min_samples = 32;
  // Promote only if canary_error_rate <= baseline_error_rate + delta.
  double max_error_rate_delta = 0.05;
  // Promote only if canary_p99 <= ratio * baseline_p99 (skipped when the
  // baseline has no samples or ratio is 0).
  double max_p99_ratio = 3.0;
};

/// Full record of one staged rollout: the canary push, the guard-window
/// measurements behind the decision, and the per-replica promotion (or
/// canary rollback) reports.
struct RolloutReport {
  RolloutState state = RolloutState::Idle;
  std::string reason;
  ReloadReport canary_push;
  std::vector<ReloadReport> promotions;  // one per non-canary replica
  ReloadReport rollback;                 // canary restore on RolledBack
  std::size_t canary_samples = 0;
  std::size_t baseline_samples = 0;
  double canary_error_rate = 0.0;
  double baseline_error_rate = 0.0;
  double canary_p99_ms = 0.0;
  double baseline_p99_ms = 0.0;

  std::string summary() const;
};

class ServingFleet : public Diagnoser {
 public:
  /// Takes one ready service per replica and starts a ServiceHost around
  /// each (config.host applies to all). At least one replica required.
  explicit ServingFleet(
      std::vector<std::shared_ptr<DiagnosisService>> services,
      FleetConfig config = {});
  ~ServingFleet();

  ServingFleet(const ServingFleet&) = delete;
  ServingFleet& operator=(const ServingFleet&) = delete;

  /// Routes, spills, and returns the last candidate's typed outcome.
  /// Never throws on overload/failure — like the host, but one level up:
  /// a request is served by some replica, or comes back Failed, or with
  /// the rejection every candidate gave (rejected:draining on a draining
  /// fleet, with attempts 0). `replica` names the last replica tried,
  /// `attempts` counts replicas tried, `spilled` flags an Ok from a
  /// non-preferred replica (failover or probe detour).
  DiagnosisResult diagnose(const DiagnoseRequest& request) override;

  std::size_t replica_count() const noexcept { return hosts_.size(); }

  /// True while the replica is in the ring (not ejected, not dead).
  bool in_ring(std::size_t replica) const;

  /// Probe windows for every replica's hot reload (and thus for canary
  /// pushes and promotions).
  void set_probe_windows(std::vector<Matrix> probes);

  /// Direct access to a replica's host — the ops/test escape hatch.
  ServiceHost& host(std::size_t replica);

  /// Chaos entry point: drains the replica and removes it permanently
  /// (never probed, never readmitted). In-flight work finishes; requests
  /// routed to it afterwards fail over. Blocks until the drain completes.
  void kill(std::size_t replica);

  /// Graceful fleet drain: new requests shed immediately
  /// (rejected:draining, attempts 0), then every replica drains.
  /// Terminal, idempotent.
  void drain();

  FleetStats stats() const;

  // --- staged rollout ----------------------------------------------------
  /// Snapshots the canary's current bundle (for rollback) and pushes the
  /// new bundle to the canary only, through probe-validated hot reload.
  /// On validation failure the canary rolls back internally and the
  /// rollout ends CanaryRejected — no other replica ever sees the bundle.
  /// On success the rollout enters Canarying: send traffic, then call
  /// advance_rollout. Throws alba::Error if a rollout is already active.
  ReloadReport start_rollout(const std::string& bundle_path,
                             RolloutConfig config = {});

  /// Evaluates the guard window and executes the decision: promotes the
  /// bundle to every other replica, rolls the canary back to its pre-push
  /// bundle (also triggered by the canary getting ejected mid-guard), or
  /// asks for more traffic. Safe to call repeatedly; terminal states
  /// return their decision again.
  RolloutDecision advance_rollout();

  RolloutState rollout_state() const;
  RolloutReport rollout_report() const;

 private:
  // Per-replica fleet-side state: ring membership, rolling outcome
  // window, counters. Guarded by mutex_.
  struct Replica {
    bool in_ring = true;
    bool dead = false;
    OutcomeWindow window;
    std::uint64_t preferred = 0;
    std::uint64_t served = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
    std::uint64_t spill_in = 0;
    std::uint64_t probes = 0;
    std::uint64_t ejections = 0;
    std::uint64_t readmissions = 0;
  };

  std::vector<std::size_t> candidates_locked(std::size_t& preferred);
  void record_outcome_locked(std::size_t replica, const DiagnosisResult& r);
  void eject_locked(std::size_t replica);
  void readmit_locked(std::size_t replica);
  RolloutDecision decide_rollout_locked(std::string& reason) const;
  void finish_rollout(RolloutDecision decision, const std::string& reason);

  FleetConfig config_;
  std::vector<std::unique_ptr<ServiceHost>> hosts_;
  // Fleet-side in-flight per replica (the spill-to-least-loaded metric);
  // atomic so load reads never need the fleet mutex.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> outstanding_;

  mutable std::mutex mutex_;
  std::vector<Replica> replicas_;
  std::uint64_t round_robin_ = 0;  // request n prefers in-ring n mod size
  std::uint64_t probe_counter_ = 0;
  std::size_t probe_rotor_ = 0;  // rotates over ejected replicas
  bool draining_ = false;
  // Fleet counters.
  std::uint64_t requests_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t spilled_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t all_shed_ = 0;
  std::uint64_t readmit_probes_ = 0;

  // Rollout state (also under mutex_; host reloads happen outside it).
  RolloutState rollout_state_ = RolloutState::Idle;
  RolloutConfig rollout_config_;
  RolloutReport rollout_report_;
  std::string rollout_bundle_path_;
  std::string rollout_snapshot_;  // canary's pre-push bundle, serialized
  // Guard outcomes, unbounded: the decision reads every sample since the
  // push.
  std::vector<Outcome> guard_canary_;
  std::vector<Outcome> guard_baseline_;
};

}  // namespace alba
