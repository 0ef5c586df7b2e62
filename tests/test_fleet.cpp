// Tests for the replicated serving layer: consistent-hash routing,
// replica failover and spill accounting, fleet-observed ejection with
// probe-driven readmission, exact merged latency percentiles, graceful
// fleet drain, and the staged canary rollout with auto-rollback. The
// concurrency tests in this file run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "ml/grid_search.hpp"
#include "serving/chaos.hpp"
#include "serving/fleet.hpp"
#include "serving/model_bundle.hpp"
#include "telemetry/run_generator.hpp"
#include "temp_dir.hpp"

namespace alba {
namespace {

// One tiny trained experiment with two frozen models (so rollouts have
// something to push), shared by every test in this file.
struct FleetEnv {
  DatasetConfig cfg = tiny_config();
  ExperimentData data;
  SplitIndices split;
  PreparedSplit prepared;
  std::string bundle_a;  // random forest
  std::string bundle_b;  // logistic regression
  std::vector<Matrix> windows;  // distinct raw windows
};

const FleetEnv& env() {
  static const FleetEnv* shared = [] {
    auto* e = new FleetEnv;
    e->data = build_experiment_data(e->cfg);
    e->split = make_split(e->data, e->cfg.test_fraction, 5);
    e->prepared = prepare_split(e->data, e->split, e->cfg.select_k);

    ParamSet rf_params = table4_optimum("rf", false);
    rf_params["n_estimators"] = "15";
    auto model_a = make_model_factory("rf", kNumClasses, 9)(rf_params);
    model_a->fit(e->prepared.train_x, e->prepared.train_y);
    auto model_b =
        make_model_factory("lr", kNumClasses, 9)(table4_optimum("lr", false));
    model_b->fit(e->prepared.train_x, e->prepared.train_y);

    const auto freeze = [&](const Classifier& model) {
      std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
      save_model_bundle(ss, make_model_bundle(e->data, e->prepared, model));
      return ss.str();
    };
    e->bundle_a = freeze(*model_a);
    e->bundle_b = freeze(*model_b);

    const RunGenerator generator(e->cfg.system, e->cfg.registry, e->cfg.sim);
    for (int r = 0; r < 6; ++r) {
      RunSpec spec;
      spec.app_id = r % static_cast<int>(e->data.num_apps);
      spec.nodes = 2;
      if (r % 3 == 1) {
        spec.anomaly = kAnomalyTypes[r % kAnomalyTypes.size()];
        spec.intensity = 1.0;
      }
      spec.run_id = 7100 + r;
      spec.seed = 4500 + static_cast<std::uint64_t>(r);
      for (Sample& s : generator.generate_run(spec)) {
        e->windows.push_back(std::move(s.series));
      }
    }
    return e;
  }();
  return *shared;
}

ModelBundle bundle_from_bytes(const std::string& bytes) {
  std::stringstream ss(bytes,
                       std::ios::in | std::ios::out | std::ios::binary);
  return load_model_bundle(ss);
}

std::shared_ptr<DiagnosisService> make_service(const std::string& bytes,
                                               ServingConfig config = {}) {
  return std::make_shared<DiagnosisService>(bundle_from_bytes(bytes),
                                            config);
}

std::vector<std::shared_ptr<DiagnosisService>> make_replicas(
    std::size_t n, const std::string& bytes, FleetChaos* chaos = nullptr) {
  std::vector<std::shared_ptr<DiagnosisService>> services;
  for (std::size_t r = 0; r < n; ++r) {
    ServingConfig serving;
    serving.cache_capacity = 0;  // routing tests don't want cache noise
    if (chaos != nullptr) serving.extraction_hook = chaos->hook_for(r);
    services.push_back(make_service(bytes, serving));
  }
  return services;
}

// --------------------------------------------------------------- routing ---

TEST(FleetRouting, DeterministicUnderFixedSeedAndReplicaSet) {
  const FleetEnv& e = env();
  FleetConfig config;
  config.seed = 42;
  ServingFleet fleet_a(make_replicas(3, e.bundle_a), config);
  ServingFleet fleet_b(make_replicas(3, e.bundle_a), config);

  for (const Matrix& w : e.windows) {
    const std::size_t p = fleet_a.preferred_replica(w);
    EXPECT_EQ(p, fleet_b.preferred_replica(w));
    EXPECT_EQ(p, fleet_a.preferred_replica(w));  // stable across calls
    EXPECT_LT(p, fleet_a.replica_count());
  }
}

TEST(FleetRouting, RepeatWindowsStickAndTrafficSpreadsAcrossReplicas) {
  const FleetEnv& e = env();
  FleetConfig config;
  config.seed = 7;
  ServingFleet fleet(make_replicas(3, e.bundle_a), config);

  std::set<std::size_t> used;
  for (const Matrix& w : e.windows) {
    const std::size_t p = fleet.preferred_replica(w);
    const FleetResult r = fleet.diagnose(w);
    ASSERT_TRUE(r.ok()) << to_string(r.result.status);
    EXPECT_EQ(r.replica, p);  // healthy fleet: no spill
    EXPECT_FALSE(r.spilled);
    EXPECT_EQ(fleet.preferred_replica(w), p);  // serving didn't move it
    used.insert(p);
  }
  // 12 distinct windows over 3 replicas with 64 vnodes: more than one
  // replica must take traffic or the ring is degenerate.
  EXPECT_GE(used.size(), 2u);

  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.requests, e.windows.size());
  EXPECT_EQ(s.served, e.windows.size());
  EXPECT_EQ(s.spilled, 0u);
  EXPECT_EQ(s.failovers, 0u);
  std::uint64_t preferred_sum = 0;
  std::uint64_t served_sum = 0;
  for (const ReplicaStats& r : s.replicas) {
    preferred_sum += r.preferred;
    served_sum += r.served;
    EXPECT_EQ(r.spill_in, 0u);
  }
  EXPECT_EQ(preferred_sum, e.windows.size());
  EXPECT_EQ(served_sum, e.windows.size());
}

TEST(FleetRouting, RoundRobinCyclesThroughReplicas) {
  const FleetEnv& e = env();
  FleetConfig config;
  config.routing = RoutingPolicy::RoundRobin;
  ServingFleet fleet(make_replicas(3, e.bundle_a), config);

  std::set<std::size_t> used;
  for (int i = 0; i < 6; ++i) {
    const FleetResult r = fleet.diagnose(e.windows[0]);
    ASSERT_TRUE(r.ok());
    used.insert(r.replica);
  }
  // The same window lands everywhere — the cache-cold control.
  EXPECT_EQ(used.size(), 3u);
}

// -------------------------------------------------------------- failover ---

TEST(Fleet, SpillsToAnotherReplicaWhenThePreferredSheds) {
  const FleetEnv& e = env();
  FleetConfig config;
  config.seed = 3;
  ServingFleet fleet(make_replicas(3, e.bundle_a), config);

  const Matrix& w = e.windows[0];
  const std::size_t p = fleet.preferred_replica(w);
  fleet.host(p).drain();  // replica p now sheds rejected:draining

  const FleetResult r = fleet.diagnose(w);
  ASSERT_TRUE(r.ok()) << to_string(r.result.status);
  EXPECT_NE(r.replica, p);
  EXPECT_TRUE(r.spilled);
  EXPECT_GE(r.attempts, 2u);
  // The draining shed ejected p from the ring on first contact.
  EXPECT_FALSE(fleet.in_ring(p));
  EXPECT_NE(fleet.preferred_replica(w), p);

  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.served, 1u);
  EXPECT_EQ(s.spilled, 1u);
  EXPECT_GE(s.failovers, 1u);
  EXPECT_EQ(s.ejections, 1u);
  EXPECT_EQ(s.replicas[p].shed, 1u);
  EXPECT_EQ(s.replicas[r.replica].spill_in, 1u);
}

TEST(Fleet, AllShedIsTypedWhenEveryReplicaSheds) {
  const FleetEnv& e = env();
  ServingFleet fleet(make_replicas(2, e.bundle_a));
  fleet.host(0).drain();
  fleet.host(1).drain();

  // First contact ejects both; every outcome is typed, nothing vanishes.
  std::size_t all_shed = 0;
  for (int i = 0; i < 6; ++i) {
    const FleetResult r = fleet.diagnose(e.windows[i % e.windows.size()]);
    EXPECT_FALSE(r.ok());
    if (r.status == FleetStatus::AllShed) ++all_shed;
    EXPECT_TRUE(is_rejection(r.result.status))
        << to_string(r.result.status);
  }
  EXPECT_EQ(all_shed, 6u);
  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.requests, 6u);
  EXPECT_EQ(s.all_shed, 6u);
  EXPECT_EQ(s.served + s.failed, 0u);
}

TEST(Fleet, KilledReplicaLosesNoAdmittedRequestsFleetWide) {
  const FleetEnv& e = env();
  FleetConfig config;
  config.seed = 11;
  config.host.workers = 2;
  config.host.queue_capacity = 16;
  ServingFleet fleet(make_replicas(3, e.bundle_a), config);

  constexpr int kClients = 3;
  constexpr int kIters = 8;
  std::atomic<int> untyped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t w =
            static_cast<std::size_t>(t + 2 * i) % e.windows.size();
        const FleetResult r = fleet.diagnose(e.windows[w]);
        // Every admitted request must end typed: served somewhere, a
        // typed Failed, or a typed AllShed. Anything else is a loss.
        if (r.status != FleetStatus::Ok &&
            r.status != FleetStatus::Failed &&
            r.status != FleetStatus::AllShed) {
          untyped.fetch_add(1);
        }
      }
    });
  }
  fleet.kill(1);  // mid-traffic: drains in-flight work, then removes
  for (auto& th : threads) th.join();

  EXPECT_EQ(untyped.load(), 0);
  EXPECT_FALSE(fleet.in_ring(1));
  const FleetStats s = fleet.stats();
  EXPECT_TRUE(s.replicas[1].dead);
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients * kIters));
  // Exact conservation: every request has exactly one terminal outcome.
  EXPECT_EQ(s.served + s.failed + s.all_shed, s.requests);
  EXPECT_GT(s.served, 0u);

  // The dead replica is never probed and never readmitted.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(fleet.diagnose(e.windows[i % e.windows.size()]).ok());
  }
  EXPECT_FALSE(fleet.in_ring(1));
  EXPECT_EQ(fleet.stats().replicas[1].probes, 0u);
}

// --------------------------------------------- ejection and readmission ---

TEST(Fleet, EjectsFailingReplicaAndReadmitsItThroughProbes) {
  const FleetEnv& e = env();
  FleetChaosConfig chaos_config;
  chaos_config.base.extract_fail_rate = 1.0;
  chaos_config.targets = {0};
  chaos_config.seed = 5;
  FleetChaos chaos(chaos_config, 2);
  chaos.set_enabled(false);

  FleetConfig config;
  config.seed = 5;
  config.health_min_samples = 3;
  config.eject_error_rate = 0.4;
  config.readmit_probe_every = 4;
  config.host.unhealthy_error_rate = 1.0;  // host breaker off: the fleet
                                           // window does the ejecting
  ServingFleet fleet(make_replicas(2, e.bundle_a, &chaos), config);

  chaos.set_enabled(true);
  int i = 0;
  for (; i < 200 && fleet.in_ring(0); ++i) {
    const FleetResult r = fleet.diagnose(e.windows[i % e.windows.size()]);
    // Replica 0 fails, the request spills to replica 1 and still serves.
    EXPECT_TRUE(r.ok()) << to_string(r.result.status);
  }
  ASSERT_FALSE(fleet.in_ring(0)) << "replica 0 never ejected";
  EXPECT_GT(chaos.failures_injected(), 0u);

  // While ejected, all steady traffic lands on replica 1; the 1-in-N
  // trickle keeps probing replica 0, which keeps failing, stays out.
  for (int j = 0; j < 8; ++j) {
    EXPECT_TRUE(fleet.diagnose(e.windows[j % e.windows.size()]).ok());
  }
  EXPECT_FALSE(fleet.in_ring(0));
  EXPECT_GT(fleet.stats().replicas[0].probes, 0u);

  // The fault clears; the next successful probe readmits it.
  chaos.set_enabled(false);
  for (int j = 0; j < 200 && !fleet.in_ring(0); ++j) {
    EXPECT_TRUE(fleet.diagnose(e.windows[j % e.windows.size()]).ok());
  }
  EXPECT_TRUE(fleet.in_ring(0)) << "replica 0 never readmitted";

  const FleetStats s = fleet.stats();
  EXPECT_GE(s.ejections, 1u);
  EXPECT_GE(s.readmissions, 1u);
  EXPECT_GT(s.readmit_probes, 0u);
  EXPECT_EQ(s.served + s.failed + s.all_shed, s.requests);
  // Once readmitted, its ring arcs serve again.
  EXPECT_TRUE(fleet.diagnose(e.windows[0]).ok());
}

// ----------------------------------------------------------------- drain ---

TEST(Fleet, DrainIsTerminalTypedAndIdempotent) {
  const FleetEnv& e = env();
  ServingFleet fleet(make_replicas(2, e.bundle_a));
  EXPECT_TRUE(fleet.diagnose(e.windows[0]).ok());

  fleet.drain();
  const FleetResult r = fleet.diagnose(e.windows[0]);
  EXPECT_EQ(r.status, FleetStatus::AllShed);
  EXPECT_EQ(r.result.status, RequestStatus::RejectedDraining);
  EXPECT_EQ(r.attempts, 0u);
  fleet.drain();  // idempotent
  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.replicas[0].health, HostHealth::Draining);
  EXPECT_EQ(s.replicas[1].health, HostHealth::Draining);
}

// ----------------------------------------------------- aggregation math ---

TEST(Fleet, MergedPercentilesAreExactWithZeroAndOneSampleReplicas) {
  const FleetEnv& e = env();
  FleetConfig config;
  config.seed = 1;
  ServingFleet fleet(make_replicas(3, e.bundle_a), config);

  // A fleet with no samples reports zero percentiles, not NaN.
  EXPECT_EQ(fleet.stats().p50_ms, 0.0);
  EXPECT_EQ(fleet.stats().p99_ms, 0.0);

  // Exactly one pipeline pass: one replica holds one sample, the others
  // hold zero. The exact merge is that sample — an average of
  // per-replica percentiles would drag it toward 0.
  const FleetResult r = fleet.diagnose(e.windows[0]);
  ASSERT_TRUE(r.ok());
  const FleetStats s = fleet.stats();
  EXPECT_GT(s.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, s.p99_ms);  // one sample: all quantiles equal
  EXPECT_DOUBLE_EQ(s.p50_ms, s.replicas[r.replica].p50_ms);
  for (std::size_t i = 0; i < 3; ++i) {
    if (i == r.replica) continue;
    EXPECT_EQ(s.replicas[i].p50_ms, 0.0);
    EXPECT_EQ(s.replicas[i].p99_ms, 0.0);
  }
}

TEST(Fleet, AllShedWindowsContributeNoLatencySamples) {
  const FleetEnv& e = env();
  ServingFleet fleet(make_replicas(2, e.bundle_a));
  fleet.drain();
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(fleet.diagnose(e.windows[i % e.windows.size()]).ok());
  }
  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.all_shed, 4u);
  // Shed requests never ran the pipeline: the latency merge stays empty.
  EXPECT_EQ(s.p50_ms, 0.0);
  EXPECT_EQ(s.p99_ms, 0.0);
}

// Concurrent clients + a stats poller (TSan target): every snapshot is
// internally consistent, and the final one balances exactly.
TEST(Fleet, StatsSnapshotsStayConsistentUnderLoad) {
  const FleetEnv& e = env();
  FleetConfig config;
  config.seed = 13;
  config.host.workers = 2;
  config.host.queue_capacity = 16;
  ServingFleet fleet(make_replicas(2, e.bundle_a), config);

  constexpr int kClients = 3;
  constexpr int kIters = 6;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread poller([&] {
    while (!done.load()) {
      const FleetStats s = fleet.stats();
      // In-flight requests may not have an outcome yet, but outcomes can
      // never exceed admissions, and spills are a subset of serves.
      if (s.served + s.failed + s.all_shed > s.requests) {
        violations.fetch_add(1);
      }
      if (s.spilled > s.served) violations.fetch_add(1);
      std::uint64_t replica_served = 0;
      for (const ReplicaStats& r : s.replicas) replica_served += r.served;
      if (replica_served != s.served) violations.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t w =
            static_cast<std::size_t>(3 * t + i) % e.windows.size();
        (void)fleet.diagnose(e.windows[w]);
      }
    });
  }
  for (auto& th : threads) th.join();
  done = true;
  poller.join();

  EXPECT_EQ(violations.load(), 0);
  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients * kIters));
  EXPECT_EQ(s.served + s.failed + s.all_shed, s.requests);
  EXPECT_EQ(s.failed + s.all_shed, 0u);  // healthy fleet
  EXPECT_GT(s.p99_ms, 0.0);
  EXPECT_GE(s.p99_ms, s.p50_ms);
}

// --------------------------------------------------------------- rollout ---

// Each rollout test writes its bundles into its own ScopedTempDir: ctest
// runs every case as a separate process, and a shared path would race.

TEST(FleetRollout, HealthyCanaryPromotesFleetWide) {
  const FleetEnv& e = env();
  const ScopedTempDir dir;
  const std::string good = dir.file("rollout_good.bin");
  save_model_bundle_file(good, bundle_from_bytes(e.bundle_b));
  ServingFleet fleet(make_replicas(3, e.bundle_a));
  fleet.set_probe_windows({e.windows[0]});

  RolloutConfig rollout;
  // Canary the replica that owns window arcs, so routed traffic actually
  // reaches it and fills the guard window.
  rollout.canary = fleet.preferred_replica(e.windows[0]);
  rollout.guard_min_samples = 6;
  // The p99 guard compares real wall-clock latency; sanitizer jitter can
  // push a healthy canary past any fixed ratio. Disable it here — the
  // SlowCanaryRollsBackOnTheP99Guard test pins it with an injected
  // slowdown far above any noise floor.
  rollout.max_p99_ratio = 0.0;
  const std::size_t other = (rollout.canary + 1) % 3;
  const ReloadReport push = fleet.start_rollout(good, rollout);
  EXPECT_TRUE(push.ok) << push.error;
  EXPECT_EQ(fleet.rollout_state(), RolloutState::Canarying);
  EXPECT_EQ(fleet.host(rollout.canary).generation(), 2u);
  EXPECT_EQ(fleet.host(other).generation(), 1u);  // canary only, so far

  RolloutDecision decision = RolloutDecision::NeedMoreTraffic;
  for (int i = 0; i < 500 && decision == RolloutDecision::NeedMoreTraffic;
       ++i) {
    // Round-robin the canary into traffic via its own host is cheating —
    // real guard samples come from routed fleet traffic.
    (void)fleet.diagnose(e.windows[i % e.windows.size()]);
    decision = fleet.advance_rollout();
  }
  ASSERT_EQ(decision, RolloutDecision::Promoted);
  EXPECT_EQ(fleet.rollout_state(), RolloutState::Promoted);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(fleet.host(r).generation(), 2u) << "replica " << r;
  }
  const RolloutReport report = fleet.rollout_report();
  EXPECT_EQ(report.promotions.size(), 2u);
  for (const ReloadReport& p : report.promotions) {
    EXPECT_TRUE(p.ok) << p.error;
  }
  EXPECT_GE(report.canary_samples, 6u);
  EXPECT_FALSE(report.summary().empty());
  // Terminal states answer repeat calls without re-promoting.
  EXPECT_EQ(fleet.advance_rollout(), RolloutDecision::Promoted);
}

TEST(FleetRollout, PoisonedCanaryPushNeverReachesASecondReplica) {
  const FleetEnv& e = env();
  const ScopedTempDir dir;
  const std::string good = dir.file("rollout_good.bin");
  const std::string bad = dir.file("rollout_bad.bin");
  save_model_bundle_file(good, bundle_from_bytes(e.bundle_b));
  write_poisoned_bundle(good, bad, BundlePoison::Truncate, 77);
  ServingFleet fleet(make_replicas(3, e.bundle_a));
  fleet.set_probe_windows({e.windows[0]});

  RolloutConfig rollout;
  rollout.canary = 0;
  const ReloadReport push = fleet.start_rollout(bad, rollout);
  EXPECT_FALSE(push.ok);
  EXPECT_TRUE(push.rolled_back);
  EXPECT_EQ(fleet.rollout_state(), RolloutState::CanaryRejected);
  EXPECT_EQ(fleet.advance_rollout(), RolloutDecision::RolledBack);
  // The poison died inside the canary's validated reload: every replica —
  // canary included — still serves generation 1 of the old bundle.
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(fleet.host(r).generation(), 1u) << "replica " << r;
    const FleetResult res = fleet.diagnose(e.windows[r % e.windows.size()]);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.result.generation, 1u);
  }
  // The failed rollout is terminal, not wedged: a good push works now.
  const ReloadReport retry = fleet.start_rollout(good, rollout);
  EXPECT_TRUE(retry.ok) << retry.error;
}

TEST(FleetRollout, SlowCanaryRollsBackOnTheP99Guard) {
  const FleetEnv& e = env();
  const ScopedTempDir dir;
  const std::string good = dir.file("rollout_good.bin");
  save_model_bundle_file(good, bundle_from_bytes(e.bundle_b));

  // Canary-only slowdowns, switched on after the push: the bundle loads
  // and validates fine but regresses live latency.
  FleetChaosConfig chaos_config;
  chaos_config.base.slow_extract_rate = 1.0;
  chaos_config.base.slow_extract_ms = 25.0;
  chaos_config.targets = {0};
  chaos_config.seed = 9;
  FleetChaos chaos(chaos_config, 3);
  chaos.set_enabled(false);

  FleetConfig config;
  config.seed = 2;
  ServingFleet fleet(make_replicas(3, e.bundle_a, &chaos), config);

  RolloutConfig rollout;
  rollout.canary = 0;
  rollout.guard_min_samples = 4;
  rollout.max_error_rate_delta = 1.0;  // isolate the p99 trigger
  rollout.max_p99_ratio = 2.0;
  const ReloadReport push = fleet.start_rollout(good, rollout);
  ASSERT_TRUE(push.ok) << push.error;
  EXPECT_EQ(fleet.host(0).generation(), 2u);

  chaos.set_enabled(true);  // the reloaded canary inherited the hook
  RolloutDecision decision = RolloutDecision::NeedMoreTraffic;
  for (int i = 0; i < 500 && decision == RolloutDecision::NeedMoreTraffic;
       ++i) {
    (void)fleet.diagnose(e.windows[i % e.windows.size()]);
    decision = fleet.advance_rollout();
  }
  chaos.set_enabled(false);
  ASSERT_EQ(decision, RolloutDecision::RolledBack);
  EXPECT_EQ(fleet.rollout_state(), RolloutState::RolledBack);

  const RolloutReport report = fleet.rollout_report();
  EXPECT_NE(report.reason.find("p99"), std::string::npos) << report.reason;
  EXPECT_TRUE(report.rollback.ok) << report.rollback.error;
  EXPECT_GT(report.canary_p99_ms, report.baseline_p99_ms);
  // Only the canary ever saw the bundle; its rollback reload restored the
  // pre-push model (generation 3 = initial + push + restore).
  EXPECT_EQ(fleet.host(0).generation(), 3u);
  EXPECT_EQ(fleet.host(1).generation(), 1u);
  EXPECT_EQ(fleet.host(2).generation(), 1u);

  // The restored canary answers bit-identically to an untouched bundle-A
  // service again.
  auto reference = make_service(e.bundle_a);
  const Matrix& w = e.windows[1];
  const FleetResult after = fleet.diagnose(w);
  ASSERT_TRUE(after.ok());
  const Diagnosis expected = reference->diagnose(w);
  EXPECT_EQ(after.result.diagnosis.label, expected.label);
  EXPECT_EQ(after.result.diagnosis.probs, expected.probs);
}

TEST(FleetRollout, StartWhileCanaryingThrows) {
  const FleetEnv& e = env();
  const ScopedTempDir dir;
  const std::string good = dir.file("rollout_good.bin");
  save_model_bundle_file(good, bundle_from_bytes(e.bundle_b));
  ServingFleet fleet(make_replicas(2, e.bundle_a));
  RolloutConfig rollout;
  rollout.canary = 1;
  ASSERT_TRUE(fleet.start_rollout(good, rollout).ok);
  EXPECT_THROW(fleet.start_rollout(good, rollout), Error);
}

// ----------------------------------------------------------- fleet chaos ---

TEST(FleetChaos, ValidatesTargetsAndScopesInjectorsToThem) {
  FleetChaosConfig bad;
  bad.targets = {5};
  EXPECT_THROW(FleetChaos(bad, 3), Error);

  FleetChaosConfig config;
  config.base.extract_fail_rate = 0.5;
  config.targets = {1};
  config.seed = 17;
  FleetChaos chaos(config, 3);
  EXPECT_FALSE(chaos.targets_replica(0));
  EXPECT_TRUE(chaos.targets_replica(1));
  EXPECT_FALSE(chaos.targets_replica(2));
  EXPECT_FALSE(static_cast<bool>(chaos.hook_for(0)));  // untargeted: no-op
  EXPECT_TRUE(static_cast<bool>(chaos.hook_for(1)));
  EXPECT_EQ(chaos.injector(0), nullptr);
  ASSERT_NE(chaos.injector(1), nullptr);
}

TEST(FleetChaos, PerReplicaSchedulesAreStableAcrossTargetSets) {
  // Replica 1's fault schedule must depend only on (seed, replica id) —
  // not on which other replicas happen to be targeted.
  const auto failure_pattern = [](const std::vector<std::size_t>& targets) {
    FleetChaosConfig config;
    config.base.extract_fail_rate = 0.5;
    config.targets = targets;
    config.seed = 23;
    FleetChaos chaos(config, 3);
    auto hook = chaos.hook_for(1);
    const Matrix w(4, 2);
    std::vector<bool> pattern;
    for (int i = 0; i < 50; ++i) {
      try {
        hook(w);
        pattern.push_back(false);
      } catch (const Error&) {
        pattern.push_back(true);
      }
    }
    return pattern;
  };
  EXPECT_EQ(failure_pattern({1}), failure_pattern({0, 1, 2}));
  EXPECT_EQ(failure_pattern({1}), failure_pattern({}));  // empty = all
}

TEST(FleetChaos, DisabledHooksConsumeNoEventsAndResumeOnEnable) {
  FleetChaosConfig config;
  config.base.extract_fail_rate = 1.0;
  config.seed = 31;
  FleetChaos chaos(config, 2);
  auto hook = chaos.hook_for(0);
  const Matrix w(4, 2);

  chaos.set_enabled(false);
  for (int i = 0; i < 10; ++i) hook(w);  // must not throw
  EXPECT_EQ(chaos.extractions_seen(), 0u);
  EXPECT_EQ(chaos.failures_injected(), 0u);

  chaos.set_enabled(true);
  EXPECT_THROW(hook(w), Error);
  EXPECT_EQ(chaos.extractions_seen(), 1u);
  EXPECT_EQ(chaos.failures_injected(), 1u);
}

}  // namespace
}  // namespace alba
