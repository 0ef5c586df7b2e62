// Fleet benchmark: a seeded traffic generator driving a replicated
// ServingFleet, sweeping replica count x chaos and reporting aggregate
// stats (served/spilled/failovers, windows/s, client-observed p50/p99).
// Each replica count also gets single-host rows: one ServiceHost with the
// fleet's total workers, driven by the same stream and clients — what the
// fleet must beat to earn its code. The chaos rows are like for like: the
// fleet injects faults on one replica, so on 1/R of its pipeline passes;
// the single host injects the same rates on 1/R of its passes.
//
// --smoke runs the CI gate instead of the sweep: on a healthy fleet under
// one client thread, the rotation spreads requests evenly (every
// replica's preferred count is within 1 of requests/R), and requests are
// conserved (every request ends Ok, as a typed shed, or as a failure).
// Results land in BENCH_fleet.json for the workflow artifact.
//
// --chaos-smoke runs the fleet resilience gate: killing a replica under
// load loses no admitted request fleet-wide; slow-extraction on a subset
// degrades latency but not outcomes; a poisoned canary push dies on the
// canary and never reaches a second replica; a live-regressing canary is
// auto-rolled-back by the guard window; a healthy canary promotes
// fleet-wide; and a fleet drain sheds typed.
//
//   ./build/bench/bench_fleet                 # the sweep
//   ./build/bench/bench_fleet --smoke         # CI gate, exit 1 on failure
//   ./build/bench/bench_fleet --chaos-smoke   # CI fleet resilience gate
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alba.hpp"

using namespace alba;

namespace {

// The exported bundles, in a private directory removed at exit: two runs
// at once never share them.
const ScopedTempDir& bundle_dir() {
  static const ScopedTempDir dir("albadross_bench_fleet");
  return dir;
}
const std::string& bundle_a() {
  static const std::string path = bundle_dir().file("a.bin");
  return path;
}
const std::string& bundle_b() {
  static const std::string path = bundle_dir().file("b.bin");
  return path;
}

// A stream of distinct per-node windows from fresh runs.
std::vector<Matrix> make_stream(const RunGenerator& generator,
                                std::size_t count, std::uint64_t seed) {
  std::vector<Matrix> windows;
  const auto num_apps = static_cast<int>(generator.apps().size());
  int run_id = 2000;
  while (windows.size() < count) {
    RunSpec spec;
    spec.app_id = run_id % num_apps;
    spec.input_id = run_id % 2;
    spec.nodes = 2;
    const std::size_t variant = static_cast<std::size_t>(run_id) % 4;
    if (variant != 0) {
      spec.anomaly = kAnomalyTypes[variant - 1];
      spec.intensity = variant == 1 ? 0.5 : 1.0;
    }
    spec.run_id = run_id;
    spec.seed = seed + static_cast<std::uint64_t>(run_id);
    ++run_id;
    for (const Sample& s : generator.generate_run(spec)) {
      if (windows.size() >= count) break;
      windows.push_back(s.series);
    }
  }
  return windows;
}

constexpr std::size_t kHostWorkers = 2;  // per replica

std::unique_ptr<ServingFleet> make_fleet(std::size_t replicas,
                                         FleetChaos* chaos = nullptr) {
  std::vector<std::shared_ptr<DiagnosisService>> services;
  for (std::size_t r = 0; r < replicas; ++r) {
    ServingConfig serving;
    if (chaos != nullptr) serving.extraction_hook = chaos->hook_for(r);
    services.push_back(std::make_shared<DiagnosisService>(
        load_model_bundle_file(bundle_a()), serving));
  }
  FleetConfig config;
  config.host.workers = kHostWorkers;
  config.host.queue_capacity = 32;
  return std::make_unique<ServingFleet>(std::move(services), config);
}

// The single-host baseline for a `replicas`-wide fleet: the same total
// workers in one host over one service. With `chaos`, every replicas-th
// pipeline pass runs through it — the share of passes the fleet's one
// faulty replica sees.
std::unique_ptr<ServiceHost> make_single_host(std::size_t replicas,
                                              ServingChaos* chaos = nullptr) {
  ServingConfig serving;
  if (chaos != nullptr) {
    auto passes = std::make_shared<std::atomic<std::uint64_t>>(0);
    serving.extraction_hook = [hook = chaos->hook(), passes,
                               replicas](const Matrix& window) {
      if (passes->fetch_add(1) % replicas == 0) hook(window);
    };
  }
  HostConfig config;
  config.workers = replicas * kHostWorkers;
  config.queue_capacity = 32;
  return std::make_unique<ServiceHost>(
      std::make_shared<DiagnosisService>(load_model_bundle_file(bundle_a()),
                                         serving),
      config);
}

struct TrafficTally {
  std::size_t calls = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;     // typed rejections
  std::size_t untyped = 0;  // exceptions or unknown statuses: always a bug
  double seconds = 0.0;     // wall time of the whole drive
  std::vector<double> latency_ms;  // client-observed, one per call
};

// `clients` threads interleave over the stream for `rounds` passes; every
// outcome is tallied so the gates can prove conservation.
TrafficTally drive(Diagnoser& tier, const std::vector<Matrix>& windows,
                   std::size_t clients, int rounds) {
  std::atomic<std::size_t> ok{0}, failed{0}, shed{0}, untyped{0};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < rounds; ++round) {
        for (std::size_t i = c; i < windows.size(); i += clients) {
          const auto sent = std::chrono::steady_clock::now();
          try {
            const DiagnosisResult r = tier.diagnose({&windows[i]});
            if (r.ok()) {
              ++ok;
            } else if (r.status == RequestStatus::Failed) {
              ++failed;
            } else if (is_rejection(r.status)) {
              ++shed;
            } else {
              ++untyped;
            }
          } catch (...) {
            ++untyped;
          }
          latencies[c].push_back(std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - sent)
                                     .count());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  TrafficTally tally;
  tally.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  tally.ok = ok;
  tally.failed = failed;
  tally.shed = shed;
  tally.untyped = untyped;
  tally.calls = tally.ok + tally.failed + tally.shed + tally.untyped;
  for (const auto& l : latencies) {
    tally.latency_ms.insert(tally.latency_ms.end(), l.begin(), l.end());
  }
  return tally;
}

// ------------------------------------------------------------- CI gates ---

int run_smoke(const std::vector<Matrix>& windows) {
  std::size_t violations = 0;
  const auto check = [&violations](bool ok, const char* what) {
    if (!ok) {
      ++violations;
      std::printf("[smoke] VIOLATION: %s\n", what);
    }
  };
  constexpr std::size_t kReplicas = 3;

  // Single client, two passes: 190 requests do not divide evenly over 3
  // replicas, so the gate's slack of 1 is exercised.
  auto fleet = make_fleet(kReplicas);
  const TrafficTally tally = drive(*fleet, windows, 1, 2);
  const FleetStats s = fleet->stats();
  check(tally.untyped == 0, "an untyped outcome escaped");
  check(tally.ok == tally.calls, "healthy fleet did not serve everything");
  check(s.requests == tally.calls &&
            s.served + s.failed + s.all_shed == s.requests,
        "request accounting does not add up");
  check(s.spilled == 0, "healthy fleet spilled");
  const double fair = static_cast<double>(s.requests) / kReplicas;
  std::string preferred;
  for (const ReplicaStats& r : s.replicas) {
    check(std::abs(static_cast<double>(r.preferred) - fair) <= 1.0,
          "rotation preferred a replica off requests/R by more than 1");
    preferred += (preferred.empty() ? "" : ", ") + std::to_string(r.preferred);
  }
  std::printf("[smoke] %s\n[smoke] preferred per replica: %s (fair %.2f)\n",
              format_fleet_summary(s).c_str(), preferred.c_str(), fair);

  std::ofstream os("BENCH_fleet.json");
  os << "[\n"
     << "  {\"routing\": \"rotation\", \"replicas\": " << kReplicas
     << ", \"requests\": " << s.requests << ", \"served\": " << s.served
     << ", \"preferred\": [" << preferred << "], \"p99_ms\": " << s.p99_ms
     << "}\n"
     << "]\n";
  std::printf("[smoke] results written to BENCH_fleet.json\n");

  if (violations != 0) {
    std::printf("[smoke] FAILED: %zu violated invariants\n", violations);
    return 1;
  }
  std::printf("[smoke] ok: even rotation, exact conservation\n");
  return 0;
}

int run_chaos_smoke(const std::vector<Matrix>& windows, std::uint64_t seed) {
  std::size_t violations = 0;
  const auto check = [&violations](bool ok, const char* what) {
    if (!ok) {
      ++violations;
      std::printf("[chaos-smoke] VIOLATION: %s\n", what);
    }
  };

  // ---- phase 1: lose a replica under load -------------------------------
  // Every admitted request must fail over or shed with a type — none may
  // vanish, fleet-wide. The victim is replica 0, which a fresh fleet's
  // first request prefers, so traffic is guaranteed to hit it: its host
  // starts shedding before the fleet knows (drain), the fleet discovers it
  // the hard way (typed shed -> spill -> ejection), and mid-traffic it is
  // killed outright.
  {
    auto fleet = make_fleet(3);
    const std::size_t victim = 0;
    fleet->host(victim).drain();
    std::atomic<std::size_t> ok{0}, failed{0}, all_shed{0}, untyped{0};
    constexpr std::size_t kClients = 4;
    constexpr int kRounds = 2;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int round = 0; round < kRounds; ++round) {
          for (std::size_t i = c; i < windows.size(); i += kClients) {
            try {
              const DiagnosisResult r = fleet->diagnose({&windows[i]});
              if (r.ok()) ++ok;
              else if (r.status == RequestStatus::Failed) ++failed;
              else if (is_rejection(r.status)) ++all_shed;
              else ++untyped;
            } catch (...) {
              ++untyped;
            }
          }
        }
      });
    }
    // Genuinely mid-traffic: let the shed->spill->eject discovery happen
    // on live requests first, then finish the victim off for good.
    const auto total =
        static_cast<std::uint64_t>(kClients * kRounds * windows.size() / 4);
    while (fleet->stats().requests < total) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fleet->kill(victim);
    for (auto& t : clients) t.join();
    const FleetStats s = fleet->stats();
    std::printf("[chaos-smoke] kill replica %zu: %s\n", victim,
                format_fleet_summary(s).c_str());
    check(untyped == 0, "kill phase: an outcome escaped the typed surface");
    check(ok + failed + all_shed == s.requests,
          "kill phase: an admitted request vanished");
    check(s.served + s.failed + s.all_shed == s.requests,
          "kill phase: fleet accounting does not add up");
    check(ok == s.requests, "kill phase: a request was not failed over");
    check(s.spilled >= 1 && s.failovers >= 1,
          "losing the victim never exercised failover");
    check(!fleet->in_ring(victim), "killed replica still in the ring");
    check(s.replicas[victim].dead, "killed replica not marked dead");
    // Traffic after the kill routes around the corpse without probing it
    // (probes while it was merely ejected-but-alive were legitimate).
    const std::uint64_t probes_at_kill = s.replicas[victim].probes;
    for (std::size_t i = 0; i < 16; ++i) {
      const DiagnosisResult r = fleet->diagnose({&windows[i % windows.size()]});
      check(r.ok() && r.replica != victim, "post-kill request hit the corpse");
    }
    check(fleet->stats().replicas[victim].probes == probes_at_kill,
          "dead replica was probed for readmission");
  }

  // ---- phase 2: slow extraction on a subset of replicas -----------------
  {
    FleetChaosConfig chaos_config;
    chaos_config.base.slow_extract_rate = 0.5;
    chaos_config.base.slow_extract_ms = 3.0;
    chaos_config.targets = {0};
    chaos_config.seed = seed + 1;
    FleetChaos chaos(chaos_config, 3);
    auto fleet = make_fleet(3, &chaos);
    const TrafficTally tally = drive(*fleet, windows, 2, 1);
    const FleetStats s = fleet->stats();
    std::printf("[chaos-smoke] slow-subset: %s (%llu slowdowns on "
                "replica 0)\n",
                format_fleet_summary(s).c_str(),
                static_cast<unsigned long long>(chaos.slowdowns_injected()));
    check(tally.untyped == 0, "slow phase: untyped outcome");
    check(tally.ok == tally.calls,
          "slow extractions must degrade latency, not outcomes");
    check(chaos.slowdowns_injected() > 0, "chaos injected no slowdowns");
    check(chaos.failures_injected() == 0, "slow-only chaos injected failures");
  }

  // ---- phase 3: poisoned canary push ------------------------------------
  // The poison must die on the canary's probe-validated reload; no other
  // replica may ever serve (or even load) the bad bundle.
  const std::string bad_path = bundle_b() + ".poisoned";
  {
    auto fleet = make_fleet(3);
    fleet->set_probe_windows({windows[0], windows[1]});
    write_poisoned_bundle(bundle_b(), bad_path, BundlePoison::Truncate,
                          seed + 2);
    RolloutConfig rollout;
    rollout.canary = 1;
    const ReloadReport push = fleet->start_rollout(bad_path, rollout);
    std::printf("[chaos-smoke] poisoned push: %s\n",
                push.summary().c_str());
    check(!push.ok && push.rolled_back, "poisoned canary push was accepted");
    check(fleet->rollout_state() == RolloutState::CanaryRejected,
          "poisoned push did not end CanaryRejected");
    check(fleet->advance_rollout() == RolloutDecision::RolledBack,
          "rejected rollout did not answer RolledBack");
    for (std::size_t r = 0; r < 3; ++r) {
      check(fleet->host(r).generation() == 1,
            "a replica changed generation under a poisoned push");
    }
    const DiagnosisResult after = fleet->diagnose({&windows[2]});
    check(after.ok() && after.generation == 1,
          "fleet stopped serving generation 1 after the rejected push");
  }

  // ---- phase 4: live-regressing canary is guard-rolled-back -------------
  // The bundle loads and validates, but the canary regresses live p99;
  // the guard window must roll it back without any other replica ever
  // loading it.
  {
    FleetChaosConfig chaos_config;
    chaos_config.base.slow_extract_rate = 1.0;
    chaos_config.base.slow_extract_ms = 25.0;
    chaos_config.targets = {0};
    chaos_config.seed = seed + 3;
    FleetChaos chaos(chaos_config, 3);
    chaos.set_enabled(false);
    auto fleet = make_fleet(3, &chaos);
    fleet->set_probe_windows({windows[0]});
    RolloutConfig rollout;
    rollout.canary = 0;
    rollout.guard_min_samples = 4;
    rollout.max_error_rate_delta = 1.0;  // isolate the p99 trigger
    rollout.max_p99_ratio = 2.0;
    const ReloadReport push = fleet->start_rollout(bundle_b(), rollout);
    check(push.ok, "healthy bundle failed the canary push");
    chaos.set_enabled(true);  // regression switches on after the push
    RolloutDecision decision = RolloutDecision::NeedMoreTraffic;
    for (int i = 0;
         i < 2000 && decision == RolloutDecision::NeedMoreTraffic; ++i) {
      (void)fleet->diagnose({&windows[i % windows.size()]});
      decision = fleet->advance_rollout();
    }
    chaos.set_enabled(false);
    const RolloutReport report = fleet->rollout_report();
    std::printf("[chaos-smoke] guard: %s\n", report.summary().c_str());
    check(decision == RolloutDecision::RolledBack,
          "regressing canary was not rolled back");
    check(report.rollback.ok, "canary restore reload failed");
    check(fleet->host(0).generation() == 3,  // initial + push + restore
          "canary generation inconsistent after rollback");
    check(fleet->host(1).generation() == 1 &&
              fleet->host(2).generation() == 1,
          "a non-canary replica loaded a bundle that never promoted");
  }

  // ---- phase 5: healthy canary promotes fleet-wide ----------------------
  {
    auto fleet = make_fleet(3);
    fleet->set_probe_windows({windows[0]});
    RolloutConfig rollout;
    rollout.canary = 2;
    rollout.guard_min_samples = 4;
    const ReloadReport push = fleet->start_rollout(bundle_b(), rollout);
    check(push.ok, "promote phase: canary push failed");
    RolloutDecision decision = RolloutDecision::NeedMoreTraffic;
    for (int i = 0;
         i < 2000 && decision == RolloutDecision::NeedMoreTraffic; ++i) {
      (void)fleet->diagnose({&windows[i % windows.size()]});
      decision = fleet->advance_rollout();
    }
    std::printf("[chaos-smoke] promote: %s\n",
                fleet->rollout_report().summary().c_str());
    check(decision == RolloutDecision::Promoted,
          "healthy canary never promoted");
    for (std::size_t r = 0; r < 3; ++r) {
      check(fleet->host(r).generation() == 2,
            "promotion left a replica on the old bundle");
    }

    // ---- phase 6: fleet drain is terminal and typed ---------------------
    fleet->drain();
    const DiagnosisResult shed = fleet->diagnose({&windows[0]});
    check(shed.status == RequestStatus::RejectedDraining,
          "post-drain submission was not shed as draining");
    fleet->drain();  // idempotent
  }
  std::remove(bad_path.c_str());

  if (violations != 0) {
    std::printf("[chaos-smoke] FAILED: %zu violated invariants\n",
                violations);
    return 1;
  }
  std::printf("[chaos-smoke] ok: no request lost to a kill, poisoned "
              "canary contained, guard auto-rollback and promotion both "
              "exercised, drain typed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int windows = 160;
  std::uint64_t seed = 7;
  bool smoke = false;
  bool chaos_smoke = false;
  std::string out_csv;
  Cli cli("bench_fleet",
          "Replicated-fleet benchmark: replica count x chaos sweep over a "
          "ServingFleet against one ServiceHost (--smoke for the CI "
          "rotation/conservation gate, --chaos-smoke for the fleet "
          "resilience gate).");
  cli.flag("windows", &windows, "distinct windows in the traffic stream");
  cli.flag("seed", &seed, "model, stream and chaos seed");
  cli.flag("smoke", &smoke,
           "assert even rotation and request conservation; writes "
           "BENCH_fleet.json");
  cli.flag("chaos-smoke", &chaos_smoke,
           "kill/degrade replicas and push poisoned/regressing canaries, "
           "assert containment and conservation");
  cli.flag("out", &out_csv, "per-replica CSV dump path (empty = none)");
  cli.parse(argc, argv);
  set_log_level(LogLevel::Warn);

  // ---- train a small model, freeze two bundles --------------------------
  DatasetConfig cfg = tiny_config();
  cfg.seed = seed;
  std::printf("[setup] building dataset + training classifiers...\n");
  const ExperimentData data = build_experiment_data(cfg);
  const SplitIndices split = make_split(data, cfg.test_fraction, seed);
  const PreparedSplit prepared = prepare_split(data, split, cfg.select_k);
  auto model_a = make_model_factory("rf", kNumClasses, seed)(
      table4_optimum("rf", false));
  model_a->fit(prepared.train_x, prepared.train_y);
  export_model_bundle(bundle_a(), data, prepared, *model_a);
  auto model_b = make_model_factory("lr", kNumClasses, seed)(
      table4_optimum("lr", false));
  model_b->fit(prepared.train_x, prepared.train_y);
  export_model_bundle(bundle_b(), data, prepared, *model_b);
  std::printf("[setup] bundles exported to %s / %s\n", bundle_a().c_str(),
              bundle_b().c_str());

  const RunGenerator generator(cfg.system, cfg.registry, cfg.sim);
  // 95 on purpose: two passes of it do not divide evenly over the smoke's
  // 3 replicas.
  const std::size_t n =
      (smoke || chaos_smoke) ? 95 : static_cast<std::size_t>(windows);
  const std::vector<Matrix> stream = make_stream(generator, n, seed + 1);

  if (smoke) return run_smoke(stream);
  if (chaos_smoke) return run_chaos_smoke(stream, seed);

  // ---- the sweep ---------------------------------------------------------
  const std::size_t clients = std::min<std::size_t>(
      4, std::max<std::size_t>(2, std::thread::hardware_concurrency()));
  TextTable table({"replicas", "tier", "chaos", "served", "spilled",
                   "failovers", "win/s", "p50 ms", "p99 ms"});
  const auto add_row = [&table](std::size_t replicas, std::string tier,
                                std::string chaos, const TrafficTally& t,
                                std::string spilled, std::string failovers) {
    table.add_row({std::to_string(replicas), std::move(tier),
                   std::move(chaos), std::to_string(t.ok), std::move(spilled),
                   std::move(failovers),
                   strformat("%.0f", static_cast<double>(t.ok) / t.seconds),
                   strformat("%.3f", latency_percentile(t.latency_ms, 0.50)),
                   strformat("%.3f", latency_percentile(t.latency_ms, 0.99))});
  };
  // The chaos rows' fault rates, on 1/R of each tier's pipeline passes:
  // the fleet injects them on replica 0, the single host on every R-th
  // pass.
  ChaosConfig chaos_rates;
  chaos_rates.slow_extract_rate = 0.3;
  chaos_rates.slow_extract_ms = 2.0;
  chaos_rates.extract_fail_rate = 0.05;
  std::unique_ptr<ServingFleet> last_fleet;
  for (const std::size_t replicas : {2u, 4u}) {
    for (const bool chaotic : {false, true}) {
      std::unique_ptr<FleetChaos> chaos;
      if (chaotic) {
        FleetChaosConfig chaos_config;
        chaos_config.base = chaos_rates;
        chaos_config.targets = {0};
        chaos_config.seed = seed + replicas;
        chaos = std::make_unique<FleetChaos>(chaos_config, replicas);
      }
      auto fleet = make_fleet(replicas, chaos.get());
      const TrafficTally tally = drive(*fleet, stream, clients, 2);
      const FleetStats s = fleet->stats();
      add_row(replicas, "fleet", chaotic ? "slow+fail@0" : "off", tally,
              std::to_string(s.spilled), std::to_string(s.failovers));
      last_fleet = std::move(fleet);
    }
    for (const bool chaotic : {false, true}) {
      std::unique_ptr<ServingChaos> chaos;
      if (chaotic) {
        ChaosConfig chaos_config = chaos_rates;
        chaos_config.seed = seed + replicas;
        chaos = std::make_unique<ServingChaos>(chaos_config);
      }
      auto host = make_single_host(replicas, chaos.get());
      const TrafficTally tally = drive(*host, stream, clients, 2);
      add_row(replicas, "single host", chaotic ? "slow+fail@1/R" : "off",
              tally, "-", "-");
    }
  }
  std::printf("\nfleet sweep over %zu windows x 2 rounds, %zu clients\n%s\n",
              stream.size(), clients, table.render().c_str());

  if (!out_csv.empty() && last_fleet) {
    // Per-replica breakdown + fleet-aggregate row for the last config.
    const FleetStats s = last_fleet->stats();
    std::vector<std::pair<std::string, ServingStats>> rows;
    for (const ReplicaStats& r : s.replicas) {
      rows.emplace_back(strformat("replica=%zu", r.id), r.service);
    }
    std::ofstream out(out_csv);
    write_fleet_serving_csv(out, rows);
    std::printf("per-replica CSV written to %s\n", out_csv.c_str());
  }
  return 0;
}
