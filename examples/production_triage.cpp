// Production triage scenario: the deployment workflow the paper's
// conclusion sketches, now through the full serving stack. A model is
// trained once with active learning and frozen into a ModelBundle
// (classifier + scaler + selected features + label names + feature config
// in one archive); later, a ServiceHost wraps the DiagnosisService the
// way a production endpoint would — per-request deadlines, bounded
// admission, typed load shedding — and serves a stream of freshly arrived
// multi-node runs collected by a degraded telemetry pipeline (dropouts,
// stuck sensors, NaN bursts). Mid-morning, operations pushes a model
// update: first a corrupted artifact (rejected and rolled back by probe
// validation), then the real one (atomic swap, next generation). The day
// ends with a graceful drain. Exits 1 if the corrupted push is not rolled
// back, the fixed push does not reach generation 2, or the post-drain
// request is not shed as rejected:draining.
//
// Build & run:  ./build/examples/production_triage
#include <cstdio>
#include <string>
#include <vector>

#include "alba.hpp"

using namespace alba;

int main() {
  set_log_level(LogLevel::Warn);

  // ---- training phase (identical to quickstart, condensed) --------------
  DatasetConfig config = volta_config();
  config.num_apps = 6;
  std::printf("[train] building dataset and training with active learning...\n");
  const ExperimentData data = build_experiment_data(config);
  const SplitIndices split = make_split(data, 0.3, 11);
  const PreparedSplit prepared = prepare_split(data, split, config.select_k);
  const ALSetup setup = make_al_setup(prepared, 12);

  ActiveLearnerConfig al_config;
  al_config.strategy = QueryStrategy::Uncertainty;
  al_config.max_queries = 100;
  al_config.target_f1 = 0.95;
  ActiveLearner learner(make_model_factory("rf", kNumClasses, 13)(
                            table4_optimum("rf", false)),
                        al_config);
  LabelOracle oracle(setup.pool_y, kNumClasses);
  const auto result = learner.run(setup.seed, setup.pool_x, oracle,
                                  setup.pool_app, setup.test_x, setup.test_y);
  std::printf("[train] F1 %.3f after %zu annotations\n\n", result.final_f1,
              oracle.queries_answered());

  // Freeze everything the serving side needs — the classifier plus the
  // scaler/selector prepare_split fitted — into one versioned archive, in a
  // private directory removed when the example ends.
  const ScopedTempDir tmp("albadross_triage");
  const std::string bundle_path = tmp.file("bundle.bin");
  export_model_bundle(bundle_path, data, prepared, learner.model());

  // ---- deployment phase --------------------------------------------------
  // The endpoint: bounded queue and two workers. Every request carries a
  // 250 ms deadline, so a stuck pipeline pass can never hold a caller
  // forever. diagnose() always returns a typed DiagnosisResult — overload
  // and deadline misses are statuses, not exceptions.
  std::printf("[deploy] hosting %s behind admission control\n\n",
              bundle_path.c_str());
  HostConfig host_config;
  host_config.workers = 2;
  host_config.queue_capacity = 16;
  const auto within_budget = [](const Matrix& window) {
    return DiagnoseRequest{&window, Deadline::after_ms(250.0)};
  };
  // The example keeps its own handle on the first generation for label
  // names and serving stats; the fixed push below reloads the same export,
  // so its label names stay valid after the swap.
  const auto service = std::make_shared<DiagnosisService>(
      load_model_bundle_file(bundle_path));
  ServiceHost host(service, host_config);

  // The production collector is imperfect: metric dropouts, stuck sensors,
  // and NaN bursts degrade the incoming windows (truncation off so every
  // window stays long enough to trim).
  FaultConfig collector_faults;
  collector_faults.metric_dropout_rate = 0.02;
  collector_faults.stuck_rate = 0.02;
  collector_faults.nan_burst_rate = 0.05;
  collector_faults.row_stall_rate = 0.01;
  RunGenerator generator(config.system, config.registry, config.sim,
                         collector_faults);

  // A morning's worth of incoming runs: mixed healthy and anomalous.
  const std::vector<RunSpec> incoming{
      {.app_id = 0, .input_id = 1, .nodes = 4, .anomaly = AnomalyType::Healthy,
       .intensity = 0.0, .run_id = 900, .seed = 9001},
      {.app_id = 3, .input_id = 0, .nodes = 4, .anomaly = AnomalyType::MemLeak,
       .intensity = 0.5, .run_id = 901, .seed = 9002},
      {.app_id = 1, .input_id = 2, .nodes = 4, .anomaly = AnomalyType::Healthy,
       .intensity = 0.0, .run_id = 902, .seed = 9003},
      {.app_id = 5, .input_id = 1, .nodes = 4, .anomaly = AnomalyType::MemBw,
       .intensity = 1.0, .run_id = 903, .seed = 9004},
      {.app_id = 2, .input_id = 0, .nodes = 4, .anomaly = AnomalyType::Dial,
       .intensity = 0.5, .run_id = 904, .seed = 9005},
  };
  std::vector<Matrix> probe_windows;  // held back for reload validation
  for (const auto& spec : incoming) {
    const auto samples = generator.generate_run(spec);
    const std::string app = generator.apps()[spec.app_id].name;
    std::printf("run %3d  %-10s input %d, %d nodes:\n", spec.run_id,
                app.c_str(), spec.input_id, spec.nodes);
    for (std::size_t node = 0; node < samples.size(); ++node) {
      const DiagnosisResult r =
          host.diagnose(within_budget(samples[node].series));
      if (!r.ok()) {  // shed or failed — typed, never an exception
        std::printf("    node %zu: [%s] %s\n", node,
                    std::string(to_string(r.status)).c_str(),
                    r.error.c_str());
        continue;
      }
      const Diagnosis& d = r.diagnosis;
      const char* marker = d.label != 0 ? "  <-- ALERT" : "";
      std::printf("    node %zu: %-10s confidence %.2f%s\n", node,
                  std::string(service->label_name(d.label)).c_str(),
                  d.confidence, marker);
      if (probe_windows.size() < 4) {
        probe_windows.push_back(samples[node].series);
      }
    }
  }

  // A dashboard re-checking the last alerting run re-runs the pipeline on
  // the same windows (and gets the same verdicts); routed through the
  // retrying wrapper a flaky client would use (any transient Failed /
  // queue-full outcome gets seeded exponential backoff).
  BackoffConfig backoff;
  backoff.max_attempts = 3;
  backoff.initial_delay_ms = 2.0;
  const auto recheck = generator.generate_run(incoming[3]);
  for (const Sample& s : recheck) {
    diagnose_with_retry(host, {&s.series, Deadline::after_ms(500.0)}, backoff);
  }

  std::printf("\n(ground truth: run 901 memleak@node0, 903 membw@node0, "
              "904 dial@node0; the rest healthy)\n");
  std::printf("[serving] %s\n",
              format_serving_summary(service->stats()).c_str());

  // ---- operations interlude: a model push gone wrong --------------------
  // Every reload is validated against held-back probe windows before the
  // swap. The corrupted artifact never reaches serving: the old bundle
  // keeps answering, untouched.
  host.set_probe_windows(probe_windows);
  const std::string bad_path = bundle_path + ".corrupt";
  write_poisoned_bundle(bundle_path, bad_path, BundlePoison::Truncate, 99);
  const ReloadReport bad_push = host.reload_from_file(bad_path);
  std::printf("\n[reload] corrupted push: %s\n", bad_push.summary().c_str());
  std::remove(bad_path.c_str());

  const ReloadReport good_push = host.reload_from_file(bundle_path);
  std::printf("[reload] fixed push:     %s\n", good_push.summary().c_str());
  const DiagnosisResult after =
      host.diagnose(within_budget(recheck[0].series));
  std::printf("[reload] generation %llu now serving (recheck: %s)\n",
              static_cast<unsigned long long>(host.generation()),
              after.ok()
                  ? std::string(service->label_name(after.diagnosis.label))
                        .c_str()
                  : std::string(to_string(after.status)).c_str());

  // ---- end of day: drain ------------------------------------------------
  // Everything admitted finishes; everything after is shed with a typed
  // status a load balancer can act on.
  host.drain();
  const DiagnosisResult post_drain =
      host.diagnose(within_budget(recheck[0].series));
  std::printf("\n[drain] host %s; post-drain request -> %s\n",
              std::string(to_string(host.health())).c_str(),
              std::string(to_string(post_drain.status)).c_str());
  std::printf("[host] %s\n", format_host_summary(host.stats()).c_str());

  int missing = 0;
  const auto expect = [&missing](bool happened, const char* what) {
    if (!happened) {
      std::printf("[triage] MISSING: %s\n", what);
      ++missing;
    }
  };
  expect(bad_push.rolled_back && !bad_push.ok,
         "the corrupted push was not rolled back");
  expect(good_push.ok && host.generation() == 2,
         "the fixed push did not reach generation 2");
  expect(post_drain.status == RequestStatus::RejectedDraining,
         "the post-drain request was not rejected:draining");
  return missing == 0 ? 0 : 1;
}
