// Quickstart: the whole ALBADross workflow in one file.
//
//   1. simulate telemetry for a small Volta-like system (LDMS substitute),
//   2. extract statistical features and chi-square-select the best ones,
//   3. seed a random forest with one labeled sample per (app, anomaly) pair,
//   4. run pool-based active learning with the uncertainty strategy until a
//      target F1-score is reached,
//   5. persist the final model and use it to diagnose fresh samples.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "alba.hpp"

using namespace alba;

int main() {
  set_log_level(LogLevel::Warn);

  // --- 1+2: dataset (generation + feature extraction in one call) --------
  DatasetConfig config = volta_config();
  config.num_apps = 6;  // keep the quickstart snappy
  std::printf("building a %s dataset (%zu apps, %s features)...\n",
              std::string(system_name(config.system)).c_str(), config.num_apps,
              std::string(extractor_name(config.extractor)).c_str());
  const ExperimentData data = build_experiment_data(config);
  std::printf("  -> %zu samples x %zu features\n\n",
              data.features.num_samples(), data.features.num_features());

  // --- split, scale (Min-Max), select (chi-square top-k) -----------------
  const SplitIndices split = make_split(data, /*test_fraction=*/0.3, /*seed=*/1);
  const PreparedSplit prepared = prepare_split(data, split, config.select_k);
  const ALSetup setup = make_al_setup(prepared, /*seed=*/2);
  std::printf("seed set: %zu labeled samples (one per app x anomaly pair)\n",
              setup.seed.size());
  std::printf("unlabeled pool: %zu samples, test set: %zu samples\n\n",
              setup.pool_x.rows(), setup.test_x.rows());

  // --- 3+4: active learning to a target score ----------------------------
  ActiveLearnerConfig al_config;
  al_config.strategy = QueryStrategy::Uncertainty;
  al_config.max_queries = 120;
  al_config.target_f1 = 0.95;
  al_config.seed = 3;

  auto model = make_model_factory("rf", kNumClasses, /*seed=*/4)(
      table4_optimum("rf", /*eclipse=*/false));
  ActiveLearner learner(std::move(model), al_config);
  LabelOracle oracle(setup.pool_y, kNumClasses);
  std::printf("running uncertainty-sampling active learning "
              "(budget %d, target F1 %.2f)...\n",
              al_config.max_queries, al_config.target_f1);
  const ActiveLearnerResult result = learner.run(
      setup.seed, setup.pool_x, oracle, setup.pool_app, setup.test_x,
      setup.test_y);

  std::printf("  starting F1: %.3f\n", result.curve.front().f1);
  std::printf("  final F1:    %.3f after %zu oracle queries\n",
              result.final_f1, oracle.queries_answered());
  if (result.queries_to_target >= 0) {
    std::printf("  target F1 %.2f reached with %d additional labels\n",
                al_config.target_f1, result.queries_to_target);
  }

  // --- 5: persist ("pickle") and diagnose --------------------------------
  const ScopedTempDir tmp("albadross_quickstart");  // removed at scope exit
  const std::string model_path = tmp.file("model.bin");
  save_classifier_file(model_path, learner.model());
  const auto restored = load_classifier_file(model_path);
  std::printf("\nmodel saved to %s and reloaded (%s)\n", model_path.c_str(),
              restored->name().c_str());

  const Matrix probs = restored->predict_proba(setup.test_x);
  std::printf("diagnoses for the first 5 test samples:\n");
  for (std::size_t i = 0; i < 5 && i < probs.rows(); ++i) {
    const int label = argmax_label(probs.row(i));
    std::printf("  sample %zu: %-10s (confidence %.2f, truth %s)\n", i,
                std::string(anomaly_name(anomaly_from_label(label))).c_str(),
                probs(i, static_cast<std::size_t>(label)),
                std::string(anomaly_name(anomaly_from_label(setup.test_y[i])))
                    .c_str());
  }
  return 0;
}
