// Microbenchmarks for the ML layer: classifier fit/predict cost at the
// shapes the active learning loop actually uses (a few hundred labeled
// samples × a few hundred selected features), chi-square selection, and
// query-strategy scoring over a pool — the old copy-then-score path against
// the learner's index-view path. A custom main also runs one small
// synthetic AL loop and dumps its per-round phase timings as CSV, then a
// train-time sweep over n_samples × n_features (exact-split RF, GBM under
// both of its split finders, plus the AL refit shape) emitted as
// BENCH_ml_train.json, with a GBM hist-vs-exact macro-F1 parity gate.
// `--smoke` runs only a scaled-down sweep + parity gate and the predict
// gate, the CI entry point.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "active/learner.hpp"
#include "active/oracle.hpp"
#include "active/round_stats.hpp"
#include "active/strategy.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "ml/compiled_tree.hpp"
#include "ml/gbm.hpp"
#include "ml/logreg.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "preprocess/select_kbest.hpp"

namespace {

using namespace alba;

struct Synth {
  Matrix x;
  std::vector<int> y;
};

Synth make_synth(std::size_t n, std::size_t f, int classes,
                 std::uint64_t seed) {
  Rng rng(seed);
  Synth s;
  s.x = Matrix(n, f);
  for (std::size_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(i % static_cast<std::size_t>(classes));
    s.y.push_back(c);
    for (std::size_t j = 0; j < f; ++j) {
      const double signal = (j % static_cast<std::size_t>(classes) ==
                             static_cast<std::size_t>(c))
                                ? 0.6
                                : 0.0;
      s.x(i, j) = std::min(1.0, std::max(0.0, signal + 0.2 * rng.uniform()));
    }
  }
  return s;
}

void BM_RandomForestFit(benchmark::State& state) {
  const Synth s = make_synth(static_cast<std::size_t>(state.range(0)), 500, 6, 1);
  ForestConfig cfg;
  cfg.num_classes = 6;
  cfg.n_estimators = 20;
  cfg.max_depth = 8;
  for (auto _ : state) {
    RandomForest rf(cfg, 1);
    rf.fit(s.x, s.y);
    benchmark::DoNotOptimize(rf.trees().size());
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(60)->Arg(300);

void BM_RandomForestPredictPool(benchmark::State& state) {
  const Synth train = make_synth(300, 500, 6, 2);
  const Synth pool = make_synth(static_cast<std::size_t>(state.range(0)), 500, 6, 3);
  ForestConfig cfg;
  cfg.num_classes = 6;
  cfg.n_estimators = 20;
  cfg.max_depth = 8;
  RandomForest rf(cfg, 1);
  rf.fit(train.x, train.y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf.predict_proba(pool.x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RandomForestPredictPool)->Arg(500)->Arg(2500);

void BM_GbmFit(benchmark::State& state) {
  const Synth s = make_synth(static_cast<std::size_t>(state.range(0)), 200, 6, 4);
  GbmConfig cfg;
  cfg.num_classes = 6;
  cfg.n_estimators = 20;
  cfg.num_leaves = 31;
  for (auto _ : state) {
    GbmClassifier gbm(cfg, 1);
    gbm.fit(s.x, s.y);
    benchmark::DoNotOptimize(gbm.num_rounds());
  }
}
BENCHMARK(BM_GbmFit)->Arg(60)->Arg(300);

void BM_LogRegFit(benchmark::State& state) {
  const Synth s = make_synth(static_cast<std::size_t>(state.range(0)), 500, 6, 5);
  LogRegConfig cfg;
  cfg.num_classes = 6;
  cfg.max_iter = 100;
  for (auto _ : state) {
    LogisticRegression lr(cfg, 1);
    lr.fit(s.x, s.y);
    benchmark::DoNotOptimize(lr.bias().data());
  }
}
BENCHMARK(BM_LogRegFit)->Arg(60)->Arg(300);

void BM_Chi2SelectKBest(benchmark::State& state) {
  const Synth s =
      make_synth(1000, static_cast<std::size_t>(state.range(0)), 6, 6);
  for (auto _ : state) {
    SelectKBestChi2 selector(500);
    selector.fit(s.x, s.y);
    benchmark::DoNotOptimize(selector.selected_indices().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Chi2SelectKBest)->Arg(2000)->Arg(8000);

// The learner's pre-change scoring path: materialize the remaining pool
// rows, run a full predict_proba, then score each row.
void BM_PoolScoringCopy(benchmark::State& state) {
  const Synth train = make_synth(300, 500, 6, 2);
  const Synth pool = make_synth(static_cast<std::size_t>(state.range(0)), 500, 6, 3);
  ForestConfig cfg;
  cfg.num_classes = 6;
  cfg.n_estimators = 20;
  cfg.max_depth = 8;
  RandomForest rf(cfg, 1);
  rf.fit(train.x, train.y);
  // Half the pool still unlabeled, as mid-run.
  std::vector<std::size_t> remaining(pool.x.rows() / 2);
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});
  for (auto _ : state) {
    const Matrix remaining_x = pool.x.select_rows(remaining);
    const Matrix probs = rf.predict_proba(remaining_x);
    std::vector<double> scores(remaining.size());
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      scores[i] = uncertainty_score(probs.row(i));
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(remaining.size()));
}
BENCHMARK(BM_PoolScoringCopy)->Arg(500)->Arg(2500);

// The index-view replacement: chunk-parallel predict_proba_rows straight
// off the original pool matrix, no per-round copy.
void BM_PoolScoringRows(benchmark::State& state) {
  const Synth train = make_synth(300, 500, 6, 2);
  const Synth pool = make_synth(static_cast<std::size_t>(state.range(0)), 500, 6, 3);
  ForestConfig cfg;
  cfg.num_classes = 6;
  cfg.n_estimators = 20;
  cfg.max_depth = 8;
  RandomForest rf(cfg, 1);
  rf.fit(train.x, train.y);
  std::vector<std::size_t> remaining(pool.x.rows() / 2);
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});
  for (auto _ : state) {
    const std::vector<double> scores =
        score_pool_rows(rf, QueryStrategy::Uncertainty, pool.x, remaining);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(remaining.size()));
}
BENCHMARK(BM_PoolScoringRows)->Arg(500)->Arg(2500);

void BM_QueryStrategyScan(benchmark::State& state) {
  Rng rng(7);
  Matrix probs(static_cast<std::size_t>(state.range(0)), 6);
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    auto row = probs.row(i);
    double sum = 0.0;
    for (auto& p : row) {
      p = rng.uniform();
      sum += p;
    }
    for (auto& p : row) p /= sum;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(select_query(QueryStrategy::Margin, probs, {},
                                          probs.rows(), 0, 0, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueryStrategyScan)->Arg(1000)->Arg(10000);

// One small synthetic AL run whose per-round phase timings (score / refit /
// eval) go to CSV — the learner's built-in instrumentation, surfaced.
void write_al_round_stats(const char* path) {
  const Synth data = make_synth(700, 200, 6, 11);
  LabeledData seed;
  std::vector<int> pool_y;
  Matrix pool_x(0, 0);
  Matrix test_x(0, 0);
  std::vector<int> test_y;
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    if (i < 30) {
      seed.append(data.x.row(i), data.y[i]);
    } else if (i < 530) {
      if (pool_x.cols() == 0) pool_x = Matrix(0, data.x.cols());
      pool_x.append_row(data.x.row(i));
      pool_y.push_back(data.y[i]);
    } else {
      if (test_x.cols() == 0) test_x = Matrix(0, data.x.cols());
      test_x.append_row(data.x.row(i));
      test_y.push_back(data.y[i]);
    }
  }

  ForestConfig fcfg;
  fcfg.num_classes = 6;
  fcfg.n_estimators = 15;
  fcfg.max_depth = 7;
  ActiveLearnerConfig cfg;
  cfg.strategy = QueryStrategy::Uncertainty;
  cfg.max_queries = 40;
  cfg.batch_size = 4;
  cfg.seed = 13;
  ActiveLearner learner(std::make_unique<RandomForest>(fcfg, 13), cfg);
  LabelOracle oracle(pool_y, 6);
  const ActiveLearnerResult result =
      learner.run(seed, pool_x, oracle, {}, test_x, test_y);

  std::ofstream os(path);
  write_round_stats_csv(os, "uncertainty_rf", result.rounds);
  std::printf("AL round stats (%s) written to %s\n",
              format_round_summary(result.rounds).c_str(), path);
}

// ---------------------------------------------------- train-time sweep ---

struct SweepEntry {
  std::string model;
  std::string algo;
  std::size_t n = 0;
  std::size_t f = 0;
  double train_s = 0.0;
  double f1 = 0.0;
};

double median_of(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// Fits `cfg` on `train` once; returns the fit's wall time and scores the
// model on `test` into `e.f1` (the fits are seeded, so every repeat of one
// cell scores the same).
template <typename Model, typename Config>
double timed_fit(const Config& cfg, const Synth& train, const Synth& test,
                 SweepEntry& e) {
  Model model(cfg, 1);
  Timer timer;
  model.fit(train.x, train.y);
  const double seconds = timer.seconds();
  e.f1 = macro_f1(test.y, model.predict(test.x), 6);
  return seconds;
}

SweepEntry sweep_entry(const char* model, const char* algo,
                       const Synth& train) {
  SweepEntry e;
  e.model = model;
  e.algo = algo;
  e.n = train.x.rows();
  e.f = train.x.cols();
  return e;
}

// Fits per cell: each timing is the median of this many fits (or, for the
// GBM Exact/Hist pairs, interleaved pairs), so one slow second of a shared
// machine does not decide a cell.
constexpr int kFitRepeats = 3;

// One exact-split forest cell: median fit time, no gate.
SweepEntry run_rf_cell(const char* name, const ForestConfig& cfg,
                       const Synth& train, const Synth& test) {
  SweepEntry e = sweep_entry(name, "exact", train);
  std::vector<double> seconds;
  for (int r = 0; r < kFitRepeats; ++r) {
    seconds.push_back(timed_fit<RandomForest>(cfg, train, test, e));
  }
  e.train_s = median_of(seconds);
  std::printf("train sweep %-5s %5zux%-5zu exact %8.3fs f1 %.3f\n",
              e.model.c_str(), e.n, e.f, e.train_s, e.f1);
  return e;
}

// GBM's Exact/Hist pair of cells, timed as interleaved fit pairs; returns
// Hist's speedup over Exact, the median of the per-pair ratios.
double run_gbm_pair(GbmConfig cfg, const Synth& train, const Synth& test,
                    SweepEntry& exact, SweepEntry& hist) {
  exact = sweep_entry("lgbm", "exact", train);
  hist = sweep_entry("lgbm", "hist", train);
  std::vector<double> exact_s;
  std::vector<double> hist_s;
  std::vector<double> ratios;
  for (int p = 0; p < kFitRepeats; ++p) {
    cfg.split_algo = SplitAlgo::Exact;
    exact_s.push_back(timed_fit<GbmClassifier>(cfg, train, test, exact));
    cfg.split_algo = SplitAlgo::Hist;
    hist_s.push_back(timed_fit<GbmClassifier>(cfg, train, test, hist));
    ratios.push_back(hist_s.back() > 0.0 ? exact_s.back() / hist_s.back()
                                         : 0.0);
  }
  exact.train_s = median_of(exact_s);
  hist.train_s = median_of(hist_s);
  const double speedup = median_of(ratios);
  std::printf(
      "train sweep %-5s %5zux%-5zu exact %8.3fs f1 %.3f | hist %8.3fs "
      "f1 %.3f | speedup %.2fx\n",
      exact.model.c_str(), exact.n, exact.f, exact.train_s, exact.f1,
      hist.train_s, hist.f1, speedup);
  return speedup;
}

// Train-time sweep. Enforces the GBM hist-vs-exact macro-F1 parity gate
// (±0.02) always, and GBM's ≥3× pool-scale speedup gate in the full sweep;
// returns false when a gate fails.
bool run_train_sweep(bool smoke, const char* json_path) {
  struct Shape {
    std::size_t n;
    std::size_t f;
  };
  const std::vector<Shape> shapes =
      smoke ? std::vector<Shape>{{240, 120}}
            : std::vector<Shape>{{500, 500}, {2000, 500}, {500, 2000},
                                 {2000, 2000}};

  // sklearn's default forest size; one shared ExactRanks serves all trees,
  // so its build cost amortizes the way real fits amortize it.
  ForestConfig rf_cfg;
  rf_cfg.num_classes = 6;
  rf_cfg.n_estimators = smoke ? 10 : 100;
  rf_cfg.max_depth = 8;
  GbmConfig gbm_cfg;
  gbm_cfg.num_classes = 6;
  gbm_cfg.n_estimators = 5;
  gbm_cfg.num_leaves = 31;

  std::vector<SweepEntry> entries;
  bool ok = true;
  for (const Shape& shape : shapes) {
    const Synth train = make_synth(shape.n, shape.f, 6, 21);
    const Synth test = make_synth(shape.n / 2, shape.f, 6, 22);

    entries.push_back(run_rf_cell("rf", rf_cfg, train, test));

    SweepEntry exact;
    SweepEntry hist;
    const double speedup = run_gbm_pair(gbm_cfg, train, test, exact, hist);
    if (std::abs(exact.f1 - hist.f1) > 0.02) {
      std::fprintf(stderr,
                   "PARITY FAIL: lgbm %zux%zu hist f1 %.4f vs exact %.4f "
                   "(gate ±0.02)\n",
                   shape.n, shape.f, hist.f1, exact.f1);
      ok = false;
    }
    if (!smoke && shape.n >= 2000 && shape.f >= 2000 && speedup < 3.0) {
      std::fprintf(stderr,
                   "SPEEDUP FAIL: lgbm %zux%zu hist speedup %.2fx < 3x "
                   "(median of %d interleaved pairs)\n",
                   shape.n, shape.f, speedup, kFitRepeats);
      ok = false;
    }
    entries.push_back(exact);
    entries.push_back(hist);
  }

  // The AL refit shape: the Table IV Eclipse RF (200 trees, entropy,
  // depth 8) on the ~80 labelled rows × 500 features a query round refits.
  // Reported, not gated: the speed claim for this shape is the e2ebench
  // al-eclipse workload's.
  if (!smoke) {
    const Synth train = make_synth(80, 500, 6, 23);
    const Synth test = make_synth(40, 500, 6, 24);
    ForestConfig al_cfg = rf_cfg;
    al_cfg.n_estimators = 200;
    entries.push_back(run_rf_cell("rf-al", al_cfg, train, test));
  }

  std::ofstream os(json_path);
  os << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SweepEntry& e = entries[i];
    os << "  {\"model\": \"" << e.model << "\", \"algo\": \"" << e.algo
       << "\", \"n\": " << e.n << ", \"f\": " << e.f
       << ", \"train_s\": " << e.train_s << ", \"macro_f1\": " << e.f1 << "}"
       << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "]\n";
  std::printf("train sweep written to %s (%zu entries)%s\n", json_path,
              entries.size(), ok ? "" : " — GATES FAILED");
  return ok;
}

// --------------------------------------------------- predict-path sweep ---

struct PredictEntry {
  std::string model;
  std::size_t n = 0;
  std::size_t f = 0;
  double reference_s = 0.0;  // object-traversal walk, median of the pairs
  double compiled_s = 0.0;   // flat-SoA batched path, median of the pairs
  double speedup = 0.0;      // median over the pairs of reference/compiled
  double max_abs_diff = 0.0;
};

// Best-of-k wall time of one predict call (both paths parallelize on the
// same pool, so the comparison isolates the layout, not the threading).
template <typename Fn>
double time_best_of(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

// Times one fitted model's compiled predict against its reference
// traversal over `pool` and verifies the agreement gates: identical argmax
// on every row and probabilities within 1e-9 (the paths are bit-identical
// by construction; the gate is deliberately looser so it measures the
// contract, not the implementation).
template <typename Model>
PredictEntry run_predict_cell(const char* name, const Model& model,
                              const Matrix& pool, bool gate_speedup,
                              bool& ok) {
  PredictEntry e;
  e.model = name;
  e.n = pool.rows();
  e.f = pool.cols();

  // Interleaved pairs, gated on the median per-pair ratio: a slow second
  // of a shared machine lands on both sides of one pair, or on one pair
  // out of kPairs, instead of on one side's best-of-k.
  constexpr int kPairs = 7;
  Matrix reference;
  Matrix compiled;
  std::vector<double> reference_s;
  std::vector<double> compiled_s;
  std::vector<double> ratios;
  for (int p = 0; p < kPairs; ++p) {
    Timer timer;
    reference = model.predict_proba_reference(pool);
    reference_s.push_back(timer.seconds());
    timer.reset();
    compiled = model.predict_proba(pool);
    compiled_s.push_back(timer.seconds());
    ratios.push_back(compiled_s.back() > 0.0
                         ? reference_s.back() / compiled_s.back()
                         : 0.0);
  }
  e.reference_s = median_of(reference_s);
  e.compiled_s = median_of(compiled_s);
  e.speedup = median_of(ratios);

  if (model.compiled() == nullptr) {
    std::fprintf(stderr, "PREDICT FAIL: %s did not compile\n", name);
    ok = false;
  }
  for (std::size_t i = 0; i < pool.rows(); ++i) {
    if (argmax_label(compiled.row(i)) != argmax_label(reference.row(i))) {
      std::fprintf(stderr, "PREDICT FAIL: %s argmax mismatch on row %zu\n",
                   name, i);
      ok = false;
      break;
    }
    for (std::size_t c = 0; c < compiled.cols(); ++c) {
      e.max_abs_diff = std::max(e.max_abs_diff,
                                std::abs(compiled(i, c) - reference(i, c)));
    }
  }
  if (e.max_abs_diff > 1e-9) {
    std::fprintf(stderr,
                 "PREDICT FAIL: %s max proba diff %.3e > 1e-9 gate\n", name,
                 e.max_abs_diff);
    ok = false;
  }
  std::printf(
      "predict sweep %-5s %5zux%-5zu reference %8.4fs | compiled %8.4fs | "
      "speedup %5.2fx | max diff %.1e\n",
      name, e.n, e.f, e.reference_s, e.compiled_s, e.speedup,
      e.max_abs_diff);
  if (gate_speedup && e.speedup < 3.0) {
    std::fprintf(stderr,
                 "SPEEDUP FAIL: %s %zux%zu compiled %.2fx < 3x (median of "
                 "%d interleaved pairs)\n",
                 name, e.n, e.f, e.speedup, kPairs);
    ok = false;
  }
  return e;
}

// One batch-size cell of the small-vs-block kernel sweep: per-call time of
// the compiled predictor at `batch` rows with each variant forced via
// set_small_batch_cutoff, so the crossover behind the predict_dispatch
// default is reproducible from the published JSON.
struct BatchEntry {
  std::string model;
  std::size_t n = 0;
  std::size_t f = 0;
  std::size_t batch = 0;
  double block_s = 0.0;  // forced binned block path
  double small_s = 0.0;  // forced threshold-SoA small kernel
  double speedup = 0.0;  // block_s / small_s — >1 means small wins
};

template <typename Model>
BatchEntry run_batch_cell(const char* name, const Model& model,
                          const Matrix& pool, std::size_t batch) {
  BatchEntry e;
  e.model = name;
  e.n = pool.rows();
  e.f = pool.cols();
  e.batch = batch;

  Matrix xb(batch, pool.cols());
  for (std::size_t i = 0; i < batch; ++i) {
    const auto src = pool.row(i % pool.rows());
    std::copy(src.begin(), src.end(), xb.row(i).begin());
  }
  Matrix out(batch, static_cast<std::size_t>(model.compiled()->num_classes()));
  const CompiledTreePredictor& pred = *model.compiled();
  const int reps = batch <= 4 ? 200 : (batch <= 16 ? 50 : 15);

  const std::size_t prev = CompiledTreePredictor::set_small_batch_cutoff(0);
  e.block_s =
      time_best_of(reps, [&] { pred.predict_range(xb, 0, batch, out); });
  CompiledTreePredictor::set_small_batch_cutoff(
      std::numeric_limits<std::size_t>::max());
  e.small_s =
      time_best_of(reps, [&] { pred.predict_range(xb, 0, batch, out); });
  CompiledTreePredictor::set_small_batch_cutoff(prev);
  e.speedup = e.small_s > 0.0 ? e.block_s / e.small_s : 0.0;

  std::printf(
      "batch sweep   %-5s %5zux%-5zu batch %3zu | block %9.2fus | "
      "small %9.2fus | small wins %5.2fx\n",
      name, e.n, e.f, e.batch, 1e6 * e.block_s, 1e6 * e.small_s, e.speedup);
  return e;
}

// Weak-signal synth with flipped labels for the predict sweep: the strong
// make_synth signal lets trees separate classes in a handful of nodes,
// which benchmarks almost no traversal. Here the signal barely clears the
// noise floor and `label_noise` of the rows are relabeled uniformly, so
// trees must grow deep to fit — the shape a forest trained on messy
// production telemetry actually has.
Synth make_hard_synth(std::size_t n, std::size_t f, int classes,
                      double label_noise, std::uint64_t seed) {
  Rng rng(seed);
  const auto k = static_cast<std::size_t>(classes);
  Synth s;
  s.x = Matrix(n, f);
  for (std::size_t i = 0; i < n; ++i) {
    auto c = static_cast<int>(i % k);
    // Features always track the original class; a flipped label is real
    // noise the trees can only memorize, not a pattern they can learn.
    if (rng.uniform() < label_noise) {
      c = static_cast<int>(rng.uniform() * static_cast<double>(k)) %
          classes;
    }
    s.y.push_back(c);
    for (std::size_t j = 0; j < f; ++j) {
      const double signal = j % k == i % k ? 0.15 : 0.0;
      s.x(i, j) = signal + 0.3 * rng.uniform();
    }
  }
  return s;
}

// Compiled-vs-reference predict sweep over pool shapes up to 2000×2000.
// Gates (same argmax everywhere, probas within 1e-9, ≥3× at the
// 2000×2000 scale) apply in smoke and full mode alike — smoke just skips
// the smaller warm-up shapes. Returns false when a gate fails.
//
// The models are deliberately large ensembles of moderate trees. That is
// where batch inference cost lives in production — and where the layouts
// genuinely diverge: the object walk visits every tree per row, an
// essentially random access over the whole multi-megabyte forest, while
// the compiled path walks tree-major over 64-row blocks so each tree's
// few KB of SoA nodes stays cache-hot for the whole block and one binning
// pass is shared by all trees. Small single-model predicts (the serving
// hot path) ride the same code but win less; the train sweep covers them.
bool run_predict_sweep(bool smoke, const char* json_path) {
  struct Shape {
    std::size_t n;
    std::size_t f;
  };
  const std::vector<Shape> shapes =
      smoke ? std::vector<Shape>{{2000, 2000}}
            : std::vector<Shape>{{500, 500}, {2000, 500}, {2000, 2000}};

  std::vector<PredictEntry> entries;
  std::vector<BatchEntry> batch_entries;
  const std::size_t batches[] = {1, 2, 4, 8, 16, 64};
  bool ok = true;
  for (const Shape& shape : shapes) {
    // Trained on a small slice: tree size is bounded by training rows, so
    // the sweep's budget goes to predict, which is what is being measured;
    // the ensembles are wide enough that the forests still reach
    // production size (~300k nodes at the gated shape).
    const Synth rf_train = make_hard_synth(
        std::min<std::size_t>(shape.n, 600), shape.f, 6, 0.35, 31);
    const Synth gbm_train = make_hard_synth(
        std::min<std::size_t>(shape.n, 600), shape.f, 6, 0.5, 33);
    const Synth pool = make_hard_synth(shape.n, shape.f, 6, 0.2, 32);
    const bool gate = shape.n >= 2000 && shape.f >= 2000;

    ForestConfig rf_cfg;
    rf_cfg.num_classes = 6;
    rf_cfg.n_estimators = 1600;
    rf_cfg.max_depth = -1;
    RandomForest rf(rf_cfg, 1);
    rf.fit(rf_train.x, rf_train.y);
    entries.push_back(run_predict_cell("rf", rf, pool.x, gate, ok));

    // Coarse 64-bin histograms and a small column sample keep the 400
    // boosting rounds affordable to train without shrinking the fitted
    // forest the predict path has to traverse.
    GbmConfig gbm_cfg;
    gbm_cfg.num_classes = 6;
    gbm_cfg.n_estimators = 400;
    gbm_cfg.num_leaves = 63;
    gbm_cfg.colsample_bytree = 0.05;
    gbm_cfg.max_bins = 64;
    gbm_cfg.split_algo = SplitAlgo::Hist;
    GbmClassifier gbm(gbm_cfg, 1);
    gbm.fit(gbm_train.x, gbm_train.y);
    entries.push_back(run_predict_cell("lgbm", gbm, pool.x, gate, ok));

    // Batch-size column: forced small-kernel vs forced block-path times at
    // each batch size, so the dispatch crossover can be read off the
    // JSON instead of re-measured by hand.
    for (const std::size_t batch : batches) {
      batch_entries.push_back(run_batch_cell("rf", rf, pool.x, batch));
      batch_entries.push_back(run_batch_cell("lgbm", gbm, pool.x, batch));
    }
  }

  std::ofstream os(json_path);
  os << "{\n  \"full\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PredictEntry& e = entries[i];
    os << "    {\"model\": \"" << e.model << "\", \"n\": " << e.n
       << ", \"f\": " << e.f << ", \"reference_s\": " << e.reference_s
       << ", \"compiled_s\": " << e.compiled_s
       << ", \"speedup\": " << e.speedup
       << ", \"max_abs_diff\": " << e.max_abs_diff << "}"
       << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"batch_sweep\": [\n";
  for (std::size_t i = 0; i < batch_entries.size(); ++i) {
    const BatchEntry& e = batch_entries[i];
    os << "    {\"model\": \"" << e.model << "\", \"n\": " << e.n
       << ", \"f\": " << e.f << ", \"batch\": " << e.batch
       << ", \"block_s\": " << e.block_s << ", \"small_s\": " << e.small_s
       << ", \"speedup\": " << e.speedup << "}"
       << (i + 1 < batch_entries.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("predict sweep written to %s (%zu full, %zu batch entries)%s\n",
              json_path, entries.size(), batch_entries.size(),
              ok ? "" : " — GATES FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      // CI gate: scaled-down train sweep + GBM hist/exact macro-F1 parity,
      // then the compiled-vs-reference predict sweep at 2000×2000 (same
      // argmax, probas within 1e-9, ≥3× speedup).
      const bool train_ok = run_train_sweep(true, "BENCH_ml_train.json");
      const bool predict_ok =
          run_predict_sweep(true, "BENCH_ml_predict.json");
      return train_ok && predict_ok ? 0 : 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_al_round_stats("micro_ml_round_stats.csv");
  const bool train_ok = run_train_sweep(false, "BENCH_ml_train.json");
  const bool predict_ok = run_predict_sweep(false, "BENCH_ml_predict.json");
  return train_ok && predict_ok ? 0 : 1;
}
