// Serving-path benchmark. Without a mode flag it runs the single-window
// latency sweep (batch x model x split algo over the compiled predictor)
// and writes BENCH_serving_latency.json.
//
// --smoke runs the CI gate: train a small model, freeze it with
// export_model_bundle, reload it into a DiagnosisService, serve 100 raw
// telemetry windows one diagnose call at a time, and assert nonzero
// throughput plus bit-identical agreement with the offline pipeline
// (extract_features -> project -> scale -> select -> predict).
//
// --chaos-smoke runs the resilience gate: a client burst against a small
// ServiceHost while the chaos harness injects slow and failing
// extractions, then forced overload, forced deadline misses, poisoned
// hot-reload pushes, and a drain. The gate fails if anything other than a
// typed RequestStatus comes back, if an Ok result missed its deadline or
// disagrees bit-for-bit with the clean pipeline, or if a failed reload
// leaves anything but the old bundle serving.
//
// --latency-smoke runs an abridged latency sweep plus its gate.
//
//   ./build/bench/bench_serving                 # the latency sweep
//   ./build/bench/bench_serving --smoke         # CI smoke, exit 1 on failure
//   ./build/bench/bench_serving --chaos-smoke   # CI resilience gate
//   ./build/bench/bench_serving --latency-smoke # CI small-batch kernel gate
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alba.hpp"
#include "common/rng.hpp"
#include "ml/compiled_tree.hpp"
#include "ml/gbm.hpp"

using namespace alba;

namespace {

// The exported bundle, in a private directory removed at exit: two runs at
// once never share it.
const std::string& bundle_path() {
  static const ScopedTempDir dir("albadross_bench_serving");
  static const std::string path = dir.file("bundle.bin");
  return path;
}

struct Stream {
  std::vector<Sample> samples;   // aligned with windows (repeats duplicated)
  std::vector<Matrix> windows;
};

// A stream of distinct per-node windows from fresh runs.
Stream make_stream(const RunGenerator& generator, std::size_t count,
                   std::uint64_t seed) {
  Stream stream;
  const auto num_apps = static_cast<int>(generator.apps().size());
  int run_id = 1000;
  while (stream.windows.size() < count) {
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
      if (stream.windows.size() >= count) break;
      stream.samples.push_back(s);
      stream.windows.push_back(s.series);
    }
  }
  return stream;
}

// The offline reference: the exact training-harness pipeline over the same
// windows, ending in Classifier::predict_proba.
Matrix offline_probs(const Stream& stream, const RunGenerator& generator,
                     const DatasetConfig& cfg, const ModelBundle& bundle,
                     const PreparedSplit& prepared, const Classifier& model) {
  const auto extractor = make_extractor(cfg.extractor);
  const FeatureMatrix fm = extract_features(stream.samples,
                                            generator.registry(), *extractor,
                                            cfg.preprocess);
  Matrix x = select_features_by_name(fm, bundle.feature_names);
  prepared.scaler.transform(x);
  x = prepared.selector.transform(x);
  return model.predict_proba(x);
}

bool bits_equal(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_diagnosis(const Diagnosis& got, const Diagnosis& want) {
  if (got.label != want.label) return false;
  if (got.probs.size() != want.probs.size()) return false;
  for (std::size_t c = 0; c < got.probs.size(); ++c) {
    if (!bits_equal(got.probs[c], want.probs[c])) return false;
  }
  return true;
}

// The resilience gate. Every phase prints what it proved; any violated
// invariant increments `violations` and the gate exits nonzero.
int run_chaos_smoke(const Stream& stream, std::uint64_t seed) {
  std::size_t violations = 0;
  const auto check = [&violations](bool ok, const char* what) {
    if (!ok) {
      ++violations;
      std::printf("[chaos-smoke] VIOLATION: %s\n", what);
    }
  };

  // Clean reference answers: what every Ok result must match, bit for bit.
  auto make_chaos_free = [] {
    return std::make_shared<DiagnosisService>(
        load_model_bundle_file(bundle_path()), ServingConfig{});
  };
  std::vector<Diagnosis> reference;
  {
    const auto clean = make_chaos_free();
    for (const Matrix& w : stream.windows) {
      reference.push_back(clean->diagnose(w));
    }
  }

  // ---- phase 1: client burst under fault injection ----------------------
  ChaosConfig chaos_config;
  chaos_config.extract_fail_rate = 0.25;
  chaos_config.slow_extract_rate = 0.15;
  chaos_config.slow_extract_ms = 3.0;
  chaos_config.seed = seed;
  ServingChaos chaos(chaos_config);
  ServingConfig chaotic;
  chaotic.extraction_hook = chaos.hook();
  HostConfig host_config;
  host_config.workers = 2;
  host_config.queue_capacity = 8;
  host_config.unhealthy_error_rate = 1.0;  // soak: breaker stays out of it
  {
    ServiceHost host(std::make_shared<DiagnosisService>(
                         load_model_bundle_file(bundle_path()), chaotic),
                     host_config);
    const Deadline::Clock::duration budget = std::chrono::seconds(5);
    constexpr std::size_t kClients = 6;
    std::atomic<std::size_t> ok{0}, failed{0}, rejected{0};
    std::atomic<std::size_t> untyped{0}, late_ok{0}, mismatched{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < stream.windows.size(); i += kClients) {
          try {
            const Deadline deadline = Deadline::at(
                Deadline::Clock::now() + budget);
            const DiagnosisResult r =
                host.diagnose({&stream.windows[i], deadline});
            if (r.ok()) {
              ++ok;
              if (deadline.expired()) ++late_ok;
              if (!same_diagnosis(r.diagnosis, reference[i])) ++mismatched;
            } else if (r.status == RequestStatus::Failed) {
              ++failed;
            } else if (is_rejection(r.status)) {
              ++rejected;
            }
          } catch (...) {
            ++untyped;  // nothing may escape the typed surface
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    host.drain();
    const HostStats s = host.stats();
    std::printf("[chaos-smoke] burst: %s\n", format_host_summary(s).c_str());
    std::printf("[chaos-smoke] chaos: %llu extractions, %llu failures, "
                "%llu slowdowns injected\n",
                static_cast<unsigned long long>(chaos.extractions_seen()),
                static_cast<unsigned long long>(chaos.failures_injected()),
                static_cast<unsigned long long>(chaos.slowdowns_injected()));
    check(untyped == 0, "an exception escaped the typed result surface");
    check(ok + failed + rejected == stream.windows.size(),
          "request accounting does not add up");
    check(ok > 0, "no request survived the burst");
    check(failed > 0, "chaos injected no failures (harness inert?)");
    check(late_ok == 0, "an Ok result missed its deadline");
    check(mismatched == 0,
          "an Ok result disagreed with the clean pipeline bit-for-bit");
    check(chaos.failures_injected() == s.failed,
          "failure counters disagree between chaos harness and host");
  }

  // ---- phase 2: forced overload + forced deadline misses ----------------
  ChaosConfig molasses;
  molasses.slow_extract_rate = 1.0;
  molasses.slow_extract_ms = 25.0;
  molasses.seed = seed + 1;
  ServingChaos slow_chaos(molasses);
  ServingConfig slow_serving;
  slow_serving.extraction_hook = slow_chaos.hook();
  HostConfig tiny;
  tiny.workers = 1;
  tiny.queue_capacity = 1;
  tiny.unhealthy_error_rate = 1.0;
  {
    ServiceHost host(std::make_shared<DiagnosisService>(
                         load_model_bundle_file(bundle_path()), slow_serving),
                     tiny);
    constexpr std::size_t kClients = 6;
    std::atomic<std::size_t> ok{0}, shed{0}, untyped{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          const DiagnosisResult r =
              host.diagnose({&stream.windows[c], Deadline::after_ms(5.0)});
          if (r.ok()) ++ok;
          if (is_rejection(r.status)) ++shed;
        } catch (...) {
          ++untyped;
        }
      });
    }
    for (auto& t : clients) t.join();
    const HostStats s = host.stats();
    check(untyped == 0, "overload phase: exception escaped");
    check(ok == 0, "a 25ms pipeline pass beat a 5ms deadline");
    check(shed == kClients, "overload phase: a request got lost");
    check(s.rejected_queue_full >= 1,
          "six clients against workers=1/queue=1 never overflowed");
    check(s.rejected_deadline >= 1, "no deadline shedding under molasses");
    std::printf("[chaos-smoke] overload: %s\n",
                format_host_summary(s).c_str());
  }

  // ---- phase 3: poisoned hot-reload pushes ------------------------------
  const std::string bad_path = bundle_path() + ".poisoned";
  {
    ServiceHost host(make_chaos_free());
    host.set_probe_windows({stream.windows[0], stream.windows[1]});
    const DiagnosisResult before = host.diagnose({&stream.windows[2]});
    check(before.ok(), "reload phase: baseline request failed");

    for (const auto& [poison, name] :
         {std::pair{BundlePoison::Truncate, "truncate"},
          std::pair{BundlePoison::BadMagic, "bad-magic"}}) {
      write_poisoned_bundle(bundle_path(), bad_path, poison, seed + 2);
      const ReloadReport report = host.reload_from_file(bad_path);
      std::printf("[chaos-smoke] reload(%s): %s\n", name,
                  report.summary().c_str());
      check(!report.ok && report.rolled_back,
            "poisoned bundle was accepted");
      const DiagnosisResult after = host.diagnose({&stream.windows[2]});
      check(after.ok() && after.generation == 1 &&
                same_diagnosis(after.diagnosis, before.diagnosis),
            "rollback did not leave the old bundle serving bit-identically");
    }
    // A single flipped bit may or may not defeat validation; the invariant
    // is weaker but still hard: typed outcome, consistent serving either way.
    write_poisoned_bundle(bundle_path(), bad_path, BundlePoison::BitFlip,
                          seed + 3);
    const ReloadReport flip = host.reload_from_file(bad_path);
    std::printf("[chaos-smoke] reload(bit-flip): %s\n",
                flip.summary().c_str());
    check(flip.ok != flip.rolled_back, "bit-flip reload in limbo");
    check(host.diagnose({&stream.windows[2]}).ok(),
          "host stopped serving after a bit-flip push");

    // And a genuine upgrade still goes through after all that abuse.
    const ReloadReport good = host.reload_from_file(bundle_path());
    check(good.ok && host.generation() == good.generation,
          "clean reload failed after poisoned pushes");
    const DiagnosisResult upgraded = host.diagnose({&stream.windows[2]});
    check(upgraded.ok() && upgraded.generation == good.generation &&
              same_diagnosis(upgraded.diagnosis, before.diagnosis),
          "reloaded bundle does not serve bit-identically");

    // ---- phase 4: drain is terminal and typed ---------------------------
    host.drain();
    check(host.diagnose({&stream.windows[0]}).status ==
              RequestStatus::RejectedDraining,
          "post-drain submission was not shed as draining");
    check(host.health() == HostHealth::Draining, "drain left wrong health");
  }
  std::remove(bad_path.c_str());

  if (violations != 0) {
    std::printf("[chaos-smoke] FAILED: %zu violated invariants\n",
                violations);
    return 1;
  }
  std::printf("[chaos-smoke] ok: typed shedding, deadline-honest results, "
              "bit-identical serving across rollback and reload\n");
  return 0;
}

// ------------------------------------- single-window latency sweep ------

// One (model, algo, batch) cell: per-call latency percentiles of the
// default dispatch, plus the forced small-kernel and forced block-path p50
// so the crossover choice is reproducible from the JSON alone.
struct LatencyCell {
  std::string model;
  std::string algo;
  std::size_t batch = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double min_us = 0.0;
  double small_p50_us = 0.0;
  double block_p50_us = 0.0;
};

// Weak-signal rows with label noise (the bench_micro_ml idiom) so trees
// must grow toward their depth budget, plus the NaN/±inf telemetry mix the
// serving path sees from quarantined collectors.
struct LatencySynth {
  Matrix x;
  std::vector<int> y;
};

LatencySynth make_latency_synth(std::size_t n, std::size_t f,
                                std::uint64_t seed) {
  Rng rng(seed);
  LatencySynth s;
  s.x = Matrix(n, f);
  for (std::size_t i = 0; i < n; ++i) {
    auto c = static_cast<int>(i % static_cast<std::size_t>(kNumClasses));
    if (rng.uniform() < 0.3) {
      c = static_cast<int>(rng.uniform() * kNumClasses) % kNumClasses;
    }
    s.y.push_back(c);
    for (std::size_t j = 0; j < f; ++j) {
      const double u = rng.uniform();
      if (u < 0.01) {
        s.x(i, j) = std::numeric_limits<double>::quiet_NaN();
        continue;
      }
      if (u < 0.015) {
        s.x(i, j) = (i + j) % 2 == 0
                        ? std::numeric_limits<double>::infinity()
                        : -std::numeric_limits<double>::infinity();
        continue;
      }
      const double signal =
          j % static_cast<std::size_t>(kNumClasses) ==
                  i % static_cast<std::size_t>(kNumClasses)
              ? 0.15
              : 0.0;
      s.x(i, j) = signal + 0.3 * rng.uniform();
    }
  }
  return s;
}

// Per-call latencies (µs) of `fn` over `reps` calls, after one warm-up.
template <typename Fn>
std::vector<double> time_calls_us(int reps, Fn&& fn) {
  fn();
  std::vector<double> us(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    us[static_cast<std::size_t>(r)] = timer.seconds() * 1e6;
  }
  return us;
}

// Median per-call latency of the compiled predictor over the first `batch`
// rows with the crossover pinned to `cutoff` for the duration.
double forced_p50_us(const CompiledTreePredictor& pred, const Matrix& xb,
                     Matrix& out, int reps, std::size_t cutoff) {
  const std::size_t prev =
      CompiledTreePredictor::set_small_batch_cutoff(cutoff);
  const std::vector<double> us = time_calls_us(
      reps, [&] { pred.predict_range(xb, 0, xb.rows(), out); });
  CompiledTreePredictor::set_small_batch_cutoff(prev);
  return latency_percentile(us, 0.50);
}

LatencyCell run_latency_cell(const char* model, const char* algo,
                             const CompiledTreePredictor& pred,
                             const Matrix& pool, std::size_t batch,
                             int reps) {
  Matrix xb(batch, pool.cols());
  for (std::size_t i = 0; i < batch; ++i) {
    const auto src = pool.row(i % pool.rows());
    std::copy(src.begin(), src.end(), xb.row(i).begin());
  }
  Matrix out(batch, static_cast<std::size_t>(pred.num_classes()));

  LatencyCell cell;
  cell.model = model;
  cell.algo = algo;
  cell.batch = batch;
  const std::vector<double> us = time_calls_us(
      reps, [&] { pred.predict_range(xb, 0, batch, out); });
  cell.p50_us = latency_percentile(us, 0.50);
  cell.p99_us = latency_percentile(us, 0.99);
  cell.p999_us = latency_percentile(us, 0.999);
  cell.min_us = latency_percentile(us, 0.0);
  cell.small_p50_us = forced_p50_us(
      pred, xb, out, reps, std::numeric_limits<std::size_t>::max());
  cell.block_p50_us = forced_p50_us(pred, xb, out, reps, 0);
  return cell;
}

// Bit-identity across all three paths on one probe batch: forced small,
// forced block, and the reference object walk must agree on every
// probability bit and therefore on every argmax.
bool paths_bit_identical(const char* name, const Classifier& model,
                         const Matrix& probe) {
  const Matrix reference = model.predict_proba_reference(probe);
  const std::size_t prev = CompiledTreePredictor::set_small_batch_cutoff(
      std::numeric_limits<std::size_t>::max());
  const Matrix small_probs = model.predict_proba(probe);
  CompiledTreePredictor::set_small_batch_cutoff(0);
  const Matrix block_probs = model.predict_proba(probe);
  CompiledTreePredictor::set_small_batch_cutoff(prev);
  for (std::size_t i = 0; i < probe.rows(); ++i) {
    if (argmax_label(small_probs.row(i)) != argmax_label(reference.row(i))) {
      std::fprintf(stderr, "[latency] %s: argmax mismatch on row %zu\n",
                   name, i);
      return false;
    }
    for (std::size_t c = 0; c < reference.cols(); ++c) {
      if (!bits_equal(small_probs(i, c), reference(i, c)) ||
          !bits_equal(block_probs(i, c), reference(i, c))) {
        std::fprintf(stderr,
                     "[latency] %s: probability bits differ at (%zu, %zu)\n",
                     name, i, c);
        return false;
      }
    }
  }
  return true;
}

// The single-window latency sweep (batch 1/2/4/8/16/64 × DT, RF and GBM ×
// Exact/Hist) written to BENCH_serving_latency.json. With `gate` set (the
// --latency-smoke CI entry) it also enforces: small kernel ≥3× faster than
// the forced block path at batch=1 for the RF and the Hist GBM at
// paper-scale shapes, and bit-identical probabilities across small / block
// / reference on every model.
int run_latency_sweep(bool gate, std::uint64_t seed) {
  // Paper-scale shape: the raw per-window feature space before selection
  // (hundreds of metrics x statistics), a few hundred training windows,
  // six anomaly classes. The tree and forest split exactly, as every
  // bundle the pipeline exports does. The Exact GBM is thinned (its
  // splitter sorts per node: training cost, not predict cost, is the
  // constraint); the gate reads the RF and the Hist GBM.
  const std::size_t f = 1600;
  const LatencySynth train = make_latency_synth(600, f, seed);
  const LatencySynth gbm_exact_train = make_latency_synth(300, f, seed + 1);
  const LatencySynth pool = make_latency_synth(64, f, seed + 2);
  const int reps = gate ? 300 : 1000;

  struct Fitted {
    const char* model;
    const char* algo;
    std::unique_ptr<Classifier> clf;
    std::shared_ptr<const CompiledTreePredictor> pred;
  };
  std::vector<Fitted> fitted;

  std::printf(
      "[latency] training DT/RF and GBM x Exact/Hist at %zu features\n", f);
  TreeConfig tcfg;
  tcfg.num_classes = kNumClasses;
  tcfg.max_depth = 8;
  auto dt = std::make_unique<DecisionTree>(tcfg, seed);
  dt->fit(train.x, train.y);
  auto dt_pred = dt->compiled();
  fitted.push_back(Fitted{"dt", "exact", std::move(dt), dt_pred});

  // Paper-scale shapes (Table IV Volta optima): RF 20 trees x depth 8;
  // GBM 31 leaves with column subsampling so trees spread over the
  // feature space the way per-split sampling does at production scale.
  ForestConfig fcfg;
  fcfg.num_classes = kNumClasses;
  fcfg.n_estimators = 20;
  fcfg.max_depth = 8;
  auto rf = std::make_unique<RandomForest>(fcfg, seed);
  rf->fit(train.x, train.y);
  auto rf_pred = rf->compiled();
  fitted.push_back(Fitted{"rf", "exact", std::move(rf), rf_pred});

  for (const auto algo : {SplitAlgo::Exact, SplitAlgo::Hist}) {
    const bool exact = algo == SplitAlgo::Exact;
    const LatencySynth& tr = exact ? gbm_exact_train : train;
    GbmConfig gcfg;
    gcfg.num_classes = kNumClasses;
    gcfg.n_estimators = exact ? 5 : 10;
    gcfg.num_leaves = 31;
    gcfg.max_depth = 8;
    gcfg.colsample_bytree = 0.3;
    gcfg.split_algo = algo;
    auto gbm = std::make_unique<GbmClassifier>(gcfg, seed);
    gbm->fit(tr.x, tr.y);
    auto gbm_pred = gbm->compiled();
    fitted.push_back(
        Fitted{"lgbm", exact ? "exact" : "hist", std::move(gbm), gbm_pred});
  }

  const std::vector<std::size_t> batches{1, 2, 4, 8, 16, 64};
  std::vector<LatencyCell> cells;
  TextTable table({"model", "algo", "batch", "p50 us", "p99 us",
                   "p99.9 us", "min us", "small p50", "block p50"});
  for (const Fitted& m : fitted) {
    if (m.pred == nullptr) {
      std::fprintf(stderr, "[latency] %s/%s did not compile\n", m.model,
                   m.algo);
      return 1;
    }
    for (const std::size_t batch : batches) {
      const int cell_reps =
          batch >= 64 ? std::max(20, reps / 10) : reps;
      cells.push_back(run_latency_cell(m.model, m.algo, *m.pred, pool.x,
                                       batch, cell_reps));
      const LatencyCell& c = cells.back();
      table.add_row({c.model, c.algo, std::to_string(c.batch),
                     strformat("%.2f", c.p50_us),
                     strformat("%.2f", c.p99_us),
                     strformat("%.2f", c.p999_us),
                     strformat("%.2f", c.min_us),
                     strformat("%.2f", c.small_p50_us),
                     strformat("%.2f", c.block_p50_us)});
    }
  }
  std::printf("\nsingle-window latency sweep (crossover cutoff %zu)\n%s\n",
              CompiledTreePredictor::small_batch_cutoff(),
              table.render().c_str());

  const char* json_path = "BENCH_serving_latency.json";
  {
    std::ofstream os(json_path);
    os << "{\n  \"cutoff\": "
       << CompiledTreePredictor::small_batch_cutoff()
       << ",\n  \"features\": " << f << ",\n  \"entries\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const LatencyCell& c = cells[i];
      os << "    {\"model\": \"" << c.model << "\", \"algo\": \"" << c.algo
         << "\", \"batch\": " << c.batch << ", \"p50_us\": " << c.p50_us
         << ", \"p99_us\": " << c.p99_us << ", \"p999_us\": " << c.p999_us
         << ", \"min_us\": " << c.min_us
         << ", \"small_p50_us\": " << c.small_p50_us
         << ", \"block_p50_us\": " << c.block_p50_us << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
  }
  std::printf("[latency] sweep written to %s (%zu cells)\n", json_path,
              cells.size());

  // The gate: the RF and the Hist GBM, batch=1, small kernel at least 3×
  // faster than the forced block path; all paths bit-identical on every
  // model.
  bool ok = true;
  for (const Fitted& m : fitted) {
    const bool gated = std::strcmp(m.model, "rf") == 0 ||
                       (std::strcmp(m.model, "lgbm") == 0 &&
                        std::strcmp(m.algo, "hist") == 0);
    if (!paths_bit_identical(m.model, *m.clf, pool.x)) ok = false;
    if (!gated) continue;
    const auto it = std::find_if(
        cells.begin(), cells.end(), [&](const LatencyCell& c) {
          return c.batch == 1 && c.model == m.model && c.algo == m.algo;
        });
    const double speedup = it->small_p50_us > 0.0
                               ? it->block_p50_us / it->small_p50_us
                               : 0.0;
    std::printf("[latency] %s/%s batch=1: small %.2fus vs block %.2fus "
                "(%.1fx)\n",
                m.model, m.algo, it->small_p50_us, it->block_p50_us,
                speedup);
    if (gate && speedup < 3.0) {
      std::fprintf(stderr,
                   "[latency] GATE FAIL: %s/%s batch=1 small-kernel "
                   "speedup %.2fx < 3x\n",
                   m.model, m.algo, speedup);
      ok = false;
    }
  }
  if (!ok) {
    std::printf("[latency] FAILED\n");
    return 1;
  }
  std::printf("[latency] ok: small-batch kernel >=3x at batch=1 on RF+GBM, "
              "bit-identical across small/block/reference\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 7;
  bool smoke = false;
  bool chaos_smoke = false;
  bool latency_smoke = false;
  Cli cli("bench_serving",
          "Online serving benchmark: single-window latency sweep to "
          "BENCH_serving_latency.json (--smoke for the CI agreement gate, "
          "--chaos-smoke for the resilience gate, --latency-smoke for the "
          "small-batch kernel gate).");
  cli.flag("seed", &seed, "stream generation seed");
  cli.flag("smoke", &smoke, "serve 100 windows, assert offline agreement");
  cli.flag("chaos-smoke", &chaos_smoke,
           "burst a chaos-injected ServiceHost, assert typed shedding, "
           "deadline honesty, and rollback bit-identity");
  cli.flag("latency-smoke", &latency_smoke,
           "abridged latency sweep plus the CI gate: small-batch kernel "
           ">=3x block path at batch=1 on RF+GBM, bit-identical probas");
  cli.parse(argc, argv);
  set_log_level(LogLevel::Warn);

  // The latency sweep trains its own synthetic paper-scale models; it does
  // not need the bundle/stream setup below.
  if (!smoke && !chaos_smoke) return run_latency_sweep(latency_smoke, seed);

  // ---- train a small model and freeze it --------------------------------
  DatasetConfig cfg = tiny_config();
  cfg.seed = seed;
  std::printf("[setup] building dataset + training classifier...\n");
  const ExperimentData data = build_experiment_data(cfg);
  const SplitIndices split = make_split(data, cfg.test_fraction, seed);
  const PreparedSplit prepared = prepare_split(data, split, cfg.select_k);
  auto model = make_model_factory("rf", kNumClasses, seed)(
      table4_optimum("rf", false));
  model->fit(prepared.train_x, prepared.train_y);
  export_model_bundle(bundle_path(), data, prepared, *model);
  std::printf("[setup] bundle exported to %s (%zu selected features)\n",
              bundle_path().c_str(), prepared.selected_names.size());

  const RunGenerator generator(cfg.system, cfg.registry, cfg.sim);
  const Stream stream = make_stream(generator, 100, seed + 1);

  if (chaos_smoke) return run_chaos_smoke(stream, seed);

  DiagnosisService service(load_model_bundle_file(bundle_path()));
  std::vector<Diagnosis> diagnoses;
  diagnoses.reserve(stream.windows.size());
  for (const Matrix& w : stream.windows) {
    diagnoses.push_back(service.diagnose(w));
  }
  const Matrix reference = offline_probs(stream, generator, cfg,
                                         service.bundle(), prepared, *model);
  const std::vector<int> offline_labels = model->predict(
      [&] {
        Matrix x = select_features_by_name(
            extract_features(stream.samples, generator.registry(),
                             *make_extractor(cfg.extractor), cfg.preprocess),
            service.bundle().feature_names);
        prepared.scaler.transform(x);
        return prepared.selector.transform(x);
      }());

  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < diagnoses.size(); ++i) {
    if (diagnoses[i].label != offline_labels[i]) ++disagreements;
    for (std::size_t c = 0; c < diagnoses[i].probs.size(); ++c) {
      if (!bits_equal(diagnoses[i].probs[c], reference(i, c))) {
        ++disagreements;
        break;
      }
    }
  }
  const ServingStats s = service.stats();
  std::printf("[smoke] %s\n", format_serving_summary(s).c_str());
  if (disagreements != 0 || s.windows_per_second() <= 0.0 ||
      s.windows != diagnoses.size()) {
    std::printf("[smoke] FAILED: %zu disagreements, %.1f win/s\n",
                disagreements, s.windows_per_second());
    return 1;
  }
  std::printf("[smoke] ok: %zu windows served, bit-identical to the "
              "offline pipeline\n", diagnoses.size());
  return 0;
}
