// Microbenchmarks for the telemetry + feature-extraction substrates: node
// simulation throughput, preprocessing, and per-series cost of the MVTS and
// TSFRESH-like extractors (including the O(n²) entropy sweep), and TSFRESH
// at a served window's length through the full plan and through a
// 10-of-111 plan like one metric of a serving bundle's. Extraction runs on
// two kinds of series: uniform random
// values (all distinct) and small integers (tie-heavy, like idle counters
// and quantized gauges), which load the value-count table and the entropy
// template matches far more.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "features/extractor.hpp"
#include "stats/entropy.hpp"
#include "stats/welch.hpp"

namespace {

using namespace alba;

RegistryConfig bench_registry() {
  RegistryConfig cfg;
  cfg.cores = 8;
  return cfg;
}

enum SeriesKind : std::int64_t { kUniform = 0, kTies = 1 };

std::vector<double> random_series(std::size_t n, std::int64_t kind,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) {
    v = kind == kTies ? std::floor(rng.uniform(0.0, 6.0))
                      : rng.uniform(0.0, 100.0);
  }
  return x;
}

// Series lengths: a served Volta window (60 rows -> 48 points), an Eclipse
// run (128 rows -> 116 points), and a long run.
void extract_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : {48, 116, 589}) {
    for (const std::int64_t kind : {kUniform, kTies}) b->Args({n, kind});
  }
}

void BM_NodeSimulate(benchmark::State& state) {
  const MetricRegistry registry(SystemKind::Volta, bench_registry());
  NodeSimConfig cfg;
  cfg.duration_steps = static_cast<int>(state.range(0));
  const NodeSimulator sim(registry, cfg);
  const auto apps = volta_applications();
  const InputDeck deck = make_input_deck(0, 0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(apps[0], deck, 0, nullptr, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(registry.size()));
}
BENCHMARK(BM_NodeSimulate)->Arg(96)->Arg(600);

void BM_PreprocessSeries(benchmark::State& state) {
  const MetricRegistry registry(SystemKind::Volta, bench_registry());
  NodeSimConfig cfg;
  cfg.duration_steps = static_cast<int>(state.range(0));
  const NodeSimulator sim(registry, cfg);
  const auto apps = volta_applications();
  Rng rng(1);
  const Matrix raw = sim.simulate(apps[0], make_input_deck(0, 0), 0, nullptr, rng);
  const PreprocessConfig pp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(preprocess_series(raw, registry, pp));
  }
}
BENCHMARK(BM_PreprocessSeries)->Arg(96)->Arg(600);

void BM_MvtsExtract(benchmark::State& state) {
  const MvtsExtractor mvts;
  const auto x =
      random_series(static_cast<std::size_t>(state.range(0)), state.range(1), 2);
  std::vector<double> out(mvts.num_features());
  for (auto _ : state) {
    mvts.extract(x, FeaturePlan::all(), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mvts.num_features()));
}
BENCHMARK(BM_MvtsExtract)->Apply(extract_args);

void BM_TsfreshExtract(benchmark::State& state) {
  const TsfreshExtractor ts;
  const auto x =
      random_series(static_cast<std::size_t>(state.range(0)), state.range(1), 3);
  std::vector<double> out(ts.num_features());
  for (auto _ : state) {
    ts.extract(x, FeaturePlan::all(), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ts.num_features()));
}
BENCHMARK(BM_TsfreshExtract)->Apply(extract_args);

// One served metric at n = 48 (a 60-row window after trim and
// differencing): range(0) = 0 extracts all 111 cells through
// FeaturePlan::all(), 1 extracts 10 cells (moments, sort and FFT cells,
// as a typical metric of the Volta bundle keeps) through a compiled plan.
void BM_TsfreshPlan(benchmark::State& state) {
  const TsfreshExtractor ts;
  const auto x = random_series(48, state.range(1), 3);
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (const char* name :
       {"mean", "std", "median", "iqr", "quantile_q90", "count_above_mean",
        "trend_slope", "energy_chunk0", "fft_abs_k1", "fft_imag_k2"}) {
    const auto& names = ts.feature_names();
    const auto it = std::find(names.begin(), names.end(), name);
    cells.emplace_back(static_cast<std::size_t>(it - names.begin()),
                       cells.size());
  }
  const FeaturePlan plan =
      state.range(0) == 0 ? FeaturePlan::all() : ts.plan(cells);
  std::vector<double> out(ts.num_features());
  for (auto _ : state) {
    ts.extract(x, plan, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsfreshPlan)->ArgsProduct({{0, 1}, {kUniform, kTies}});

void BM_TemplateEntropies(benchmark::State& state) {
  const auto x =
      random_series(static_cast<std::size_t>(state.range(0)), state.range(1), 4);
  const double sd = stats::stddev(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::template_entropies(x, sd, 2, 0.2));
  }
}
BENCHMARK(BM_TemplateEntropies)
    ->ArgsProduct({{64, 128, 256}, {kUniform, kTies}});

void BM_WelchPsd(benchmark::State& state) {
  const auto x = random_series(static_cast<std::size_t>(state.range(0)),
                               kUniform, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::welch_psd(x, 64));
  }
}
BENCHMARK(BM_WelchPsd)->Arg(96)->Arg(600);

}  // namespace
