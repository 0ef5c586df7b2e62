// The offline workload: the Table V Eclipse row. From a config to a
// dataset (simulate + MVTS extract), then margin sampling with the Table IV
// RF over several splits to a fixed query budget. Users here are the
// annotator waiting on each query round and whoever rebuilds the dataset.
//
// Every split is run at least twice at the same seed; the query sequence
// and the F1 curve must repeat exactly.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "alba.hpp"
#include "bench.hpp"

using namespace alba;

namespace e2e {
namespace {

constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kSplits = 2;
constexpr int kQueries = 50;  // per split: 100 query rounds per pass
// Passes are repeated (at least this many, more while --seconds lasts) and
// every split's set-up and every query round is timed as the median over
// passes, so a few slow seconds of a shared machine move one pass's sample,
// not the result.
constexpr std::size_t kMinPasses = 3;

/// build_experiment_data's steps, each under its own span.
ExperimentData build_dataset(const DatasetConfig& cfg, ThreadTrace* trace) {
  Scope span(trace, "dataset.build");
  const RunGenerator generator(cfg.system, cfg.registry, cfg.sim, cfg.faults);
  const std::size_t num_apps = generator.apps().size();
  ExperimentData data;
  {
    std::vector<Sample> samples;
    {
      Scope s(trace, "telemetry.generate");
      samples = generator.generate(make_collection_specs(
          cfg.system, num_apps, cfg.inputs_per_app, cfg.plan));
    }
    Scope s(trace, "features.extract");
    const auto extractor = make_extractor(cfg.extractor);
    data.features = extract_features(samples, generator.registry(),
                                     *extractor, cfg.preprocess);
  }
  {
    Scope s(trace, "features.drop_unusable");
    data.quality.columns_dropped = drop_unusable_columns(data.features);
  }
  for (std::size_t a = 0; a < num_apps; ++a) {
    data.app_names.push_back(generator.apps()[a].name);
  }
  data.num_apps = num_apps;
  data.inputs_per_app = cfg.inputs_per_app;
  data.config = cfg;
  return data;
}

struct SplitRun {
  std::vector<QueryRecord> queried;
  QueryCurve curve;
  double final_f1 = 0.0;
  std::vector<RoundStats> rounds;
  double seconds = 0.0;
};

/// make_split + prepare_split + make_al_setup + ActiveLearner::run.
SplitRun run_split(const ExperimentData& data, std::uint64_t split_seed,
                   ThreadTrace* trace) {
  const DatasetConfig& cfg = data.config;
  const Clock::time_point t0 = Clock::now();
  SplitIndices split;
  {
    Scope s(trace, "preprocess.make_split");
    split = make_split(data, cfg.test_fraction, split_seed);
  }
  PreparedSplit prepared;
  {
    Scope s(trace, "preprocess.prepare_split");
    prepared = prepare_split(data, split, cfg.select_k);
  }
  ALSetup setup;
  {
    Scope s(trace, "active.setup");
    setup = make_al_setup(prepared, split_seed + 1);
  }
  ActiveLearnerConfig alc;
  alc.strategy = QueryStrategy::Margin;
  alc.max_queries = kQueries;
  alc.num_apps = static_cast<int>(data.num_apps);
  alc.seed = split_seed + 2;
  ActiveLearner learner(make_model_factory("rf", kNumClasses, split_seed + 3)(
                            table4_optimum("rf", /*eclipse=*/true)),
                        alc);
  LabelOracle oracle(setup.pool_y, kNumClasses);
  SplitRun out;
  {
    Scope s(trace, "active.run");
    ActiveLearnerResult r = learner.run(setup.seed, setup.pool_x, oracle,
                                        setup.pool_app, setup.test_x,
                                        setup.test_y);
    if (trace != nullptr) {
      for (const RoundStats& rs : r.rounds) {
        trace->add_child("active.score", rs.score_seconds);
        trace->add_child("active.refit", rs.refit_seconds);
        trace->add_child("active.eval", rs.eval_seconds);
      }
    }
    out.queried = std::move(r.queried);
    out.curve = std::move(r.curve);
    out.final_f1 = r.final_f1;
    out.rounds = std::move(r.rounds);
  }
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

bool same_run(const SplitRun& a, const SplitRun& b) {
  if (a.queried.size() != b.queried.size() ||
      a.curve.size() != b.curve.size() ||
      std::memcmp(&a.final_f1, &b.final_f1, sizeof(double)) != 0) {
    return false;
  }
  for (std::size_t i = 0; i < a.queried.size(); ++i) {
    if (a.queried[i].pool_index != b.queried[i].pool_index ||
        a.queried[i].label != b.queried[i].label) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    if (std::memcmp(&a.curve[i].f1, &b.curve[i].f1, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t split_seed(const Args& args, std::size_t k) {
  return args.seed * 101 + 7 * k + 1;
}

struct Passes {
  std::vector<std::vector<SplitRun>> runs;  // [pass][split]
  std::vector<double> al_s;                 // per pass
};

/// Runs every split once per pass until `seconds` have passed (at least
/// `min_passes` passes), checking each repeat against the first pass.
Passes run_passes(const ExperimentData& data, const Args& args,
                  std::size_t min_passes, double seconds, ThreadTrace* trace,
                  const std::vector<SplitRun>* reference, Report& report) {
  Passes p;
  const Clock::time_point t0 = Clock::now();
  while (p.runs.size() < min_passes ||
         seconds_between(t0, Clock::now()) < seconds) {
    std::vector<SplitRun> pass;
    double al = 0.0;
    for (std::size_t k = 0; k < kSplits; ++k) {
      pass.push_back(run_split(data, split_seed(args, k), trace));
      al += pass.back().seconds;
      const SplitRun& first =
          reference != nullptr ? (*reference)[k]
                               : (p.runs.empty() ? pass.back() : p.runs[0][k]);
      if (!same_run(first, pass.back())) {
        report.breach("split " + std::to_string(k) +
                      ": query sequence or F1 curve changed on a repeat");
      }
    }
    p.al_s.push_back(al);
    p.runs.push_back(std::move(pass));
  }
  return p;
}

std::size_t query_rounds(const std::vector<SplitRun>& pass) {
  std::size_t n = 0;
  for (const SplitRun& r : pass) {
    if (!r.rounds.empty()) n += r.rounds.size() - 1;
  }
  return n;
}

double round_seconds(const RoundStats& r) {
  return r.score_seconds + r.refit_seconds + r.eval_seconds;
}

/// al_s and the per-query-round turnarounds, each piece the median over
/// passes: per split, its time outside the rounds; per round, its
/// score + refit + eval and its turnaround (refit + score, rounds 1..).
struct AlTiming {
  double al_s = 0.0;
  std::vector<double> turnaround_ms;
};

AlTiming median_timing(const Passes& p) {
  AlTiming t;
  for (std::size_t k = 0; k < kSplits; ++k) {
    std::vector<double> outside;
    std::size_t rounds = p.runs[0][k].rounds.size();
    for (const auto& pass : p.runs) {
      double in_rounds = 0.0;
      for (const RoundStats& r : pass[k].rounds) in_rounds += round_seconds(r);
      outside.push_back(pass[k].seconds - in_rounds);
      rounds = std::min(rounds, pass[k].rounds.size());
    }
    t.al_s += median(outside);
    for (std::size_t i = 0; i < rounds; ++i) {
      std::vector<double> whole;
      std::vector<double> turn;
      for (const auto& pass : p.runs) {
        const RoundStats& r = pass[k].rounds[i];
        whole.push_back(round_seconds(r));
        turn.push_back(1e3 * (r.refit_seconds + r.score_seconds));
      }
      t.al_s += median(whole);
      if (i > 0) t.turnaround_ms.push_back(median(turn));
    }
  }
  return t;
}

}  // namespace

Report run_offline(const Args& args) {
  if (args.workload != "al-eclipse") {
    throw std::runtime_error("unknown workload: " + args.workload);
  }
  // The pool must be sized before its first use; the main thread only
  // waits on it. Half the cores: a pool in lock step is as slow as its
  // slowest core, and on a shared machine fewer cores gave steadier runs.
  const unsigned pool = std::max(1u, nproc() / 2);
  setenv("ALBA_THREADS", std::to_string(pool).c_str(), 1);
  check_envelope(args, 1 + pool, pool, 0);

  DatasetConfig cfg = eclipse_config();
  cfg.seed = args.seed;
  cfg.plan.seed = args.seed * 7919 + 1234;

  const Clock::time_point epoch = Clock::now();
  ThreadTrace trace("main", epoch);
  ThreadTrace* tr = args.trace ? &trace : nullptr;
  Report report;

  std::vector<double> setups;
  ExperimentData data;
  const std::size_t setup_repeats = args.trace ? 1 : kSetupRepeats;
  for (std::size_t i = 0; i < setup_repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    data = build_dataset(cfg, tr);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  std::printf("dataset: %zu samples x %zu usable features (%zu dropped), "
              "set-up median %.3f s over %zu builds\n",
              data.features.num_samples(), data.features.num_features(),
              data.quality.columns_dropped, median(setups), setups.size());

  if (!args.trace) {
    const Passes p = run_passes(data, args, kMinPasses, args.seconds, nullptr,
                                nullptr, report);
    const AlTiming timing = median_timing(p);
    double f1 = 0.0;
    for (const SplitRun& r : p.runs[0]) {
      f1 += r.final_f1;
      std::printf("split: %zu queries, F1 %.4f -> %.4f\n", r.queried.size(),
                  r.curve.front().f1, r.final_f1);
    }
    f1 /= static_cast<double>(kSplits);
    const double al = timing.al_s;
    std::printf("al: %zu passes x %zu splits, al_s %.3f s (per-pass %.3f .. "
                "%.3f), %zu query rounds per pass, F1 at budget %.4f\n",
                p.runs.size(), kSplits, al,
                *std::min_element(p.al_s.begin(), p.al_s.end()),
                *std::max_element(p.al_s.begin(), p.al_s.end()),
                query_rounds(p.runs[0]), f1);
    report.attempted = p.runs.size() * kSplits;
    report.set("setup_s", median(setups), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("work_per_s", static_cast<double>(query_rounds(p.runs[0])) / al,
               "1/s");
    report.set("wait_p50_ms", percentile(timing.turnaround_ms, 0.5), "ms");
    report.set("wait_tail_ms", percentile(timing.turnaround_ms, 0.9), "ms");
    return report;
  }

  // Traced run: one untraced pass (the overhead baseline), then one traced
  // pass checked against it.
  const Passes plain = run_passes(data, args, 1, 0.0, nullptr, nullptr, report);
  const Passes traced = run_passes(data, args, 1, 0.0, tr, &plain.runs[0],
                                   report);
  report.attempted = 2 * kSplits;

  const auto total = [&](const char* name) {
    const ThreadTrace::Totals* x = trace.find(name);
    return x == nullptr ? 0.0 : x->total_s;
  };
  std::size_t rounds = 0;
  for (const SplitRun& r : traced.runs[0]) rounds += r.rounds.size();
  report.set("telemetry.generate_s", total("telemetry.generate"), "s");
  report.set("features.extract_s", total("features.extract"), "s");
  report.set("features.columns_kept",
             static_cast<double>(data.features.num_features()), "count");
  report.set("preprocess.prepare_split_s", total("preprocess.prepare_split"),
             "s");
  report.set("active.rounds", static_cast<double>(rounds), "count");
  double f1 = 0.0;
  for (const SplitRun& r : traced.runs[0]) f1 += r.final_f1;
  report.set("quality.macro_f1", f1 / static_cast<double>(kSplits), "ratio");
  report.set("active.score_s", total("active.score"), "s");
  report.set("active.refit_s", total("active.refit"), "s");
  report.set("active.eval_s", total("active.eval"), "s");
  // Wall time of the traced work: the dataset build plus the traced pass
  // (the untraced pass between them is not traced).
  const double covered = trace.root_s();
  const double build_and_pass = total("dataset.build") + traced.al_s[0];
  report.set("trace.unattributed_frac",
             build_and_pass > 0
                 ? std::max(0.0, 1.0 - covered / build_and_pass)
                 : 0.0,
             "ratio");
  report.set("trace.overhead_frac", traced.al_s[0] / plain.al_s[0] - 1.0,
             "ratio");
  report.set("trace.spans", static_cast<double>(trace.recorded()), "count");
  const RoundStatsSummary sum = [&] {
    std::vector<RoundStats> all;
    for (const SplitRun& r : traced.runs[0]) {
      all.insert(all.end(), r.rounds.begin(), r.rounds.end());
    }
    return summarize_rounds(all);
  }();
  std::printf(
      "stage budget: dataset %.3f s (generate %.3f, extract %.3f, drop "
      "%.3f); al %.3f s (make_split %.3f, prepare_split %.3f, setup %.3f, "
      "score %.3f, refit %.3f, eval %.3f, learner self %.3f)\n",
      total("dataset.build"), total("telemetry.generate"),
      total("features.extract"), total("features.drop_unusable"),
      traced.al_s[0], total("preprocess.make_split"),
      total("preprocess.prepare_split"), total("active.setup"),
      sum.score_seconds, sum.refit_seconds, sum.eval_seconds,
      trace.find("active.run") ? trace.find("active.run")->self_s : 0.0);
  write_traces(args.trace_out, {&trace});
  return report;
}

}  // namespace e2e
