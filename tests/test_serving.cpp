// Tests for the serving layer: ModelBundle round-trips and corruption
// rejection, the hardened ArchiveReader length checks, the fitted
// transforms PreparedSplit exposes for export, and DiagnosisService
// bit-identity with the offline pipeline (plus its thread-safety
// contract — this file runs under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/temp_dir.hpp"
#include "core/pipeline.hpp"
#include "ml/compiled_tree.hpp"
#include "ml/grid_search.hpp"
#include "ml/serialize.hpp"
#include "serving/diagnosis_service.hpp"
#include "serving/model_bundle.hpp"
#include "telemetry/run_generator.hpp"

namespace alba {
namespace {

// One tiny trained experiment shared by every test in this file (building
// the dataset is the expensive part; everything downstream is cheap).
struct ServingEnv {
  DatasetConfig cfg = tiny_config();
  ExperimentData data;
  SplitIndices split;
  PreparedSplit prepared;
  std::unique_ptr<Classifier> model;
  std::string bundle_bytes;  // a valid serialized bundle, for corruption tests
};

const ServingEnv& env() {
  static const ServingEnv* shared = [] {
    auto* e = new ServingEnv;
    e->data = build_experiment_data(e->cfg);
    e->split = make_split(e->data, e->cfg.test_fraction, 5);
    e->prepared = prepare_split(e->data, e->split, e->cfg.select_k);
    ParamSet params = table4_optimum("rf", false);
    params["n_estimators"] = "15";  // keep the fixture fast
    e->model = make_model_factory("rf", kNumClasses, 9)(params);
    e->model->fit(e->prepared.train_x, e->prepared.train_y);
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    save_model_bundle(ss, make_model_bundle(e->data, e->prepared, *e->model));
    e->bundle_bytes = ss.str();
    return e;
  }();
  return *shared;
}

ModelBundle load_from_bytes(const std::string& bytes) {
  std::stringstream ss(bytes,
                       std::ios::in | std::ios::out | std::ios::binary);
  return load_model_bundle(ss);
}

// Fresh raw windows the training data never saw (different run seeds).
std::vector<Sample> fresh_samples(const ServingEnv& e, int runs,
                                  std::uint64_t seed) {
  const RunGenerator generator(e.cfg.system, e.cfg.registry, e.cfg.sim);
  std::vector<Sample> samples;
  for (int r = 0; r < runs; ++r) {
    RunSpec spec;
    spec.app_id = r % static_cast<int>(e.data.num_apps);
    spec.nodes = 2;
    if (r % 3 != 0) {
      spec.anomaly = kAnomalyTypes[static_cast<std::size_t>(r) %
                                   kAnomalyTypes.size()];
      spec.intensity = 1.0;
    }
    spec.run_id = 9000 + r;
    spec.seed = seed + static_cast<std::uint64_t>(r);
    for (Sample& s : generator.generate_run(spec)) {
      samples.push_back(std::move(s));
    }
  }
  return samples;
}

// The offline reference pipeline, ending in predict_proba.
Matrix offline_probs(const ServingEnv& e, const std::vector<Sample>& samples) {
  const RunGenerator generator(e.cfg.system, e.cfg.registry, e.cfg.sim);
  const auto extractor = make_extractor(e.cfg.extractor);
  const FeatureMatrix fm = extract_features(samples, generator.registry(),
                                            *extractor, e.cfg.preprocess);
  Matrix x = select_features_by_name(fm, e.data.features.names);
  e.prepared.scaler.transform(x);
  x = e.prepared.selector.transform(x);
  return e.model->predict_proba(x);
}

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

// ------------------------------------------------------- PreparedSplit ---

TEST(PreparedSplit, ExposesTheFittedTransforms) {
  const ServingEnv& e = env();
  ASSERT_TRUE(e.prepared.scaler.fitted());
  ASSERT_TRUE(e.prepared.selector.fitted());
  EXPECT_EQ(e.prepared.scaler.mins().size(), e.data.features.names.size());
  EXPECT_EQ(e.prepared.selector.selected_indices().size(),
            e.prepared.selected_names.size());

  // Re-applying the frozen transforms to the raw test rows must reproduce
  // test_x exactly — this is the property model export relies on.
  Matrix x = e.data.features.x.select_rows(e.split.test);
  e.prepared.scaler.transform(x);
  expect_bit_identical(e.prepared.selector.transform(x), e.prepared.test_x);
}

TEST(PreparedSplit, DefaultSelectorIsAPlaceholder) {
  SelectKBestChi2 selector;  // as embedded in a default PreparedSplit
  EXPECT_FALSE(selector.fitted());
  const Matrix x = Matrix::from_rows({{0.1, 0.2}, {0.9, 0.8}});
  const std::vector<int> y{0, 1};
  EXPECT_THROW(selector.fit(x, y), Error);
}

// --------------------------------------------------------- ModelBundle ---

class BundleRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(BundleRoundTrip, PredictionsAndMetadataSurvive) {
  const ServingEnv& e = env();
  ParamSet params = table4_optimum(GetParam(), false);
  if (GetParam() == "mlp") params["max_iter"] = "25";
  if (GetParam() == "rf") params["n_estimators"] = "10";
  auto model = make_model_factory(GetParam(), kNumClasses, 13)(params);
  model->fit(e.prepared.train_x, e.prepared.train_y);
  const Matrix before = model->predict_proba(e.prepared.test_x);

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bundle(ss, make_model_bundle(e.data, e.prepared, *model));
  const ModelBundle restored = load_model_bundle(ss);

  EXPECT_EQ(restored.feature_names, e.data.features.names);
  EXPECT_EQ(restored.scaler_mins, e.prepared.scaler.mins());
  EXPECT_EQ(restored.scaler_maxs, e.prepared.scaler.maxs());
  EXPECT_EQ(restored.selected_names, e.prepared.selected_names);
  ASSERT_EQ(restored.selected.size(),
            e.prepared.selector.selected_indices().size());
  ASSERT_EQ(restored.label_names.size(),
            static_cast<std::size_t>(kNumClasses));
  EXPECT_EQ(restored.label_names[0], "healthy");
  EXPECT_EQ(restored.features.extractor, e.cfg.extractor);
  EXPECT_EQ(restored.features.preprocess.trim_head,
            e.cfg.preprocess.trim_head);

  ASSERT_TRUE(restored.model && restored.model->fitted());
  EXPECT_EQ(restored.model->name(), model->name());
  expect_bit_identical(restored.model->predict_proba(e.prepared.test_x),
                       before);
}

INSTANTIATE_TEST_SUITE_P(Models, BundleRoundTrip,
                         ::testing::Values("rf", "lr", "lgbm", "mlp"));

TEST(ModelBundle, FileRoundTrip) {
  const ServingEnv& e = env();
  const ScopedTempDir dir;
  const std::string path = dir.file("bundle.bin");
  export_model_bundle(path, e.data, e.prepared, *e.model);
  const ModelBundle restored = load_model_bundle_file(path);
  expect_bit_identical(restored.model->predict_proba(e.prepared.test_x),
                       e.model->predict_proba(e.prepared.test_x));
  EXPECT_THROW(load_model_bundle_file("/nonexistent/bundle.bin"), Error);
}

TEST(ModelBundle, RefusesUnfittedModel) {
  const ServingEnv& e = env();
  const auto unfitted = make_model_factory("rf", kNumClasses, 1)(
      table4_optimum("rf", false));
  EXPECT_THROW(make_model_bundle(e.data, e.prepared, *unfitted), Error);
}

TEST(ModelBundle, RefusesUnfittedTransforms) {
  const ServingEnv& e = env();
  PreparedSplit bare;  // default transforms: never fitted
  bare.train_x = e.prepared.train_x;
  EXPECT_THROW(make_model_bundle(e.data, bare, *e.model), Error);
}

TEST(ModelBundle, RejectsWrongMagic) {
  std::string bytes = env().bundle_bytes;
  bytes[0] ^= 0x01;
  EXPECT_THROW(load_from_bytes(bytes), Error);
}

TEST(ModelBundle, RejectsUnsupportedVersion) {
  std::string bytes = env().bundle_bytes;
  bytes[8] = static_cast<char>(0x7E);  // version u64 little-endian low byte
  try {
    load_from_bytes(bytes);
    FAIL() << "corrupt version accepted";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("version"), std::string::npos);
  }
}

TEST(ModelBundle, RejectsTruncationAtEveryStage) {
  const std::string& bytes = env().bundle_bytes;
  ASSERT_GT(bytes.size(), 64u);
  for (const std::size_t cut :
       {std::size_t{4}, std::size_t{12}, bytes.size() / 4, bytes.size() / 2,
        (3 * bytes.size()) / 4, bytes.size() - 9, bytes.size() - 1}) {
    EXPECT_THROW(load_from_bytes(bytes.substr(0, cut)), Error)
        << "cut at " << cut << " of " << bytes.size();
  }
}

TEST(ModelBundle, RejectsBitFlippedLengthPrefix) {
  // Corrupt the length prefix of the first feature-name string to a value
  // far beyond the archive size: the hardened reader must reject it before
  // attempting the allocation.
  const ServingEnv& e = env();
  std::string bytes = e.bundle_bytes;
  const std::string& first_name = e.data.features.names.front();
  const std::size_t at = bytes.find(first_name);
  ASSERT_NE(at, std::string::npos);
  ASSERT_GE(at, 8u);
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[at - 8 + b] = static_cast<char>(0xFF);
  }
  try {
    load_from_bytes(bytes);
    FAIL() << "oversized length prefix accepted";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("offset"), std::string::npos)
        << err.what();
  }
}

// ------------------------------------------------ ArchiveReader limits ---

TEST(ArchiveReader, HugeLengthsRejectedBeforeAllocation) {
  const auto corrupt_stream = [](std::uint64_t fake_len) {
    auto ss = std::make_unique<std::stringstream>(
        std::ios::in | std::ios::out | std::ios::binary);
    ArchiveWriter w(*ss);
    w.write_u64(fake_len);
    w.write_double(1.0);  // a few real bytes, far fewer than claimed
    return ss;
  };
  {
    auto ss = corrupt_stream(1ULL << 60);
    ArchiveReader r(*ss);
    EXPECT_THROW(r.read_doubles(), Error);
  }
  {
    auto ss = corrupt_stream(1ULL << 60);
    ArchiveReader r(*ss);
    EXPECT_THROW(r.read_string(), Error);
  }
  {
    auto ss = corrupt_stream(1ULL << 60);
    ArchiveReader r(*ss);
    EXPECT_THROW(r.read_ints(), Error);
  }
  {
    // read_matrix: rows * cols would overflow 64 bits entirely.
    auto ss = std::make_unique<std::stringstream>(
        std::ios::in | std::ios::out | std::ios::binary);
    ArchiveWriter w(*ss);
    w.write_u64(1ULL << 40);
    w.write_u64(1ULL << 40);
    ArchiveReader r(*ss);
    EXPECT_THROW(r.read_matrix(), Error);
  }
}

TEST(ArchiveReader, ErrorNamesTheOffendingOffset) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ArchiveWriter w(ss);
  w.write_u64(123456789);  // claims ~1 GB of doubles; stream has none
  ArchiveReader r(ss);
  try {
    r.read_doubles();
    FAIL() << "oversized vector accepted";
  } catch (const Error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_NE(what.find("123456789"), std::string::npos) << what;
  }
}

// ----------------------------------------------------- DiagnosisService ---

TEST(DiagnosisService, BitIdenticalToOfflinePipeline) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 4, 777);

  // The same windows again with faults injected: a NaN burst, a +inf and a
  // -inf cell, a stuck metric, and on every fourth window a metric that is
  // never reported at all.
  std::vector<Sample> faulted = samples;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    Matrix& w = faulted[i].series;
    const std::size_t rows = w.rows();
    const std::size_t m = w.cols();
    for (std::size_t r = rows / 3; r < rows / 3 + 8 && r < rows; ++r) {
      w(r, (3 * i) % m) = kNaN;
    }
    w(rows / 2, (5 * i + 1) % m) = kInf;
    w(rows / 2 + 1, (5 * i + 2) % m) = -kInf;
    const std::size_t stuck = (7 * i + 4) % m;
    for (std::size_t r = 1; r < rows; ++r) w(r, stuck) = w(0, stuck);
    if (i % 4 == 0) {
      for (std::size_t r = 0; r < rows; ++r) w(r, (11 * i + 6) % m) = kNaN;
    }
  }

  const std::vector<Sample>* const sets[] = {&samples, &faulted};
  for (const std::vector<Sample>* set : sets) {
    std::vector<Matrix> windows;
    for (const Sample& s : *set) windows.push_back(s.series);

    // One diagnose call per window (a batch of one, the small-batch
    // kernel) against the offline pipeline's whole-matrix predict, forced
    // onto the block kernel: the test pins the two kernels to the same
    // bits end to end.
    DiagnosisService service(load_from_bytes(e.bundle_bytes));
    std::vector<Diagnosis> diagnoses;
    for (const Matrix& w : windows) diagnoses.push_back(service.diagnose(w));
    const std::size_t cutoff = CompiledTreePredictor::set_small_batch_cutoff(0);
    const Matrix reference = offline_probs(e, *set);
    CompiledTreePredictor::set_small_batch_cutoff(cutoff);

    const char* kind = set == &samples ? "clean" : "faulted";
    ASSERT_EQ(diagnoses.size(), windows.size());
    for (std::size_t i = 0; i < diagnoses.size(); ++i) {
      ASSERT_EQ(diagnoses[i].probs.size(),
                static_cast<std::size_t>(kNumClasses));
      EXPECT_EQ(diagnoses[i].label, argmax_label(reference.row(i)))
          << kind << " window " << i;
      for (std::size_t c = 0; c < diagnoses[i].probs.size(); ++c) {
        const double want = reference(i, c);
        EXPECT_EQ(std::memcmp(&diagnoses[i].probs[c], &want, sizeof want), 0)
            << kind << " window " << i << " class " << c;
      }
      EXPECT_EQ(diagnoses[i].confidence,
                diagnoses[i].probs[static_cast<std::size_t>(
                    diagnoses[i].label)]);
    }

    const ServingStats s = service.stats();
    EXPECT_EQ(s.windows, windows.size());
    EXPECT_GT(s.windows_per_second(), 0.0);
  }
}

// The single-window fast path (diagnose on the small-batch kernel) must be
// bit-identical to the batch path (the same call forced onto the block
// kernel) — same label, confidence, and probability bits.
TEST(DiagnosisService, SingleWindowFastPathMatchesBatchPath) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 993);
  DiagnosisService single(load_from_bytes(e.bundle_bytes));
  DiagnosisService batched(load_from_bytes(e.bundle_bytes));
  for (const Sample& s : samples) {
    const Diagnosis a = single.diagnose(s.series);
    const std::size_t cutoff = CompiledTreePredictor::set_small_batch_cutoff(0);
    const Diagnosis b = batched.diagnose(s.series);
    CompiledTreePredictor::set_small_batch_cutoff(cutoff);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.confidence, b.confidence);
    ASSERT_EQ(a.probs.size(), b.probs.size());
    for (std::size_t c = 0; c < a.probs.size(); ++c) {
      std::uint64_t ba = 0, bb = 0;
      std::memcpy(&ba, &a.probs[c], sizeof ba);
      std::memcpy(&bb, &b.probs[c], sizeof bb);
      EXPECT_EQ(ba, bb) << "probability bits differ at class " << c;
    }
  }
  EXPECT_EQ(single.stats().windows, samples.size());
  EXPECT_EQ(batched.stats().windows, samples.size());
}

// No content cache: a repeated window runs the whole pipeline again and
// gets the same answer bit for bit.
TEST(DiagnosisService, RepeatedWindowRunsThePipelineEveryTime) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 881);
  DiagnosisService service(load_from_bytes(e.bundle_bytes));

  const Diagnosis first = service.diagnose(samples[0].series);
  const double extract_once = service.stats().extract_seconds;
  EXPECT_GT(extract_once, 0.0);
  const Diagnosis again = service.diagnose(samples[0].series);
  EXPECT_EQ(again.label, first.label);
  ASSERT_EQ(again.probs.size(), first.probs.size());
  for (std::size_t c = 0; c < first.probs.size(); ++c) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &first.probs[c], sizeof a);
    std::memcpy(&b, &again.probs[c], sizeof b);
    EXPECT_EQ(a, b) << "probability bits differ at class " << c;
  }

  const ServingStats s = service.stats();
  EXPECT_EQ(s.windows, 2u);
  EXPECT_GT(s.extract_seconds, extract_once);  // the repeat extracted too

  service.reset_stats();
  EXPECT_EQ(service.stats().windows, 0u);
}

TEST(DiagnosisService, InfiniteCellsServeLikeMissingOnes) {
  // The wire carries readings bit-exact, so a window can hold ±inf. In
  // every metric: two +inf counter readings in a row, or a gauge gap
  // +inf, NaN, -inf. The verdict must equal the one for the same cells
  // set to NaN (missing).
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 884);
  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix with_inf = samples[0].series;
  Matrix with_nan = with_inf;
  for (std::size_t j = 0; j < with_inf.cols(); ++j) {
    if (service.registry().metric(j).kind == MetricKind::Counter) {
      with_inf(10, j) = with_inf(11, j) = inf;
      with_nan(10, j) = with_nan(11, j) = nan;
    } else {
      with_inf(10, j) = inf;
      with_inf(11, j) = nan;
      with_inf(12, j) = -inf;
      with_nan(10, j) = with_nan(11, j) = with_nan(12, j) = nan;
    }
  }
  const Diagnosis got = service.diagnose(with_inf);
  const Diagnosis want = service.diagnose(with_nan);
  EXPECT_EQ(got.label, want.label);
  EXPECT_EQ(got.probs, want.probs);
}

TEST(DiagnosisService, RejectsMalformedWindows) {
  const ServingEnv& e = env();
  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  // Wrong metric count.
  EXPECT_THROW(service.diagnose(Matrix(40, 3)), Error);
  // Too few timesteps for the configured trim.
  EXPECT_THROW(service.diagnose(Matrix(2, service.registry().size())), Error);
}

TEST(DiagnosisService, RejectsFeaturesItsExtractorDoesNotProduce) {
  const ServingEnv& e = env();
  const ModelBundle good = load_from_bytes(e.bundle_bytes);
  const auto sel = static_cast<std::size_t>(good.selected.at(0));
  const std::string metric = good.feature_names[sel].substr(
      0, good.feature_names[sel].rfind('|'));
  for (const std::string& bad :
       std::vector<std::string>{metric + "|no_such_feature",
                                "no_such_metric|mean", metric, "|mean",
                                metric + "|"}) {
    ModelBundle bundle = load_from_bytes(e.bundle_bytes);
    bundle.feature_names[sel] = bad;
    try {
      DiagnosisService service(std::move(bundle));
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what()).find("not produced"),
                std::string::npos)
          << err.what();
    }
  }
}

// A plan writes each extractor cell to one model column, so a bundle whose
// selected columns name the same cell twice is rejected.
TEST(DiagnosisService, RejectsACellSelectedTwice) {
  ModelBundle bundle = load_from_bytes(env().bundle_bytes);
  ASSERT_GE(bundle.selected.size(), 2u);
  const auto first = static_cast<std::size_t>(bundle.selected[0]);
  const auto second = static_cast<std::size_t>(bundle.selected[1]);
  bundle.feature_names[second] = bundle.feature_names[first];
  try {
    DiagnosisService service(std::move(bundle));
    ADD_FAILURE() << "accepted a cell selected twice";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("twice"), std::string::npos)
        << err.what();
  }
}

TEST(DiagnosisService, LabelNamesComeFromTheBundle) {
  DiagnosisService service(load_from_bytes(env().bundle_bytes));
  EXPECT_EQ(service.label_name(0), "healthy");
  EXPECT_EQ(service.label_name(kNumClasses - 1), "dial");
  EXPECT_THROW(service.label_name(-1), Error);
  EXPECT_THROW(service.label_name(kNumClasses), Error);
}

TEST(DiagnosisService, HashWindowDistinguishesContentAndShape) {
  Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  Matrix b = a;
  EXPECT_EQ(hash_window(a), hash_window(b));
  b(1, 1) = 4.0000000001;
  EXPECT_NE(hash_window(a), hash_window(b));
  const Matrix flat = Matrix::from_rows({{1.0, 2.0, 3.0, 4.0}});
  EXPECT_NE(hash_window(a), hash_window(flat));
}

// --------------------------------------------------------- ServingStats ---

TEST(ServingStats, PercentilesOnZeroAndOneSample) {
  EXPECT_DOUBLE_EQ(latency_percentile({}, 0.50), 0.0);
  EXPECT_DOUBLE_EQ(latency_percentile({}, 0.99), 0.0);
  const double one[] = {7.25};
  EXPECT_DOUBLE_EQ(latency_percentile(one, 0.0), 7.25);
  EXPECT_DOUBLE_EQ(latency_percentile(one, 0.50), 7.25);
  EXPECT_DOUBLE_EQ(latency_percentile(one, 0.99), 7.25);
  EXPECT_DOUBLE_EQ(latency_percentile(one, 1.0), 7.25);
  // Out-of-range quantiles clamp instead of indexing out of bounds.
  const double two[] = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(latency_percentile(two, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(latency_percentile(two, 1.5), 3.0);
}

// The one outcome window behind the host breaker and the service's
// latency percentiles.
TEST(ServingStats, OutcomeWindowWrapsAndSummarizesRetainedSamples) {
  OutcomeWindow window(4);
  // An empty window reports 0 for every summary, not NaN.
  EXPECT_EQ(window.size(), 0u);
  EXPECT_EQ(window.error_rate(), 0.0);
  EXPECT_EQ(window.percentile(&Outcome::total_ms, 0.99), 0.0);
  EXPECT_EQ(window.percentile(&Outcome::queue_ms, 0.50), 0.0);

  // Six pushes into four slots: samples 0 and 1 (both failed) are
  // overwritten, and the count stays at capacity.
  for (int i = 0; i < 6; ++i) {
    window.push(Outcome{.failed = i < 2 || i == 4,
                        .queue_ms = 0.5 * i,
                        .total_ms = 10.0 + i});
  }
  ASSERT_EQ(window.size(), 4u);
  std::vector<double> totals;
  std::vector<double> queues;
  for (const Outcome& o : window.samples()) {
    EXPECT_GE(o.total_ms, 12.0) << "an overwritten sample is still there";
    totals.push_back(o.total_ms);
    queues.push_back(o.queue_ms);
  }
  // Only sample 4 of the retained 2..5 failed.
  EXPECT_DOUBLE_EQ(window.error_rate(), 0.25);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(window.percentile(&Outcome::total_ms, q),
                     latency_percentile(totals, q));
    EXPECT_DOUBLE_EQ(window.percentile(&Outcome::queue_ms, q),
                     latency_percentile(queues, q));
  }

  // clear() as on DiagnosisService::reset_stats: nothing of the old window
  // survives, and the next push is the only sample.
  window.clear();
  EXPECT_EQ(window.size(), 0u);
  EXPECT_EQ(window.error_rate(), 0.0);
  window.push(Outcome{.failed = false, .queue_ms = 1.0, .total_ms = 3.0});
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window.error_rate(), 0.0);
  EXPECT_DOUBLE_EQ(window.percentile(&Outcome::total_ms, 0.99), 3.0);
  EXPECT_DOUBLE_EQ(window.percentile(&Outcome::queue_ms, 0.50), 1.0);

  EXPECT_THROW(OutcomeWindow(0), Error);
}

TEST(ServingStats, CountersAccumulateWithoutLoss) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 991);
  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  // Many calls: every window must land in the counters exactly once (the
  // repeats run the pipeline too), and the snapshot must agree with itself.
  constexpr std::uint64_t kWindows = 64;
  for (std::uint64_t i = 0; i < kWindows; ++i) {
    service.diagnose(samples[i % samples.size()].series);
  }
  const ServingStats s = service.stats();
  EXPECT_EQ(s.windows, kWindows);
  EXPECT_GE(s.total_seconds, s.predict_seconds);
  EXPECT_GT(s.latency_p99_ms, 0.0);
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);
  // Tail and floor order correctly: min <= p50 <= p99 <= p99.9.
  EXPECT_GE(s.latency_p999_ms, s.latency_p99_ms);
  EXPECT_GT(s.latency_min_ms, 0.0);
  EXPECT_LE(s.latency_min_ms, s.latency_p50_ms);
}

TEST(ServingStats, SnapshotIsConsistentUnderConcurrentDiagnose) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 992);
  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    ServingStats last;
    while (!stop.load()) {
      const ServingStats s = service.stats();
      // Snapshot invariants must hold at every instant, not just at rest:
      // the counters never run backwards and never exceed what was served.
      if (s.windows < last.windows || s.windows > 36) violations++;
      if (s.total_seconds < last.total_seconds) violations++;
      last = s;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        service.diagnose(samples[(t + i) % samples.size()].series);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop = true;
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(service.stats().windows, 36u);
}

// ------------------------------------------- wall-clock throughput ---

// The throughput regression: windows_per_second() used to divide by
// per-request time summed across workers, so concurrent serving reported
// a fraction of its real throughput. Sleeping in the extraction hook makes
// the overlap deterministic: 4 threads sleeping 5ms each overlap even on
// one core, so summed time must clearly exceed the wall-clock span.
TEST(ServingStats, ThroughputUsesWallClockSpanNotSummedWorkerTime) {
  const ServingEnv& e = env();
  constexpr int kThreads = 4;
  std::vector<std::vector<Matrix>> per_thread(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (const Sample& s : fresh_samples(e, 2, 900 + t)) {
      per_thread[t].push_back(s.series);
    }
  }

  ServingConfig serving;
  serving.extraction_hook = [](const Matrix&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  DiagnosisService service(load_from_bytes(e.bundle_bytes), serving);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Matrix& w : per_thread[t]) (void)service.diagnose(w);
    });
  }
  for (auto& th : threads) th.join();

  const ServingStats s = service.stats();
  EXPECT_GT(s.wall_seconds, 0.0);
  // All windows were distinct, so every request slept in extraction; the
  // summed time is ~4x the span when the threads overlap.
  EXPECT_LT(s.wall_seconds, 0.8 * s.total_seconds);
  EXPECT_DOUBLE_EQ(s.windows_per_second(),
                   static_cast<double>(s.windows) / s.wall_seconds);
  // The old computation would have under-reported throughput:
  EXPECT_GT(s.windows_per_second(),
            static_cast<double>(s.windows) / s.total_seconds);
}

TEST(ServingStats, HandBuiltSnapshotsFallBackToSummedTime) {
  ServingStats s;
  s.windows = 10;
  s.total_seconds = 2.0;
  EXPECT_DOUBLE_EQ(s.windows_per_second(), 5.0);  // no wall span recorded
  s.wall_seconds = 0.5;
  EXPECT_DOUBLE_EQ(s.windows_per_second(), 20.0);  // wall span wins
}

TEST(ServingStats, ResetClearsTheWallClockSpan) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 885);
  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  (void)service.diagnose(samples[0].series);
  EXPECT_GT(service.stats().wall_seconds, 0.0);
  service.reset_stats();
  EXPECT_DOUBLE_EQ(service.stats().wall_seconds, 0.0);
  (void)service.diagnose(samples[0].series);
  EXPECT_GT(service.stats().wall_seconds, 0.0);
}

// ------------------------------------------------------- atomic save ---

TEST(ModelBundle, SaveIsAtomicViaTempFileRename) {
  const ServingEnv& e = env();
  const ScopedTempDir dir;
  const std::string path = dir.file("bundle.bin");
  export_model_bundle(path, e.data, e.prepared, *e.model);
  // The temp file must be gone after a successful save...
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  // ...and the renamed-in-place file must be a loadable bundle.
  const ModelBundle restored = load_model_bundle_file(path);
  expect_bit_identical(restored.model->predict_proba(e.prepared.test_x),
                       e.model->predict_proba(e.prepared.test_x));
}

TEST(ModelBundle, SaveFailureCarriesErrno) {
  const ServingEnv& e = env();
  const ModelBundle bundle = load_from_bytes(e.bundle_bytes);
  try {
    save_model_bundle_file("/nonexistent_dir/bundle.bin", bundle);
    FAIL() << "save into a missing directory succeeded";
  } catch (const Error& err) {
    // The message must carry the OS reason, not just "cannot open".
    EXPECT_NE(std::string(err.what()).find("No such file or directory"),
              std::string::npos)
        << err.what();
  }
}

// The TSan target: concurrent diagnose/stats on one shared service must be
// race-free and answer every thread bit-identically.
TEST(DiagnosisService, ConcurrentDiagnoseIsThreadSafe) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 2, 884);
  std::vector<Matrix> windows;
  for (const Sample& s : samples) windows.push_back(s.series);

  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  std::vector<Diagnosis> reference;
  for (const Matrix& w : windows) reference.push_back(service.diagnose(w));

  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const std::size_t i =
            static_cast<std::size_t>(t + it) % windows.size();
        const Diagnosis d = service.diagnose(windows[i]);
        if (d.probs != reference[i].probs || d.label != reference[i].label) {
          mismatches.fetch_add(1);
        }
        if (it % 3 == 0) (void)service.stats();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServingStats s = service.stats();
  EXPECT_EQ(s.windows,
            static_cast<std::size_t>(kThreads * kIters) + windows.size());
}

}  // namespace
}  // namespace alba
