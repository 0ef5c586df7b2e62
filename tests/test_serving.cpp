// Tests for the serving layer: ModelBundle round-trips and corruption
// rejection, the hardened ArchiveReader length checks, the fitted
// transforms PreparedSplit exposes for export, and DiagnosisService
// bit-identity with the offline pipeline (plus its cache and its
// thread-safety contract — this file runs under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/csv.hpp"

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "ml/grid_search.hpp"
#include "ml/serialize.hpp"
#include "serving/diagnosis_service.hpp"
#include "serving/model_bundle.hpp"
#include "telemetry/run_generator.hpp"
#include "temp_dir.hpp"

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
  std::vector<Matrix> windows;
  for (const Sample& s : samples) windows.push_back(s.series);

  ServingConfig serving;
  serving.max_batch = 3;  // force several micro-batches
  DiagnosisService service(load_from_bytes(e.bundle_bytes), serving);
  const auto diagnoses = service.diagnose_batch(windows);
  const Matrix reference = offline_probs(e, samples);

  ASSERT_EQ(diagnoses.size(), windows.size());
  for (std::size_t i = 0; i < diagnoses.size(); ++i) {
    ASSERT_EQ(diagnoses[i].probs.size(),
              static_cast<std::size_t>(kNumClasses));
    EXPECT_EQ(diagnoses[i].label, argmax_label(reference.row(i)));
    for (std::size_t c = 0; c < diagnoses[i].probs.size(); ++c) {
      EXPECT_EQ(diagnoses[i].probs[c], reference(i, c))
          << "window " << i << " class " << c;
    }
    EXPECT_EQ(diagnoses[i].confidence,
              diagnoses[i].probs[static_cast<std::size_t>(
                  diagnoses[i].label)]);
  }

  const ServingStats s = service.stats();
  EXPECT_EQ(s.windows, windows.size());
  EXPECT_EQ(s.cache_misses, windows.size());  // all distinct, cold cache
  EXPECT_GT(s.windows_per_second(), 0.0);
}

TEST(DiagnosisService, CachesRepeatedWindows) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 881);
  DiagnosisService service(load_from_bytes(e.bundle_bytes));

  const Diagnosis first = service.diagnose(samples[0].series);
  EXPECT_FALSE(first.cache_hit);
  const Diagnosis again = service.diagnose(samples[0].series);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.label, first.label);
  EXPECT_EQ(again.probs, first.probs);

  const ServingStats s = service.stats();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);

  service.reset_stats();
  EXPECT_EQ(service.stats().requests, 0u);
}

TEST(DiagnosisService, DedupsIdenticalWindowsWithinABatch) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 882);
  ASSERT_GE(samples.size(), 2u);
  const std::vector<Matrix> windows{samples[0].series, samples[1].series,
                                    samples[0].series, samples[1].series};
  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  const auto out = service.diagnose_batch(windows);

  EXPECT_FALSE(out[0].cache_hit);
  EXPECT_FALSE(out[1].cache_hit);
  EXPECT_TRUE(out[2].cache_hit);
  EXPECT_TRUE(out[3].cache_hit);
  EXPECT_EQ(out[2].probs, out[0].probs);
  EXPECT_EQ(out[3].probs, out[1].probs);

  const ServingStats s = service.stats();
  EXPECT_EQ(s.cache_hits, 2u);    // the two intra-batch duplicates
  EXPECT_EQ(s.cache_misses, 2u);  // the two distinct windows
}

TEST(DiagnosisService, CacheCapacityZeroDisablesCaching) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 883);
  ServingConfig serving;
  serving.cache_capacity = 0;
  DiagnosisService service(load_from_bytes(e.bundle_bytes), serving);
  const Diagnosis first = service.diagnose(samples[0].series);
  const Diagnosis again = service.diagnose(samples[0].series);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(again.probs, first.probs);  // same answer, recomputed
}

TEST(DiagnosisService, RejectsMalformedWindows) {
  const ServingEnv& e = env();
  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  // Wrong metric count.
  EXPECT_THROW(service.diagnose(Matrix(40, 3)), Error);
  // Too few timesteps for the configured trim.
  EXPECT_THROW(service.diagnose(Matrix(2, service.registry().size())), Error);
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

TEST(ServingStats, CountersAccumulateWithoutLoss) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 991);
  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  // Many small requests: every request must land in the counters exactly
  // once, and the stats snapshot must agree with itself.
  constexpr std::uint64_t kRequests = 64;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    service.diagnose(samples[i % samples.size()].series);
  }
  const ServingStats s = service.stats();
  EXPECT_EQ(s.requests, kRequests);
  EXPECT_EQ(s.windows, kRequests);
  EXPECT_EQ(s.cache_hits + s.cache_misses, s.windows);
  EXPECT_EQ(s.cache_misses, samples.size());  // each distinct window once
  EXPECT_GE(s.total_seconds, s.predict_seconds);
  EXPECT_GT(s.latency_p99_ms, 0.0);
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);
  // Tail and floor order correctly: min <= p50 <= p99 <= p99.9.
  EXPECT_GE(s.latency_p999_ms, s.latency_p99_ms);
  EXPECT_GT(s.latency_min_ms, 0.0);
  EXPECT_LE(s.latency_min_ms, s.latency_p50_ms);
}

// The single-window fast path (diagnose) must be bit-identical to the
// micro-batch path (diagnose_batch of one) — same label, confidence, and
// probability bits — on fresh services so neither answers from cache.
TEST(DiagnosisService, SingleWindowFastPathMatchesBatchPath) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 993);
  DiagnosisService single(load_from_bytes(e.bundle_bytes));
  DiagnosisService batched(load_from_bytes(e.bundle_bytes));
  for (const Sample& s : samples) {
    const Diagnosis a = single.diagnose(s.series);
    const auto b = batched.diagnose_batch({&s.series, 1});
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a.label, b[0].label);
    ASSERT_EQ(a.probs.size(), b[0].probs.size());
    for (std::size_t c = 0; c < a.probs.size(); ++c) {
      std::uint64_t ba = 0, bb = 0;
      std::memcpy(&ba, &a.probs[c], sizeof ba);
      std::memcpy(&bb, &b[0].probs[c], sizeof bb);
      EXPECT_EQ(ba, bb) << "probability bits differ at class " << c;
    }
  }
  // The fast path populates the same cache: a repeat is a hit.
  EXPECT_TRUE(single.diagnose(samples[0].series).cache_hit);
  const ServingStats s = single.stats();
  EXPECT_EQ(s.requests, samples.size() + 1);
  EXPECT_EQ(s.cache_hits, 1u);
}

TEST(ServingStats, SnapshotIsConsistentUnderConcurrentDiagnose) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 992);
  DiagnosisService service(load_from_bytes(e.bundle_bytes));
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    while (!stop.load()) {
      const ServingStats s = service.stats();
      // Snapshot invariants must hold at every instant, not just at rest.
      if (s.cache_hits + s.cache_misses != s.windows) violations++;
      if (s.windows < s.requests) violations++;
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
  EXPECT_EQ(service.stats().requests, 36u);
}

TEST(ServingStats, CsvExporterMatchesRoundStatsConvention) {
  ServingStats a;
  a.requests = 3;
  a.windows = 5;
  a.cache_hits = 1;
  a.cache_misses = 4;
  a.total_seconds = 0.5;
  std::vector<std::pair<std::string, ServingStats>> rows;
  rows.emplace_back("batch=8/threads=2", a);
  rows.emplace_back("batch=32/threads=4", ServingStats{});
  std::ostringstream os;
  write_serving_stats_csv(os, rows);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, serving_stats_csv_header());
  // Header and rows agree on column count, and the label leads each row.
  const auto columns = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',') + 1;
  };
  const auto header_cols = columns(line);
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(columns(line), header_cols);
  EXPECT_EQ(line.rfind("batch=8/threads=2,", 0), 0u);
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(columns(line), header_cols);
  EXPECT_FALSE(std::getline(is, line));
}

// -------------------------------------------------------- WindowCache ---

Diagnosis labeled_diagnosis(int label) {
  Diagnosis d;
  d.label = label;
  d.confidence = 1.0;
  d.probs = {label == 0 ? 1.0 : 0.0, label == 0 ? 0.0 : 1.0};
  return d;
}

// The collision regression: two distinct windows sharing a 64-bit content
// hash must never be served each other's diagnosis. Real FNV collisions
// are infeasible to craft, so the cache is probed with synthetic keys.
TEST(WindowCache, HashCollisionIsAVerifiedMissNotAWrongAnswer) {
  WindowKey a{42, 4, 2, 111, 222};
  WindowKey b{42, 4, 2, 999, 222};  // same hash, different first cell
  ASSERT_FALSE(a.matches(b));

  WindowCache cache(8);
  cache.insert(a, labeled_diagnosis(0));
  Diagnosis out;
  ASSERT_TRUE(cache.lookup(a, out));
  EXPECT_EQ(out.label, 0);
  EXPECT_TRUE(out.cache_hit);

  // Before the fix this returned window a's diagnosis for window b.
  EXPECT_FALSE(cache.lookup(b, out));
  EXPECT_EQ(cache.collision_evictions(), 0u);

  // Inserting the collider evicts the disproved entry and counts it.
  cache.insert(b, labeled_diagnosis(1));
  EXPECT_EQ(cache.collision_evictions(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.lookup(b, out));
  EXPECT_EQ(out.label, 1);
  EXPECT_FALSE(cache.lookup(a, out));  // the evicted original
}

TEST(WindowCache, LruEvictionRespectsLookupRecency) {
  const WindowKey k1{1, 1, 1, 0, 0};
  const WindowKey k2{2, 1, 1, 0, 0};
  const WindowKey k3{3, 1, 1, 0, 0};
  WindowCache cache(2);
  cache.insert(k1, labeled_diagnosis(0));
  cache.insert(k2, labeled_diagnosis(1));
  Diagnosis out;
  ASSERT_TRUE(cache.lookup(k1, out));  // refresh k1: k2 is now oldest
  cache.insert(k3, labeled_diagnosis(0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(k1, out));
  EXPECT_FALSE(cache.lookup(k2, out));
  EXPECT_TRUE(cache.lookup(k3, out));
  EXPECT_EQ(cache.collision_evictions(), 0u);  // capacity, not collision
}

TEST(WindowCache, CapacityZeroDropsEverything) {
  WindowCache cache(0);
  const WindowKey k{7, 1, 1, 0, 0};
  cache.insert(k, labeled_diagnosis(1));
  Diagnosis out;
  EXPECT_FALSE(cache.lookup(k, out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(WindowCache, WindowKeyCarriesShapeAndBoundaryCells) {
  Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const WindowKey k = window_key(m);
  EXPECT_EQ(k.rows, 2u);
  EXPECT_EQ(k.cols, 2u);
  EXPECT_EQ(k.hash, hash_window(m));
  EXPECT_TRUE(k.matches(window_key(m)));

  Matrix changed = m;
  changed(1, 1) = 5.0;  // last cell differs -> verifier differs too
  EXPECT_FALSE(k.matches(window_key(changed)));
  EXPECT_NE(k.last_bits, window_key(changed).last_bits);

  const WindowKey empty = window_key(Matrix(0, 0));
  EXPECT_EQ(empty.first_bits, 0u);
  EXPECT_EQ(empty.last_bits, 0u);
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

// ----------------------------------------------- CSV label escaping ---

// A sweep label with an embedded comma and quote must survive a full
// write -> parse round trip instead of shearing the columns.
TEST(ServingStats, CsvLabelsWithCommasSurviveParseBack) {
  ServingStats a;
  a.requests = 2;
  a.windows = 4;
  a.cache_misses = 4;
  a.total_seconds = 0.25;
  a.wall_seconds = 0.125;
  a.latency_p999_ms = 7.5;
  a.latency_min_ms = 0.25;
  const std::string tricky = "batch=8,threads=4,\"hot\" pool";
  std::vector<std::pair<std::string, ServingStats>> rows;
  rows.emplace_back(tricky, a);
  rows.emplace_back("plain", ServingStats{});

  const ScopedTempDir dir;
  const std::string path = dir.file("serving_stats.csv");
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    write_serving_stats_csv(out, rows);
  }
  const CsvTable table = read_csv(path);  // throws on ragged rows

  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0].size(), table.header.size());
  EXPECT_EQ(table.rows[0][table.column_index("label")], tricky);
  EXPECT_EQ(table.rows[0][table.column_index("windows")], "4");
  EXPECT_EQ(table.rows[0][table.column_index("wall_seconds")], "0.125000");
  EXPECT_EQ(table.rows[0][table.column_index("collision_evictions")], "0");
  EXPECT_EQ(table.rows[0][table.column_index("latency_p999_ms")], "7.5000");
  EXPECT_EQ(table.rows[0][table.column_index("latency_min_ms")], "0.2500");
  EXPECT_EQ(table.rows[1][table.column_index("label")], "plain");
}

// ---------------------------------------------------- fleet roll-up ---

TEST(ServingStats, MergeSumsCountersAndWeightsPercentilesByRequests) {
  ServingStats a;
  a.requests = 3;
  a.windows = 6;
  a.batches = 2;
  a.cache_hits = 1;
  a.cache_misses = 5;
  a.extract_seconds = 0.5;
  a.predict_seconds = 0.25;
  a.total_seconds = 1.0;
  a.wall_seconds = 2.0;
  a.latency_p50_ms = 10.0;
  a.latency_p99_ms = 20.0;
  a.latency_p999_ms = 40.0;
  a.latency_min_ms = 5.0;
  ServingStats b;
  b.requests = 1;
  b.windows = 1;
  b.batches = 1;
  b.cache_misses = 1;
  b.collision_evictions = 2;
  b.extract_seconds = 0.1;
  b.total_seconds = 0.2;
  b.wall_seconds = 3.0;  // replicas overlap: max, not sum
  b.latency_p50_ms = 2.0;
  b.latency_p99_ms = 4.0;
  b.latency_p999_ms = 8.0;
  b.latency_min_ms = 1.0;
  ServingStats idle;  // zero requests: must contribute nothing
  idle.latency_min_ms = 0.0;  // and must not drag the fleet minimum to 0

  const std::vector<ServingStats> parts{a, b, idle};
  const ServingStats m = merge_serving_stats(parts);
  EXPECT_EQ(m.requests, 4u);
  EXPECT_EQ(m.windows, 7u);
  EXPECT_EQ(m.batches, 3u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 6u);
  EXPECT_EQ(m.collision_evictions, 2u);
  EXPECT_DOUBLE_EQ(m.extract_seconds, 0.6);
  EXPECT_DOUBLE_EQ(m.predict_seconds, 0.25);
  EXPECT_DOUBLE_EQ(m.total_seconds, 1.2);
  EXPECT_DOUBLE_EQ(m.wall_seconds, 3.0);
  // Request-weighted: (3*10 + 1*2 + 0*anything) / 4.
  EXPECT_DOUBLE_EQ(m.latency_p50_ms, 8.0);
  EXPECT_DOUBLE_EQ(m.latency_p99_ms, 16.0);
  EXPECT_DOUBLE_EQ(m.latency_p999_ms, 32.0);  // (3*40 + 1*8) / 4
  // Min composes exactly: smallest over replicas that served requests,
  // so the idle replica's 0 does not leak in.
  EXPECT_DOUBLE_EQ(m.latency_min_ms, 1.0);

  // All-idle merge: no weight, percentiles stay 0 instead of NaN.
  const std::vector<ServingStats> idles{idle, idle};
  const ServingStats z = merge_serving_stats(idles);
  EXPECT_EQ(z.requests, 0u);
  EXPECT_DOUBLE_EQ(z.latency_p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(z.latency_p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(z.latency_p999_ms, 0.0);
  EXPECT_DOUBLE_EQ(z.latency_min_ms, 0.0);
}

// Per-replica rows plus the trailing fleet-aggregate row must survive an
// RFC-4180 round trip, tricky replica labels included.
TEST(ServingStats, FleetCsvParseBackIncludesAggregateRow) {
  ServingStats a;
  a.requests = 2;
  a.windows = 2;
  a.cache_hits = 1;
  a.cache_misses = 1;
  a.total_seconds = 0.5;
  a.latency_p50_ms = 4.0;
  a.latency_p99_ms = 8.0;
  a.latency_p999_ms = 16.0;
  a.latency_min_ms = 2.0;
  ServingStats b;
  b.requests = 6;
  b.windows = 6;
  b.cache_misses = 6;
  b.total_seconds = 0.25;
  b.latency_p50_ms = 1.0;
  b.latency_p99_ms = 2.0;
  b.latency_p999_ms = 4.0;
  b.latency_min_ms = 0.5;
  std::vector<std::pair<std::string, ServingStats>> replicas;
  replicas.emplace_back("replica=0,zone=\"a\"", a);  // comma + quote
  replicas.emplace_back("replica=1", b);

  const ScopedTempDir dir;
  const std::string path = dir.file("fleet_stats.csv");
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    write_fleet_serving_csv(out, replicas);
  }
  const CsvTable table = read_csv(path);  // throws on ragged rows

  ASSERT_EQ(table.rows.size(), 3u);  // 2 replicas + the fleet roll-up
  EXPECT_EQ(table.rows[0][table.column_index("label")],
            "replica=0,zone=\"a\"");
  EXPECT_EQ(table.rows[1][table.column_index("label")], "replica=1");
  EXPECT_EQ(table.rows[2][table.column_index("label")], "fleet");
  EXPECT_EQ(table.rows[2][table.column_index("requests")], "8");
  EXPECT_EQ(table.rows[2][table.column_index("windows")], "8");
  EXPECT_EQ(table.rows[2][table.column_index("cache_hits")], "1");
  // Weighted p50: (2*4 + 6*1) / 8 = 1.75.
  EXPECT_EQ(table.rows[2][table.column_index("latency_p50_ms")], "1.7500");
  // Weighted p99.9: (2*16 + 6*4) / 8 = 7; min: min(2.0, 0.5).
  EXPECT_EQ(table.rows[2][table.column_index("latency_p999_ms")], "7.0000");
  EXPECT_EQ(table.rows[2][table.column_index("latency_min_ms")], "0.5000");
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

// The TSan target: concurrent diagnose/diagnose_batch/stats on one shared
// service must be race-free and answer every thread bit-identically.
TEST(DiagnosisService, ConcurrentDiagnoseIsThreadSafe) {
  const ServingEnv& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 2, 884);
  std::vector<Matrix> windows;
  for (const Sample& s : samples) windows.push_back(s.series);

  // A 2-entry cache over 4 distinct windows keeps eviction, insertion, and
  // the extraction path all active under contention.
  ServingConfig serving;
  serving.cache_capacity = 2;
  DiagnosisService service(load_from_bytes(e.bundle_bytes), serving);
  const auto reference = service.diagnose_batch(windows);

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
  EXPECT_EQ(s.requests, static_cast<std::size_t>(kThreads * kIters) + 1);
  EXPECT_EQ(s.windows,
            static_cast<std::size_t>(kThreads * kIters) + windows.size());
}

}  // namespace
}  // namespace alba
