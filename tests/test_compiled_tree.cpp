// Tests for the compiled flat-SoA tree predictor (ml/compiled_tree.hpp):
// bit-identity of the compiled path against the reference object traversal
// for every tree model family under both split algorithms (with NaN
// telemetry mixed in), degenerate batch shapes, lifecycle rules (when
// compiled() must and must not exist), serialize/load recompilation, and
// cross-pool-size determinism via process re-execution.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/compiled_tree.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbm.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"

// Global operator new/delete replacement counting every heap allocation in
// the process, so tests can assert a region performs none (the no-scratch
// contract of the small-batch kernel and the arena'd block path). Delete is
// replaced alongside new so sanitizer builds see matched malloc/free pairs.
namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

// GCC pairs `new` expressions elsewhere in the binary with the free()
// inside these replacements and flags a mismatch it cannot see through;
// the pairing is correct because the replacement new allocates via malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace alba {
namespace {

// Restores the process-wide small-batch crossover on scope exit so tests
// forcing a variant cannot leak it into later tests.
class ScopedCutoff {
 public:
  explicit ScopedCutoff(std::size_t cutoff)
      : prev_(CompiledTreePredictor::set_small_batch_cutoff(cutoff)) {}
  ~ScopedCutoff() { CompiledTreePredictor::set_small_batch_cutoff(prev_); }
  ScopedCutoff(const ScopedCutoff&) = delete;
  ScopedCutoff& operator=(const ScopedCutoff&) = delete;

 private:
  std::size_t prev_;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Labeled synthetic data with NaN and infinite telemetry mixed in — the
// compiled path must agree with the reference on non-finite values too
// (both route left, the NaN-left rule).
struct Synth {
  Matrix x;
  std::vector<int> y;
};

Synth make_synth(std::size_t n, std::size_t f, std::uint64_t seed) {
  Rng rng(seed);
  Synth s;
  s.x = Matrix(n, f);
  for (std::size_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(i % 4);
    s.y.push_back(c);
    for (std::size_t j = 0; j < f; ++j) {
      const double u = rng.uniform();
      if (u < 0.02) {
        s.x(i, j) = kNaN;
        continue;
      }
      if (u < 0.03) {
        s.x(i, j) = (i + j) % 2 == 0 ? kInf : -kInf;
        continue;
      }
      const double signal =
          (j % 4 == static_cast<std::size_t>(c)) ? 0.7 : 0.0;
      s.x(i, j) = signal + 0.3 * rng.uniform();
    }
  }
  return s;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Bitwise equality, not EXPECT_DOUBLE_EQ: the contract is that the compiled
// path reproduces the reference traversal exactly, ULP for ULP.
void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(bits_of(a(i, j)), bits_of(b(i, j)))
          << "row " << i << " col " << j << ": " << a(i, j)
          << " != " << b(i, j);
    }
  }
}

// Exercises one fitted model: full-batch, gathered-rows, single-row, and
// empty-batch predictions must all match the reference traversal bit for
// bit, on training data and on unseen rows.
void check_against_reference(const Classifier& model, const Matrix& train_x,
                             const Matrix& test_x) {
  for (const Matrix* x : {&train_x, &test_x}) {
    const Matrix reference = model.predict_proba_reference(*x);
    expect_bit_identical(model.predict_proba(*x), reference);

    // Gathered subset, deliberately out of order and with a repeat.
    std::vector<std::size_t> rows;
    for (std::size_t i = x->rows(); i-- > 0;) {
      if (i % 3 == 0) rows.push_back(i);
    }
    if (!rows.empty()) rows.push_back(rows.front());
    Matrix gathered;
    model.predict_proba_rows(*x, rows, gathered);
    ASSERT_EQ(gathered.rows(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t c = 0; c < gathered.cols(); ++c) {
        ASSERT_EQ(bits_of(gathered(i, c)), bits_of(reference(rows[i], c)))
            << "gathered row " << i << " (x row " << rows[i] << ")";
      }
    }

    // Single-row batch.
    Matrix one(1, x->cols());
    for (std::size_t j = 0; j < x->cols(); ++j) one(0, j) = (*x)(0, j);
    const Matrix one_probs = model.predict_proba(one);
    for (std::size_t c = 0; c < one_probs.cols(); ++c) {
      ASSERT_EQ(bits_of(one_probs(0, c)), bits_of(reference(0, c)));
    }
  }

  // Empty batch: no rows, correct shape, no crash.
  const Matrix empty(0, train_x.cols());
  const Matrix empty_probs = model.predict_proba(empty);
  EXPECT_EQ(empty_probs.rows(), 0u);
  EXPECT_EQ(empty_probs.cols(),
            static_cast<std::size_t>(model.num_classes()));
  Matrix empty_gather;
  model.predict_proba_rows(train_x, {}, empty_gather);
  EXPECT_EQ(empty_gather.rows(), 0u);
}

// ------------------------------------------------- bit-identity matrix ---

// Trees and forests split exactly only; GBM runs both of its split finders
// here and in the other "BothSplitAlgos" tests.
TEST(CompiledTree, DecisionTreeMatchesReferenceBothSplitAlgos) {
  const Synth train = make_synth(240, 12, 11);
  const Synth test = make_synth(90, 12, 12);
  TreeConfig cfg;
  cfg.num_classes = 4;
  cfg.max_depth = 8;
  DecisionTree tree(cfg, 5);
  tree.fit(train.x, train.y);
  ASSERT_NE(tree.compiled(), nullptr);
  check_against_reference(tree, train.x, test.x);
}

TEST(CompiledTree, RandomForestMatchesReferenceBothSplitAlgos) {
  const Synth train = make_synth(240, 12, 21);
  const Synth test = make_synth(90, 12, 22);
  ForestConfig cfg;
  cfg.num_classes = 4;
  cfg.n_estimators = 14;
  cfg.max_depth = 7;
  RandomForest rf(cfg, 5);
  rf.fit(train.x, train.y);
  ASSERT_NE(rf.compiled(), nullptr);
  EXPECT_EQ(rf.compiled()->num_trees(), 14u);
  check_against_reference(rf, train.x, test.x);
}

TEST(CompiledTree, GbmMatchesReferenceBothSplitAlgos) {
  const Synth train = make_synth(240, 12, 31);
  const Synth test = make_synth(90, 12, 32);
  for (const auto algo : {SplitAlgo::Exact, SplitAlgo::Hist}) {
    GbmConfig cfg;
    cfg.num_classes = 4;
    cfg.n_estimators = 7;
    cfg.num_leaves = 15;
    cfg.split_algo = algo;
    GbmClassifier gbm(cfg, 5);
    gbm.fit(train.x, train.y);
    ASSERT_NE(gbm.compiled(), nullptr);
    // One tree per class per round.
    EXPECT_EQ(gbm.compiled()->num_trees(), gbm.num_rounds() * 4u);
    check_against_reference(gbm, train.x, test.x);
  }
}

TEST(CompiledTree, AllNaNRowsRideLeftIdentically) {
  const Synth train = make_synth(160, 6, 41);
  ForestConfig cfg;
  cfg.num_classes = 4;
  cfg.n_estimators = 8;
  RandomForest rf(cfg, 7);
  rf.fit(train.x, train.y);
  ASSERT_NE(rf.compiled(), nullptr);
  Matrix x(3, 6, kNaN);
  for (std::size_t j = 0; j < 6; ++j) x(1, j) = kInf;
  for (std::size_t j = 0; j < 6; ++j) x(2, j) = -kInf;
  expect_bit_identical(rf.predict_proba(x), rf.predict_proba_reference(x));
}

// An Exact-trained forest grown without depth limits accumulates far more
// than 255 distinct thresholds per feature, forcing the uint16 code path;
// it must stay bit-identical too.
TEST(CompiledTree, WideCodePathStaysBitIdentical) {
  Rng rng(51);
  const std::size_t n = 900;
  Matrix x(n, 2);
  std::vector<int> y;
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y.push_back(static_cast<int>(
        (x(i, 0) + 0.3 * rng.normal() > 0.0 ? 1 : 0) +
        (x(i, 1) > 0.0 ? 2 : 0)));
  }
  ForestConfig cfg;
  cfg.num_classes = 4;
  cfg.n_estimators = 10;
  cfg.max_depth = -1;  // unlimited: each tree memorizes its bootstrap
  RandomForest rf(cfg, 9);
  rf.fit(x, y);
  ASSERT_NE(rf.compiled(), nullptr);
  EXPECT_TRUE(rf.compiled()->wide_codes());
  expect_bit_identical(rf.predict_proba(x), rf.predict_proba_reference(x));
}

// --------------------------------------------------- dispatch boundary ---

// Sweeps every batch size through the crossover (1..cutoff+1) with each
// kernel forced in turn; both must reproduce the reference object walk bit
// for bit on rows that include NaN/±inf telemetry.
void check_dispatch_boundary(const Classifier& model, const Matrix& x) {
  const Matrix reference = model.predict_proba_reference(x);
  const std::size_t sweep_end =
      std::min(CompiledTreePredictor::small_batch_cutoff() + 1, x.rows());
  for (std::size_t b = 1; b <= sweep_end; ++b) {
    Matrix xb(b, x.cols());
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) xb(i, j) = x(i, j);
    }
    Matrix small_probs, block_probs;
    {
      ScopedCutoff force_small(std::numeric_limits<std::size_t>::max());
      small_probs = model.predict_proba(xb);
    }
    {
      ScopedCutoff force_block(0);
      block_probs = model.predict_proba(xb);
    }
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t c = 0; c < reference.cols(); ++c) {
        ASSERT_EQ(bits_of(small_probs(i, c)), bits_of(reference(i, c)))
            << model.name() << " small kernel, batch " << b << " row " << i;
        ASSERT_EQ(bits_of(block_probs(i, c)), bits_of(reference(i, c)))
            << model.name() << " block kernel, batch " << b << " row " << i;
      }
    }
  }
}

TEST(CompiledTree, DispatchBoundarySweepAllFamiliesBothSplitAlgos) {
  const Synth train = make_synth(240, 12, 111);
  const Synth test = make_synth(40, 12, 112);
  TreeConfig tcfg;
  tcfg.num_classes = 4;
  tcfg.max_depth = 8;
  DecisionTree tree(tcfg, 5);
  tree.fit(train.x, train.y);
  ASSERT_NE(tree.compiled(), nullptr);
  check_dispatch_boundary(tree, test.x);

  ForestConfig fcfg;
  fcfg.num_classes = 4;
  fcfg.n_estimators = 9;
  fcfg.max_depth = 6;
  RandomForest rf(fcfg, 5);
  rf.fit(train.x, train.y);
  ASSERT_NE(rf.compiled(), nullptr);
  check_dispatch_boundary(rf, test.x);

  for (const auto algo : {SplitAlgo::Exact, SplitAlgo::Hist}) {
    GbmConfig gcfg;
    gcfg.num_classes = 4;
    gcfg.n_estimators = 5;
    gcfg.num_leaves = 15;
    gcfg.split_algo = algo;
    GbmClassifier gbm(gcfg, 5);
    gbm.fit(train.x, train.y);
    ASSERT_NE(gbm.compiled(), nullptr);
    check_dispatch_boundary(gbm, test.x);
  }
}

// Wide-code (uint16) models must stay bit-identical on the small kernel
// too — its thresh_ array bypasses codes entirely, so the width must not
// matter.
TEST(CompiledTree, WideCodeModelBitIdenticalOnBothKernels) {
  Rng rng(52);
  const std::size_t n = 900;
  Matrix x(n, 2);
  std::vector<int> y;
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y.push_back(static_cast<int>(
        (x(i, 0) + 0.3 * rng.normal() > 0.0 ? 1 : 0) +
        (x(i, 1) > 0.0 ? 2 : 0)));
  }
  ForestConfig cfg;
  cfg.num_classes = 4;
  cfg.n_estimators = 10;
  cfg.max_depth = -1;  // unlimited: >255 thresholds per feature
  RandomForest rf(cfg, 9);
  rf.fit(x, y);
  ASSERT_NE(rf.compiled(), nullptr);
  ASSERT_TRUE(rf.compiled()->wide_codes());
  Matrix probe(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    probe(i, 0) = x(i, 0);
    probe(i, 1) = x(i, 1);
  }
  probe(4, 0) = kNaN;
  probe(5, 1) = kInf;
  check_dispatch_boundary(rf, probe);
}

// ----------------------------------------------------------- allocation ---

// The small-batch kernel promises zero heap traffic, and the block path
// promises it at steady state (its per-thread arena grows once). Counted
// via the global operator new replacement above; the compiled predictor is
// driven directly so the thread pool's task machinery stays out of frame.
TEST(CompiledTreeAlloc, SmallBatchKernelNeverAllocates) {
  const Synth train = make_synth(240, 12, 121);
  ForestConfig fcfg;
  fcfg.num_classes = 4;
  fcfg.n_estimators = 10;
  fcfg.max_depth = 6;
  RandomForest rf(fcfg, 5);
  rf.fit(train.x, train.y);

  GbmConfig gcfg;
  gcfg.num_classes = 4;
  gcfg.n_estimators = 5;
  gcfg.num_leaves = 15;
  gcfg.split_algo = SplitAlgo::Hist;
  GbmClassifier gbm(gcfg, 5);
  gbm.fit(train.x, train.y);

  const auto crf = rf.compiled();
  const auto cgbm = gbm.compiled();
  ASSERT_NE(crf, nullptr);
  ASSERT_NE(cgbm, nullptr);

  ScopedCutoff force_small(std::numeric_limits<std::size_t>::max());
  Matrix x(1, 12);
  for (std::size_t j = 0; j < 12; ++j) x(0, j) = train.x(0, j);
  Matrix out(1, 4);
  crf->predict_range(x, 0, 1, out);  // not a warm-up: small needs none
  const std::size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    crf->predict_range(x, 0, 1, out);
    cgbm->predict_range(x, 0, 1, out);
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), before);
}

TEST(CompiledTreeAlloc, BlockPathAllocationFreeAtSteadyState) {
  const Synth train = make_synth(240, 12, 122);
  ForestConfig cfg;
  cfg.num_classes = 4;
  cfg.n_estimators = 10;
  cfg.max_depth = 6;
  RandomForest rf(cfg, 5);
  rf.fit(train.x, train.y);
  const auto compiled = rf.compiled();
  ASSERT_NE(compiled, nullptr);

  ScopedCutoff force_block(0);
  Matrix out(train.x.rows(), 4);
  // First call may grow this thread's arena; after that, nothing.
  compiled->predict_range(train.x, 0, train.x.rows(), out);
  const std::size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    compiled->predict_range(train.x, 0, train.x.rows(), out);
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), before);
}

// ------------------------------------------------------------ lifecycle ---

TEST(CompiledTree, FitOnTreesDoNotCarryACompiledPredictor) {
  const Synth train = make_synth(120, 6, 61);
  TreeConfig cfg;
  cfg.num_classes = 4;
  DecisionTree tree(cfg, 1);
  std::vector<std::size_t> all(train.x.rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  tree.fit_on(train.x, train.y, all);
  // Forest members predict through the forest-level ensemble; a per-member
  // compiled predictor would be dead weight (and, if stale, wrong).
  EXPECT_EQ(tree.compiled(), nullptr);
  // A subsequent full fit() builds one.
  tree.fit(train.x, train.y);
  EXPECT_NE(tree.compiled(), nullptr);
}

TEST(CompiledTree, RefitReplacesTheCompiledPredictor) {
  const Synth a = make_synth(150, 8, 71);
  const Synth b = make_synth(150, 8, 72);
  ForestConfig cfg;
  cfg.num_classes = 4;
  cfg.n_estimators = 5;
  RandomForest rf(cfg, 2);
  rf.fit(a.x, a.y);
  const auto first = rf.compiled();
  ASSERT_NE(first, nullptr);
  rf.fit(b.x, b.y);
  ASSERT_NE(rf.compiled(), nullptr);
  EXPECT_NE(rf.compiled(), first);  // not the stale pre-refit predictor
  expect_bit_identical(rf.predict_proba(b.x), rf.predict_proba_reference(b.x));
}

TEST(CompiledTree, LoadedModelsServeOnTheCompiledPath) {
  const Synth train = make_synth(200, 10, 81);
  ForestConfig fcfg;
  fcfg.num_classes = 4;
  fcfg.n_estimators = 9;
  fcfg.max_depth = 6;
  RandomForest rf(fcfg, 4);
  rf.fit(train.x, train.y);

  std::vector<GbmClassifier> gbms;
  gbms.reserve(2);
  for (const auto algo : {SplitAlgo::Exact, SplitAlgo::Hist}) {
    GbmConfig gcfg;
    gcfg.num_classes = 4;
    gcfg.n_estimators = 5;
    gcfg.num_leaves = 15;
    gcfg.split_algo = algo;
    gbms.emplace_back(gcfg, 4);
    gbms.back().fit(train.x, train.y);
  }

  for (const Classifier* model :
       {static_cast<const Classifier*>(&rf),
        static_cast<const Classifier*>(&gbms[0]),
        static_cast<const Classifier*>(&gbms[1])}) {
    std::stringstream buf;
    save_classifier(buf, *model);
    const auto loaded = load_classifier(buf);
    ASSERT_TRUE(loaded->fitted());
    if (const auto* lrf = dynamic_cast<const RandomForest*>(loaded.get())) {
      EXPECT_NE(lrf->compiled(), nullptr);
    } else if (const auto* lgbm =
                   dynamic_cast<const GbmClassifier*>(loaded.get())) {
      EXPECT_NE(lgbm->compiled(), nullptr);
    } else {
      FAIL() << "unexpected loaded type " << loaded->name();
    }
    expect_bit_identical(loaded->predict_proba(train.x),
                         model->predict_proba_reference(train.x));
  }
}

// -------------------------------------------- cross-pool-size identity ---

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Trains an exact forest and a Hist booster and hashes every probability
// bit pattern produced by the compiled batch path. Run directly it asserts
// the models work; run from the re-exec harness below it also prints the
// hash for the parent.
TEST(CompiledTreeThreads, ChildPredictAndHash) {
  const Synth train = make_synth(220, 16, 91);
  ForestConfig fcfg;
  fcfg.num_classes = 4;
  fcfg.n_estimators = 10;
  fcfg.max_depth = 6;
  RandomForest rf(fcfg, 6);
  rf.fit(train.x, train.y);

  GbmConfig gcfg;
  gcfg.num_classes = 4;
  gcfg.n_estimators = 5;
  gcfg.num_leaves = 15;
  gcfg.split_algo = SplitAlgo::Hist;
  GbmClassifier gbm(gcfg, 6);
  gbm.fit(train.x, train.y);

  ASSERT_NE(rf.compiled(), nullptr);
  ASSERT_NE(gbm.compiled(), nullptr);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const Classifier* model :
       {static_cast<const Classifier*>(&rf),
        static_cast<const Classifier*>(&gbm)}) {
    const Matrix probs = model->predict_proba(train.x);
    for (std::size_t i = 0; i < probs.rows(); ++i) {
      for (std::size_t c = 0; c < probs.cols(); ++c) {
        h = fnv1a(h, bits_of(probs(i, c)));
      }
    }
  }
  EXPECT_GT(accuracy(train.y, rf.predict(train.x)), 0.9);
  std::printf("COMPILED_HASH=%016llx\n", static_cast<unsigned long long>(h));
}

// predict_proba parallelizes over row chunks, and the pool is sized once
// per process — bit-identity across pool sizes needs fresh processes with
// ALBA_THREADS pinned, exactly like the training determinism test
// (TrainThreads in test_binning).
TEST(CompiledTreeThreads, PredictionsIdenticalAcrossPoolSizes) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) GTEST_SKIP() << "/proc/self/exe unavailable";
  self[len] = '\0';

  std::vector<std::string> hashes;
  for (const char* threads : {"1", "2", "8"}) {
    const std::string cmd =
        std::string("ALBA_THREADS=") + threads + " '" + self +
        "' --gtest_filter=CompiledTreeThreads.ChildPredictAndHash 2>/dev/null";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string hash;
    char line[512];
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
      const std::string s(line);
      const auto pos = s.find("COMPILED_HASH=");
      if (pos != std::string::npos) {
        hash = s.substr(pos + 14, 16);
      }
    }
    const int rc = pclose(pipe);
    ASSERT_EQ(rc, 0) << "child run with ALBA_THREADS=" << threads << " failed";
    ASSERT_EQ(hash.size(), 16u) << "child printed no hash";
    hashes.push_back(hash);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

}  // namespace
}  // namespace alba
