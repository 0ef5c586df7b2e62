// Tests for the feature quantizer behind GBM's SplitAlgo::Hist: edge
// placement (midpoints below the bin budget, quantiles above), the reserved
// NaN bin and code/edge consistency; and bit-identical training across
// thread-pool sizes for both feature codings — an exact forest over
// ExactRanks and a Hist booster over BinnedMatrix — via re-executing this
// binary with ALBA_THREADS pinned.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/binning.hpp"
#include "ml/gbm.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace alba {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Matrix column_matrix(const std::vector<double>& values) {
  Matrix x(values.size(), 1);
  for (std::size_t i = 0; i < values.size(); ++i) x(i, 0) = values[i];
  return x;
}

TEST(BinnedMatrix, ConstantColumnGetsOneFiniteBin) {
  const BinnedMatrix binned(column_matrix({3.5, 3.5, 3.5, 3.5}));
  EXPECT_EQ(binned.num_bins(0), 2);  // NaN bin + one finite bin
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(binned.code(i, 0), 1);
  EXPECT_DOUBLE_EQ(binned.upper_edge(0, 1), 3.5);
}

TEST(BinnedMatrix, AllNaNColumnHasNoFiniteBins) {
  const BinnedMatrix binned(column_matrix({kNaN, kNaN, kNaN}));
  EXPECT_EQ(binned.num_bins(0), 1);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(binned.code(i, 0), 0);
}

TEST(BinnedMatrix, FewDistinctValuesGetOneBinEachWithMidpointEdges) {
  // 4 distinct values over 8 rows: one bin per value, interior edges at
  // midpoints — the thresholds the exact splitter would produce.
  const BinnedMatrix binned(
      column_matrix({2.0, 1.0, 4.0, 1.0, 8.0, 2.0, 4.0, 8.0}));
  EXPECT_EQ(binned.num_bins(0), 5);
  EXPECT_DOUBLE_EQ(binned.upper_edge(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(binned.upper_edge(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(binned.upper_edge(0, 3), 6.0);
  EXPECT_DOUBLE_EQ(binned.upper_edge(0, 4), 8.0);
  const std::uint8_t expected[8] = {2, 1, 3, 1, 4, 2, 3, 4};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(binned.code(i, 0), expected[i]);
}

TEST(BinnedMatrix, NaNValuesMapToBinZero) {
  const BinnedMatrix binned(column_matrix(
      {1.0, kNaN, 2.0, std::numeric_limits<double>::infinity(), 3.0}));
  EXPECT_EQ(binned.code(1, 0), 0);
  EXPECT_EQ(binned.code(3, 0), 0);  // non-finite, not just NaN
  EXPECT_EQ(binned.code(0, 0), 1);
  EXPECT_EQ(binned.code(2, 0), 2);
  EXPECT_EQ(binned.code(4, 0), 3);
}

TEST(BinnedMatrix, ManyDistinctValuesStayWithinBudgetAndMonotone) {
  Rng rng(3);
  std::vector<double> values(600);
  for (auto& v : values) v = rng.uniform();
  const Matrix x = column_matrix(values);
  const BinnedMatrix binned(x);
  EXPECT_LE(binned.num_bins(0), BinnedMatrix::kMaxBins);
  EXPECT_GT(binned.num_bins(0), 100);  // 600 distinct values: near the cap
  // Codes are monotone in the raw value and consistent with the edges.
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (values[i] < values[j]) {
        ASSERT_LE(binned.code(i, 0), binned.code(j, 0));
      }
    }
    const int code = binned.code(i, 0);
    ASSERT_LE(values[i], binned.upper_edge(0, code));
    if (code > 1) {
      ASSERT_GT(values[i], binned.upper_edge(0, code - 1));
    }
  }
}

TEST(BinnedMatrix, SampledWideColumnIsDeterministic) {
  // 3000 rows exceeds the edge-sample cap, so cut points come from the
  // per-column deterministic subsample; two builds must agree exactly.
  Rng rng(9);
  std::vector<double> values(3000);
  for (auto& v : values) v = rng.normal();
  const Matrix x = column_matrix(values);
  const BinnedMatrix a(x);
  const BinnedMatrix b(x);
  ASSERT_EQ(a.num_bins(0), b.num_bins(0));
  for (int bin = 1; bin < a.num_bins(0); ++bin) {
    EXPECT_DOUBLE_EQ(a.upper_edge(0, bin), b.upper_edge(0, bin));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(a.code(i, 0), b.code(i, 0));
  }
  // Clamped values above the sampled max still land in the last bin.
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_GE(a.code(i, 0), 1);
    ASSERT_LT(a.code(i, 0), a.num_bins(0));
  }
}

TEST(BinnedMatrix, RejectsBadBinBudget) {
  const Matrix x = column_matrix({1.0, 2.0});
  EXPECT_THROW(BinnedMatrix(x, 1), Error);
  EXPECT_THROW(BinnedMatrix(x, BinnedMatrix::kMaxBins + 1), Error);
}

// ------------------------------------------- cross-pool-size identity ---

// Labeled synthetic data with some NaN telemetry mixed in.
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
      if (rng.uniform() < 0.02) {
        s.x(i, j) = kNaN;
        continue;
      }
      const double signal =
          (j % 4 == static_cast<std::size_t>(c)) ? 0.7 : 0.0;
      s.x(i, j) = signal + 0.3 * rng.uniform();
    }
  }
  return s;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Trains an exact forest and a Hist booster and hashes every probability
// bit pattern. 160 columns span three of the codings' 64-column blocks, so
// ExactRanks and BinnedMatrix code columns in parallel, and the forest
// fits its trees in parallel. Run directly it asserts the models work; run
// from the re-exec harness below it also prints the hash for the parent to
// compare.
TEST(TrainThreads, ChildFitAndHash) {
  const Synth train = make_synth(220, 160, 5);
  ForestConfig fcfg;
  fcfg.num_classes = 4;
  fcfg.n_estimators = 12;
  fcfg.max_depth = 6;
  RandomForest rf(fcfg, 3);
  rf.fit(train.x, train.y);

  GbmConfig gcfg;
  gcfg.num_classes = 4;
  gcfg.n_estimators = 6;
  gcfg.num_leaves = 15;
  gcfg.split_algo = SplitAlgo::Hist;
  GbmClassifier gbm(gcfg, 3);
  gbm.fit(train.x, train.y);

  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const Classifier* model :
       {static_cast<const Classifier*>(&rf),
        static_cast<const Classifier*>(&gbm)}) {
    const Matrix probs = model->predict_proba(train.x);
    for (std::size_t i = 0; i < probs.rows(); ++i) {
      for (std::size_t c = 0; c < probs.cols(); ++c) {
        h = fnv1a(h, std::bit_cast<std::uint64_t>(probs(i, c)));
      }
    }
  }
  EXPECT_GT(accuracy(train.y, rf.predict(train.x)), 0.9);
  EXPECT_GT(accuracy(train.y, gbm.predict(train.x)), 0.9);
  std::printf("TRAIN_HASH=%016llx\n", static_cast<unsigned long long>(h));
}

// The global pool is sized once per process, so cross-pool-size identity
// needs fresh processes: re-exec this binary with ALBA_THREADS pinned to
// 1 / 2 / 8 and compare the prediction hashes the child test prints.
TEST(TrainThreads, PredictionsIdenticalAcrossPoolSizes) {
  // popen runs through a shell, where /proc/self/exe would name the shell —
  // resolve the link to this binary's real path first.
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) GTEST_SKIP() << "/proc/self/exe unavailable";
  self[len] = '\0';

  std::vector<std::string> hashes;
  for (const char* threads : {"1", "2", "8"}) {
    const std::string cmd =
        std::string("ALBA_THREADS=") + threads + " '" + self +
        "' --gtest_filter=TrainThreads.ChildFitAndHash 2>/dev/null";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string hash;
    char line[512];
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
      const std::string s(line);
      const auto pos = s.find("TRAIN_HASH=");
      if (pos != std::string::npos) {
        hash = s.substr(pos + 11, 16);
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
