// Tests for the active-learning extensions: query-by-committee, density-
// weighted querying, batch-mode annotation, stream-based selective
// sampling, and the annotator-assist explanation module.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>

#include "active/committee.hpp"
#include "common/csv.hpp"
#include "active/explain.hpp"
#include "active/learner.hpp"
#include "active/stream.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace alba {
namespace {

struct Blobs {
  Matrix x;
  std::vector<int> y;
};

Blobs make_blobs(std::size_t per_class, double spread, std::uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {5.0, 5.0}, {0.0, 5.0}};
  Blobs blobs;
  blobs.x = Matrix(3 * per_class, 2);
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = static_cast<std::size_t>(c) * per_class + i;
      blobs.x(row, 0) = centers[c][0] + spread * rng.normal();
      blobs.x(row, 1) = centers[c][1] + spread * rng.normal();
      blobs.y.push_back(c);
    }
  }
  return blobs;
}

RandomForest make_prototype(std::uint64_t seed = 1) {
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 10;
  cfg.max_depth = 6;
  return RandomForest(cfg, seed);
}

// ------------------------------------------------------------ committee ---

TEST(Committee, MembersDifferAndConsensusIsValid) {
  const Blobs blobs = make_blobs(30, 1.5, 1);
  const RandomForest proto = make_prototype();
  Committee committee(proto, 4, 7);
  EXPECT_EQ(committee.size(), 4u);
  EXPECT_FALSE(committee.fitted());
  committee.fit(blobs.x, blobs.y);
  EXPECT_TRUE(committee.fitted());

  const Matrix consensus = committee.predict_proba(blobs.x);
  for (std::size_t i = 0; i < consensus.rows(); ++i) {
    double sum = 0.0;
    for (const double p : consensus.row(i)) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  // Members trained with different seeds: at least one probability differs.
  const Matrix p0 = committee.member(0).predict_proba(blobs.x);
  const Matrix p1 = committee.member(1).predict_proba(blobs.x);
  bool differ = false;
  for (std::size_t i = 0; i < p0.rows() && !differ; ++i) {
    for (std::size_t j = 0; j < p0.cols(); ++j) {
      if (p0(i, j) != p1(i, j)) differ = true;
    }
  }
  EXPECT_TRUE(differ);
}

TEST(Committee, DisagreementHigherOnAmbiguousPoints) {
  const Blobs blobs = make_blobs(50, 0.8, 2);
  const RandomForest proto = make_prototype();
  Committee committee(proto, 5, 3);
  committee.fit(blobs.x, blobs.y);

  // A point at a class centroid vs one equidistant between centroids.
  Matrix probe(2, 2);
  probe(0, 0) = 0.0;
  probe(0, 1) = 0.0;   // deep inside class 0
  probe(1, 0) = 2.5;
  probe(1, 1) = 2.5;   // between all three centroids
  const auto ve = committee.vote_entropy(probe);
  const auto kl = committee.consensus_kl(probe);
  EXPECT_LE(ve[0], ve[1]);
  EXPECT_LE(kl[0], kl[1] + 1e-9);
  EXPECT_GE(ve[1], 0.0);
  EXPECT_GE(kl[1], 0.0);
}

TEST(Committee, UnanimousVotesHaveZeroEntropy) {
  const Blobs blobs = make_blobs(40, 0.3, 4);  // trivially separable
  const RandomForest proto = make_prototype();
  Committee committee(proto, 3, 5);
  committee.fit(blobs.x, blobs.y);
  Matrix probe(1, 2);
  probe(0, 0) = 0.0;
  probe(0, 1) = 0.0;
  EXPECT_NEAR(committee.vote_entropy(probe)[0], 0.0, 1e-9);
}

TEST(Committee, RejectsTooSmall) {
  const RandomForest proto = make_prototype();
  EXPECT_THROW(Committee(proto, 1, 1), Error);
}

// --------------------------------------------------- scored / batch picks ---

TEST(ScoredSelection, ArgmaxAndBatch) {
  const std::vector<double> scores{0.3, 0.9, 0.1, 0.9, 0.5};
  EXPECT_EQ(select_query_scored(scores), 1u);  // first of the tied maxima
  const auto batch = select_query_batch(scores, 3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 1u);
  EXPECT_EQ(batch[1], 3u);
  EXPECT_EQ(batch[2], 4u);
  // k clamped.
  EXPECT_EQ(select_query_batch(scores, 99).size(), 5u);
  EXPECT_THROW(select_query_scored({}), Error);
}

TEST(ScoredSelection, NanScoresRankLast) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN compares false against everything, which used to hand the batch
  // comparator an invalid ordering (UB in std::partial_sort); non-finite
  // scores must deterministically lose instead.
  const std::vector<double> scores{nan, 0.5, nan, 0.1};
  const auto picks = select_query_batch(scores, 2);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], 1u);
  EXPECT_EQ(picks[1], 3u);
  EXPECT_EQ(select_query_scored(scores), 1u);

  // All-NaN pools still pick something valid (lowest tie-break key).
  const std::vector<double> all_nan{nan, nan, nan};
  EXPECT_EQ(select_query_scored(all_nan), 0u);
  const auto nan_picks = select_query_batch(all_nan, 2);
  ASSERT_EQ(nan_picks.size(), 2u);
  EXPECT_EQ(nan_picks[0], 0u);
  EXPECT_EQ(nan_picks[1], 1u);

  // Infinities: +inf wins, -inf loses.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_inf{-inf, 0.0, inf};
  EXPECT_EQ(select_query_scored(with_inf), 2u);
}

TEST(ScoredSelection, TieIdsOverridePositionTieBreak) {
  const std::vector<double> scores{0.7, 0.7, 0.7};
  const std::vector<std::size_t> ids{42, 9, 17};
  const auto picks = select_query_batch(scores, 2, ids);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], 1u);  // id 9
  EXPECT_EQ(picks[1], 2u);  // id 17
}

TEST(InformationDensity, SingleReferenceYieldsUniformDensities) {
  Rng rng(9);
  Matrix pool(20, 2);
  for (std::size_t i = 0; i < pool.rows(); ++i) {
    pool(i, 0) = rng.normal();
    pool(i, 1) = rng.normal();
  }
  // ref_cap = 1: the lone reference pairs with itself, so the bandwidth
  // estimate degenerates; the guard must return uniform densities rather
  // than collapsing every weight to ~0.
  const auto density = information_density(pool, 1, 3);
  ASSERT_EQ(density.size(), pool.rows());
  for (const double d : density) EXPECT_DOUBLE_EQ(d, 1.0);
}

TEST(InformationDensity, DenseRegionScoresHigher) {
  Rng rng(6);
  Matrix pool(101, 2);
  for (std::size_t i = 0; i < 100; ++i) {
    pool(i, 0) = rng.normal(0.0, 0.5);
    pool(i, 1) = rng.normal(0.0, 0.5);
  }
  pool(100, 0) = 50.0;  // extreme outlier
  pool(100, 1) = 50.0;
  const auto density = information_density(pool, 64, 7);
  ASSERT_EQ(density.size(), 101u);
  double mean_dense = 0.0;
  for (std::size_t i = 0; i < 100; ++i) mean_dense += density[i];
  mean_dense /= 100.0;
  EXPECT_LT(density[100], 0.2 * mean_dense);
  for (const double d : density) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0 + 1e-9);
  }
}

// ------------------------------------------------- learner with extensions ---

struct AlTask {
  LabeledData seed;
  Matrix pool_x;
  std::vector<int> pool_y;
  Matrix test_x;
  std::vector<int> test_y;
};

AlTask make_task(std::uint64_t seed_val) {
  Rng rng(seed_val);
  const double centers[3][2] = {{0.0, 0.0}, {5.0, 5.0}, {0.0, 5.0}};
  AlTask task;
  auto fill = [&](Matrix& m, std::size_t row, int c) {
    m(row, 0) = centers[c][0] + 0.9 * rng.normal();
    m(row, 1) = centers[c][1] + 0.9 * rng.normal();
  };
  for (int c = 1; c < 3; ++c) {
    for (int i = 0; i < 2; ++i) {
      Matrix tmp(1, 2);
      fill(tmp, 0, c);
      task.seed.append(tmp.row(0), c);
    }
  }
  task.pool_x = Matrix(150, 2);
  for (std::size_t i = 0; i < 150; ++i) {
    const int c = static_cast<int>(i % 3);
    fill(task.pool_x, i, c);
    task.pool_y.push_back(c);
  }
  task.test_x = Matrix(90, 2);
  for (std::size_t i = 0; i < 90; ++i) {
    const int c = static_cast<int>(i % 3);
    fill(task.test_x, i, c);
    task.test_y.push_back(c);
  }
  return task;
}

std::unique_ptr<Classifier> task_model(std::uint64_t seed_val) {
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 10;
  cfg.max_depth = 6;
  return std::make_unique<RandomForest>(cfg, seed_val);
}

class ExtensionStrategyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ExtensionStrategyTest, LearnsOnSyntheticTask) {
  AlTask task = make_task(11);
  ActiveLearnerConfig cfg;
  cfg.strategy = strategy_from_name(GetParam());
  cfg.max_queries = 25;
  cfg.committee_size = 3;
  cfg.seed = 5;
  ActiveLearner learner(task_model(1), cfg);
  LabelOracle oracle(task.pool_y, 3);
  const auto result = learner.run(task.seed, task.pool_x, oracle, {},
                                  task.test_x, task.test_y);
  EXPECT_EQ(result.queried.size(), 25u);
  EXPECT_GT(result.final_f1, 0.85) << GetParam();
  EXPECT_GT(result.final_f1, result.curve.front().f1) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Strategies, ExtensionStrategyTest,
                         ::testing::Values("vote_entropy", "consensus_kl",
                                           "density_weighted"));

TEST(BatchMode, SameBudgetFewerRounds) {
  AlTask task = make_task(12);
  ActiveLearnerConfig cfg;
  cfg.strategy = QueryStrategy::Uncertainty;
  cfg.max_queries = 24;
  cfg.batch_size = 6;
  ActiveLearner learner(task_model(2), cfg);
  LabelOracle oracle(task.pool_y, 3);
  const auto result = learner.run(task.seed, task.pool_x, oracle, {},
                                  task.test_x, task.test_y);
  // 24 labels in 4 rounds: curve has the seed point + 4 batch points.
  ASSERT_EQ(result.curve.size(), 5u);
  EXPECT_EQ(result.curve.back().queries, 24);
  EXPECT_EQ(result.queried.size(), 24u);
  std::set<std::size_t> distinct;
  for (const auto& q : result.queried) distinct.insert(q.pool_index);
  EXPECT_EQ(distinct.size(), 24u);
}

TEST(BatchMode, RandomBaselineBatchesToo) {
  AlTask task = make_task(13);
  ActiveLearnerConfig cfg;
  cfg.strategy = QueryStrategy::Random;
  cfg.max_queries = 20;
  cfg.batch_size = 5;
  ActiveLearner learner(task_model(3), cfg);
  LabelOracle oracle(task.pool_y, 3);
  const auto result = learner.run(task.seed, task.pool_x, oracle, {},
                                  task.test_x, task.test_y);
  EXPECT_EQ(result.queried.size(), 20u);
  std::set<std::size_t> distinct;
  for (const auto& q : result.queried) distinct.insert(q.pool_index);
  EXPECT_EQ(distinct.size(), 20u);
}

// ------------------------------------------- parallel/serial equivalence ---

struct RefResult {
  std::vector<std::size_t> queried;  // pool indices, in annotation order
  std::vector<double> f1s;           // per-round macro F1 (seed first)
};

// The learner's original serial algorithm, kept verbatim as a reference:
// copy the remaining rows every round, score the copy, pick with a
// position tie-break over the ascending candidate list, erase in
// descending position order. The production loop now scores index views
// in parallel with swap-remove bookkeeping; its picks and curves must stay
// bit-identical to this.
RefResult reference_run(std::unique_ptr<Classifier> model,
                        const ActiveLearnerConfig& cfg, const AlTask& task) {
  Rng rng(cfg.seed);
  LabeledData labeled = task.seed;
  const bool use_committee = strategy_uses_committee(cfg.strategy);
  std::unique_ptr<Committee> committee;
  if (use_committee) {
    committee = std::make_unique<Committee>(*model, cfg.committee_size,
                                            cfg.seed ^ 0xC0117EE);
  }
  std::vector<double> density;
  if (cfg.strategy == QueryStrategy::DensityWeighted) {
    density = information_density(task.pool_x, cfg.density_ref_cap,
                                  cfg.seed ^ 0xDE4517);
  }
  std::vector<std::size_t> remaining(task.pool_x.rows());
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});

  auto refit = [&] {
    if (use_committee) {
      committee->fit(labeled.x, labeled.y);
    } else {
      model->fit(labeled.x, labeled.y);
    }
  };
  LabelOracle oracle(task.pool_y, 3);
  RefResult result;
  auto eval_now = [&] {
    const auto pred = use_committee ? committee->predict(task.test_x)
                                    : model->predict(task.test_x);
    result.f1s.push_back(evaluate(task.test_y, pred, 3).macro_f1);
  };
  refit();
  eval_now();

  int labels_used = 0;
  while (labels_used < cfg.max_queries && !remaining.empty()) {
    const Matrix remaining_x = task.pool_x.select_rows(remaining);
    const std::size_t batch = std::min<std::size_t>(
        {static_cast<std::size_t>(cfg.batch_size), remaining.size(),
         static_cast<std::size_t>(cfg.max_queries - labels_used)});

    std::vector<std::size_t> picks;
    if (use_committee) {
      const auto scores = cfg.strategy == QueryStrategy::VoteEntropy
                              ? committee->vote_entropy(remaining_x)
                              : committee->consensus_kl(remaining_x);
      picks = select_query_batch(scores, batch);
    } else if (cfg.strategy == QueryStrategy::DensityWeighted) {
      const Matrix probs = model->predict_proba(remaining_x);
      std::vector<double> scores(remaining.size());
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        scores[i] = uncertainty_score(probs.row(i)) *
                    std::pow(density[remaining[i]], cfg.density_beta);
      }
      picks = select_query_batch(scores, batch);
    } else if (strategy_uses_model(cfg.strategy)) {
      const Matrix probs = model->predict_proba(remaining_x);
      if (batch == 1) {
        picks.push_back(select_query(cfg.strategy, probs, {},
                                     remaining.size(), labels_used, 0, rng));
      } else {
        std::vector<double> scores(remaining.size());
        for (std::size_t i = 0; i < remaining.size(); ++i) {
          const auto row = probs.row(i);
          if (cfg.strategy == QueryStrategy::Uncertainty) {
            scores[i] = uncertainty_score(row);
          } else if (cfg.strategy == QueryStrategy::Margin) {
            scores[i] = -margin_score(row);
          } else {
            scores[i] = entropy_score(row);
          }
        }
        picks = select_query_batch(scores, batch);
      }
    } else {  // Random
      std::vector<bool> taken(remaining.size(), false);
      for (std::size_t b = 0; b < batch; ++b) {
        std::size_t pos;
        do {
          pos = select_query(cfg.strategy, Matrix(), {}, remaining.size(),
                             labels_used + static_cast<int>(b), 0, rng);
        } while (taken[pos]);
        taken[pos] = true;
        picks.push_back(pos);
      }
    }

    std::sort(picks.begin(), picks.end(), std::greater<>());
    for (const std::size_t pos : picks) {
      const std::size_t pool_index = remaining[pos];
      const int label = oracle.annotate(pool_index);
      result.queried.push_back(pool_index);
      labeled.append(task.pool_x.row(pool_index), label);
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    labels_used += static_cast<int>(picks.size());
    refit();
    eval_now();
  }
  return result;
}

// Integers only, with no padding: gtest lists a parameter that has no
// printer by its raw bytes, and ctest registers each case under that listing.
// A pointer (or uninitialised padding) would change the names on every build.
struct EquivCase {
  std::int64_t strategy;  // a QueryStrategy
  std::int64_t batch;
};

constexpr EquivCase equiv(QueryStrategy strategy, std::int64_t batch) {
  return {static_cast<std::int64_t>(strategy), batch};
}

std::string_view equiv_name(const EquivCase& c) {
  return strategy_name(static_cast<QueryStrategy>(c.strategy));
}

class LoopEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(LoopEquivalenceTest, MatchesSerialReference) {
  const EquivCase& c = GetParam();
  const AlTask task = make_task(21);
  ActiveLearnerConfig cfg;
  cfg.strategy = static_cast<QueryStrategy>(c.strategy);
  cfg.max_queries = 15;
  cfg.batch_size = static_cast<int>(c.batch);
  cfg.committee_size = 3;
  cfg.seed = 29;

  const RefResult expected = reference_run(task_model(8), cfg, task);

  ActiveLearner learner(task_model(8), cfg);
  LabelOracle oracle(task.pool_y, 3);
  const auto result = learner.run(task.seed, task.pool_x, oracle, {},
                                  task.test_x, task.test_y);

  ASSERT_EQ(result.queried.size(), expected.queried.size()) << equiv_name(c);
  for (std::size_t i = 0; i < expected.queried.size(); ++i) {
    EXPECT_EQ(result.queried[i].pool_index, expected.queried[i])
        << equiv_name(c) << " query " << i;
  }
  ASSERT_EQ(result.curve.size(), expected.f1s.size()) << equiv_name(c);
  for (std::size_t i = 0; i < expected.f1s.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.curve[i].f1, expected.f1s[i])
        << equiv_name(c) << " round " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, LoopEquivalenceTest,
    ::testing::Values(equiv(QueryStrategy::Uncertainty, 1),
                      equiv(QueryStrategy::Uncertainty, 4),
                      equiv(QueryStrategy::Margin, 1),
                      equiv(QueryStrategy::Entropy, 1),
                      equiv(QueryStrategy::DensityWeighted, 2),
                      equiv(QueryStrategy::VoteEntropy, 2),
                      equiv(QueryStrategy::ConsensusKl, 1),
                      equiv(QueryStrategy::Random, 3)),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      return std::string(equiv_name(info.param)) + "_b" +
             std::to_string(info.param.batch);
    });

// ---------------------------------------------------------- round stats ---

TEST(RoundStats, InstrumentationMatchesTheLoop) {
  const AlTask task = make_task(22);
  ActiveLearnerConfig cfg;
  cfg.strategy = QueryStrategy::Uncertainty;
  cfg.max_queries = 12;
  cfg.batch_size = 4;
  cfg.seed = 3;
  ActiveLearner learner(task_model(9), cfg);
  LabelOracle oracle(task.pool_y, 3);
  const auto result = learner.run(task.seed, task.pool_x, oracle, {},
                                  task.test_x, task.test_y);

  // Seed fit + one entry per query round, aligned with the curve.
  ASSERT_EQ(result.rounds.size(), result.curve.size());
  ASSERT_EQ(result.rounds.size(), 4u);  // seed + 3 rounds of 4
  EXPECT_EQ(result.rounds.front().round, 0);
  EXPECT_EQ(result.rounds.front().batch, 0u);
  EXPECT_EQ(result.rounds.front().labels_total, 0);
  EXPECT_EQ(result.rounds.front().pool_size, task.pool_x.rows());
  EXPECT_DOUBLE_EQ(result.rounds.front().score_seconds, 0.0);

  std::size_t labeled_so_far = 0;
  for (std::size_t i = 1; i < result.rounds.size(); ++i) {
    const RoundStats& r = result.rounds[i];
    EXPECT_EQ(r.round, static_cast<int>(i));
    EXPECT_EQ(r.batch, 4u);
    EXPECT_EQ(r.pool_size, task.pool_x.rows() - labeled_so_far);
    labeled_so_far += r.batch;
    EXPECT_EQ(r.labels_total, static_cast<int>(labeled_so_far));
    EXPECT_EQ(r.labels_total, result.curve[i].queries);
    EXPECT_GE(r.score_seconds, 0.0);
    EXPECT_GE(r.refit_seconds, 0.0);
    EXPECT_GE(r.eval_seconds, 0.0);
  }

  const RoundStatsSummary summary = summarize_rounds(result.rounds);
  EXPECT_EQ(summary.rounds, result.rounds.size());
  EXPECT_GT(summary.refit_seconds, 0.0);
  EXPECT_GE(summary.total_seconds(),
            summary.score_seconds + summary.refit_seconds);

  // CSV round-trips the same number of rows.
  const std::string header = round_stats_csv_header();
  EXPECT_NE(header.find("score_seconds"), std::string::npos);
  const std::string row = round_stats_csv_row("test", result.rounds.back());
  EXPECT_EQ(row.rfind("test,", 0), 0u);
}

// Sweep labels carry free-form configuration text; an embedded comma or
// quote must be RFC-4180-quoted so the file parses back column-true.
TEST(RoundStats, CsvLabelsWithCommasSurviveParseBack) {
  RoundStats r;
  r.round = 2;
  r.labels_total = 8;
  r.pool_size = 90;
  r.batch = 4;
  const std::string tricky = "batch=4,threads=2,\"warm\"";
  const std::vector<RoundStats> rounds{r};

  const ScopedTempDir dir;
  const std::string path = dir.file("round_stats.csv");
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    write_round_stats_csv(out, tricky, rounds);
  }
  const CsvTable table = read_csv(path);  // throws on ragged rows

  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0].size(), table.header.size());
  EXPECT_EQ(table.rows[0][table.column_index("label")], tricky);
  EXPECT_EQ(table.rows[0][table.column_index("round")], "2");
  EXPECT_EQ(table.rows[0][table.column_index("batch")], "4");
}

// --------------------------------------------------------------- stream ---

TEST(StreamSampler, QueriesOnlyUncertainItems) {
  AlTask task = make_task(14);
  StreamSamplerConfig cfg;
  cfg.uncertainty_threshold = 0.4;
  cfg.max_queries = 100;
  StreamSampler sampler(task_model(4), cfg);
  LabelOracle oracle(task.pool_y, 3);
  const auto result =
      sampler.run(task.seed, task.pool_x, oracle, task.test_x, task.test_y);
  EXPECT_EQ(result.seen, task.pool_x.rows());
  EXPECT_GT(result.queried, 0u);
  EXPECT_LT(result.queried, result.seen);  // selective, not exhaustive
  EXPECT_EQ(result.queried, oracle.queries_answered());
  EXPECT_GT(result.final_f1, result.curve.front().f1);
}

TEST(StreamSampler, BudgetStopsQuerying) {
  AlTask task = make_task(15);
  StreamSamplerConfig cfg;
  cfg.uncertainty_threshold = 0.05;  // nearly everything looks uncertain
  cfg.max_queries = 7;
  StreamSampler sampler(task_model(5), cfg);
  LabelOracle oracle(task.pool_y, 3);
  const auto result =
      sampler.run(task.seed, task.pool_x, oracle, task.test_x, task.test_y);
  EXPECT_EQ(result.queried, 7u);
}

TEST(StreamSampler, AdaptiveThresholdMoves) {
  AlTask task = make_task(16);
  StreamSamplerConfig cfg;
  cfg.uncertainty_threshold = 0.3;
  cfg.adapt_rate = 0.05;
  cfg.max_queries = 50;
  StreamSampler sampler(task_model(6), cfg);
  LabelOracle oracle(task.pool_y, 3);
  const auto result =
      sampler.run(task.seed, task.pool_x, oracle, task.test_x, task.test_y);
  EXPECT_NE(result.final_threshold, cfg.uncertainty_threshold);
}

TEST(StreamSampler, RejectsBadConfig) {
  StreamSamplerConfig bad;
  bad.uncertainty_threshold = 0.0;
  EXPECT_THROW(StreamSampler(task_model(7), bad), Error);
}

// -------------------------------------------------------------- explain ---

TEST(QueryExplainer, FlagsTheDeviantFeature) {
  Rng rng(17);
  LabeledData labeled;
  for (int i = 0; i < 40; ++i) {
    std::vector<double> row{rng.normal(1.0, 0.1), rng.normal(5.0, 0.1),
                            rng.normal(-2.0, 0.1)};
    labeled.append(row, 0);  // healthy
  }
  QueryExplainer explainer(labeled, {"cpu|mean", "net|mean", "mem|slope"});
  EXPECT_EQ(explainer.healthy_samples(), 40u);

  const std::vector<double> sample{1.0, 5.0, 30.0};  // mem|slope exploded
  const auto top = explainer.top_features(sample, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].feature, "mem|slope");
  EXPECT_GT(std::abs(top[0].z), 10.0);
  EXPECT_GT(std::abs(top[0].z), std::abs(top[1].z));
}

TEST(QueryExplainer, MetricAggregation) {
  Rng rng(18);
  LabeledData labeled;
  for (int i = 0; i < 30; ++i) {
    std::vector<double> row{rng.normal(0.0, 0.1), rng.normal(0.0, 0.1),
                            rng.normal(0.0, 0.1), rng.normal(0.0, 0.1)};
    labeled.append(row, 0);
  }
  QueryExplainer explainer(
      labeled, {"cpu|mean", "cpu|std", "net|mean", "net|std"});
  const std::vector<double> sample{9.0, 9.0, 0.0, 0.0};  // cpu features off
  const auto metrics = explainer.top_metrics(sample, 2);
  ASSERT_GE(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].metric, "cpu");
  EXPECT_EQ(metrics[0].features, 2u);
}

TEST(QueryExplainer, NeedsHealthySamples) {
  LabeledData labeled;
  labeled.append(std::vector<double>{1.0}, 2);
  EXPECT_THROW(QueryExplainer(labeled, {"f"}), Error);
}

TEST(QueryExplainer, ConstantFeatureDoesNotExplode) {
  LabeledData labeled;
  for (int i = 0; i < 10; ++i) {
    labeled.append(std::vector<double>{3.0, static_cast<double>(i)}, 0);
  }
  QueryExplainer explainer(labeled, {"const|v", "ramp|v"});
  const std::vector<double> sample{3.0, 100.0};
  const auto top = explainer.top_features(sample, 2);
  EXPECT_EQ(top[0].feature, "ramp|v");
  EXPECT_TRUE(std::isfinite(top[1].z));
}

}  // namespace
}  // namespace alba
