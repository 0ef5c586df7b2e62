// Unit tests for the common substrate: error macros, RNG, strings, CSV,
// CLI, table rendering, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/backoff.hpp"
#include "common/cli.hpp"
#include "common/crc32.hpp"
#include "common/csv.hpp"
#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/net_io.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "temp_dir.hpp"

namespace alba {
namespace {

// ---------------------------------------------------------------- error ---

TEST(Error, CheckPassesOnTrue) { ALBA_CHECK(1 + 1 == 2); }

TEST(Error, CheckThrowsOnFalse) {
  EXPECT_THROW(ALBA_CHECK(false), Error);
}

TEST(Error, CheckMessageIncludesExpressionAndStreamedText) {
  try {
    const int n = -3;
    ALBA_CHECK(n > 0) << "n was " << n;
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("n > 0"), std::string::npos);
    EXPECT_NE(what.find("n was -3"), std::string::npos);
  }
}

TEST(Error, CheckOnlyEvaluatesMessageOnFailure) {
  int calls = 0;
  auto expensive = [&calls] {
    ++calls;
    return std::string("x");
  };
  ALBA_CHECK(true) << expensive();
  EXPECT_EQ(calls, 0);
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(7);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(3);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  const auto idx = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(9);
  const auto idx = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(9);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), Error);
}

TEST(Rng, BootstrapIndicesInRange) {
  Rng rng(13);
  const auto idx = rng.bootstrap_indices(50);
  EXPECT_EQ(idx.size(), 50u);
  for (const auto i : idx) EXPECT_LT(i, 50u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(21);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> w{0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_index(w), 1u);
}

TEST(Rng, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// -------------------------------------------------------------- strings ---

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("cpu.user#0", "cpu."));
  EXPECT_FALSE(starts_with("cpu", "cpu."));
  EXPECT_TRUE(ends_with("file.csv", ".csv"));
  EXPECT_FALSE(ends_with("csv", ".csv"));
}

TEST(StringUtil, JoinAndLower) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("  -2e3 "), -2000.0);
  EXPECT_THROW(parse_double("abc"), Error);
  EXPECT_THROW(parse_double("1.5x"), Error);
}

TEST(StringUtil, ParseLong) {
  EXPECT_EQ(parse_long("123"), 123);
  EXPECT_EQ(parse_long(" -4 "), -4);
  EXPECT_THROW(parse_long("12.5"), Error);
}

// ------------------------------------------------------------------ csv ---

TEST(Csv, EscapePlainPassthrough) { EXPECT_EQ(csv_escape("abc"), "abc"); }

TEST(Csv, EscapeQuotesAndCommas) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("he said \"hi\""), "\"he said \"\"hi\"\"\"");
}

TEST(Csv, WriteReadRoundtrip) {
  const ScopedTempDir dir;
  const std::string path = dir.file("roundtrip.csv");
  {
    CsvWriter w(path);
    w.write_header({"name", "value"});
    w.write_row({"plain", "1"});
    w.write_row({"with,comma", "2"});
    w.write_row({"with \"quote\"", "3"});
  }
  const CsvTable t = read_csv(path);
  ASSERT_EQ(t.header.size(), 2u);
  ASSERT_EQ(t.rows.size(), 3u);
  EXPECT_EQ(t.rows[1][0], "with,comma");
  EXPECT_EQ(t.rows[2][0], "with \"quote\"");
  EXPECT_EQ(t.column_index("value"), 1u);
  EXPECT_THROW(t.column_index("missing"), Error);
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/path/file.csv"), Error);
}

namespace {

std::string write_temp_csv(const ScopedTempDir& dir, const std::string& name,
                           const std::string& body) {
  const std::string path = dir.file(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  return path;
}

}  // namespace

TEST(Csv, CrlfLineEndingsAreStripped) {
  const ScopedTempDir dir;
  const std::string path = write_temp_csv(
      dir, "crlf.csv", "name,value\r\na,1\r\nb,2\r\n");
  const CsvTable t = read_csv(path);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.header.back(), "value");  // no '\r' tail
  EXPECT_EQ(t.rows[0][1], "1");
  EXPECT_EQ(t.rows[1][1], "2");
}

TEST(Csv, BlankLinesAreSkipped) {
  const ScopedTempDir dir;
  const std::string path =
      write_temp_csv(dir, "blank.csv", "name,value\na,1\n\nb,2\n\n");
  const CsvTable t = read_csv(path);
  EXPECT_EQ(t.rows.size(), 2u);
}

TEST(Csv, RaggedRowThrowsWithLineNumber) {
  const ScopedTempDir dir;
  const std::string path = write_temp_csv(
      dir, "ragged.csv", "name,value\na,1\nb,2,unexpected,extra\n");
  try {
    read_csv(path);
    FAIL() << "expected alba::Error on ragged row";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(":3:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ragged row"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4 fields"), std::string::npos) << msg;
  }
}

TEST(Csv, TrailingDelimiterThrowsWithHint) {
  const ScopedTempDir dir;
  const std::string path =
      write_temp_csv(dir, "trail.csv", "name,value\na,1,\n");
  try {
    read_csv(path);
    FAIL() << "expected alba::Error on trailing delimiter";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trailing delimiter"), std::string::npos) << msg;
  }
}

TEST(Csv, UnterminatedQuoteThrowsWithLineNumber) {
  const ScopedTempDir dir;
  const std::string path = write_temp_csv(
      dir, "quote.csv", "name,value\na,\"open quote never closes\n");
  try {
    read_csv(path);
    FAIL() << "expected alba::Error on unterminated quote";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unterminated"), std::string::npos) << msg;
  }
}

TEST(Csv, QuotedFieldWithEmbeddedNewlineStillParses) {
  const ScopedTempDir dir;
  const std::string path = write_temp_csv(
      dir, "multiline.csv", "name,value\n\"two\nlines\",1\nb,2\n");
  const CsvTable t = read_csv(path);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0][0], "two\nlines");
  // The physical line offset is tracked across the multi-line record: a
  // ragged row after it still reports the right line.
}


// ------------------------------------------------------------------ cli ---

TEST(Cli, ParsesAllFlagSyntaxes) {
  Cli cli("prog", "test");
  int n = 1;
  double x = 0.5;
  bool flag = false;
  std::string name = "default";
  std::uint64_t seed = 0;
  cli.flag("n", &n, "an int");
  cli.flag("x", &x, "a double");
  cli.flag("flag", &flag, "a bool");
  cli.flag("name", &name, "a string");
  cli.flag("seed", &seed, "a u64");

  const char* argv[] = {"prog",   "--n",    "42",          "--x=2.5",
                        "--flag", "--name", "hello world", "--seed=99"};
  cli.parse(8, const_cast<char**>(argv));
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_TRUE(flag);
  EXPECT_EQ(name, "hello world");
  EXPECT_EQ(seed, 99u);
}

TEST(Cli, BoolAcceptsExplicitValues) {
  Cli cli("prog", "test");
  bool a = true;
  bool b = false;
  cli.flag("a", &a, "");
  cli.flag("b", &b, "");
  const char* argv[] = {"prog", "--a=false", "--b=true"};
  cli.parse(3, const_cast<char**>(argv));
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
}

TEST(Cli, UnparsedFlagsKeepDefaults) {
  Cli cli("prog", "test");
  int n = 7;
  cli.flag("n", &n, "an int");
  const char* argv[] = {"prog"};
  cli.parse(1, const_cast<char**>(argv));
  EXPECT_EQ(n, 7);
}

TEST(Cli, UsageListsFlagsAndDefaults) {
  Cli cli("prog", "does things");
  int n = 3;
  cli.flag("count", &n, "how many");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("prog"), std::string::npos);
  EXPECT_NE(usage.find("count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
  EXPECT_NE(usage.find("3"), std::string::npos);
}

// ---------------------------------------------------------------- table ---

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"a", "long_header"});
  t.add_row({"xx", "1"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(AsciiChart, ContainsAxisAndGlyph) {
  const std::string chart = ascii_chart({0.0, 0.5, 1.0}, 24, 6);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('|'), std::string::npos);
}

TEST(AsciiChart, MultiSeriesLegend) {
  const std::string chart =
      ascii_chart_multi({{0.1, 0.2}, {0.9, 0.8}}, {"up", "down"}, 24, 6);
  EXPECT_NE(chart.find("legend"), std::string::npos);
  EXPECT_NE(chart.find("up"), std::string::npos);
}

// ----------------------------------------------------------- threadpool ---

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    global_pool().parallel_for(4, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, ChunkedCoversRange) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for_chunked(100, [&](std::size_t b, std::size_t e) {
    std::size_t local = 0;
    for (std::size_t i = b; i < e; ++i) local += i;
    sum += local;
  });
  EXPECT_EQ(sum.load(), 99u * 100u / 2u);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  const double s = t.seconds();
  EXPECT_GE(s, 0.0);
  EXPECT_LT(s, 5.0);
}

// ------------------------------------------------------------- deadline ---

TEST(Deadline, NeverNeverExpires) {
  const Deadline d = Deadline::never();
  EXPECT_TRUE(d.is_never());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
}

TEST(Deadline, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::after_ms(0.0).expired());
  EXPECT_TRUE(Deadline::after_ms(-5.0).expired());
  EXPECT_LE(Deadline::after_ms(-5.0).remaining_ms(), 0.0);
}

TEST(Deadline, FutureDeadlineHasBudgetThenExpires) {
  const Deadline d = Deadline::after_ms(1e7);  // far future
  EXPECT_FALSE(d.is_never());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.0);
  const Deadline past = Deadline::at(Deadline::Clock::now() -
                                     std::chrono::milliseconds(1));
  EXPECT_TRUE(past.expired());
}

// -------------------------------------------------------------- backoff ---

TEST(Backoff, ValidatesConfig) {
  BackoffConfig bad;
  bad.max_attempts = 0;
  EXPECT_THROW(validate_backoff(bad), Error);
  bad = BackoffConfig{};
  bad.multiplier = 0.5;
  EXPECT_THROW(validate_backoff(bad), Error);
  bad = BackoffConfig{};
  bad.jitter = 1.5;
  EXPECT_THROW(validate_backoff(bad), Error);
  validate_backoff(BackoffConfig{});  // defaults are sane
}

TEST(Backoff, DelaysGrowExponentiallyAndCap) {
  BackoffConfig config;
  config.initial_delay_ms = 2.0;
  config.multiplier = 2.0;
  config.max_delay_ms = 10.0;
  config.jitter = 0.0;  // exact schedule
  Rng rng(1);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(config, 1, rng), 2.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(config, 2, rng), 4.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(config, 3, rng), 8.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(config, 4, rng), 10.0);  // capped
}

TEST(Backoff, JitteredDelaysAreSeededDeterministic) {
  BackoffConfig config;
  config.jitter = 0.5;
  Rng a(42);
  Rng b(42);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const double lo = config.initial_delay_ms *
                      std::pow(config.multiplier, attempt - 1) * 0.5;
    const double da = backoff_delay_ms(config, attempt, a);
    EXPECT_DOUBLE_EQ(da, backoff_delay_ms(config, attempt, b));
    EXPECT_GE(da, std::min(lo, config.max_delay_ms * 0.5));
  }
}

TEST(Backoff, RetriesUntilSuccess) {
  BackoffConfig config;
  config.max_attempts = 5;
  config.initial_delay_ms = 0.1;
  int calls = 0;
  EXPECT_EQ(retry_with_backoff(config, [&] { return ++calls == 3; }),
            RetryResult::Ok);
  EXPECT_EQ(calls, 3);
}

TEST(Backoff, GivesUpAfterMaxAttempts) {
  BackoffConfig config;
  config.max_attempts = 3;
  config.initial_delay_ms = 0.1;
  int calls = 0;
  EXPECT_EQ(retry_with_backoff(config,
                               [&] {
                                 ++calls;
                                 return false;
                               }),
            RetryResult::ExhaustedAttempts);
  EXPECT_EQ(calls, 3);
}

TEST(Backoff, ExpiredDeadlineStopsRetrying) {
  BackoffConfig config;
  config.max_attempts = 100;
  config.initial_delay_ms = 0.1;
  int calls = 0;
  EXPECT_EQ(retry_with_backoff(
                config,
                [&] {
                  ++calls;
                  return false;
                },
                Deadline::after_ms(0.0)),
            RetryResult::DeadlineExpired);
  EXPECT_EQ(calls, 0);  // dead on arrival: no attempt at all
}

TEST(Backoff, SleepThatWouldOverrunTheDeadlineIsSkippedEntirely) {
  // A 10-second backoff delay against a 50ms budget: the loop must give up
  // *immediately* with the deadline-typed result instead of sleeping out
  // the remaining budget (let alone the full delay).
  BackoffConfig config;
  config.max_attempts = 10;
  config.initial_delay_ms = 10'000.0;
  config.jitter = 0.0;
  int calls = 0;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(retry_with_backoff(
                config,
                [&] {
                  ++calls;
                  return false;
                },
                Deadline::after_ms(50.0)),
            RetryResult::DeadlineExpired);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(calls, 1);  // one attempt, then the delay was vetoed unslept
  EXPECT_LT(elapsed_ms, 5'000.0);  // nowhere near the 10s delay
}

TEST(Backoff, SleepWithinBudgetStillRetries) {
  BackoffConfig config;
  config.max_attempts = 4;
  config.initial_delay_ms = 0.1;
  config.max_delay_ms = 0.2;
  int calls = 0;
  EXPECT_EQ(retry_with_backoff(
                config,
                [&] {
                  ++calls;
                  return false;
                },
                Deadline::after_ms(60'000.0)),
            RetryResult::ExhaustedAttempts);
  EXPECT_EQ(calls, 4);  // sub-ms delays fit the budget: all attempts ran
}

TEST(Backoff, BackoffSleepVetoesOverrunWithoutSleeping) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(backoff_sleep(10'000.0, Deadline::after_ms(20.0)));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 1'000.0);
  EXPECT_TRUE(backoff_sleep(0.1, Deadline::after_ms(20.0)));
  EXPECT_FALSE(backoff_sleep(0.1, Deadline::after_ms(0.0)));
}

TEST(Backoff, ExceptionsPropagateWithoutRetry) {
  BackoffConfig config;
  config.max_attempts = 5;
  int calls = 0;
  EXPECT_THROW(retry_with_backoff(config,
                                  [&]() -> bool {
                                    ++calls;
                                    throw Error("hard failure");
                                  }),
               Error);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------- crc32 ---

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value plus a couple of independent references.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(bytes_of("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::vector<std::uint8_t> data = bytes_of("123456789");
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    std::uint32_t crc = crc32_update(
        0, std::span<const std::uint8_t>(data.data(), cut));
    crc = crc32_update(crc, std::span<const std::uint8_t>(data.data() + cut,
                                                          data.size() - cut));
    EXPECT_EQ(crc, 0xCBF43926u) << "split at " << cut;
  }
}

TEST(Crc32, SingleBitFlipChangesChecksum) {
  const std::vector<std::uint8_t> data = bytes_of("wire frame payload");
  const std::uint32_t ref = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = data;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32(flipped), ref) << "byte " << byte << " bit " << bit;
    }
  }
}

// --------------------------------------------------------------- net_io ---

TEST(NetIo, PipeRoundTripFullBuffers) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string msg = "exactly this many bytes cross the pipe";
  const IoOutcome w = write_full(fds[1], msg.data(), msg.size());
  EXPECT_TRUE(w.complete(msg.size()));
  EXPECT_EQ(w.error, 0);

  std::string got(msg.size(), '\0');
  const IoOutcome r = read_full(fds[0], got.data(), got.size());
  EXPECT_TRUE(r.complete(msg.size()));
  EXPECT_FALSE(r.eof);
  EXPECT_EQ(got, msg);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetIo, ReadFullReportsEofWithPartialBytes) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string msg = "short";
  ASSERT_TRUE(write_full(fds[1], msg.data(), msg.size()).complete(msg.size()));
  ::close(fds[1]);  // writer gone: the next read past 5 bytes sees EOF

  char buf[64];
  const IoOutcome r = read_full(fds[0], buf, sizeof buf);
  EXPECT_EQ(r.bytes, msg.size());
  EXPECT_TRUE(r.eof);
  EXPECT_FALSE(r.complete(sizeof buf));
  ::close(fds[0]);
}

TEST(NetIo, WriteToClosedReaderIsEpipeNotDeath) {
  suppress_sigpipe();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);  // reader gone
  const std::string msg = "nobody listens";
  const IoOutcome w = write_full(fds[1], msg.data(), msg.size());
  // The whole point of suppress_sigpipe: the process is alive to see EPIPE.
  EXPECT_EQ(w.error, EPIPE);
  EXPECT_FALSE(w.complete(msg.size()));
  ::close(fds[1]);
}

TEST(NetIo, NonblockingReadReportsWouldBlock) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
  char buf[8];
  const IoOutcome r = read_full(fds[0], buf, sizeof buf);
  EXPECT_EQ(r.bytes, 0u);
  EXPECT_TRUE(r.would_block);
  EXPECT_FALSE(r.eof);
  EXPECT_EQ(r.error, 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace alba
