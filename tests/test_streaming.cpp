// Tests for the streaming front end and the unified Diagnoser interface:
// every triggered window's raw matrix is compared bit for bit against the
// matrix its feed implies (delivered rows at their seq, NaN rows where
// nothing arrived) across clean / NaN-cell / gapped / out-of-order /
// fault-injected replays; gap policies, duplicates, resets and the
// late_dropped ring-immutability regression; and streamed windows flowing
// through both serving tiers behind one Diagnoser.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "ml/grid_search.hpp"
#include "serving/model_bundle.hpp"
#include "serving/service_host.hpp"
#include "streaming/ingest.hpp"
#include "telemetry/faults.hpp"
#include "telemetry/run_generator.hpp"

namespace alba {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MetricRegistry test_registry() {
  RegistryConfig cfg;
  cfg.cores = 2;
  cfg.nics = 1;
  cfg.filler_gauges = 1;
  return MetricRegistry(SystemKind::Volta, cfg);
}

// Synthetic raw rows: counters cumulative (non-negative increments),
// gauges sinusoid + noise; optional per-cell NaN dropout like the
// simulator's sparse misses.
std::vector<std::vector<double>> make_rows(const MetricRegistry& registry,
                                           std::size_t t_total,
                                           std::uint64_t seed,
                                           double nan_cell_rate = 0.0) {
  Rng rng(seed);
  const std::size_t m_count = registry.size();
  std::vector<double> level(m_count, 0.0);
  std::vector<std::vector<double>> rows(t_total,
                                        std::vector<double>(m_count));
  for (std::size_t t = 0; t < t_total; ++t) {
    for (std::size_t m = 0; m < m_count; ++m) {
      if (registry.metric(m).kind == MetricKind::Counter) {
        level[m] += rng.uniform(0.0, 5.0);
        rows[t][m] = level[m];
      } else {
        rows[t][m] = std::sin(0.3 * static_cast<double>(t) +
                              static_cast<double>(m)) +
                     0.1 * rng.normal();
      }
      if (nan_cell_rate > 0.0 && rng.uniform() < nan_cell_rate) {
        rows[t][m] = kNaN;
      }
    }
  }
  return rows;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_raw(const TriggeredWindow& a, const TriggeredWindow& b) {
  return a.start_seq == b.start_seq && a.raw.rows() == b.raw.rows() &&
         a.raw.cols() == b.raw.cols() &&
         std::memcmp(a.raw.data(), b.raw.data(),
                     a.raw.rows() * a.raw.cols() * sizeof(double)) == 0;
}

// One node's feed into an ingestor. It records the first value delivered
// at each seq (the ingestor keeps the first too) and checks every window
// the moment it triggers: the raw matrix must equal, bit for bit, the
// delivered rows at their seq with NaN rows where nothing arrived, and
// missing_rows must count those NaN rows. Checking at trigger time keeps
// rows that arrive after a window emitted out of its expectation.
struct Feed {
  explicit Feed(StreamIngestor& ingestor, int node = 0)
      : ingestor(ingestor), node(node) {}

  StreamIngestor& ingestor;
  int node;
  std::map<std::uint64_t, std::vector<double>> delivered;
  std::vector<TriggeredWindow> windows;

  void push(std::uint64_t seq, std::span<const double> row) {
    delivered.try_emplace(seq, row.begin(), row.end());
    for (TriggeredWindow& w : ingestor.push(node, seq, row)) {
      expect_matches_feed(w);
      windows.push_back(std::move(w));
    }
  }

  void replay(const std::vector<std::vector<double>>& rows,
              std::uint64_t first_seq = 0) {
    for (std::size_t t = 0; t < rows.size(); ++t) push(first_seq + t, rows[t]);
  }

  void expect_matches_feed(const TriggeredWindow& w) const {
    EXPECT_EQ(w.node, node);
    ASSERT_EQ(w.raw.rows(), ingestor.config().window_length);
    ASSERT_EQ(w.raw.cols(), ingestor.registry().size());
    std::size_t undelivered = 0;
    for (std::size_t i = 0; i < w.raw.rows(); ++i) {
      const auto it = delivered.find(w.start_seq + i);
      if (it == delivered.end()) ++undelivered;
      for (std::size_t m = 0; m < w.raw.cols(); ++m) {
        const double want = it == delivered.end() ? kNaN : it->second[m];
        EXPECT_EQ(bits(w.raw(i, m)), bits(want))
            << "window " << w.start_seq << " row " << i << " metric " << m;
      }
    }
    EXPECT_EQ(w.missing_rows, undelivered) << "window " << w.start_seq;
  }
};

// --------------------------------------------------------- clean replays ---

TEST(StreamIngest, CleanReplayTriggersSlidingWindowsWithParity) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 24;
  StreamIngestor ingestor(registry, cfg);

  Feed feed{ingestor};
  feed.replay(make_rows(registry, 200, 11));

  // Starts 0, 24, ..., 144: the last window fitting 200 rows.
  ASSERT_EQ(feed.windows.size(), 7u);
  for (std::size_t i = 0; i < feed.windows.size(); ++i) {
    EXPECT_EQ(feed.windows[i].start_seq, 24u * i);
    EXPECT_EQ(feed.windows[i].missing_rows, 0u);
  }

  const IngestStats s = ingestor.stats(0);
  EXPECT_EQ(s.accepted, 200u);
  EXPECT_EQ(s.windows_emitted, 7u);
  EXPECT_EQ(s.windows_recomputed, 0u);
  EXPECT_EQ(s.reordered + s.duplicates + s.late_dropped + s.missing_rows, 0u);
  EXPECT_EQ(ingestor.windows_in_flight(0), 2u);  // starts 168 and 192
  ingestor.flush();
  EXPECT_EQ(ingestor.stats(0).windows_flushed, 2u);
  EXPECT_EQ(ingestor.windows_in_flight(0), 0u);
}

// Pins the Feed expectation itself against the rows, independently.
TEST(StreamIngest, WindowRawIsTheDeliveredRows) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 16, 3);
  Feed feed{ingestor, 4};
  feed.replay(rows);
  ASSERT_EQ(feed.windows.size(), 1u);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (std::size_t m = 0; m < registry.size(); ++m) {
      EXPECT_EQ(feed.windows[0].raw(t, m), rows[t][m]);
    }
  }
  EXPECT_EQ(feed.windows[0].node, 4);
}

// NaN cells in delivered rows reach the raw window bit for bit, for the
// serving pipeline's batch interpolation to resolve; they never count as
// missing rows.
TEST(StreamIngest, NaNCellsResolveBitIdenticallyToBatchInterpolation) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 24;
  StreamIngestor ingestor(registry, cfg);
  Feed feed{ingestor};
  feed.replay(make_rows(registry, 160, 23, /*nan_cell_rate=*/0.15));
  ASSERT_GE(feed.windows.size(), 4u);
  std::size_t nan_cells = 0;
  for (const TriggeredWindow& w : feed.windows) {
    EXPECT_EQ(w.missing_rows, 0u);
    for (std::size_t i = 0; i < w.raw.rows(); ++i) {
      for (std::size_t m = 0; m < w.raw.cols(); ++m) {
        nan_cells += std::isnan(w.raw(i, m)) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(nan_cells, 0u);
}

// ------------------------------------------------------ gaps and repairs ---

TEST(StreamIngest, UndeliveredRowsEmitAsNaNUnderRepairPolicy) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 48;
  cfg.max_missing = 8;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 96, 31);

  Feed feed{ingestor};
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t % 13 == 7) continue;  // drop ~7% of rows outright
    feed.push(t, rows[t]);
  }
  ASSERT_EQ(feed.windows.size(), 2u);
  for (const TriggeredWindow& w : feed.windows) {
    EXPECT_GT(w.missing_rows, 0u);
    EXPECT_LE(w.missing_rows, cfg.max_missing);
    bool saw_nan_row = false;
    for (std::size_t t = 0; t < w.raw.rows() && !saw_nan_row; ++t) {
      saw_nan_row = std::isnan(w.raw(t, 0));
    }
    EXPECT_TRUE(saw_nan_row);
  }
  EXPECT_GT(ingestor.stats(0).missing_rows, 0u);
}

TEST(StreamIngest, StrictPolicyDropsIncompleteWindows) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  cfg.gap_policy = GapPolicy::Strict;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 48, 5);

  Feed feed{ingestor};
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t == 20) continue;  // one hole, inside the second window
    feed.push(t, rows[t]);
  }
  ASSERT_EQ(feed.windows.size(), 2u);  // windows 0 and 32 emit; 16 dropped
  EXPECT_EQ(feed.windows[0].start_seq, 0u);
  EXPECT_EQ(feed.windows[1].start_seq, 32u);
  EXPECT_EQ(ingestor.stats(0).windows_dropped, 1u);
}

TEST(StreamIngest, RepairPolicyDropsWindowsPastMaxMissing) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  cfg.max_missing = 2;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 32, 5);

  Feed feed{ingestor};
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t >= 18 && t < 22) continue;  // 4 missing rows > max_missing
    feed.push(t, rows[t]);
  }
  ASSERT_EQ(feed.windows.size(), 1u);
  EXPECT_EQ(feed.windows[0].start_seq, 0u);
  EXPECT_EQ(ingestor.stats(0).windows_dropped, 1u);
}

TEST(StreamIngest, GapFillAheadOfTheAnchorRepairsExactly) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 48;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 48, 17);

  // Row 20 goes missing while rows 21-22 arrive as all-NaN rows, then 20
  // shows up late: the repair lands in the ring, and 21-22 stay delivered
  // NaN rows rather than undelivered ones.
  const std::vector<double> nan_row(registry.size(), kNaN);
  Feed feed{ingestor};
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t == 20) continue;
    if (t == 23) feed.push(20, rows[20]);
    feed.push(t, (t == 21 || t == 22) ? std::span<const double>(nan_row)
                                      : std::span<const double>(rows[t]));
  }
  ASSERT_EQ(feed.windows.size(), 1u);
  EXPECT_EQ(feed.windows[0].missing_rows, 0u);  // 20 repaired; 21-22 came
  EXPECT_EQ(feed.windows[0].raw(20, 0), rows[20][0]);
  EXPECT_TRUE(std::isnan(feed.windows[0].raw(21, 0)));
  const IngestStats s = ingestor.stats(0);
  EXPECT_EQ(s.reordered, 1u);
  EXPECT_EQ(s.missing_rows, 0u);  // net: marked missing, then repaired
}

TEST(StreamIngest, ReorderedRepairLandsInRaw) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 48;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 48, 19);

  // Row 20 goes missing, rows 21-24 are delivered, THEN 20 shows up: the
  // emitted window carries the late value in place, not a NaN row.
  Feed feed{ingestor};
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t == 20) continue;
    if (t == 25) feed.push(20, rows[20]);
    feed.push(t, rows[t]);
  }
  ASSERT_EQ(feed.windows.size(), 1u);
  EXPECT_EQ(feed.windows[0].missing_rows, 0u);
  for (std::size_t m = 0; m < registry.size(); ++m) {
    EXPECT_EQ(bits(feed.windows[0].raw(20, m)), bits(rows[20][m]));
  }
  const IngestStats s = ingestor.stats(0);
  EXPECT_EQ(s.reordered, 1u);
  EXPECT_EQ(s.missing_rows, 0u);
  EXPECT_EQ(s.windows_recomputed, 0u);
}

TEST(StreamIngest, BoundedSkewReplayMatchesTheFeed) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 24;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 144, 29);

  // Swap every 6th adjacent pair (offset so no swap touches the stream
  // head or a window's last row): a dense out-of-order trace in which
  // every swapped-back row is a repair that must land in its windows.
  std::vector<std::size_t> order(rows.size());
  for (std::size_t t = 0; t < rows.size(); ++t) order[t] = t;
  for (std::size_t t = 2; t + 1 < order.size(); t += 6) {
    std::swap(order[t], order[t + 1]);
  }
  Feed feed{ingestor};
  for (const std::size_t t : order) feed.push(t, rows[t]);
  ASSERT_GE(feed.windows.size(), 4u);
  for (const TriggeredWindow& w : feed.windows) {
    EXPECT_EQ(w.missing_rows, 0u);
  }
  const IngestStats s = ingestor.stats(0);
  EXPECT_GT(s.reordered, 0u);
  EXPECT_EQ(s.late_dropped, 0u);
  EXPECT_EQ(s.missing_rows, 0u);
}

// ------------------------------------------- late arrivals + duplicates ---

// A sample landing inside an already-emitted window must be counted
// late_dropped and must NOT be written into the ring, where a future
// window mapping onto the same slot would read it as a delivered row.
TEST(StreamIngest, LateArrivalInsideEmittedWindowIsDroppedNotWritten) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  cfg.max_missing = 2;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 48, 37);

  Feed feed{ingestor};
  for (std::size_t t = 0; t < 16; ++t) feed.push(t, rows[t]);
  ASSERT_EQ(feed.windows.size(), 1u);  // window [0, 16) emitted

  // Row 7 re-arrives late. Ring capacity is window_length + stride = 32,
  // so seq 39 of the third window maps onto the same ring slot as seq 7:
  // a buggy write-through would make the (undelivered) row 39 look
  // delivered with row 7's stale values.
  std::vector<double> poison(registry.size(), 1e9);
  EXPECT_TRUE(ingestor.push(0, 7, poison).empty());
  const IngestStats after_late = ingestor.stats(0);
  EXPECT_EQ(after_late.late_dropped, 1u);
  EXPECT_EQ(after_late.duplicates, 0u);
  EXPECT_EQ(after_late.accepted, 16u);

  for (std::size_t t = 16; t < 48; ++t) {
    if (t == 39) continue;  // never delivered
    feed.push(t, rows[t]);
  }
  ASSERT_EQ(feed.windows.size(), 3u);
  const TriggeredWindow& third = feed.windows[2];
  EXPECT_EQ(third.start_seq, 32u);
  EXPECT_EQ(third.missing_rows, 1u);
  // Row 39 (slot shared with the dropped late row 7) must be NaN, not 1e9.
  EXPECT_TRUE(std::isnan(third.raw(7, 0)));
}

TEST(StreamIngest, DuplicateRowsKeepTheFirstValue) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 16, 41);

  Feed feed{ingestor};
  std::vector<double> poison(registry.size(), -777.0);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    feed.push(t, rows[t]);
    if (t == 5) {
      EXPECT_TRUE(ingestor.push(0, 5, poison).empty());
    }
  }
  ASSERT_EQ(feed.windows.size(), 1u);
  EXPECT_EQ(ingestor.stats(0).duplicates, 1u);
  EXPECT_EQ(feed.windows[0].raw(5, 0), rows[5][0]);  // first delivery won
}

TEST(StreamIngest, ForwardJumpPastTheRingResetsAndRecovers) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 48, 43);

  Feed feed{ingestor};
  for (std::size_t t = 0; t < 24; ++t) feed.push(t, rows[t]);
  ASSERT_EQ(feed.windows.size(), 1u);
  EXPECT_EQ(ingestor.windows_in_flight(0), 1u);

  // A collector restart: the sequence jumps far past the ring. In-flight
  // windows are dropped; streaming re-anchors at the new sequence.
  for (std::size_t t = 0; t < 16; ++t) feed.push(5000 + t, rows[24 + t]);
  ASSERT_EQ(feed.windows.size(), 2u);
  EXPECT_EQ(feed.windows[1].start_seq, 5000u);
  EXPECT_EQ(feed.windows[1].missing_rows, 0u);
  const IngestStats s = ingestor.stats(0);
  EXPECT_EQ(s.resets, 1u);
  EXPECT_EQ(s.windows_dropped, 1u);
}

// ------------------------------------------------- fault-injected replay ---

TEST(StreamIngest, FaultInjectedReplayKeepsParity) {
  NodeSimConfig sim;
  sim.duration_steps = 96;
  const RunGenerator generator(SystemKind::Volta, RegistryConfig{2, 1, 1},
                               sim);

  FaultConfig faults = production_faults();
  faults.truncate_prob = 0.0;  // keep full-length streams for this replay
  const TelemetryFaultInjector injector(faults);

  StreamIngestConfig cfg;
  cfg.window_length = 32;
  cfg.stride = 16;
  std::size_t windows_checked = 0;
  for (int run = 0; run < 3; ++run) {
    RunSpec spec;
    spec.app_id = run % 2;
    spec.nodes = 1;
    spec.run_id = 7000 + run;
    spec.seed = 100 + static_cast<std::uint64_t>(run);
    if (run != 0) {
      spec.anomaly = kAnomalyTypes[static_cast<std::size_t>(run) %
                                   kAnomalyTypes.size()];
      spec.intensity = 1.0;
    }
    for (Sample& sample : generator.generate_run(spec)) {
      Rng rng(900 + static_cast<std::uint64_t>(run));
      injector.apply(sample.series, generator.registry(), rng);

      StreamIngestor ingestor(generator.registry(), cfg);
      Feed feed{ingestor, sample.node_index};
      for (std::size_t t = 0; t < sample.series.rows(); ++t) {
        feed.push(t, sample.series.row(t));
      }
      windows_checked += feed.windows.size();
    }
  }
  EXPECT_GE(windows_checked, 10u);
}

TEST(StreamIngest, NodesAreIndependentOfInterleaving) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 32;
  cfg.stride = 16;

  const auto rows_a = make_rows(registry, 96, 51);
  const auto rows_b = make_rows(registry, 96, 53, /*nan_cell_rate=*/0.1);

  StreamIngestor solo_a(registry, cfg);
  StreamIngestor solo_b(registry, cfg);
  Feed feed_a{solo_a, 1};
  Feed feed_b{solo_b, 2};
  feed_a.replay(rows_a);
  feed_b.replay(rows_b);

  StreamIngestor mixed(registry, cfg);
  Feed mixed_1{mixed, 1};
  Feed mixed_2{mixed, 2};
  for (std::size_t t = 0; t < rows_a.size(); ++t) {
    mixed_1.push(t, rows_a[t]);
    mixed_2.push(t, rows_b[t]);
  }

  ASSERT_EQ(mixed_1.windows.size(), feed_a.windows.size());
  ASSERT_EQ(mixed_2.windows.size(), feed_b.windows.size());
  for (std::size_t i = 0; i < feed_a.windows.size(); ++i) {
    EXPECT_TRUE(same_raw(mixed_1.windows[i], feed_a.windows[i])) << i;
    EXPECT_TRUE(same_raw(mixed_2.windows[i], feed_b.windows[i])) << i;
  }
  const IngestStats total = mixed.total_stats();
  EXPECT_EQ(total.accepted,
            mixed.stats(1).accepted + mixed.stats(2).accepted);
}

// -------------------------------------------- determinism across threads ---

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Replays a gapped, NaN-ridden, duplicated stream with late repairs and
// hashes every emitted raw bit plus the stats counters. Run directly it
// checks each window against its feed; run from the re-exec harness below
// it also prints the hash for the parent to compare across ALBA_THREADS.
TEST(StreamThreads, ChildReplayAndHash) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 24;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 240, 61, /*nan_cell_rate=*/0.05);

  Feed feed{ingestor};
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t % 17 == 5) continue;  // gap
    if (t % 34 == 7) feed.push(t - 2, rows[t - 2]);  // every other gap, late
    if (t % 29 == 11) feed.push(t - 1, rows[t - 1]);  // duplicate
    feed.push(t, rows[t]);
  }
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const TriggeredWindow& w : feed.windows) {
    h = fnv1a(h, w.start_seq);
    h = fnv1a(h, w.missing_rows);
    for (std::size_t i = 0; i < w.raw.rows(); ++i) {
      for (const double v : w.raw.row(i)) h = fnv1a(h, bits(v));
    }
  }
  const IngestStats s = ingestor.stats(0);
  for (const std::uint64_t counter :
       {s.accepted, s.reordered, s.duplicates, s.missing_rows,
        s.windows_emitted, s.windows_dropped}) {
    h = fnv1a(h, counter);
  }
  EXPECT_GT(feed.windows.size(), 4u);
  EXPECT_GT(s.reordered, 0u);
  std::printf("STREAM_HASH=%016llx\n", static_cast<unsigned long long>(h));
}

// Streaming is single-threaded by design, but its outputs must not depend
// on the process-wide pool size (registry setup must stay off the pool):
// re-exec with ALBA_THREADS pinned and compare.
TEST(StreamThreads, FeaturesIdenticalAcrossPoolSizes) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) GTEST_SKIP() << "/proc/self/exe unavailable";
  self[len] = '\0';

  std::vector<std::string> hashes;
  for (const char* threads : {"1", "2", "8"}) {
    const std::string cmd =
        std::string("ALBA_THREADS=") + threads + " '" + self +
        "' --gtest_filter=StreamThreads.ChildReplayAndHash 2>/dev/null";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string hash;
    char line[512];
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
      const std::string s(line);
      const auto pos = s.find("STREAM_HASH=");
      if (pos != std::string::npos) hash = s.substr(pos + 12, 16);
    }
    const int rc = pclose(pipe);
    ASSERT_EQ(rc, 0) << "child run with ALBA_THREADS=" << threads
                     << " failed";
    ASSERT_EQ(hash.size(), 16u) << "child printed no hash";
    hashes.push_back(hash);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

// --------------------------------------------------- the Diagnoser tiers ---

// One tiny trained bundle shared by the tier tests (building the dataset
// is the expensive part; everything downstream is cheap).
struct TierEnv {
  DatasetConfig cfg = tiny_config();
  ExperimentData data;
  SplitIndices split;
  PreparedSplit prepared;
  std::unique_ptr<Classifier> model;
  std::string bundle_bytes;
};

const TierEnv& tier_env() {
  static const TierEnv* shared = [] {
    auto* e = new TierEnv;
    e->data = build_experiment_data(e->cfg);
    e->split = make_split(e->data, e->cfg.test_fraction, 5);
    e->prepared = prepare_split(e->data, e->split, e->cfg.select_k);
    ParamSet params = table4_optimum("rf", false);
    params["n_estimators"] = "15";
    e->model = make_model_factory("rf", kNumClasses, 9)(params);
    e->model->fit(e->prepared.train_x, e->prepared.train_y);
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    save_model_bundle(ss, make_model_bundle(e->data, e->prepared, *e->model));
    e->bundle_bytes = ss.str();
    return e;
  }();
  return *shared;
}

std::shared_ptr<DiagnosisService> tier_service(const TierEnv& e,
                                               ServingConfig serving = {}) {
  std::stringstream ss(e.bundle_bytes,
                       std::ios::in | std::ios::out | std::ios::binary);
  return std::make_shared<DiagnosisService>(load_model_bundle(ss), serving);
}

Sample fresh_sample(const TierEnv& e, std::uint64_t seed) {
  const RunGenerator generator(e.cfg.system, e.cfg.registry, e.cfg.sim);
  RunSpec spec;
  spec.app_id = 0;
  spec.nodes = 1;
  spec.anomaly = kAnomalyTypes[0];
  spec.intensity = 1.0;
  spec.run_id = 9900;
  spec.seed = seed;
  return generator.generate_run(spec)[0];
}

TEST(DiagnoserTiers, StreamedWindowDiagnosesIdenticallyAcrossAllTiers) {
  const TierEnv& e = tier_env();
  const Sample sample = fresh_sample(e, 777);

  // Stream the sample's series as a 1 Hz feed; one tumbling window spans
  // the full run, so its raw matrix is bit-identical to the series.
  StreamIngestConfig cfg;
  cfg.window_length = sample.series.rows();
  cfg.stride = sample.series.rows();
  cfg.preprocess = e.cfg.preprocess;
  StreamIngestor ingestor(MetricRegistry(e.cfg.system, e.cfg.registry), cfg);
  Feed feed{ingestor};
  for (std::size_t t = 0; t < sample.series.rows(); ++t) {
    feed.push(t, sample.series.row(t));
  }
  ASSERT_EQ(feed.windows.size(), 1u);
  const TriggeredWindow& window = feed.windows[0];

  auto service = tier_service(e);
  const Diagnosis reference = service->diagnose(sample.series);

  ServiceHost host(tier_service(e));

  const std::vector<Diagnoser*> tiers = {service.get(), &host};
  for (Diagnoser* tier : tiers) {
    const DiagnosisResult r = tier->diagnose(DiagnoseRequest{&window.raw});
    ASSERT_TRUE(r.ok()) << to_string(r.status) << ": " << r.error;
    EXPECT_EQ(r.diagnosis.label, reference.label);
    EXPECT_EQ(r.generation, 1u);
    ASSERT_EQ(r.diagnosis.probs.size(), reference.probs.size());
    for (std::size_t i = 0; i < reference.probs.size(); ++i) {
      EXPECT_EQ(r.diagnosis.probs[i], reference.probs[i]);
    }
  }
  host.drain();
}

TEST(DiagnoserTiers, ExpiredDeadlineIsATypedRejectionEverywhere) {
  const TierEnv& e = tier_env();
  const Sample sample = fresh_sample(e, 778);

  auto service = tier_service(e);
  ServiceHost host(tier_service(e));

  const std::vector<Diagnoser*> tiers = {service.get(), &host};
  for (Diagnoser* tier : tiers) {
    const DiagnosisResult r = tier->diagnose(
        DiagnoseRequest{&sample.series, Deadline::after_ms(-1.0)});
    EXPECT_EQ(r.status, RequestStatus::RejectedDeadline);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.diagnosis.probs.empty());
  }
  host.drain();
}

TEST(DiagnoserTiers, PipelineFaultIsAFailedStatusNotAnException) {
  const TierEnv& e = tier_env();
  const Sample sample = fresh_sample(e, 779);

  ServingConfig serving;
  serving.extraction_hook = [](const Matrix&) { throw Error("injected"); };
  auto service = tier_service(e, serving);

  Diagnoser& tier = *service;
  const DiagnosisResult r = tier.diagnose(DiagnoseRequest{&sample.series});
  EXPECT_EQ(r.status, RequestStatus::Failed);
  EXPECT_NE(r.error.find("injected"), std::string::npos);
}

TEST(DiagnoserTiers, GenericRetryRecoversOnAnyTier) {
  const TierEnv& e = tier_env();
  const Sample sample = fresh_sample(e, 780);

  std::atomic<int> calls{0};
  ServingConfig serving;
  serving.extraction_hook = [&](const Matrix&) {
    if (calls.fetch_add(1) < 2) throw Error("transient");
  };
  auto service = tier_service(e, serving);

  BackoffConfig backoff;
  backoff.max_attempts = 5;
  backoff.initial_delay_ms = 0.5;
  backoff.seed = 7;
  const DiagnosisResult r = diagnose_with_retry(
      *service, DiagnoseRequest{&sample.series}, backoff);
  EXPECT_TRUE(r.ok()) << to_string(r.status) << ": " << r.error;
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(calls.load(), 3);
}

}  // namespace
}  // namespace alba
