// Tests for the fault-tolerant wire transport: frame codec round-trips,
// the boundary-sliced + bit-flipped decoder fuzz sweep, the exactly-once
// client/server delivery contract over the deterministic loopback
// transport (reconnect/resume, duplicates, backpressure sheds, superseded
// connections, server restart from snapshot), typed decode-error handling,
// the ingest-stats CSV parse-back, the TCP transport's byte-level results
// (round trip, eof, a write to a closed peer, an empty non-blocking read),
// and real TCP end-to-end (single-thread and threaded).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "streaming/ingest.hpp"
#include "streaming/ingest_server.hpp"
#include "telemetry/registry.hpp"
#include "wire/chaos.hpp"
#include "wire/client.hpp"
#include "wire/frame.hpp"
#include "wire/transport.hpp"

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

// Synthetic raw rows matching the streaming tests' feed shape: counters
// cumulative, gauges sinusoid + noise, optional NaN cells.
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

StreamIngestConfig small_window_config() {
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 8;
  cfg.preprocess.trim_head = 2;
  cfg.preprocess.trim_tail = 2;
  return cfg;
}

WireClientConfig client_config(std::uint32_t metric_count) {
  WireClientConfig cfg;
  cfg.node = 0;
  cfg.metric_count = metric_count;
  cfg.reconnect.seed = 7;
  cfg.reconnect.initial_delay_ms = 1.0;
  cfg.reconnect.max_delay_ms = 8.0;
  cfg.reconnect.max_attempts = 1'000'000;
  return cfg;
}

// ---------------------------------------------------------- frame codec ---

bool frames_equal(const Frame& a, const Frame& b) {
  if (frame_type(a) != frame_type(b)) return false;
  const std::vector<std::uint8_t> ea = encode_frame(a);
  const std::vector<std::uint8_t> eb = encode_frame(b);
  return ea == eb;  // encoding is canonical, NaN bit patterns included
}

TEST(WireFrame, RoundTripsEveryType) {
  RowFrame row;
  row.node = 3;
  row.wire_index = 41;
  row.seq = 99;
  row.timestamp = 1723.25;
  row.values = {1.5, -0.0, kNaN, std::numeric_limits<double>::infinity(),
                -2.25e300};
  const std::vector<Frame> originals = {
      HelloFrame{kWireVersion, 3, 5},
      HelloAckFrame{3, 17},
      row,
      AckFrame{3, 42},
      HeartbeatFrame{1234567},
  };

  std::vector<std::uint8_t> stream;
  for (const Frame& f : originals) append_frame(stream, f);

  FrameDecoder decoder;
  decoder.feed(stream);
  for (const Frame& expected : originals) {
    Frame got;
    ASSERT_EQ(decoder.next(got), FrameDecoder::State::FrameReady);
    EXPECT_TRUE(frames_equal(got, expected));
  }
  Frame tail;
  EXPECT_EQ(decoder.next(tail), FrameDecoder::State::NeedMore);
  EXPECT_FALSE(decoder.mid_frame());

  // Spot-check the row's doubles survive bit-exactly (NaN included).
  std::vector<std::uint8_t> row_bytes = encode_frame(row);
  FrameDecoder rd;
  rd.feed(row_bytes);
  Frame decoded;
  ASSERT_EQ(rd.next(decoded), FrameDecoder::State::FrameReady);
  const auto& got_row = std::get<RowFrame>(decoded);
  ASSERT_EQ(got_row.values.size(), row.values.size());
  for (std::size_t i = 0; i < row.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got_row.values[i]),
              std::bit_cast<std::uint64_t>(row.values[i]));
  }
  EXPECT_EQ(got_row.wire_index, row.wire_index);
  EXPECT_EQ(got_row.seq, row.seq);
  EXPECT_EQ(got_row.timestamp, row.timestamp);
}

std::vector<std::uint8_t> sample_stream(std::vector<Frame>* out_frames) {
  std::vector<Frame> frames;
  frames.push_back(HelloFrame{kWireVersion, 1, 3});
  frames.push_back(HelloAckFrame{1, 0});
  for (std::uint64_t i = 0; i < 4; ++i) {
    RowFrame row;
    row.node = 1;
    row.wire_index = i;
    row.seq = 100 + i;
    row.timestamp = 0.5 * static_cast<double>(i);
    row.values = {static_cast<double>(i), -1.0, kNaN};
    frames.push_back(row);
  }
  frames.push_back(AckFrame{1, 4});
  frames.push_back(HeartbeatFrame{9});
  std::vector<std::uint8_t> stream;
  for (const Frame& f : frames) append_frame(stream, f);
  if (out_frames) *out_frames = std::move(frames);
  return stream;
}

TEST(WireFrame, DecodesIdenticallyAcrossEveryByteBoundarySplit) {
  std::vector<Frame> originals;
  const std::vector<std::uint8_t> stream = sample_stream(&originals);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(std::span<const std::uint8_t>(stream.data(), cut));
    std::vector<Frame> got;
    Frame f;
    while (decoder.next(f) == FrameDecoder::State::FrameReady) {
      got.push_back(f);
    }
    decoder.feed(std::span<const std::uint8_t>(stream.data() + cut,
                                               stream.size() - cut));
    while (decoder.next(f) == FrameDecoder::State::FrameReady) {
      got.push_back(f);
    }
    ASSERT_FALSE(decoder.failed()) << "split at " << cut;
    ASSERT_EQ(got.size(), originals.size()) << "split at " << cut;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(frames_equal(got[i], originals[i])) << "split at " << cut;
    }
    EXPECT_FALSE(decoder.mid_frame());
  }
}

// The fuzz sweep: every single-bit flip of a valid stream, fed in seeded
// random slices, must yield a clean prefix of the original frames followed
// by either a typed error or a truncated tail (decoder waiting for bytes
// that will never come) — never a crash, an over-read (ASan-checked), or a
// frame that was not in the clean stream's prefix.
TEST(WireFrame, EveryBitFlipYieldsTypedErrorOrCleanPrefix) {
  std::vector<Frame> originals;
  const std::vector<std::uint8_t> stream = sample_stream(&originals);
  Rng rng(2024);
  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = stream;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);

      FrameDecoder decoder;
      std::vector<Frame> got;
      std::size_t at = 0;
      bool errored = false;
      while (at < flipped.size() && !errored) {
        const std::size_t take =
            std::min(flipped.size() - at, 1 + rng.uniform_index(23));
        decoder.feed(
            std::span<const std::uint8_t>(flipped.data() + at, take));
        at += take;
        Frame f;
        while (true) {
          const FrameDecoder::State s = decoder.next(f);
          if (s == FrameDecoder::State::FrameReady) {
            got.push_back(f);
            continue;
          }
          errored = (s == FrameDecoder::State::Error);
          break;
        }
      }

      // A flipped bit is never silently absorbed: the CRC covers every
      // header byte past the magic and the whole payload, and the magic
      // bytes gate on themselves.
      ASSERT_LT(got.size(), originals.size())
          << "byte " << byte << " bit " << bit;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(frames_equal(got[i], originals[i]))
            << "byte " << byte << " bit " << bit << " frame " << i;
      }
      if (errored) {
        EXPECT_NE(decoder.error(), DecodeError::None);
      } else {
        // Length-field flips can leave the decoder waiting for a longer
        // frame than the stream holds: a truncation, detectable as
        // mid_frame at EOF.
        EXPECT_TRUE(decoder.mid_frame())
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(WireFrame, OversizedLengthIsTypedNotAllocated) {
  std::vector<std::uint8_t> stream = encode_frame(HeartbeatFrame{1});
  // Rewrite payload_len to 256 MiB and fix nothing else: the decoder must
  // refuse on the bound before buffering, not attempt the allocation.
  stream[8] = 0;
  stream[9] = 0;
  stream[10] = 0;
  stream[11] = 0x10;
  FrameDecoder decoder;
  decoder.feed(stream);
  Frame f;
  EXPECT_EQ(decoder.next(f), FrameDecoder::State::Error);
  EXPECT_EQ(decoder.error(), DecodeError::Oversized);
  // Sticky: feeding more does not resurrect the stream.
  decoder.feed(stream);
  EXPECT_EQ(decoder.next(f), FrameDecoder::State::Error);
}

TEST(WireFrame, BadMagicAndBadVersionAreDistinguished) {
  {
    std::vector<std::uint8_t> stream = encode_frame(HeartbeatFrame{1});
    stream[0] = 'X';
    FrameDecoder decoder;
    decoder.feed(stream);
    Frame f;
    EXPECT_EQ(decoder.next(f), FrameDecoder::State::Error);
    EXPECT_EQ(decoder.error(), DecodeError::BadMagic);
  }
  {
    std::vector<std::uint8_t> stream = encode_frame(HeartbeatFrame{1});
    stream[4] = kWireVersion + 1;  // CRC now also wrong, version checked first
    FrameDecoder decoder;
    decoder.feed(stream);
    Frame f;
    EXPECT_EQ(decoder.next(f), FrameDecoder::State::Error);
    EXPECT_EQ(decoder.error(), DecodeError::BadVersion);
  }
}

// ------------------------------------------------- loopback end-to-end ---

// Records every diagnosis request so tests can assert the server handed
// windows onward without training a real model.
class RecordingDiagnoser : public Diagnoser {
 public:
  DiagnosisResult diagnose(const DiagnoseRequest& request) override {
    ++calls_;
    DiagnosisResult r;
    r.status = RequestStatus::Ok;
    r.diagnosis.label = static_cast<int>(request.window->rows());
    r.diagnosis.confidence = 1.0;
    r.diagnosis.probs = {1.0};
    return r;
  }
  std::uint64_t calls() const noexcept { return calls_; }

 private:
  std::uint64_t calls_ = 0;
};

struct LoopbackRig {
  MetricRegistry registry = test_registry();
  StreamIngestConfig stream_cfg = small_window_config();
  LoopbackHub hub;
  StreamIngestor ingestor{MetricRegistry(test_registry()), stream_cfg};
  // In-process reference fed the identical rows.
  StreamIngestor reference{MetricRegistry(test_registry()), stream_cfg};
};

// Drives client and server on a shared simulated clock until the client is
// idle (everything acked) or `max_steps` elapse.
double drive_until_idle(WireClient& client, IngestServer& server,
                        double now_ms, std::size_t max_steps = 20'000,
                        double step_ms = 1.0) {
  for (std::size_t i = 0; i < max_steps; ++i) {
    client.step(now_ms);
    server.poll_once(now_ms);
    client.step(now_ms);  // see the acks the server just wrote
    if (client.idle()) break;
    now_ms += step_ms;
  }
  return now_ms;
}

TEST(IngestServerLoopback, StreamsBitIdenticallyToInProcessPush) {
  LoopbackRig rig;
  RecordingDiagnoser diagnoser;
  IngestServerConfig server_cfg;
  auto server = std::make_unique<IngestServer>(
      rig.hub.make_listener(), rig.ingestor, server_cfg, &diagnoser);

  WireClient client([&] { return rig.hub.connect(); },
                    client_config(static_cast<std::uint32_t>(
                        rig.registry.size())));

  const auto rows = make_rows(rig.registry, 120, 11, /*nan_cell_rate=*/0.02);
  std::vector<TriggeredWindow> reference_windows;
  double now = 0.0;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (TriggeredWindow& w : rig.reference.push(0, t, rows[t])) {
      reference_windows.push_back(std::move(w));
    }
    ASSERT_TRUE(client.offer(t, static_cast<double>(t), rows[t]));
    client.step(now);
    server->poll_once(now);
    now += 1.0;
  }
  drive_until_idle(client, *server, now);
  ASSERT_TRUE(client.idle());

  // Conservation: every offered row ingested, nothing shed, nothing lost.
  EXPECT_EQ(server->watermark(0), rows.size());
  EXPECT_EQ(server->wire_stats().rows_ingested, rows.size());
  EXPECT_EQ(server->wire_stats().rows_rejected, 0u);
  EXPECT_EQ(client.stats().rows_acked, rows.size());

  // The wire added nothing and lost nothing: stats and windows match the
  // in-process reference bit for bit.
  const IngestStats wire_side = rig.ingestor.stats(0);
  const IngestStats in_proc = rig.reference.stats(0);
  EXPECT_EQ(wire_side.accepted, in_proc.accepted);
  EXPECT_EQ(wire_side.windows_emitted, in_proc.windows_emitted);

  const std::vector<ServedWindow> served = server->take_served();
  ASSERT_EQ(served.size(), reference_windows.size());
  EXPECT_EQ(diagnoser.calls(), served.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    const TriggeredWindow& a = served[i].window;
    const TriggeredWindow& b = reference_windows[i];
    EXPECT_EQ(a.start_seq, b.start_seq);
    ASSERT_EQ(a.raw.rows(), b.raw.rows());
    for (std::size_t r = 0; r < a.raw.rows(); ++r) {
      for (std::size_t c = 0; c < a.raw.cols(); ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.raw.row(r)[c]),
                  std::bit_cast<std::uint64_t>(b.raw.row(r)[c]));
      }
    }
    EXPECT_TRUE(served[i].diagnosed);
    EXPECT_TRUE(served[i].result.ok());
  }
}

TEST(IngestServerLoopback, OutOfOrderFeedPassesThroughToIngestorClassifiers) {
  // The wire layer must not reorder/dedup telemetry seq: send seqs with a
  // gap, a repair, and a duplicate; the StreamIngestor sees them verbatim.
  LoopbackRig rig;
  auto server = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                               rig.ingestor);
  WireClient client([&] { return rig.hub.connect(); },
                    client_config(static_cast<std::uint32_t>(
                        rig.registry.size())));
  const auto rows = make_rows(rig.registry, 12, 5);
  const std::vector<std::uint64_t> seqs = {0, 1, 3, 2, 2, 4, 5,
                                           6, 7, 8, 9, 10};
  for (std::size_t t = 0; t < seqs.size(); ++t) {
    rig.reference.push(0, seqs[t], rows[t]);
    ASSERT_TRUE(client.offer(seqs[t], 0.0, rows[t]));
  }
  drive_until_idle(client, *server, 0.0);
  const IngestStats wire_side = rig.ingestor.stats(0);
  const IngestStats in_proc = rig.reference.stats(0);
  EXPECT_EQ(wire_side.accepted, in_proc.accepted);
  EXPECT_EQ(wire_side.duplicates, in_proc.duplicates);
  EXPECT_EQ(wire_side.reordered, in_proc.reordered);
  EXPECT_GT(wire_side.duplicates, 0u);
  EXPECT_GT(wire_side.reordered, 0u);
}

TEST(IngestServerLoopback, ClientReconnectResumesWithoutDoubleIngest) {
  LoopbackRig rig;
  auto server = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                               rig.ingestor);
  WireClient client([&] { return rig.hub.connect(); },
                    client_config(static_cast<std::uint32_t>(
                        rig.registry.size())));
  const auto rows = make_rows(rig.registry, 80, 21);
  double now = 0.0;
  for (std::size_t t = 0; t < 40; ++t) {
    ASSERT_TRUE(client.offer(t, 0.0, rows[t]));
  }
  now = drive_until_idle(client, *server, now);
  const std::uint64_t connects_before = client.stats().connects;

  // Forced mid-stream disconnect with rows in flight.
  for (std::size_t t = 40; t < 80; ++t) {
    ASSERT_TRUE(client.offer(t, 0.0, rows[t]));
  }
  client.step(now);
  client.disconnect();
  now = drive_until_idle(client, *server, now);
  ASSERT_TRUE(client.idle());
  EXPECT_GT(client.stats().connects, connects_before);

  // Exactly-once: 80 rows offered, 80 ingested, zero duplicate ingests.
  EXPECT_EQ(server->watermark(0), 80u);
  EXPECT_EQ(server->wire_stats().rows_ingested, 80u);
  EXPECT_EQ(rig.ingestor.stats(0).accepted, 80u);
  EXPECT_EQ(rig.ingestor.stats(0).duplicates, 0u);
}

TEST(IngestServerLoopback, ServerRestartResumesFromSnapshot) {
  LoopbackRig rig;
  auto server = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                               rig.ingestor);
  WireClient client([&] { return rig.hub.connect(); },
                    client_config(static_cast<std::uint32_t>(
                        rig.registry.size())));
  const auto rows = make_rows(rig.registry, 90, 31);
  double now = 0.0;
  for (std::size_t t = 0; t < 45; ++t) {
    ASSERT_TRUE(client.offer(t, 0.0, rows[t]));
  }
  now = drive_until_idle(client, *server, now);
  ASSERT_TRUE(client.idle());

  // Kill the server mid-run with unacked rows in flight; while it is down
  // the client's reconnect attempts fail (connection refused).
  for (std::size_t t = 45; t < 90; ++t) {
    ASSERT_TRUE(client.offer(t, 0.0, rows[t]));
  }
  const IngestServerSnapshot snap = server->snapshot();
  const WireServerStats first_stats = server->wire_stats();
  server->close();
  server.reset();
  for (int i = 0; i < 20; ++i) {
    client.step(now);
    now += 2.0;
  }
  EXPECT_FALSE(client.connected());
  EXPECT_GT(client.stats().connect_failures, 0u);

  // Next incarnation: same ingestor, watermark resumed from the snapshot.
  auto server2 = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                                rig.ingestor, snap);
  now = drive_until_idle(client, *server2, now);
  ASSERT_TRUE(client.idle());

  EXPECT_EQ(server2->watermark(0), 90u);
  EXPECT_EQ(first_stats.rows_ingested +
                server2->wire_stats().rows_ingested,
            90u);
  EXPECT_EQ(rig.ingestor.stats(0).accepted, 90u);
  EXPECT_EQ(rig.ingestor.stats(0).duplicates, 0u);
}

TEST(IngestServerLoopback, BackpressureShedsTypedAndConservesRows) {
  LoopbackRig rig;
  IngestServerConfig server_cfg;
  server_cfg.node_rows_per_poll = 3;  // tiny budget: most of a burst sheds
  auto server = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                               rig.ingestor, server_cfg);
  WireClientConfig ccfg =
      client_config(static_cast<std::uint32_t>(rig.registry.size()));
  ccfg.max_rows_per_step = 500;  // deliver the whole burst in one poll
  WireClient client([&] { return rig.hub.connect(); }, ccfg);

  const auto rows = make_rows(rig.registry, 200, 41);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    ASSERT_TRUE(client.offer(t, 0.0, rows[t]));
  }
  // Few polls: each disposes the full backlog (3 ingested, rest shed).
  drive_until_idle(client, *server, 0.0, 50);
  ASSERT_TRUE(client.idle());

  const IngestStats stats = server->stats(0);
  EXPECT_GT(stats.rejected_backpressure, 0u);
  EXPECT_EQ(server->wire_stats().rows_rejected, stats.rejected_backpressure);
  // Conservation: watermark == ingested + typed-shed, nothing vanished.
  EXPECT_EQ(server->watermark(0),
            server->wire_stats().rows_ingested + stats.rejected_backpressure);
  EXPECT_EQ(server->watermark(0), rows.size());
  // Shed rows were acked, not retransmitted forever.
  EXPECT_EQ(client.stats().rows_acked, rows.size());
}

TEST(IngestServerLoopback, GarbageBytesAreTypedDecodeErrorNotDeath) {
  LoopbackRig rig;
  auto server = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                               rig.ingestor);
  // A raw peer that speaks garbage straight onto the wire.
  auto raw = rig.hub.connect();
  ASSERT_NE(raw, nullptr);
  const std::string garbage = "GET / HTTP/1.1\r\nHost: not-a-frame\r\n\r\n";
  std::vector<std::uint8_t> bytes(garbage.begin(), garbage.end());
  raw->write_some(bytes);
  server->poll_once(0.0);
  server->poll_once(1.0);
  EXPECT_EQ(server->wire_stats().decode_errors, 1u);
  EXPECT_EQ(server->connection_count(), 0u);

  // The server survives and serves the next well-behaved client.
  WireClient client([&] { return rig.hub.connect(); },
                    client_config(static_cast<std::uint32_t>(
                        rig.registry.size())));
  const auto rows = make_rows(rig.registry, 10, 3);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    ASSERT_TRUE(client.offer(t, 0.0, rows[t]));
  }
  drive_until_idle(client, *server, 2.0);
  EXPECT_EQ(server->wire_stats().rows_ingested, rows.size());
}

TEST(IngestServerLoopback, CorruptedFrameClosesOnlyThatConnection) {
  LoopbackRig rig;
  auto server = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                               rig.ingestor);
  auto raw = rig.hub.connect();
  ASSERT_NE(raw, nullptr);
  std::vector<std::uint8_t> hello =
      encode_frame(HelloFrame{kWireVersion, 0,
                              static_cast<std::uint32_t>(rig.registry.size())});
  raw->write_some(hello);
  server->poll_once(0.0);
  ASSERT_EQ(server->connection_count(), 1u);

  RowFrame row;
  row.node = 0;
  row.wire_index = 0;
  row.seq = 0;
  row.values.assign(rig.registry.size(), 1.0);
  std::vector<std::uint8_t> frame = encode_frame(row);
  frame[kWireHeaderSize + 2] ^= 0x40;  // one flipped payload bit
  raw->write_some(frame);
  server->poll_once(1.0);
  EXPECT_EQ(server->wire_stats().decode_errors, 1u);
  EXPECT_EQ(server->stats(0).decode_errors, 1u);
  EXPECT_EQ(server->connection_count(), 0u);
  EXPECT_EQ(server->wire_stats().rows_ingested, 0u);  // nothing half-applied
}

TEST(IngestServerLoopback, SilentTornFramePeerIsTimedOut) {
  LoopbackRig rig;
  IngestServerConfig server_cfg;
  server_cfg.peer_timeout_ms = 50.0;
  auto server = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                               rig.ingestor, server_cfg);
  auto raw = rig.hub.connect();
  ASSERT_NE(raw, nullptr);
  // Half a header, then silence: the classic torn-frame stall.
  const std::vector<std::uint8_t> half = {'A', 'L', 'B', 'W', 1, 3, 0};
  raw->write_some(half);
  server->poll_once(0.0);
  ASSERT_EQ(server->connection_count(), 1u);
  server->poll_once(49.0);
  EXPECT_EQ(server->connection_count(), 1u);
  server->poll_once(51.0);
  EXPECT_EQ(server->connection_count(), 0u);
  EXPECT_EQ(server->wire_stats().timeouts, 1u);
}

TEST(IngestServerLoopback, NewHelloSupersedesStaleConnection) {
  LoopbackRig rig;
  auto server = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                               rig.ingestor);
  const auto metric_count =
      static_cast<std::uint32_t>(rig.registry.size());
  WireClient stale([&] { return rig.hub.connect(); },
                   client_config(metric_count));
  stale.step(0.0);
  server->poll_once(0.0);
  stale.step(1.0);
  ASSERT_TRUE(stale.connected());

  // The "same" collector reconnects (say after a NAT rebind) while the old
  // socket is still open: the new connection must win immediately.
  WireClient fresh([&] { return rig.hub.connect(); },
                   client_config(metric_count));
  fresh.step(2.0);
  server->poll_once(2.0);
  fresh.step(3.0);
  ASSERT_TRUE(fresh.connected());
  EXPECT_EQ(server->wire_stats().superseded, 1u);
  EXPECT_EQ(server->connection_count(), 1u);

  // The stale client notices on its next step (eof) and reconnects later.
  stale.step(4.0);
  EXPECT_FALSE(stale.connected());
}

TEST(IngestServerLoopback, ClientTimesOutSilentServerAndRetries) {
  LoopbackRig rig;
  auto listener = rig.hub.make_listener();
  WireClientConfig ccfg =
      client_config(static_cast<std::uint32_t>(rig.registry.size()));
  ccfg.heartbeat_timeout_ms = 40.0;
  WireClient client([&] { return rig.hub.connect(); }, ccfg);

  // Accept the connection but never answer the Hello.
  client.step(0.0);
  auto server_end = listener->accept_one();
  ASSERT_NE(server_end, nullptr);
  for (double now = 1.0; now < 200.0; now += 1.0) client.step(now);
  EXPECT_GT(client.stats().disconnects, 0u);
  EXPECT_GT(client.stats().connects, 1u);  // it kept trying
}

TEST(IngestServerLoopback, ChaosDuplicatedFramesNeverDoubleIngest) {
  LoopbackRig rig;
  auto server = std::make_unique<IngestServer>(rig.hub.make_listener(),
                                               rig.ingestor);
  WireChaosConfig chaos_cfg;
  chaos_cfg.seed = 99;
  chaos_cfg.duplicate_rate = 0.5;
  chaos_cfg.partial_writes = true;
  chaos_cfg.grace_frames = 1;  // let the Hello through untouched
  WireChaos chaos(chaos_cfg);
  WireClient client(chaos.wrap([&] { return rig.hub.connect(); }),
                    client_config(static_cast<std::uint32_t>(
                        rig.registry.size())));

  const auto rows = make_rows(rig.registry, 60, 51);
  double now = 0.0;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    ASSERT_TRUE(client.offer(t, 0.0, rows[t]));
    chaos.set_now(now);
    client.step(now);
    server->poll_once(now);
    now += 1.0;
  }
  for (std::size_t i = 0; i < 2000 && !client.idle(); ++i) {
    chaos.set_now(now);
    client.step(now);
    server->poll_once(now);
    client.step(now);
    now += 1.0;
  }
  ASSERT_TRUE(client.idle());
  EXPECT_GT(chaos.stats().duplicated, 0u);
  EXPECT_GT(server->wire_stats().duplicates_dropped, 0u);
  EXPECT_EQ(server->wire_stats().rows_ingested, rows.size());
  EXPECT_EQ(rig.ingestor.stats(0).accepted, rows.size());
  EXPECT_EQ(rig.ingestor.stats(0).duplicates, 0u);
}

// ------------------------------------------------------------ stats CSV ---

TEST(IngestStatsCsv, RoundTripsThroughRfc4180Parser) {
  IngestStats a;
  a.accepted = 100;
  a.duplicates = 3;
  a.reordered = 2;
  a.late_dropped = 1;
  a.missing_rows = 4;
  a.resets = 1;
  a.windows_emitted = 12;
  a.windows_dropped = 2;
  a.windows_flushed = 3;
  a.rejected_backpressure = 7;
  a.decode_errors = 5;
  IngestStats b;
  b.accepted = 50;
  b.rejected_backpressure = 1;

  const std::vector<std::pair<std::string, IngestStats>> entries = {
      {"node=0,rack=\"r1\"", a},  // comma and quotes: the escaping test
      {"node=1", b},
  };
  const ScopedTempDir dir;
  const std::string path = dir.file("ingest_stats.csv");
  {
    std::ofstream out(path);
    write_ingest_stats_csv(
        out, std::span<const std::pair<std::string, IngestStats>>(entries));
  }
  const CsvTable table = read_csv(path);

  ASSERT_EQ(table.rows.size(), 2u);
  ASSERT_EQ(table.header.size(), 12u);
  EXPECT_EQ(table.header[0], "label");
  EXPECT_EQ(table.header[10], "rejected_backpressure");
  EXPECT_EQ(table.header[11], "decode_errors");
  // The label with comma + quotes survives the round trip intact.
  EXPECT_EQ(table.rows[0][table.column_index("label")],
            "node=0,rack=\"r1\"");
  EXPECT_EQ(table.rows[0][table.column_index("accepted")], "100");
  EXPECT_EQ(table.rows[0][table.column_index("rejected_backpressure")], "7");
  EXPECT_EQ(table.rows[0][table.column_index("decode_errors")], "5");
  EXPECT_EQ(table.rows[1][table.column_index("accepted")], "50");
  EXPECT_EQ(table.rows[1][table.column_index("rejected_backpressure")], "1");
}

// ------------------------------------------------------------------ TCP ---

// A connected loopback socket pair. tcp_connect returns once the
// handshake is done, but the accept may still be queued: retry briefly.
struct TcpPair {
  std::unique_ptr<TcpListener> listener = TcpListener::bind_loopback();
  std::unique_ptr<Connection> client = tcp_connect("127.0.0.1",
                                                   listener->port());
  std::unique_ptr<Connection> server = accept_soon(*listener);

  static std::unique_ptr<Connection> accept_soon(Listener& l) {
    for (int i = 0; i < 5000; ++i) {
      if (auto conn = l.accept_one()) return conn;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return nullptr;
  }
};

// Reads from `conn` until a read does more than would-block (polling
// 1 ms apart for up to 5 s), appending the bytes to `got`.
IoResult read_settled(Connection& conn, std::vector<std::uint8_t>& got) {
  std::uint8_t buf[256];
  IoResult r;
  for (int i = 0; i < 5000; ++i) {
    r = conn.read_some(buf);
    got.insert(got.end(), buf, buf + r.n);
    if (!r.would_block) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return r;
}

std::vector<std::uint8_t> read_n(Connection& conn, std::size_t n) {
  std::vector<std::uint8_t> got;
  while (got.size() < n && read_settled(conn, got).n > 0) {
  }
  return got;
}

TEST(TcpTransport, RoundTripsBytesBothWays) {
  TcpPair tcp;
  ASSERT_NE(tcp.client, nullptr);
  ASSERT_NE(tcp.server, nullptr);
  const std::string msg = "exactly this many bytes cross the socket";
  const std::vector<std::uint8_t> bytes(msg.begin(), msg.end());

  const IoResult w = tcp.client->write_some(bytes);
  EXPECT_EQ(w.n, bytes.size());
  EXPECT_TRUE(w.ok());
  EXPECT_EQ(read_n(*tcp.server, bytes.size()), bytes);

  ASSERT_EQ(tcp.server->write_some(bytes).n, bytes.size());
  EXPECT_EQ(read_n(*tcp.client, bytes.size()), bytes);
}

TEST(TcpTransport, ReadReportsEofAfterPeerCloses) {
  TcpPair tcp;
  ASSERT_NE(tcp.client, nullptr);
  ASSERT_NE(tcp.server, nullptr);
  const std::vector<std::uint8_t> bytes = {'s', 'h', 'o', 'r', 't'};
  ASSERT_EQ(tcp.client->write_some(bytes).n, bytes.size());
  tcp.client->close();  // the bytes already sent still arrive, then eof

  std::vector<std::uint8_t> got = read_n(*tcp.server, bytes.size());
  EXPECT_EQ(got, bytes);
  const IoResult end = read_settled(*tcp.server, got);
  EXPECT_TRUE(end.eof);
  EXPECT_EQ(end.n, 0u);
  EXPECT_EQ(end.error, 0);
  EXPECT_EQ(got, bytes);
}

TEST(TcpTransport, WriteToClosedPeerIsAnErrorNotSigpipe) {
  TcpPair tcp;
  ASSERT_NE(tcp.client, nullptr);
  ASSERT_NE(tcp.server, nullptr);
  tcp.server->close();
  // The first write can land in the kernel buffer before the peer's
  // reset comes back; keep writing until the transport sees the hangup.
  const std::vector<std::uint8_t> bytes(1024, 0x5a);
  IoResult w;
  for (int i = 0; i < 5000 && w.error == 0; ++i) {
    w = tcp.client->write_some(bytes);
    if (w.error == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Getting here at all means the write did not raise a fatal SIGPIPE.
  EXPECT_TRUE(w.error == EPIPE || w.error == ECONNRESET)
      << "errno " << w.error;
  EXPECT_FALSE(w.ok());
}

TEST(TcpTransport, EmptyNonblockingReadWouldBlock) {
  TcpPair tcp;
  ASSERT_NE(tcp.client, nullptr);
  ASSERT_NE(tcp.server, nullptr);
  for (Connection* end : {tcp.client.get(), tcp.server.get()}) {
    std::uint8_t buf[8];
    const IoResult r = end->read_some(buf);
    EXPECT_EQ(r.n, 0u);
    EXPECT_TRUE(r.would_block);
    EXPECT_FALSE(r.eof);
    EXPECT_EQ(r.error, 0);
  }
}

TEST(IngestServerTcp, SingleThreadNonblockingEndToEnd) {
  MetricRegistry registry = test_registry();
  StreamIngestor ingestor(MetricRegistry(test_registry()),
                          small_window_config());
  auto listener = TcpListener::bind_loopback();
  const std::uint16_t port = listener->port();
  IngestServer server(std::move(listener), ingestor);

  WireClient client([port] { return tcp_connect("127.0.0.1", port); },
                    client_config(static_cast<std::uint32_t>(
                        registry.size())));
  const auto rows = make_rows(registry, 64, 61);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    ASSERT_TRUE(client.offer(t, 0.0, rows[t]));
  }
  const auto start = std::chrono::steady_clock::now();
  auto now_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  while (!client.idle() && now_ms() < 10'000.0) {
    client.step(now_ms());
    server.poll_once(now_ms());
  }
  ASSERT_TRUE(client.idle());
  EXPECT_EQ(server.wire_stats().rows_ingested, rows.size());
  EXPECT_EQ(ingestor.stats(0).accepted, rows.size());
}

TEST(IngestServerTcp, ThreadedClientAndServer) {
  MetricRegistry registry = test_registry();
  StreamIngestor ingestor(MetricRegistry(test_registry()),
                          small_window_config());
  auto listener = TcpListener::bind_loopback();
  const std::uint16_t port = listener->port();
  IngestServer server(std::move(listener), ingestor);

  constexpr std::size_t kRows = 256;
  std::atomic<bool> client_done{false};

  std::thread client_thread([&] {
    MetricRegistry creg = test_registry();
    WireClient client([port] { return tcp_connect("127.0.0.1", port); },
                      client_config(static_cast<std::uint32_t>(creg.size())));
    const auto rows = make_rows(creg, kRows, 71);
    const auto start = std::chrono::steady_clock::now();
    auto now_ms = [&] {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    std::size_t offered = 0;
    while (!client.idle() || offered < kRows) {
      if (offered < kRows && client.offer(offered, 0.0, rows[offered])) {
        ++offered;
      }
      client.step(now_ms());
      if (now_ms() > 15'000.0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    client_done.store(true);
  });

  const auto start = std::chrono::steady_clock::now();
  auto now_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  while (!client_done.load() && now_ms() < 20'000.0) {
    server.wait(5.0);
    server.poll_once(now_ms());
  }
  // Drain anything the client sent in its last instants.
  for (int i = 0; i < 10; ++i) server.poll_once(now_ms());
  client_thread.join();

  EXPECT_EQ(server.wire_stats().rows_ingested, kRows);
  EXPECT_EQ(ingestor.stats(0).accepted, kRows);
  EXPECT_EQ(ingestor.stats(0).duplicates, 0u);
}

}  // namespace
}  // namespace alba
