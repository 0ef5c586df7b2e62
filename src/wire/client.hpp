// The collector-side wire client: buffers telemetry rows, streams them to
// the ingest server as Row frames, and guarantees each offered row is
// delivered exactly once even across disconnects and server restarts.
//
// Reliability model:
//   * offer() assigns each row a dense per-node wire index and keeps the
//     row buffered until the server's cumulative Ack covers it (bounded by
//     max_inflight_rows — a full buffer pushes back on the caller rather
//     than growing without bound);
//   * on (re)connect the client sends Hello and waits for HelloAck, whose
//     resume_index says where the server's watermark stands: everything
//     below it is retroactively acked (it was disposed before the
//     connection died), everything at or above it is retransmitted. The
//     server's watermark survives connection churn and — via
//     IngestServer::snapshot() — a server restart, so nothing acked is
//     ever re-sent and nothing unacked is ever lost silently;
//   * a heartbeat goes out after kWireHeartbeatIntervalMs with nothing
//     else to send; silence from the server past heartbeat_timeout_ms is
//     treated as a dead peer and triggers a reconnect with seeded
//     exponential backoff (common/backoff).
//
// The bytes move through a FramedConnection (wire/transport), the same
// framing, buffering and clocks the server runs per peer; the client adds
// the delivery protocol on top. It is a poll-driven state machine, not a
// thread: step(now_ms) advances it — drains acks, detects timeouts, sends
// rows, flushes pending bytes, reconnects when due. Time is a parameter,
// so tests and chaos scenarios drive it on a simulated clock while
// production callers pass steady-clock milliseconds. Not thread-safe; one
// owner steps it.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "wire/frame.hpp"
#include "wire/transport.hpp"

namespace alba {

struct WireClientConfig {
  std::uint32_t node = 0;
  std::uint32_t metric_count = 0;      // validated by the server's Hello check
  double heartbeat_timeout_ms = 5000.0;  // server silence before reconnect
  BackoffConfig reconnect;             // delays between connect attempts
  std::size_t max_inflight_rows = 4096;  // offer() refuses past this
  std::size_t max_rows_per_step = 256;   // send pacing per step()
};

struct WireClientStats {
  std::uint64_t rows_offered = 0;
  std::uint64_t rows_acked = 0;        // incl. rows covered by a resume point
  std::uint64_t row_frames_sent = 0;   // every transmission, retries included
  std::uint64_t retransmits = 0;       // row frames sent beyond the first try
  std::uint64_t connects = 0;          // successful connections established
  std::uint64_t connect_failures = 0;
  std::uint64_t disconnects = 0;       // eof/error/decode/heartbeat losses
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class WireClient {
 public:
  WireClient(Connector connector, WireClientConfig config);

  /// Buffers one row for delivery. Returns false (and buffers nothing)
  /// when max_inflight_rows rows are already awaiting ack — step() until
  /// acks drain, then retry.
  bool offer(std::uint64_t seq, double timestamp,
             std::span<const double> values);

  /// Advances the state machine at simulated/real time `now_ms`
  /// (monotonic across calls): connects when due, handshakes, sends rows
  /// and heartbeats, drains acks, detects dead peers.
  void step(double now_ms);

  /// Rows offered but not yet covered by the server's watermark.
  std::size_t unacked() const noexcept { return pending_.size(); }
  /// The server watermark as last observed (next wire index it expects).
  std::uint64_t acked_through() const noexcept { return acked_; }
  /// Connected, handshaken, every offered row acked, nothing buffered.
  bool idle() const noexcept;
  bool connected() const noexcept { return state_ == State::Streaming; }

  const WireClientStats& stats() const noexcept { return stats_; }

  /// Drops the connection (the buffered rows stay; a later step
  /// reconnects). Used by harnesses to force a client-side fault.
  void disconnect();

 private:
  enum class State { Disconnected, AwaitHelloAck, Streaming };

  struct PendingRow {
    std::uint64_t index = 0;
    std::uint64_t seq = 0;
    double timestamp = 0.0;
    std::vector<double> values;
    std::uint32_t sends = 0;
  };

  bool handle_frame(const Frame& frame);
  void advance_ack(std::uint64_t next_index);
  void lose_connection(double now_ms);
  void try_connect(double now_ms);

  Connector connector_;
  WireClientConfig config_;
  Rng backoff_rng_;
  State state_ = State::Disconnected;
  std::optional<FramedConnection> link_;  // engaged unless Disconnected

  std::deque<PendingRow> pending_;   // unacked rows, index order
  std::uint64_t next_assign_ = 0;    // next wire index offer() hands out
  std::uint64_t acked_ = 0;          // server watermark (next expected)
  std::size_t send_cursor_ = 0;      // pending_ position of next unsent row

  int attempt_ = 0;                  // consecutive failed connects
  double next_attempt_ms_ = 0.0;
  bool started_ = false;

  WireClientStats stats_;
};

}  // namespace alba
