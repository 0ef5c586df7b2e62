// The network front end of the streaming pipeline: accepts wire-protocol
// connections (src/wire), validates and sequences their Row frames, and
// feeds surviving rows into a StreamIngestor — bit-identically to calling
// StreamIngestor::push in process — with triggered windows optionally
// routed straight into a Diagnoser.
//
// Delivery contract (the exactly-once wire layer):
//
//  * each node's rows carry a dense client-assigned wire index; the server
//    keeps a per-node watermark W = next index it will dispose. A row at
//    index < W is a retransmit duplicate and is dropped without touching
//    the ingestor; index > W on an ordered transport means the peer is
//    broken and the connection is closed (typed protocol error); index ==
//    W is disposed exactly once — either pushed into the ingestor or shed
//    by the backpressure budget (`rejected_backpressure`) — and W
//    advances. Cumulative Acks carry W back to the client;
//
//  * the watermark is the server's durable state: snapshot() captures it
//    (plus the wire counters) and the restart constructor resumes from it,
//    so a server restart re-ingests nothing and loses nothing acked. The
//    StreamIngestor is passed by reference and owned by the caller for the
//    same reason;
//
//  * note what the wire layer does NOT do: it never reorders, dedups, or
//    gap-fills the telemetry `seq` inside Row frames. A feed with
//    out-of-order or duplicate epochs passes through untouched and the
//    StreamIngestor classifies it exactly as it would in process.
//
// Fault handling: every malformed byte stream (bad magic, bad CRC,
// oversized length, truncation mid-frame) is a typed per-connection
// outcome — the connection dies, counters tick, the process never does.
// A peer that goes silent (or trickles a torn frame forever) is shed by
// the rx-idle timeout. A new Hello for a node supersedes that node's older
// connection (the reconnecting client wins; the stale socket is closed).
//
// Each accepted peer is one FramedConnection (wire/transport), the same
// framing, buffering and rx/tx clocks the client runs; a quiet peer gets
// a Heartbeat every kWireHeartbeatIntervalMs so the client's own rx
// timeout does not fire on an idle feed.
//
// Threading: none. poll_once(now_ms) drives everything from one thread on
// an injected clock; wait() is an optional poll(2) sleep for fd-backed
// transports so a real deployment doesn't spin.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "serving/diagnoser.hpp"
#include "streaming/ingest.hpp"
#include "wire/frame.hpp"
#include "wire/transport.hpp"

namespace alba {

struct IngestServerConfig {
  std::size_t max_connections = 64;
  // Backpressure budget: rows a node may ingest per poll_once call. Rows
  // beyond it are disposed as typed `rejected_backpressure` sheds (and
  // acked — shedding is a decision, not a loss) instead of queueing
  // unboundedly. Size it to feed_rate x poll_interval with headroom.
  std::size_t node_rows_per_poll = 256;
  // A connection with no readable bytes for this long is dead (covers
  // silent peers and slow-loris torn frames alike).
  double peer_timeout_ms = 10000.0;
  // Deadline handed to the attached Diagnoser per window; 0 = never().
  double diagnose_deadline_ms = 0.0;
};

/// Server-side wire accounting, summed over all connections.
struct WireServerStats {
  std::uint64_t accepted_connections = 0;
  std::uint64_t refused_connections = 0;   // over max_connections
  std::uint64_t closed_connections = 0;    // any reason, once each
  std::uint64_t decode_errors = 0;         // typed FrameDecoder failures
  std::uint64_t protocol_errors = 0;       // valid frames, invalid protocol
  std::uint64_t timeouts = 0;              // rx-idle sheds
  std::uint64_t superseded = 0;            // replaced by a newer Hello
  std::uint64_t rows_received = 0;         // Row frames parsed
  std::uint64_t rows_ingested = 0;         // pushed into the StreamIngestor
  std::uint64_t rows_rejected = 0;         // backpressure sheds
  std::uint64_t duplicates_dropped = 0;    // wire index below watermark
  std::uint64_t heartbeats_received = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
};

/// One window that crossed the wire: the trigger plus its diagnosis when a
/// Diagnoser is attached (`diagnosed` false otherwise).
struct ServedWindow {
  TriggeredWindow window;
  DiagnosisResult result;
  bool diagnosed = false;
};

/// Durable per-node wire state for a server handoff (a restart with a
/// journaled watermark): resuming from it makes the next incarnation
/// ack-compatible with every client of the previous one.
struct IngestServerSnapshot {
  struct Node {
    int node = 0;
    std::uint64_t watermark = 0;
    std::uint64_t rows_pushed = 0;
    std::uint64_t rejected_backpressure = 0;
    std::uint64_t decode_errors = 0;
  };
  std::vector<Node> nodes;
};

class IngestServer {
 public:
  /// Fresh server. `ingestor` outlives the server and is fed in wire-index
  /// order per node; `diagnoser` (optional, may be nullptr) receives every
  /// triggered window.
  IngestServer(std::unique_ptr<Listener> listener, StreamIngestor& ingestor,
               IngestServerConfig config = {}, Diagnoser* diagnoser = nullptr);

  /// Restarted server: same as above but resuming every node's watermark
  /// (and wire counters) from `resume`, typically a prior incarnation's
  /// snapshot().
  IngestServer(std::unique_ptr<Listener> listener, StreamIngestor& ingestor,
               const IngestServerSnapshot& resume,
               IngestServerConfig config = {}, Diagnoser* diagnoser = nullptr);

  ~IngestServer();

  /// One scheduling round at time `now_ms` (monotonic across calls):
  /// accepts pending connections, drains readable frames (disposing rows
  /// under the per-node budget), sends acks/heartbeats, sheds dead or
  /// timed-out peers. Returns the number of Row frames disposed this call
  /// (ingested + shed + duplicate), so drivers can spin until quiescent.
  std::size_t poll_once(double now_ms);

  /// Sleeps in poll(2) until the listener or a connection is readable, up
  /// to `timeout_ms`. Returns immediately (false) when any endpoint lacks
  /// a file descriptor (in-memory transports) — callers then pace
  /// poll_once themselves. True when an fd woke us.
  bool wait(double timeout_ms);

  /// Drains the windows triggered since the last call, in emit order.
  std::vector<ServedWindow> take_served();

  /// Ingest accounting with the wire-layer dispositions filled in:
  /// StreamIngestor::stats(node) plus this server's per-node
  /// rejected_backpressure / decode_errors.
  IngestStats stats(int node) const;
  IngestStats total_stats() const;

  const WireServerStats& wire_stats() const noexcept { return wire_stats_; }

  /// Next wire index the server will dispose for `node` (0 if unseen).
  std::uint64_t watermark(int node) const;

  std::size_t connection_count() const noexcept { return conns_.size(); }

  IngestServerSnapshot snapshot() const;

  /// Closes the listener and every connection (idempotent). poll_once
  /// afterwards is a no-op; the destructor calls this.
  void close();

 private:
  struct Conn {
    FramedConnection link;
    bool hello_done = false;
    int node = 0;
    bool dead = false;
  };

  struct NodeWire {
    IngestServerSnapshot::Node durable;  // what snapshot() carries over
    Conn* owner = nullptr;  // live connection serving this node, if any
  };

  void accept_pending(double now_ms);
  std::size_t service_conn(Conn& c, double now_ms,
                           std::map<int, std::size_t>& rows_this_poll);
  bool handle_frame(Conn& c, const Frame& frame,
                    std::map<int, std::size_t>& rows_this_poll,
                    std::size_t& disposed);
  void dispose_row(Conn& c, const RowFrame& row, NodeWire& nw,
                   std::size_t& budget_used);
  void kill_conn(Conn& c);
  void reap_dead();

  std::unique_ptr<Listener> listener_;
  StreamIngestor& ingestor_;
  IngestServerConfig config_;
  Diagnoser* diagnoser_ = nullptr;

  std::vector<std::unique_ptr<Conn>> conns_;
  std::map<int, NodeWire> nodes_;
  std::vector<ServedWindow> served_;
  WireServerStats wire_stats_;
  bool closed_ = false;
};

}  // namespace alba
