// Byte transports under the wire protocol: a minimal non-blocking
// Connection/Listener pair with two implementations —
//
//   * TCP (loopback or LAN): the production path. Sockets are
//     non-blocking; the ingest server multiplexes them with poll(2) via
//     the fd() hook, and SIGPIPE is suppressed so peer hangups surface as
//     typed errors.
//
//   * Loopback: deterministic in-memory byte pipes through a LoopbackHub.
//     No file descriptors, no kernel buffers, no timing — a test or chaos
//     scenario drives client and server alternately in one thread and
//     every byte movement is reproducible. connect() fails (nullptr) while
//     no listener is live, which is exactly how a dead server looks to a
//     reconnecting client.
//
// Both ends of either transport are safe to use from one thread at a time
// per end (the loopback hub itself is internally locked so the two ends
// may live on different threads).
//
// FramedConnection turns either transport into a stream of wire frames;
// it is the only reader and writer of a connection in the protocol ends.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "wire/frame.hpp"

namespace alba {

/// One non-blocking read/write attempt. Exactly one of would_block / eof /
/// error explains a zero-byte outcome; `n` bytes may still have moved
/// before a would_block.
struct IoResult {
  std::size_t n = 0;
  bool would_block = false;
  bool eof = false;   // peer closed its end (reads only)
  int error = 0;      // errno-style failure; the connection is dead

  bool ok() const noexcept { return !eof && error == 0; }
};

/// A bidirectional byte stream. Implementations never block and never
/// raise signals; every failure is an IoResult.
class Connection {
 public:
  virtual ~Connection() = default;

  virtual IoResult read_some(std::span<std::uint8_t> buf) = 0;
  virtual IoResult write_some(std::span<const std::uint8_t> data) = 0;
  virtual void close() = 0;
  virtual bool closed() const = 0;

  /// Pollable descriptor, or -1 for in-memory transports (the server then
  /// sweeps non-blockingly instead of sleeping in poll(2)).
  virtual int fd() const { return -1; }
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// Accepts one pending connection; nullptr when none is waiting.
  virtual std::unique_ptr<Connection> accept_one() = 0;
  virtual void close() = 0;
  virtual int fd() const { return -1; }
};

/// How a client obtains (re)connections; returns nullptr on failure (the
/// client backs off and retries). WireChaos wraps one of these to inject
/// faults between client and transport.
using Connector = std::function<std::unique_ptr<Connection>()>;

// ------------------------------------------------------ framed streams ---

/// A frame stream over one Connection: the per-peer state WireClient and
/// IngestServer both keep. It owns the incremental decoder, the outbound
/// frame buffer with its partial-flush bookkeeping, the rx/tx clocks that
/// drive heartbeats and dead-peer detection, and the heartbeat counter.
/// Time is the caller's (`now_ms`, monotonic across calls). Byte counts go
/// to caller-owned counters, so an end can total them over every
/// connection it has had.
class FramedConnection {
 public:
  /// Starts both clocks at `now_ms`.
  FramedConnection(std::unique_ptr<Connection> conn, double now_ms);

  /// Queues one frame; its bytes leave on a later flush().
  void send(const Frame& frame) { append_frame(outbuf_, frame); }

  /// Writes as much queued output as the transport takes. False when the
  /// transport failed: the connection is dead.
  bool flush(double now_ms, std::uint64_t& bytes_sent);

  enum class ReadEnd {
    Drained,   // the transport would block; the connection lives on
    Stopped,   // on_frame returned false
    Closed,    // the peer closed its end or the transport failed
    BadFrame,  // the decoder failed: the stream is poisoned
  };

  /// Reads until the transport would block, handing each decoded frame to
  /// `on_frame(const Frame&) -> bool` in arrival order; false stops the
  /// read. Every end but Drained means the caller drops the connection.
  template <class OnFrame>
  ReadEnd read_frames(double now_ms, std::uint64_t& bytes_received,
                      OnFrame&& on_frame);

  /// Queues a heartbeat when no output is pending and nothing has been
  /// written for kWireHeartbeatIntervalMs. True when one was queued.
  bool heartbeat_if_due(double now_ms);

  /// Nothing arrived for `timeout_ms`: a silent peer, or a torn frame
  /// trickling in forever (slow-loris).
  bool silent(double now_ms, double timeout_ms) const noexcept {
    return now_ms - last_rx_ms_ >= timeout_ms;
  }

  bool output_pending() const noexcept { return outbuf_head_ < outbuf_.size(); }
  int fd() const { return conn_->fd(); }
  void close() { conn_->close(); }

 private:
  std::unique_ptr<Connection> conn_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> outbuf_;
  std::size_t outbuf_head_ = 0;  // bytes of outbuf_ already written
  double last_rx_ms_ = 0.0;
  double last_tx_ms_ = 0.0;
  std::uint64_t heartbeat_counter_ = 0;
};

template <class OnFrame>
FramedConnection::ReadEnd FramedConnection::read_frames(
    double now_ms, std::uint64_t& bytes_received, OnFrame&& on_frame) {
  std::uint8_t buf[4096];
  Frame frame;
  while (true) {
    const IoResult r = conn_->read_some(buf);
    if (r.n > 0) {
      bytes_received += r.n;
      last_rx_ms_ = now_ms;
      decoder_.feed({buf, r.n});
      while (true) {
        const FrameDecoder::State s = decoder_.next(frame);
        if (s == FrameDecoder::State::NeedMore) break;
        if (s == FrameDecoder::State::Error) return ReadEnd::BadFrame;
        if (!on_frame(std::as_const(frame))) return ReadEnd::Stopped;
      }
    }
    if (r.eof || r.error != 0) return ReadEnd::Closed;
    if (r.would_block || r.n == 0) return ReadEnd::Drained;
  }
}

// ------------------------------------------------------------------ TCP ---

class TcpListener : public Listener {
 public:
  /// Binds and listens on 127.0.0.1:`port` (0 picks an ephemeral port).
  /// Throws alba::Error on bind failure.
  static std::unique_ptr<TcpListener> bind_loopback(std::uint16_t port = 0);

  ~TcpListener() override;
  std::unique_ptr<Connection> accept_one() override;
  void close() override;
  int fd() const override { return fd_; }
  std::uint16_t port() const noexcept { return port_; }

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to `host`:`port` with a bounded blocking connect, then switches
/// the socket non-blocking. nullptr on refusal/timeout/any failure.
std::unique_ptr<Connection> tcp_connect(const std::string& host,
                                        std::uint16_t port,
                                        double timeout_ms = 1000.0);

// ------------------------------------------------------- loopback pipes ---

namespace detail {
struct LoopbackShared;
}

/// In-memory rendezvous: make_listener() opens the server side, connect()
/// creates a connection pair, handing the server end to the listener.
/// Closing or dropping the listener makes connect() return nullptr
/// (connection refused) until a new listener is made — which is how a
/// server restart looks from the client.
class LoopbackHub {
 public:
  LoopbackHub();
  ~LoopbackHub();

  /// Opens (or replaces) the hub's listener. A previous listener object is
  /// implicitly closed.
  std::unique_ptr<Listener> make_listener();

  /// Client-side connect; nullptr while no listener is live.
  std::unique_ptr<Connection> connect();

 private:
  std::shared_ptr<detail::LoopbackShared> shared_;
};

}  // namespace alba
