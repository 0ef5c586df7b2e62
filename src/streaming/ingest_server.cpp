#include "streaming/ingest_server.hpp"

#include <algorithm>
#include <utility>

#include <poll.h>

#include "common/error.hpp"

namespace alba {

IngestServer::IngestServer(std::unique_ptr<Listener> listener,
                           StreamIngestor& ingestor, IngestServerConfig config,
                           Diagnoser* diagnoser)
    : listener_(std::move(listener)), ingestor_(ingestor), config_(config),
      diagnoser_(diagnoser) {
  ALBA_CHECK(listener_ != nullptr) << "ingest server needs a listener";
  ALBA_CHECK(config_.node_rows_per_poll > 0);
}

IngestServer::IngestServer(std::unique_ptr<Listener> listener,
                           StreamIngestor& ingestor,
                           const IngestServerSnapshot& resume,
                           IngestServerConfig config, Diagnoser* diagnoser)
    : IngestServer(std::move(listener), ingestor, config, diagnoser) {
  for (const IngestServerSnapshot::Node& n : resume.nodes) {
    nodes_[n.node].durable = n;
  }
}

IngestServer::~IngestServer() { close(); }

void IngestServer::close() {
  if (closed_) return;
  closed_ = true;
  if (listener_) listener_->close();
  for (auto& c : conns_) kill_conn(*c);
  reap_dead();
}

void IngestServer::kill_conn(Conn& c) {
  if (c.dead) return;
  c.dead = true;
  c.link.close();
  if (c.hello_done) {
    auto it = nodes_.find(c.node);
    if (it != nodes_.end() && it->second.owner == &c) {
      it->second.owner = nullptr;
    }
  }
  ++wire_stats_.closed_connections;
}

void IngestServer::reap_dead() {
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::unique_ptr<Conn>& c) {
                                return c->dead;
                              }),
               conns_.end());
}

void IngestServer::accept_pending(double now_ms) {
  while (auto conn = listener_->accept_one()) {
    if (conns_.size() >= config_.max_connections) {
      conn->close();
      ++wire_stats_.refused_connections;
      continue;
    }
    conns_.push_back(std::make_unique<Conn>(
        Conn{FramedConnection(std::move(conn), now_ms)}));
    ++wire_stats_.accepted_connections;
  }
}

void IngestServer::dispose_row(Conn& c, const RowFrame& row, NodeWire& nw,
                               std::size_t& budget_used) {
  if (budget_used >= config_.node_rows_per_poll) {
    // Typed shed: the row is disposed (and will be acked) without touching
    // the ingestor. The client must not retransmit it — backpressure is a
    // decision about this row, not a transport failure.
    ++nw.durable.rejected_backpressure;
    ++wire_stats_.rows_rejected;
    ++nw.durable.watermark;
    return;
  }
  std::vector<TriggeredWindow> wins =
      ingestor_.push(c.node, row.seq, row.values);
  ++nw.durable.rows_pushed;
  ++wire_stats_.rows_ingested;
  ++nw.durable.watermark;
  ++budget_used;
  for (TriggeredWindow& w : wins) {
    ServedWindow sw;
    if (diagnoser_ != nullptr) {
      DiagnoseRequest req;
      req.window = &w.raw;
      req.deadline = config_.diagnose_deadline_ms > 0.0
                         ? Deadline::after_ms(config_.diagnose_deadline_ms)
                         : Deadline::never();
      sw.result = diagnoser_->diagnose(req);
      sw.diagnosed = true;
    }
    sw.window = std::move(w);
    served_.push_back(std::move(sw));
  }
}

// False when the frame killed `c` (a protocol violation).
bool IngestServer::handle_frame(Conn& c, const Frame& frame,
                                std::map<int, std::size_t>& rows_this_poll,
                                std::size_t& disposed) {
  if (const auto* hello = std::get_if<HelloFrame>(&frame)) {
    const auto node = static_cast<int>(hello->node);
    if (c.hello_done || hello->protocol != kWireVersion ||
        hello->metric_count != ingestor_.registry().size()) {
      ++wire_stats_.protocol_errors;
      kill_conn(c);
      return false;
    }
    NodeWire& nw = nodes_[node];
    nw.durable.node = node;  // the node's first Hello creates its entry
    if (nw.owner != nullptr && nw.owner != &c) {
      // The reconnecting client wins; its stale previous socket is dead
      // weight (often not yet timed out on our side).
      ++wire_stats_.superseded;
      kill_conn(*nw.owner);
    }
    c.hello_done = true;
    c.node = node;
    nw.owner = &c;
    HelloAckFrame ack;
    ack.node = hello->node;
    ack.resume_index = nw.durable.watermark;
    c.link.send(ack);
    return true;
  }

  if (const auto* row = std::get_if<RowFrame>(&frame)) {
    ++wire_stats_.rows_received;
    if (!c.hello_done || static_cast<int>(row->node) != c.node ||
        row->values.size() != ingestor_.registry().size()) {
      ++wire_stats_.protocol_errors;
      kill_conn(c);
      return false;
    }
    NodeWire& nw = nodes_[c.node];
    if (row->wire_index < nw.durable.watermark) {
      // Retransmit of an already-disposed row (the ack was in flight when
      // the client resent). Drop it and re-ack so the client catches up.
      ++wire_stats_.duplicates_dropped;
      ++disposed;
      return true;
    }
    if (row->wire_index > nw.durable.watermark) {
      // The transport is ordered, so a gap means the peer skipped rows —
      // that is a broken client, not a network fault.
      ++wire_stats_.protocol_errors;
      kill_conn(c);
      return false;
    }
    dispose_row(c, *row, nw, rows_this_poll[c.node]);
    ++disposed;
    return true;
  }

  if (std::holds_alternative<HeartbeatFrame>(frame)) {
    ++wire_stats_.heartbeats_received;
    return true;
  }

  // HelloAck / Ack from a client is a protocol violation.
  ++wire_stats_.protocol_errors;
  kill_conn(c);
  return false;
}

std::size_t IngestServer::service_conn(
    Conn& c, double now_ms, std::map<int, std::size_t>& rows_this_poll) {
  std::size_t disposed = 0;
  const FramedConnection::ReadEnd end = c.link.read_frames(
      now_ms, wire_stats_.bytes_received, [&](const Frame& frame) {
        return handle_frame(c, frame, rows_this_poll, disposed);
      });
  switch (end) {
    case FramedConnection::ReadEnd::Drained:
      break;
    case FramedConnection::ReadEnd::Stopped:
      return disposed;  // handle_frame already killed the connection
    case FramedConnection::ReadEnd::BadFrame:
      ++wire_stats_.decode_errors;
      if (c.hello_done) ++nodes_[c.node].durable.decode_errors;
      kill_conn(c);
      return disposed;
    case FramedConnection::ReadEnd::Closed:
      kill_conn(c);
      return disposed;
  }

  if (c.link.silent(now_ms, config_.peer_timeout_ms)) {
    ++wire_stats_.timeouts;
    kill_conn(c);
    return disposed;
  }

  if (disposed > 0) {  // rows are only disposed after a Hello
    AckFrame ack;
    ack.node = static_cast<std::uint32_t>(c.node);
    ack.next_index = nodes_[c.node].durable.watermark;
    c.link.send(ack);
    ++wire_stats_.acks_sent;
  }
  c.link.heartbeat_if_due(now_ms);
  if (!c.link.flush(now_ms, wire_stats_.bytes_sent)) kill_conn(c);
  return disposed;
}

std::size_t IngestServer::poll_once(double now_ms) {
  if (closed_) return 0;
  accept_pending(now_ms);
  std::map<int, std::size_t> rows_this_poll;
  std::size_t disposed = 0;
  // Nothing below adds to conns_ (accepting happens above) and kill_conn
  // only marks a connection dead, so the references stay valid until
  // reap_dead() erases the dead ones.
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = *conns_[i];
    if (c.dead) continue;
    disposed += service_conn(c, now_ms, rows_this_poll);
  }
  reap_dead();
  return disposed;
}

bool IngestServer::wait(double timeout_ms) {
  if (closed_) return false;
  std::vector<pollfd> fds;
  const int lfd = listener_ ? listener_->fd() : -1;
  if (lfd < 0) return false;
  fds.push_back(pollfd{lfd, POLLIN, 0});
  for (const auto& c : conns_) {
    const int fd = c->link.fd();
    if (fd < 0) return false;  // mixed in-memory transport: caller paces
    short events = POLLIN;
    if (c->link.output_pending()) events |= POLLOUT;
    fds.push_back(pollfd{fd, events, 0});
  }
  const int rc = ::poll(fds.data(), fds.size(),
                        timeout_ms < 0 ? -1 : static_cast<int>(timeout_ms));
  return rc > 0;
}

std::vector<ServedWindow> IngestServer::take_served() {
  std::vector<ServedWindow> out;
  out.swap(served_);
  return out;
}

IngestStats IngestServer::stats(int node) const {
  IngestStats s = ingestor_.stats(node);
  const auto it = nodes_.find(node);
  if (it != nodes_.end()) {
    s.rejected_backpressure = it->second.durable.rejected_backpressure;
    s.decode_errors = it->second.durable.decode_errors;
  }
  return s;
}

IngestStats IngestServer::total_stats() const {
  IngestStats s = ingestor_.total_stats();
  for (const auto& [node, nw] : nodes_) {
    s.rejected_backpressure += nw.durable.rejected_backpressure;
    s.decode_errors += nw.durable.decode_errors;
  }
  return s;
}

std::uint64_t IngestServer::watermark(int node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second.durable.watermark;
}

IngestServerSnapshot IngestServer::snapshot() const {
  IngestServerSnapshot snap;
  snap.nodes.reserve(nodes_.size());
  for (const auto& [node, nw] : nodes_) snap.nodes.push_back(nw.durable);
  return snap;
}

}  // namespace alba
