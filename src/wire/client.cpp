#include "wire/client.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace alba {

WireClient::WireClient(Connector connector, WireClientConfig config)
    : connector_(std::move(connector)), config_(config),
      backoff_rng_(config.reconnect.seed ^ (config.node + 1)) {
  ALBA_CHECK(config_.metric_count > 0) << "wire client needs a metric count";
  ALBA_CHECK(config_.max_inflight_rows > 0);
}

bool WireClient::offer(std::uint64_t seq, double timestamp,
                       std::span<const double> values) {
  ALBA_CHECK(values.size() == config_.metric_count)
      << "row has " << values.size() << " values, registry expects "
      << config_.metric_count;
  if (pending_.size() >= config_.max_inflight_rows) return false;
  PendingRow row;
  row.index = next_assign_++;
  row.seq = seq;
  row.timestamp = timestamp;
  row.values.assign(values.begin(), values.end());
  pending_.push_back(std::move(row));
  ++stats_.rows_offered;
  return true;
}

bool WireClient::idle() const noexcept {
  return state_ == State::Streaming && pending_.empty() &&
         !link_->output_pending();
}

void WireClient::disconnect() {
  if (link_) link_->close();
  link_.reset();
  state_ = State::Disconnected;
  send_cursor_ = 0;  // everything unacked must be retransmitted
}

void WireClient::lose_connection(double now_ms) {
  ++stats_.disconnects;
  disconnect();
  // First retry is immediate-ish; backoff grows with consecutive failures
  // (backoff_delay_ms counts attempts 1-based).
  ++attempt_;
  next_attempt_ms_ = now_ms + backoff_delay_ms(config_.reconnect, attempt_,
                                               backoff_rng_);
}

void WireClient::try_connect(double now_ms) {
  std::unique_ptr<Connection> conn = connector_();
  if (!conn) {
    ++stats_.connect_failures;
    ++attempt_;
    next_attempt_ms_ = now_ms + backoff_delay_ms(config_.reconnect, attempt_,
                                                 backoff_rng_);
    return;
  }
  ++stats_.connects;
  state_ = State::AwaitHelloAck;
  link_.emplace(std::move(conn), now_ms);
  HelloFrame hello;
  hello.protocol = kWireVersion;
  hello.node = config_.node;
  hello.metric_count = config_.metric_count;
  link_->send(hello);
}

void WireClient::advance_ack(std::uint64_t next_index) {
  if (next_index <= acked_) return;  // stale/duplicate ack
  acked_ = next_index;
  std::size_t popped = 0;
  while (!pending_.empty() && pending_.front().index < acked_) {
    pending_.pop_front();
    ++popped;
    ++stats_.rows_acked;
  }
  send_cursor_ -= std::min(send_cursor_, popped);
}

// False when the server broke the protocol: the caller drops the link.
bool WireClient::handle_frame(const Frame& frame) {
  if (const auto* ack = std::get_if<HelloAckFrame>(&frame)) {
    if (state_ != State::AwaitHelloAck || ack->node != config_.node) {
      return false;
    }
    state_ = State::Streaming;
    attempt_ = 0;
    advance_ack(ack->resume_index);
    send_cursor_ = 0;  // retransmit every surviving unacked row
    return true;
  }
  if (const auto* ack = std::get_if<AckFrame>(&frame)) {
    if (ack->node != config_.node) return false;
    ++stats_.acks_received;
    advance_ack(ack->next_index);
    return true;
  }
  // A heartbeat only refreshes the rx clock, which the read already did;
  // Row/Hello from a server is a protocol violation.
  return std::holds_alternative<HeartbeatFrame>(frame);
}

void WireClient::step(double now_ms) {
  if (!started_) {
    started_ = true;
    next_attempt_ms_ = now_ms;
  }
  if (state_ == State::Disconnected) {
    if (now_ms < next_attempt_ms_) return;
    try_connect(now_ms);
    if (state_ == State::Disconnected) return;
  }

  // A server speaking garbage, closing, breaking the protocol or falling
  // silent is dead either way.
  const auto end = link_->read_frames(
      now_ms, stats_.bytes_received,
      [this](const Frame& frame) { return handle_frame(frame); });
  if (end != FramedConnection::ReadEnd::Drained ||
      link_->silent(now_ms, config_.heartbeat_timeout_ms)) {
    lose_connection(now_ms);
    return;
  }

  if (state_ == State::Streaming) {
    std::size_t sent = 0;
    while (send_cursor_ < pending_.size() &&
           sent < config_.max_rows_per_step) {
      PendingRow& row = pending_[send_cursor_];
      RowFrame wire_row;
      wire_row.node = config_.node;
      wire_row.wire_index = row.index;
      wire_row.seq = row.seq;
      wire_row.timestamp = row.timestamp;
      wire_row.values = row.values;
      link_->send(wire_row);
      ++row.sends;
      ++stats_.row_frames_sent;
      if (row.sends > 1) ++stats_.retransmits;
      ++send_cursor_;
      ++sent;
    }
    if (link_->heartbeat_if_due(now_ms)) ++stats_.heartbeats_sent;
  }

  if (!link_->flush(now_ms, stats_.bytes_sent)) lose_connection(now_ms);
}

}  // namespace alba
