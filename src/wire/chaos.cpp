#include "wire/chaos.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <deque>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "wire/frame.hpp"

namespace alba {

namespace detail {

struct ChaosState {
  std::mutex mu;
  WireChaosConfig config;
  WireChaosStats stats;
  bool armed = true;
  double now_ms = 0.0;
  std::uint64_t next_ordinal = 0;
  std::vector<class ChaosConnectionImpl*> live;
};

class ChaosConnectionImpl : public Connection {
 public:
  ChaosConnectionImpl(std::shared_ptr<ChaosState> state,
                      std::unique_ptr<Connection> inner, std::uint64_t ordinal)
      : state_(std::move(state)), inner_(std::move(inner)),
        rng_(SplitMix64(state_->config.seed ^
                        (ordinal * 0x9E3779B97F4A7C15ULL))
                 .next()) {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->live.push_back(this);
    ++state_->stats.connections;
  }

  ~ChaosConnectionImpl() override {
    close();
    std::lock_guard<std::mutex> lock(state_->mu);
    auto& live = state_->live;
    live.erase(std::remove(live.begin(), live.end(), this), live.end());
  }

  IoResult read_some(std::span<std::uint8_t> buf) override {
    std::unique_lock<std::mutex> lock(state_->mu);
    flush_locked();
    if (dropped_) {
      IoResult r;
      r.eof = true;
      return r;
    }
    lock.unlock();
    return inner_->read_some(buf);
  }

  IoResult write_some(std::span<const std::uint8_t> data) override {
    std::lock_guard<std::mutex> lock(state_->mu);
    IoResult r;
    if (dropped_) {
      r.error = EPIPE;
      return r;
    }
    raw_.insert(raw_.end(), data.begin(), data.end());
    carve_locked();
    flush_locked();
    // Chaos accepted the bytes even if they are still staged; from the
    // client's perspective the kernel buffered them.
    r.n = data.size();
    return r;
  }

  void close() override {
    std::lock_guard<std::mutex> lock(state_->mu);
    dropped_ = true;
    if (inner_) inner_->close();
  }

  bool closed() const override { return dropped_; }

  void advance_locked() { flush_locked(); }

 private:
  struct Staged {
    std::vector<std::uint8_t> bytes;
    double release_ms = 0.0;
  };

  // Cuts complete frames out of raw_ and stages them, applying per-frame
  // fault draws. Bytes of a not-yet-complete frame stay in raw_.
  void carve_locked() {
    const WireChaosConfig& cfg = state_->config;
    while (true) {
      if (raw_.size() < kWireHeaderSize) return;
      // A frame is delimited by its own header; the client only writes
      // well-formed frames, so the length field is trustworthy here.
      std::array<std::uint8_t, kWireHeaderSize> header{};
      std::copy_n(raw_.begin(), kWireHeaderSize, header.begin());
      const std::size_t frame_size =
          kWireHeaderSize + frame_payload_len(header);
      if (raw_.size() < frame_size) return;
      const auto frame_end =
          raw_.begin() + static_cast<std::ptrdiff_t>(frame_size);
      std::vector<std::uint8_t> frame(raw_.begin(), frame_end);
      raw_.erase(raw_.begin(), frame_end);
      ++state_->stats.frames_seen;
      ++frames_this_connection_;

      const bool faultable = state_->armed &&
                             frames_this_connection_ > cfg.grace_frames;
      bool cut = false;
      if (faultable && rng_.bernoulli(cfg.drop_rate)) {
        // Torn frame: forward a random prefix, then sever the connection.
        ++state_->stats.drops_injected;
        frame.resize(rng_.uniform_index(frame.size()));
        cut = true;
      } else if (faultable) {
        if (rng_.bernoulli(cfg.corrupt_rate)) {
          ++state_->stats.corrupted;
          const std::size_t byte = rng_.uniform_index(frame.size());
          frame[byte] ^= static_cast<std::uint8_t>(
              1u << rng_.uniform_index(8));
        }
        if (rng_.bernoulli(cfg.duplicate_rate)) {
          ++state_->stats.duplicated;
          stage(frame, cfg, faultable);
        }
      }
      if (!frame.empty()) stage(std::move(frame), cfg, faultable);
      if (cut) {
        cut_after_flush_ = true;
        return;  // nothing after the cut point ever leaves
      }
    }
  }

  // Chunking and stalling are faults too: they only apply while this
  // frame is faultable (armed, past the grace window), so disarming chaos
  // lets a reconnecting client handshake at full speed.
  void stage(std::vector<std::uint8_t> frame, const WireChaosConfig& cfg,
             bool faultable) {
    const bool chunked =
        faultable && (cfg.partial_writes || cfg.stall_ms > 0.0);
    const double stall = faultable ? cfg.stall_ms : 0.0;
    const std::size_t chunk_cap = chunked ? 16 : frame.size();
    std::size_t at = 0;
    while (at < frame.size()) {
      const std::size_t take =
          chunked ? 1 + rng_.uniform_index(chunk_cap) : frame.size();
      Staged s;
      s.bytes.assign(frame.begin() + static_cast<std::ptrdiff_t>(at),
                     frame.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(at + take, frame.size())));
      next_release_ = std::max(next_release_, state_->now_ms) + stall;
      s.release_ms = next_release_;
      at += s.bytes.size();
      staged_.push_back(std::move(s));
    }
  }

  void flush_locked() {
    while (!staged_.empty() && !dropped_ &&
           staged_.front().release_ms <= state_->now_ms) {
      Staged& s = staged_.front();
      const IoResult w = inner_->write_some(s.bytes);
      if (w.error != 0) {
        dropped_ = true;
        break;
      }
      if (w.n < s.bytes.size()) {
        s.bytes.erase(s.bytes.begin(),
                      s.bytes.begin() + static_cast<std::ptrdiff_t>(w.n));
        break;  // inner transport would block; retry on the next flush
      }
      staged_.pop_front();
    }
    if (cut_after_flush_ && staged_.empty() && !dropped_) {
      inner_->close();
      dropped_ = true;
    }
  }

  std::shared_ptr<ChaosState> state_;
  std::unique_ptr<Connection> inner_;
  Rng rng_;
  std::deque<std::uint8_t> raw_;
  std::deque<Staged> staged_;
  double next_release_ = 0.0;
  std::uint64_t frames_this_connection_ = 0;
  bool cut_after_flush_ = false;
  bool dropped_ = false;
};

}  // namespace detail

WireChaos::WireChaos(WireChaosConfig config)
    : state_(std::make_shared<detail::ChaosState>()) {
  state_->config = config;
}

WireChaos::~WireChaos() = default;

Connector WireChaos::wrap(Connector inner) {
  auto state = state_;
  return [state, inner = std::move(inner)]() -> std::unique_ptr<Connection> {
    auto conn = inner();
    if (!conn) return nullptr;
    std::uint64_t ordinal = 0;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      ordinal = state->next_ordinal++;
    }
    return std::make_unique<detail::ChaosConnectionImpl>(state,
                                                         std::move(conn),
                                                         ordinal);
  };
}

void WireChaos::set_now(double now_ms) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->now_ms = now_ms;
  for (detail::ChaosConnectionImpl* conn : state_->live) {
    conn->advance_locked();
  }
}

void WireChaos::arm(bool on) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->armed = on;
}

bool WireChaos::armed() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->armed;
}

WireChaosStats WireChaos::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

}  // namespace alba
