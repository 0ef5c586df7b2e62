#include "wire/transport.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"

namespace alba {

namespace {

bool set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

// Idempotently ignores SIGPIPE process-wide unless the process installed
// its own handler, which is left alone. Sends already pass MSG_NOSIGNAL
// where it exists; this covers platforms without it, so a peer hanging up
// mid-write surfaces as EPIPE instead of killing the process.
void suppress_sigpipe() noexcept {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction current {};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
        current.sa_handler == SIG_DFL) {
      struct sigaction ignore {};
      ignore.sa_handler = SIG_IGN;
      ::sigaction(SIGPIPE, &ignore, nullptr);
    }
  });
}

class TcpConnection : public Connection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) { suppress_sigpipe(); }
  ~TcpConnection() override { close(); }

  IoResult read_some(std::span<std::uint8_t> buf) override {
    IoResult r;
    if (fd_ < 0) {
      r.eof = true;
      return r;
    }
    while (true) {
      const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
      if (n > 0) {
        r.n = static_cast<std::size_t>(n);
        return r;
      }
      if (n == 0) {
        r.eof = true;
        return r;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        r.would_block = true;
        return r;
      }
      r.error = errno;
      return r;
    }
  }

  IoResult write_some(std::span<const std::uint8_t> data) override {
    IoResult r;
    if (fd_ < 0) {
      r.error = EPIPE;
      return r;
    }
    while (r.n < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + r.n, data.size() - r.n,
                               kSendFlags);
      if (n >= 0) {
        r.n += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        r.would_block = true;
        return r;
      }
      r.error = errno;
      return r;
    }
    return r;
  }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool closed() const override { return fd_ < 0; }
  int fd() const override { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace

std::unique_ptr<TcpListener> TcpListener::bind_loopback(std::uint16_t port) {
  suppress_sigpipe();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ALBA_CHECK(fd >= 0) << "socket(): " << std::strerror(errno);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0 || !set_nonblocking(fd)) {
    const int err = errno;
    ::close(fd);
    ALBA_CHECK(false) << "bind/listen on 127.0.0.1:" << port << ": "
                      << std::strerror(err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<Connection> TcpListener::accept_one() {
  if (fd_ < 0) return nullptr;
  while (true) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      if (!set_nonblocking(client)) {
        ::close(client);
        return nullptr;
      }
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return std::make_unique<TcpConnection>(client);
    }
    if (errno == EINTR) continue;
    return nullptr;  // EAGAIN or a transient accept failure: nothing pending
  }
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::unique_ptr<Connection> tcp_connect(const std::string& host,
                                        std::uint16_t port,
                                        double timeout_ms) {
  suppress_sigpipe();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return nullptr;
  }
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return nullptr;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    int err = 0;
    socklen_t len = sizeof err;
    if (rc <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return nullptr;
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<TcpConnection>(fd);
}

// ------------------------------------------------------ framed streams ---

FramedConnection::FramedConnection(std::unique_ptr<Connection> conn,
                                   double now_ms)
    : conn_(std::move(conn)), last_rx_ms_(now_ms), last_tx_ms_(now_ms) {
  ALBA_CHECK(conn_ != nullptr) << "framed connection needs a connection";
}

bool FramedConnection::flush(double now_ms, std::uint64_t& bytes_sent) {
  if (!output_pending()) return true;
  const IoResult w = conn_->write_some(
      {outbuf_.data() + outbuf_head_, outbuf_.size() - outbuf_head_});
  if (w.n > 0) {
    outbuf_head_ += w.n;
    bytes_sent += w.n;
    last_tx_ms_ = now_ms;
  }
  if (w.error != 0) return false;
  if (!output_pending()) {
    outbuf_.clear();
    outbuf_head_ = 0;
  } else if (outbuf_head_ > 4096 && outbuf_head_ * 2 > outbuf_.size()) {
    // Compact once the written prefix dominates the buffer.
    outbuf_.erase(outbuf_.begin(),
                  outbuf_.begin() + static_cast<std::ptrdiff_t>(outbuf_head_));
    outbuf_head_ = 0;
  }
  return true;
}

bool FramedConnection::heartbeat_if_due(double now_ms) {
  if (output_pending() || now_ms - last_tx_ms_ < kWireHeartbeatIntervalMs) {
    return false;
  }
  HeartbeatFrame hb;
  hb.counter = ++heartbeat_counter_;
  send(hb);
  return true;
}

// ------------------------------------------------------- loopback pipes ---

namespace detail {

// One direction of a loopback pair: a byte queue plus the two ends'
// liveness. All loopback state hangs off the hub's single mutex — the
// traffic volumes in tests make one lock simpler and plenty fast.
struct LoopbackPipe {
  std::deque<std::uint8_t> bytes;
  bool writer_closed = false;
  bool reader_closed = false;
};

struct LoopbackPair {
  LoopbackPipe client_to_server;
  LoopbackPipe server_to_client;
};

struct LoopbackShared {
  std::mutex mu;
  bool listener_open = false;
  std::uint64_t listener_epoch = 0;  // invalidates stale Listener objects
  std::deque<std::shared_ptr<LoopbackPair>> pending_accepts;
};

}  // namespace detail

namespace {

using detail::LoopbackPair;
using detail::LoopbackPipe;
using detail::LoopbackShared;

class LoopbackConnection : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<LoopbackShared> shared,
                     std::shared_ptr<LoopbackPair> pair, bool is_client)
      : shared_(std::move(shared)), pair_(std::move(pair)),
        is_client_(is_client) {}

  ~LoopbackConnection() override { close(); }

  IoResult read_some(std::span<std::uint8_t> buf) override {
    std::lock_guard<std::mutex> lock(shared_->mu);
    IoResult r;
    LoopbackPipe& in = inbound();
    if (in.reader_closed) {
      r.eof = true;
      return r;
    }
    if (in.bytes.empty()) {
      if (in.writer_closed) {
        r.eof = true;
      } else {
        r.would_block = true;
      }
      return r;
    }
    while (r.n < buf.size() && !in.bytes.empty()) {
      buf[r.n++] = in.bytes.front();
      in.bytes.pop_front();
    }
    return r;
  }

  IoResult write_some(std::span<const std::uint8_t> data) override {
    std::lock_guard<std::mutex> lock(shared_->mu);
    IoResult r;
    LoopbackPipe& out = outbound();
    if (out.writer_closed || out.reader_closed) {
      r.error = EPIPE;
      return r;
    }
    out.bytes.insert(out.bytes.end(), data.begin(), data.end());
    r.n = data.size();
    return r;
  }

  void close() override {
    std::lock_guard<std::mutex> lock(shared_->mu);
    outbound().writer_closed = true;
    inbound().reader_closed = true;
    closed_ = true;
  }

  bool closed() const override { return closed_; }

 private:
  LoopbackPipe& inbound() {
    return is_client_ ? pair_->server_to_client : pair_->client_to_server;
  }
  LoopbackPipe& outbound() {
    return is_client_ ? pair_->client_to_server : pair_->server_to_client;
  }

  std::shared_ptr<LoopbackShared> shared_;
  std::shared_ptr<LoopbackPair> pair_;
  bool is_client_;
  bool closed_ = false;
};

class LoopbackListener : public Listener {
 public:
  LoopbackListener(std::shared_ptr<LoopbackShared> shared,
                   std::uint64_t epoch)
      : shared_(std::move(shared)), epoch_(epoch) {}

  ~LoopbackListener() override { close(); }

  std::unique_ptr<Connection> accept_one() override {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (!live() || shared_->pending_accepts.empty()) return nullptr;
    auto pair = std::move(shared_->pending_accepts.front());
    shared_->pending_accepts.pop_front();
    return std::make_unique<LoopbackConnection>(shared_, std::move(pair),
                                                /*is_client=*/false);
  }

  void close() override {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (live()) {
      shared_->listener_open = false;
      // Refuse connections queued but never accepted.
      for (auto& pair : shared_->pending_accepts) {
        pair->server_to_client.writer_closed = true;
        pair->client_to_server.reader_closed = true;
      }
      shared_->pending_accepts.clear();
    }
  }

 private:
  bool live() const {
    return shared_->listener_open && shared_->listener_epoch == epoch_;
  }

  std::shared_ptr<LoopbackShared> shared_;
  std::uint64_t epoch_;
};

}  // namespace

LoopbackHub::LoopbackHub() : shared_(std::make_shared<LoopbackShared>()) {}

LoopbackHub::~LoopbackHub() = default;

std::unique_ptr<Listener> LoopbackHub::make_listener() {
  std::lock_guard<std::mutex> lock(shared_->mu);
  shared_->listener_open = true;
  ++shared_->listener_epoch;
  shared_->pending_accepts.clear();
  return std::make_unique<LoopbackListener>(shared_, shared_->listener_epoch);
}

std::unique_ptr<Connection> LoopbackHub::connect() {
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (!shared_->listener_open) return nullptr;
  auto pair = std::make_shared<LoopbackPair>();
  shared_->pending_accepts.push_back(pair);
  return std::make_unique<LoopbackConnection>(shared_, std::move(pair),
                                              /*is_client=*/true);
}

}  // namespace alba
