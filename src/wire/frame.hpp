// The ALBADross wire frame format: how telemetry rows and their control
// traffic travel between a collector (WireClient) and the ingest server.
//
// Every frame is length-prefixed, CRC32-checksummed, and versioned:
//
//   offset  size  field
//        0     4  magic       "ALBW" (0x57424C41 little-endian)
//        4     1  version     kWireVersion
//        5     1  type        FrameType
//        6     2  flags       0 (reserved; nonzero values are ignored)
//        8     4  payload_len little-endian, bounded by max_payload
//       12     4  crc32       over bytes [4, 12) + the payload
//       16     n  payload
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern, so a row round-trips bit-identically (NaN payloads included).
// The CRC covers version/type/flags/length as well as the payload, so a
// bit-flip anywhere past the magic is caught as BadChecksum rather than
// silently reframing the stream.
//
// Frame types:
//   Hello      client -> server: protocol version, node id, metric count.
//   HelloAck   server -> client: the node's resume point (next wire index
//              the server expects) — the reconnect/resume handshake.
//   Row        client -> server: one telemetry row. `wire_index` is the
//              client-assigned per-node delivery index (dense, starting at
//              0) the ack watermark runs over; `seq` is the telemetry
//              sequence (1 Hz epoch) StreamIngestor orders by. Keeping the
//              two separate lets feeds with gaps, duplicates, and reorder
//              flow through the exactly-once wire layer untouched.
//   Ack        server -> client: cumulative — every row with wire_index <
//              next_index has been disposed of (ingested or typed-shed).
//   Heartbeat  either direction: liveness when the feed is quiet.
//
// FrameDecoder consumes a byte stream incrementally and yields frames or a
// typed DecodeError. Errors are sticky and per-connection-fatal: frames
// are only delimited reliably from a clean stream start, so the recovery
// path is reconnect-and-resume, not resync hunting. The decoder never
// reads past the bytes it was fed and never throws on wire input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

namespace alba {

inline constexpr std::uint32_t kWireMagic = 0x57424C41u;  // "ALBW"
inline constexpr std::uint8_t kWireVersion = 1;
/// A connection end with nothing to send for this long sends a Heartbeat,
/// so the peer's rx timeout (set well above it) only fires on a dead link.
inline constexpr double kWireHeartbeatIntervalMs = 1000.0;
inline constexpr std::size_t kWireHeaderSize = 16;
/// Default payload bound: a row of ~128k metrics. Anything larger is a
/// corrupt length field or a hostile peer.
inline constexpr std::size_t kWireMaxPayload = 1u << 20;

enum class FrameType : std::uint8_t {
  Hello = 1,
  HelloAck = 2,
  Row = 3,
  Ack = 4,
  Heartbeat = 5,
};

std::string_view to_string(FrameType type) noexcept;

struct HelloFrame {
  std::uint32_t protocol = kWireVersion;
  std::uint32_t node = 0;
  std::uint32_t metric_count = 0;
};

struct HelloAckFrame {
  std::uint32_t node = 0;
  std::uint64_t resume_index = 0;  // next wire_index the server expects
};

struct RowFrame {
  std::uint32_t node = 0;
  std::uint64_t wire_index = 0;  // per-node delivery index (dense from 0)
  std::uint64_t seq = 0;         // telemetry sequence (1 Hz epoch)
  double timestamp = 0.0;        // collector wall-clock, carried opaquely
  std::vector<double> values;    // one per registry metric; NaN cells legal
};

struct AckFrame {
  std::uint32_t node = 0;
  std::uint64_t next_index = 0;  // cumulative: all wire_index < this disposed
};

struct HeartbeatFrame {
  std::uint64_t counter = 0;
};

using Frame =
    std::variant<HelloFrame, HelloAckFrame, RowFrame, AckFrame, HeartbeatFrame>;

FrameType frame_type(const Frame& frame) noexcept;

/// Serializes one frame (header + payload) onto `out`.
void append_frame(std::vector<std::uint8_t>& out, const Frame& frame);

std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// The payload_len field of a frame header; `header` holds at least
/// kWireHeaderSize bytes. The header is not validated.
std::uint32_t frame_payload_len(std::span<const std::uint8_t> header) noexcept;

/// Every way a byte stream can fail to parse as frames. Each is a typed
/// per-connection error — the connection is closed and counted, the
/// process never dies on wire input.
enum class DecodeError {
  None,
  BadMagic,     // stream out of frame alignment or not ours
  BadVersion,   // frame from an incompatible protocol revision
  Oversized,    // payload_len exceeds the configured bound
  BadChecksum,  // CRC mismatch: bit-flip or torn/rewritten bytes
  BadType,      // checksum-valid frame with an unknown type
  BadPayload,   // payload shorter/longer than its type's layout requires
};

std::string_view to_string(DecodeError error) noexcept;

/// Incremental frame decoder. Feed arbitrary byte slices; poll next().
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kWireMaxPayload)
      : max_payload_(max_payload) {}

  /// Buffers `bytes` for decoding. No-op once the decoder has failed.
  void feed(std::span<const std::uint8_t> bytes);

  enum class State { NeedMore, FrameReady, Error };

  /// Decodes the next frame from the buffered bytes into `out`.
  /// FrameReady: `out` is valid, call again. NeedMore: feed more bytes.
  /// Error: the stream is poisoned (see error()); every later call
  /// returns Error again.
  State next(Frame& out);

  /// The sticky error after next() returned Error; DecodeError::None before.
  DecodeError error() const noexcept { return error_; }
  bool failed() const noexcept { return error_ != DecodeError::None; }

  /// True when buffered bytes begin a frame that has not fully arrived —
  /// the torn-frame/slow-loris detection hook (how long has this been
  /// true?) and the end-of-stream truncation check (EOF while mid_frame
  /// means the peer died inside a frame). Meaningful after next() has been
  /// polled to NeedMore — complete frames still queued also count.
  bool mid_frame() const noexcept { return !failed() && buffered() > 0; }

  std::size_t buffered() const noexcept { return buffer_.size() - head_; }

 private:
  State fail(DecodeError e) noexcept {
    error_ = e;
    return State::Error;
  }

  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;  // consumed prefix, compacted periodically
  DecodeError error_ = DecodeError::None;
};

}  // namespace alba
