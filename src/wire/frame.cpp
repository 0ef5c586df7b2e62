#include "wire/frame.hpp"

#include <bit>
#include <cstring>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace alba {

namespace {

// Little-endian primitives. Byte-by-byte so the format is identical on any
// host endianness; the compiler folds these to plain loads/stores on LE.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double get_f64(const std::uint8_t* p) noexcept {
  return std::bit_cast<double>(get_u64(p));
}

// Bounds-checked payload reader: every get_* advances a cursor and fails
// the parse (returns false through ok_) instead of reading past the span.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> payload) noexcept
      : payload_(payload) {}

  bool read_u32(std::uint32_t& v) noexcept {
    if (!take(4)) return false;
    v = get_u32(payload_.data() + pos_ - 4);
    return true;
  }
  bool read_u64(std::uint64_t& v) noexcept {
    if (!take(8)) return false;
    v = get_u64(payload_.data() + pos_ - 8);
    return true;
  }
  bool read_f64(double& v) noexcept {
    if (!take(8)) return false;
    v = get_f64(payload_.data() + pos_ - 8);
    return true;
  }
  std::size_t remaining() const noexcept { return payload_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  bool take(std::size_t n) noexcept {
    if (payload_.size() - pos_ < n) return false;
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

void append_payload(std::vector<std::uint8_t>& out, const HelloFrame& f) {
  put_u32(out, f.protocol);
  put_u32(out, f.node);
  put_u32(out, f.metric_count);
}

void append_payload(std::vector<std::uint8_t>& out, const HelloAckFrame& f) {
  put_u32(out, f.node);
  put_u64(out, f.resume_index);
}

void append_payload(std::vector<std::uint8_t>& out, const RowFrame& f) {
  put_u32(out, f.node);
  put_u32(out, static_cast<std::uint32_t>(f.values.size()));
  put_u64(out, f.wire_index);
  put_u64(out, f.seq);
  put_f64(out, f.timestamp);
  for (const double v : f.values) put_f64(out, v);
}

void append_payload(std::vector<std::uint8_t>& out, const AckFrame& f) {
  put_u32(out, f.node);
  put_u64(out, f.next_index);
}

void append_payload(std::vector<std::uint8_t>& out, const HeartbeatFrame& f) {
  put_u64(out, f.counter);
}

bool parse_payload(FrameType type, std::span<const std::uint8_t> payload,
                   Frame& out) {
  PayloadReader r(payload);
  switch (type) {
    case FrameType::Hello: {
      HelloFrame f;
      if (!r.read_u32(f.protocol) || !r.read_u32(f.node) ||
          !r.read_u32(f.metric_count) || !r.exhausted()) {
        return false;
      }
      out = f;
      return true;
    }
    case FrameType::HelloAck: {
      HelloAckFrame f;
      if (!r.read_u32(f.node) || !r.read_u64(f.resume_index) ||
          !r.exhausted()) {
        return false;
      }
      out = f;
      return true;
    }
    case FrameType::Row: {
      RowFrame f;
      std::uint32_t count = 0;
      if (!r.read_u32(f.node) || !r.read_u32(count) ||
          !r.read_u64(f.wire_index) || !r.read_u64(f.seq) ||
          !r.read_f64(f.timestamp)) {
        return false;
      }
      if (r.remaining() != static_cast<std::size_t>(count) * 8) return false;
      f.values.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (!r.read_f64(f.values[i])) return false;
      }
      out = std::move(f);
      return true;
    }
    case FrameType::Ack: {
      AckFrame f;
      if (!r.read_u32(f.node) || !r.read_u64(f.next_index) ||
          !r.exhausted()) {
        return false;
      }
      out = f;
      return true;
    }
    case FrameType::Heartbeat: {
      HeartbeatFrame f;
      if (!r.read_u64(f.counter) || !r.exhausted()) return false;
      out = f;
      return true;
    }
  }
  return false;
}

bool valid_type(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(FrameType::Hello) &&
         raw <= static_cast<std::uint8_t>(FrameType::Heartbeat);
}

}  // namespace

std::string_view to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::Hello: return "hello";
    case FrameType::HelloAck: return "hello-ack";
    case FrameType::Row: return "row";
    case FrameType::Ack: return "ack";
    case FrameType::Heartbeat: return "heartbeat";
  }
  return "unknown";
}

std::string_view to_string(DecodeError error) noexcept {
  switch (error) {
    case DecodeError::None: return "none";
    case DecodeError::BadMagic: return "bad-magic";
    case DecodeError::BadVersion: return "bad-version";
    case DecodeError::Oversized: return "oversized";
    case DecodeError::BadChecksum: return "bad-checksum";
    case DecodeError::BadType: return "bad-type";
    case DecodeError::BadPayload: return "bad-payload";
  }
  return "unknown";
}

FrameType frame_type(const Frame& frame) noexcept {
  struct Visitor {
    FrameType operator()(const HelloFrame&) const { return FrameType::Hello; }
    FrameType operator()(const HelloAckFrame&) const {
      return FrameType::HelloAck;
    }
    FrameType operator()(const RowFrame&) const { return FrameType::Row; }
    FrameType operator()(const AckFrame&) const { return FrameType::Ack; }
    FrameType operator()(const HeartbeatFrame&) const {
      return FrameType::Heartbeat;
    }
  };
  return std::visit(Visitor{}, frame);
}

void append_frame(std::vector<std::uint8_t>& out, const Frame& frame) {
  const std::size_t start = out.size();
  put_u32(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(frame_type(frame)));
  put_u16(out, 0);             // flags
  put_u32(out, 0);             // payload_len, patched below
  put_u32(out, 0);             // crc, patched below
  std::visit([&out](const auto& f) { append_payload(out, f); }, frame);

  const std::size_t payload_len = out.size() - start - kWireHeaderSize;
  ALBA_CHECK(payload_len <= kWireMaxPayload)
      << "frame payload " << payload_len << " exceeds the wire bound";
  std::uint8_t* header = out.data() + start;
  for (int i = 0; i < 4; ++i) {
    header[8 + i] = static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
  // CRC over version/type/flags/length plus the payload (see frame.hpp).
  std::uint32_t crc = crc32_update(0, {header + 4, 8});
  crc = crc32_update(crc, {header + kWireHeaderSize, payload_len});
  for (int i = 0; i < 4; ++i) {
    header[12 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  append_frame(out, frame);
  return out;
}

std::uint32_t frame_payload_len(std::span<const std::uint8_t> header) noexcept {
  return get_u32(header.data() + 8);
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (failed()) return;
  // Compact once the consumed prefix dominates the buffer.
  if (head_ > 4096 && head_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameDecoder::State FrameDecoder::next(Frame& out) {
  if (failed()) return State::Error;
  const std::size_t avail = buffered();
  if (avail < kWireHeaderSize) return State::NeedMore;
  const std::uint8_t* header = buffer_.data() + head_;

  if (get_u32(header) != kWireMagic) return fail(DecodeError::BadMagic);
  if (header[4] != kWireVersion) return fail(DecodeError::BadVersion);
  const std::uint32_t payload_len = frame_payload_len({header, avail});
  if (payload_len > max_payload_) return fail(DecodeError::Oversized);
  if (avail < kWireHeaderSize + payload_len) return State::NeedMore;

  std::uint32_t crc = crc32_update(0, {header + 4, 8});
  crc = crc32_update(crc, {header + kWireHeaderSize, payload_len});
  if (crc != get_u32(header + 12)) return fail(DecodeError::BadChecksum);

  const std::uint8_t raw_type = header[5];
  if (!valid_type(raw_type)) return fail(DecodeError::BadType);
  if (!parse_payload(static_cast<FrameType>(raw_type),
                     {header + kWireHeaderSize, payload_len}, out)) {
    return fail(DecodeError::BadPayload);
  }
  head_ += kWireHeaderSize + payload_len;
  return State::FrameReady;
}

}  // namespace alba
