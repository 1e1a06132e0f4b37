#include "net/wire.h"

#include <cmath>

#include "common/bytes.h"
#include "common/frame.h"
#include "sketch/serialize.h"

namespace scd::net {

namespace {

// The kind range is checked before the MessageType cast, so an unknown type
// is a typed reject (kBadType), never an out-of-range enum.
constexpr common::FrameFormat kFormat{
    .magic = kWireMagic,
    .version = kWireVersion,
    .min_kind = static_cast<std::uint32_t>(MessageType::kHello),
    .max_kind = static_cast<std::uint32_t>(MessageType::kBye),
    .fields = 3,  // node_id, interval_index, config_fingerprint
};
static_assert(kFormat.header_bytes() == kFrameHeaderBytes);

[[nodiscard]] WireErrorKind wire_kind(common::FrameErrorKind kind) noexcept {
  switch (kind) {
    case common::FrameErrorKind::kTruncated:
      return WireErrorKind::kTruncated;
    case common::FrameErrorKind::kBadMagic:
      return WireErrorKind::kBadMagic;
    case common::FrameErrorKind::kBadVersion:
      return WireErrorKind::kBadVersion;
    case common::FrameErrorKind::kBadKind:
      return WireErrorKind::kBadType;
    case common::FrameErrorKind::kBadHeaderCrc:
    case common::FrameErrorKind::kBadPayloadCrc:
      return WireErrorKind::kBadCrc;
    case common::FrameErrorKind::kOversized:
      return WireErrorKind::kOversized;
    case common::FrameErrorKind::kTrailingBytes:
      return WireErrorKind::kBadPayload;
  }
  return WireErrorKind::kBadPayload;
}

[[nodiscard]] WireError to_wire_error(const common::FrameError& e) {
  return {wire_kind(e.kind()), e.what()};
}

[[nodiscard]] FrameHeader header_of(const common::FrameHead& head) noexcept {
  FrameHeader header;
  header.type = static_cast<MessageType>(head.kind);
  header.node_id = head.fields[0];
  header.interval_index = head.fields[1];
  header.config_fingerprint = head.fields[2];
  header.payload_len = head.payload_len;
  return header;
}

}  // namespace

const char* message_type_name(MessageType type) noexcept {
  switch (type) {
    case MessageType::kHello:
      return "hello";
    case MessageType::kHelloAck:
      return "hello-ack";
    case MessageType::kIntervalData:
      return "interval-data";
    case MessageType::kAck:
      return "ack";
    case MessageType::kBye:
      return "bye";
  }
  return "unknown";
}

const char* wire_error_kind_name(WireErrorKind kind) noexcept {
  switch (kind) {
    case WireErrorKind::kTruncated:
      return "truncated";
    case WireErrorKind::kBadMagic:
      return "bad-magic";
    case WireErrorKind::kBadVersion:
      return "bad-version";
    case WireErrorKind::kBadType:
      return "bad-type";
    case WireErrorKind::kBadCrc:
      return "bad-crc";
    case WireErrorKind::kOversized:
      return "oversized";
    case WireErrorKind::kBadPayload:
      return "bad-payload";
    case WireErrorKind::kIo:
      return "io";
  }
  return "unknown";
}

namespace {

/// Maps each wire failure onto the closest base SerializeErrorKind so legacy
/// catch sites switching on kind() stay meaningful.
[[nodiscard]] sketch::SerializeErrorKind base_kind(WireErrorKind kind) noexcept {
  switch (kind) {
    case WireErrorKind::kTruncated:
      return sketch::SerializeErrorKind::kTruncated;
    case WireErrorKind::kBadMagic:
      return sketch::SerializeErrorKind::kBadMagic;
    case WireErrorKind::kBadVersion:
      return sketch::SerializeErrorKind::kBadVersion;
    case WireErrorKind::kBadType:
      return sketch::SerializeErrorKind::kBadMagic;
    case WireErrorKind::kBadCrc:
      return sketch::SerializeErrorKind::kCorruptRegisters;
    case WireErrorKind::kOversized:
      return sketch::SerializeErrorKind::kBadDimensions;
    case WireErrorKind::kBadPayload:
      return sketch::SerializeErrorKind::kCorruptRegisters;
    case WireErrorKind::kIo:
      return sketch::SerializeErrorKind::kWriteFailed;
  }
  return sketch::SerializeErrorKind::kCorruptRegisters;
}

}  // namespace

WireError::WireError(WireErrorKind kind, const std::string& message)
    : sketch::SerializeError(base_kind(kind),
                             std::string("wire [") +
                                 wire_error_kind_name(kind) + "] " + message),
      kind_(kind) {}

std::vector<std::uint8_t> encode_frame(const FrameHeader& header,
                                       std::span<const std::uint8_t> payload) {
  const std::uint64_t fields[] = {header.node_id, header.interval_index,
                                  header.config_fingerprint};
  return common::encode_frame(kFormat, static_cast<std::uint32_t>(header.type),
                              fields, payload);
}

Frame decode_frame(std::span<const std::uint8_t> bytes,
                   std::size_t max_payload_bytes) {
  try {
    Frame frame;
    frame.header =
        header_of(common::parse_frame(kFormat, bytes, max_payload_bytes));
    const auto payload = bytes.subspan(kFrameHeaderBytes);
    frame.payload.assign(payload.begin(), payload.end());
    return frame;
  } catch (const common::FrameError& e) {
    throw to_wire_error(e);
  }
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // steady-state feeding is amortized O(bytes).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameReader::next() {
  const std::span<const std::uint8_t> buffered =
      std::span(buffer_).subspan(consumed_);
  if (buffered.size() < kFrameHeaderBytes) return std::nullopt;
  try {
    const common::FrameHead head =
        common::parse_frame_head(kFormat, buffered, max_payload_bytes_);
    if (buffered.size() - kFrameHeaderBytes < head.payload_len) {
      return std::nullopt;
    }
    const auto payload = buffered.subspan(
        kFrameHeaderBytes, static_cast<std::size_t>(head.payload_len));
    common::check_frame_payload(head, payload);
    Frame frame;
    frame.header = header_of(head);
    frame.payload.assign(payload.begin(), payload.end());
    consumed_ += kFrameHeaderBytes + payload.size();
    return frame;
  } catch (const common::FrameError& e) {
    throw to_wire_error(e);
  }
}

namespace {

constexpr std::uint64_t kIntervalPayloadVersion = 1;

/// The interval payload's field list (common/bytes.h).
template <class Ar, class Payload>
void transfer(Ar& ar, Payload& p) {
  ar.pinned(kIntervalPayloadVersion, [](std::uint64_t version) {
    throw WireError(WireErrorKind::kBadPayload,
                    "interval payload version " + std::to_string(version) +
                        " is not the supported version 1");
  });
  ar.field(p.start_s);
  ar.field(p.len_s);
  if constexpr (Ar::kReads) {
    if (!std::isfinite(p.start_s) || !std::isfinite(p.len_s) ||
        !(p.len_s > 0.0)) {
      throw WireError(WireErrorKind::kBadPayload,
                      "interval times must be finite with len_s > 0");
    }
  }
  ar.field(p.records);
  ar.size(p.sketch_packet, 1);
  ar.array(std::span(p.sketch_packet));
  ar.size(p.keys, sizeof(std::uint64_t));
  ar.array(std::span(p.keys));
}

}  // namespace

std::vector<std::uint8_t> encode_interval_payload(
    const IntervalPayload& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(8 * 6 + payload.sketch_packet.size() + 8 * payload.keys.size());
  common::ByteWriter w(out);
  transfer(w, payload);
  return out;
}

IntervalPayload decode_interval_payload(std::span<const std::uint8_t> bytes) {
  common::ByteReader in(bytes, "interval payload");
  IntervalPayload payload;
  try {
    transfer(in, payload);
  } catch (const common::TruncatedError& e) {
    throw WireError(WireErrorKind::kBadPayload, e.what());
  }
  if (in.remaining() != 0) {
    throw WireError(WireErrorKind::kBadPayload,
                    std::to_string(in.remaining()) +
                        " trailing bytes after the key list");
  }
  return payload;
}

}  // namespace scd::net
