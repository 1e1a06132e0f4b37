// Wire protocol for the network-wide aggregation tier (docs/DISTRIBUTED.md).
//
// Every message crossing a node->aggregator connection is one length-
// prefixed, CRC-framed envelope. The header carries everything the
// aggregator needs to route and validate a contribution before touching the
// payload: the sender's node id, the interval index the payload belongs to,
// and the sender's pipeline config fingerprint (core::config_fingerprint) —
// a node built with different sketch geometry or thresholds is refused at
// the handshake, never silently COMBINEd into the global sum.
//
// Frame layout (little-endian, 56-byte header):
//   u32 magic "SCDN" | u32 version | u32 type | u32 reserved |
//   u64 node_id | u64 interval_index | u64 config_fingerprint |
//   u64 payload_len | u32 payload_crc32 | u32 header_crc32
//   payload_len bytes of payload
// header_crc32 covers the 52 bytes before it; payload_crc32 covers the
// payload — common/frame.h's shared CRC frame (checkpoint files use it too)
// with three u64 fields. Frames arrive over TCP as an undelimited byte
// stream; FrameReader re-frames it incrementally and rejects anything
// malformed with a typed WireError, so a corrupt or hostile peer can be
// dropped and counted without ever poisoning aggregator state.
//
// The kIntervalData payload reuses the sketch export packet
// (sketch::sketch_to_bytes) verbatim: the same hardened deserialization and
// family-registry sharing that serves local collection serves the wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sketch/serialize.h"

namespace scd::net {

inline constexpr std::uint32_t kWireMagic = 0x4e444353;  // "SCDN" LE
inline constexpr std::uint32_t kWireVersion = 1;
/// Fixed envelope header size in bytes (see frame layout above).
inline constexpr std::size_t kFrameHeaderBytes = 56;
/// Default ceiling on a single frame's payload. A length-prefixed protocol
/// must bound the prefix before allocating: an H=25, K=65536 sketch packet
/// plus a million keys is ~21 MB, so 64 MiB leaves generous headroom while a
/// hostile 2^60 length is rejected instead of honoured.
inline constexpr std::size_t kDefaultMaxPayloadBytes = 64u << 20;

/// Message types of protocol version 1 (docs/DISTRIBUTED.md has the full
/// exchange). Node -> aggregator: kHello, kIntervalData, kBye. Aggregator ->
/// node: kHelloAck, kAck.
enum class MessageType : std::uint32_t {
  kHello = 1,         ///< handshake: node id + config fingerprint (no payload)
  kHelloAck = 2,      ///< interval_index = next interval expected of the node
  kIntervalData = 3,  ///< one interval's sketch contribution (IntervalPayload)
  kAck = 4,           ///< interval_index = contribution acknowledged
  kBye = 5,           ///< clean end-of-stream from the node (no payload)
};

[[nodiscard]] const char* message_type_name(MessageType type) noexcept;

/// Why a frame or payload was rejected. The wire crosses trust boundaries,
/// so every reject path is typed: receivers distinguish a short read (wait
/// for more bytes) from a corrupt or hostile frame (drop the peer and count
/// it) from a local I/O failure.
enum class WireErrorKind {
  kTruncated,   ///< buffer ends inside the header or payload
  kBadMagic,    ///< leading bytes are not "SCDN"
  kBadVersion,  ///< unknown protocol version
  kBadType,     ///< type field is not a known MessageType
  kBadCrc,      ///< header or payload CRC32 mismatch
  kOversized,   ///< declared payload_len exceeds the receiver's ceiling
  kBadPayload,  ///< framing verified but the payload decode failed
  kIo,          ///< socket-level failure (connect/send/recv)
};

[[nodiscard]] const char* wire_error_kind_name(WireErrorKind kind) noexcept;

/// Thrown by every wire failure path. Derives from sketch::SerializeError
/// (the library's serialization error family) so existing catch sites handle
/// wire faults too; new code switches on wire_kind().
class WireError : public sketch::SerializeError {
 public:
  WireError(WireErrorKind kind, const std::string& message);

  [[nodiscard]] WireErrorKind wire_kind() const noexcept { return kind_; }

 private:
  WireErrorKind kind_;
};

struct FrameHeader {
  MessageType type = MessageType::kHello;
  std::uint64_t node_id = 0;
  std::uint64_t interval_index = 0;
  std::uint64_t config_fingerprint = 0;
  std::uint64_t payload_len = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Frames a message: header (with CRCs and payload_len filled in) followed
/// by the payload bytes. `header.payload_len` is ignored and derived from
/// `payload`.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    const FrameHeader& header, std::span<const std::uint8_t> payload);

/// Parses exactly one complete frame from `bytes`. Throws WireError on any
/// malformed input, including trailing bytes — use FrameReader for streams.
[[nodiscard]] Frame decode_frame(std::span<const std::uint8_t> bytes,
                                 std::size_t max_payload_bytes =
                                     kDefaultMaxPayloadBytes);

/// Incremental stream re-framer: feed() appends raw socket bytes, next()
/// yields complete frames in order (nullopt = need more bytes). The header
/// is validated as soon as its 56 bytes are buffered, so an oversized or
/// corrupt length prefix is rejected before any payload is accumulated.
/// After a throw the reader is poisoned: the stream's framing is lost and
/// the connection must be dropped.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload_bytes = kDefaultMaxPayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  void feed(std::span<const std::uint8_t> bytes);

  /// Next complete frame, or nullopt when the buffer holds only a partial
  /// frame. Throws WireError (kBadMagic/kBadVersion/kBadType/kBadCrc/
  /// kOversized) on malformed framing.
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::size_t max_payload_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

/// The kIntervalData payload: one node's contribution for one interval. The
/// sketch travels as a serialize.h export packet so the aggregator reuses
/// sketch_from_bytes (typed rejection, family-registry sharing) unchanged.
struct IntervalPayload {
  double start_s = 0.0;
  double len_s = 0.0;
  std::uint64_t records = 0;
  std::vector<std::uint8_t> sketch_packet;  // sketch::sketch_to_bytes output
  std::vector<std::uint64_t> keys;          // distinct keys the node saw
};

[[nodiscard]] std::vector<std::uint8_t> encode_interval_payload(
    const IntervalPayload& payload);

/// Decodes an encode_interval_payload buffer. Throws WireError(kBadPayload)
/// on truncation, non-finite times, non-positive len_s, or trailing bytes.
/// The embedded sketch packet is NOT parsed here — the aggregator hands it
/// to sketch_from_bytes, keeping sketch validation in one place.
[[nodiscard]] IntervalPayload decode_interval_payload(
    std::span<const std::uint8_t> bytes);

}  // namespace scd::net
