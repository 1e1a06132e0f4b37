// One CRC-framed envelope for every framed byte stream: checkpoint files
// ("SCDP", src/checkpoint) and wire messages ("SCDN", src/net).
//
// Layout (little-endian, 32 + 8*N header bytes):
//   u32 magic | u32 version | u32 kind | u32 reserved |
//   N x u64 fields | u64 payload_len | u32 payload_crc32 | u32 header_crc32
//   payload_len bytes of payload
// header_crc32 covers every header byte before it; payload_crc32 covers the
// payload. A FrameFormat names the magic, version, valid kind range and N;
// the caller decides what its N fields mean (checkpoint: fingerprint,
// interval; wire: node id, interval, fingerprint).
//
// Parsing checks, in order: magic -> header CRC -> version -> kind ->
// length (ceiling, then truncation / trailing bytes) -> payload CRC, so each
// error names the first thing actually wrong. Every failure throws a typed
// FrameError; callers map its kind onto their own error enum.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace scd::common {

inline constexpr std::size_t kMaxFrameFields = 3;

struct FrameFormat {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  /// Valid `kind` values are [min_kind, max_kind].
  std::uint32_t min_kind = 0;
  std::uint32_t max_kind = 0;
  /// u64 fields between the fixed words and payload_len (<= kMaxFrameFields).
  std::size_t fields = 0;

  [[nodiscard]] constexpr std::size_t header_bytes() const noexcept {
    return 32 + 8 * fields;
  }
};

enum class FrameErrorKind {
  kTruncated,      ///< input ends inside the header or payload
  kBadMagic,       ///< leading bytes are not the format's magic
  kBadHeaderCrc,   ///< header CRC32 mismatch
  kBadVersion,     ///< unknown format version
  kBadKind,        ///< kind outside [min_kind, max_kind]
  kOversized,      ///< payload_len exceeds the receiver's ceiling
  kTrailingBytes,  ///< input continues past payload_len
  kBadPayloadCrc,  ///< payload CRC32 mismatch
};

class FrameError : public std::runtime_error {
 public:
  FrameError(FrameErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] FrameErrorKind kind() const noexcept { return kind_; }

 private:
  FrameErrorKind kind_;
};

/// The validated header words of one frame.
struct FrameHead {
  std::uint32_t kind = 0;
  std::array<std::uint64_t, kMaxFrameFields> fields{};
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

inline constexpr std::uint64_t kNoPayloadCeiling =
    std::numeric_limits<std::uint64_t>::max();

/// Header (CRCs and payload_len derived) followed by `payload`.
/// `fields.size()` must equal format.fields.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    const FrameFormat& format, std::uint32_t kind,
    std::span<const std::uint64_t> fields,
    std::span<const std::uint8_t> payload);

/// Validates the header at the front of `bytes` (magic, header CRC,
/// version, kind, payload_len <= max_payload). Throws kTruncated when
/// `bytes` is shorter than the header; the payload is not looked at.
[[nodiscard]] FrameHead parse_frame_head(const FrameFormat& format,
                                         std::span<const std::uint8_t> bytes,
                                         std::uint64_t max_payload);

/// Throws kBadPayloadCrc unless `payload` matches head.payload_crc.
void check_frame_payload(const FrameHead& head,
                         std::span<const std::uint8_t> payload);

/// Parses exactly one whole frame: header, exact length, payload CRC. The
/// payload is bytes.subspan(format.header_bytes()).
[[nodiscard]] FrameHead parse_frame(const FrameFormat& format,
                                    std::span<const std::uint8_t> bytes,
                                    std::uint64_t max_payload);

}  // namespace scd::common
