#include "common/frame.h"

#include <cassert>

#include "common/bytes.h"
#include "common/crc32.h"

namespace scd::common {

namespace {

/// The magic's four bytes as text ("SCDP"), for error messages.
[[nodiscard]] std::string magic_text(std::uint32_t magic) {
  std::uint8_t bytes[4];
  store_le(bytes, magic);
  return {bytes, bytes + 4};
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const FrameFormat& format,
                                       std::uint32_t kind,
                                       std::span<const std::uint64_t> fields,
                                       std::span<const std::uint8_t> payload) {
  assert(fields.size() == format.fields);
  std::vector<std::uint8_t> out;
  out.reserve(format.header_bytes() + payload.size());
  ByteWriter w(out);
  w.u32(format.magic);
  w.u32(format.version);
  w.u32(kind);
  w.u32(0);  // reserved
  w.array(fields);
  w.u64(payload.size());
  w.u32(crc32(payload.data(), payload.size()));
  w.u32(crc32(out.data(), out.size()));  // header CRC
  w.bytes(payload);
  return out;
}

FrameHead parse_frame_head(const FrameFormat& format,
                           std::span<const std::uint8_t> bytes,
                           std::uint64_t max_payload) {
  const std::size_t header_bytes = format.header_bytes();
  if (bytes.size() < header_bytes) {
    throw FrameError(FrameErrorKind::kTruncated,
                     "input ends inside the " + std::to_string(header_bytes) +
                         "-byte header (" + std::to_string(bytes.size()) +
                         " bytes)");
  }
  ByteReader in(bytes.first(header_bytes), "frame header");
  if (in.u32() != format.magic) {
    throw FrameError(FrameErrorKind::kBadMagic,
                     "leading bytes are not \"" + magic_text(format.magic) +
                         "\"");
  }
  if (crc32(bytes.data(), header_bytes - 4) !=
      load_le<std::uint32_t>(bytes.data() + header_bytes - 4)) {
    throw FrameError(FrameErrorKind::kBadHeaderCrc, "header CRC32 mismatch");
  }
  const std::uint32_t version = in.u32();
  if (version != format.version) {
    throw FrameError(FrameErrorKind::kBadVersion,
                     "version " + std::to_string(version) +
                         " is not the supported version " +
                         std::to_string(format.version));
  }
  FrameHead head;
  head.kind = in.u32();
  if (head.kind < format.min_kind || head.kind > format.max_kind) {
    throw FrameError(FrameErrorKind::kBadKind,
                     "unknown kind " + std::to_string(head.kind));
  }
  (void)in.u32();  // reserved
  in.array(std::span(head.fields).first(format.fields));
  head.payload_len = in.u64();
  head.payload_crc = in.u32();
  if (head.payload_len > max_payload) {
    throw FrameError(FrameErrorKind::kOversized,
                     "declared payload of " +
                         std::to_string(head.payload_len) +
                         " bytes exceeds the " + std::to_string(max_payload) +
                         "-byte ceiling");
  }
  return head;
}

void check_frame_payload(const FrameHead& head,
                         std::span<const std::uint8_t> payload) {
  if (crc32(payload.data(), payload.size()) != head.payload_crc) {
    throw FrameError(FrameErrorKind::kBadPayloadCrc, "payload CRC32 mismatch");
  }
}

FrameHead parse_frame(const FrameFormat& format,
                      std::span<const std::uint8_t> bytes,
                      std::uint64_t max_payload) {
  const FrameHead head = parse_frame_head(format, bytes, max_payload);
  const std::uint64_t body = bytes.size() - format.header_bytes();
  if (body < head.payload_len) {
    throw FrameError(FrameErrorKind::kTruncated,
                     "payload holds " + std::to_string(body) + " of " +
                         std::to_string(head.payload_len) + " bytes");
  }
  if (body > head.payload_len) {
    throw FrameError(FrameErrorKind::kTrailingBytes,
                     std::to_string(body - head.payload_len) +
                         " trailing bytes after the payload");
  }
  check_frame_payload(head, bytes.subspan(format.header_bytes()));
  return head;
}

}  // namespace scd::common
