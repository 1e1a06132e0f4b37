// The shared byte codec (common/bytes.h) and CRC frame (common/frame.h):
// little-endian layout, typed truncation, and the frame parser's check
// order. The callers' own suites (wire, checkpoint, serialize, trace) cover
// how each maps these errors onto its error kinds.
#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/frame.h"

namespace scd::common {
namespace {

TEST(ByteCodec, WritesLittleEndian) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(0x01);
  w.u32(0x05040302);
  w.u64(0x0d0c0b0a09080706ull);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                            11, 12, 13}));
  std::uint8_t flags[2];
  store_le(flags, std::uint16_t{0x0e0f});
  EXPECT_EQ(load_le<std::uint16_t>(flags), 0x0e0f);
  EXPECT_EQ(flags[0], 0x0f);
}

TEST(ByteCodec, RoundTripsEveryFieldAndArray) {
  const std::vector<double> doubles = {0.0, -1.5, 1e300,
                                       std::numeric_limits<double>::min()};
  const std::vector<std::uint64_t> words = {0, 1, ~0ull, 0x0123456789abcdefull};
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(0xbe);
  w.f64(-0.25);
  w.array(std::span<const double>(doubles));
  w.array(std::span<const std::uint64_t>(words));
  w.bytes(std::vector<std::uint8_t>{9, 8, 7});

  ByteReader in(out);
  EXPECT_EQ(in.u8(), 0xbe);
  EXPECT_EQ(in.f64(), -0.25);
  std::vector<double> d(doubles.size());
  in.array(std::span(d));
  EXPECT_EQ(d, doubles);
  std::vector<std::uint64_t> u(words.size());
  in.array(std::span(u));
  EXPECT_EQ(u, words);
  const auto tail = in.bytes(3);
  EXPECT_EQ(std::vector<std::uint8_t>(tail.begin(), tail.end()),
            (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(ByteCodec, ShortInputIsATypedTruncation) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7};
  ByteReader in(bytes, "probe");
  EXPECT_EQ(in.u32(), 0x04030201u);
  try {
    (void)in.u64();
    FAIL() << "read past the end";
  } catch (const TruncatedError& e) {
    EXPECT_STREQ(e.what(), "probe ends mid-field");
  }
  // A failed read consumes nothing.
  EXPECT_EQ(in.remaining(), 3u);
  std::vector<double> too_many(1);
  EXPECT_THROW(in.array(std::span(too_many)), TruncatedError);
}

constexpr FrameFormat kTestFormat{
    .magic = 0x54534554,  // "TEST"
    .version = 3,
    .min_kind = 1,
    .max_kind = 2,
    .fields = 1,
};

FrameErrorKind parse_kind(const std::vector<std::uint8_t>& bytes,
                          std::uint64_t max_payload = kNoPayloadCeiling) {
  try {
    (void)parse_frame(kTestFormat, bytes, max_payload);
  } catch (const FrameError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "frame accepted";
  return FrameErrorKind::kTruncated;
}

TEST(Frame, RoundTripsHeaderFieldsAndPayload) {
  const std::uint64_t fields[] = {0xfeedfacecafebeefull};
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto bytes = encode_frame(kTestFormat, 2, fields, payload);
  ASSERT_EQ(bytes.size(), kTestFormat.header_bytes() + payload.size());
  const FrameHead head = parse_frame(kTestFormat, bytes, kNoPayloadCeiling);
  EXPECT_EQ(head.kind, 2u);
  EXPECT_EQ(head.fields[0], 0xfeedfacecafebeefull);
  EXPECT_EQ(head.payload_len, payload.size());
}

TEST(Frame, ChecksInTheDocumentedOrder) {
  const std::uint64_t fields[] = {7};
  const std::vector<std::uint8_t> payload(16, 0xaa);
  const auto good = encode_frame(kTestFormat, 1, fields, payload);

  // Magic before header CRC: a bad magic also breaks the CRC.
  auto bytes = good;
  bytes[0] ^= 0xff;
  EXPECT_EQ(parse_kind(bytes), FrameErrorKind::kBadMagic);
  // Header CRC before version, kind and length.
  bytes = good;
  bytes[4] ^= 0x01;
  EXPECT_EQ(parse_kind(bytes), FrameErrorKind::kBadHeaderCrc);
  // Version, kind, ceiling: re-encoded so the header CRC is valid.
  FrameFormat other = kTestFormat;
  other.version = 4;
  EXPECT_EQ(parse_kind(encode_frame(other, 1, fields, payload)),
            FrameErrorKind::kBadVersion);
  EXPECT_EQ(parse_kind(encode_frame(kTestFormat, 9, fields, payload)),
            FrameErrorKind::kBadKind);
  EXPECT_EQ(parse_kind(good, 15), FrameErrorKind::kOversized);
  // Length, then payload CRC.
  bytes = good;
  bytes.pop_back();
  EXPECT_EQ(parse_kind(bytes), FrameErrorKind::kTruncated);
  bytes = good;
  bytes.push_back(0);
  EXPECT_EQ(parse_kind(bytes), FrameErrorKind::kTrailingBytes);
  bytes = good;
  bytes.back() ^= 0x01;
  EXPECT_EQ(parse_kind(bytes), FrameErrorKind::kBadPayloadCrc);
  EXPECT_EQ(parse_kind({good.begin(), good.begin() + 10}),
            FrameErrorKind::kTruncated);
}

}  // namespace
}  // namespace scd::common
