#include "sketch/serialize.h"

#include <stdexcept>
#include <type_traits>

#include "common/bytes.h"
#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "sketch/kary_sketch.h"

namespace scd::sketch {

namespace {

constexpr std::size_t kHeaderBytes = 25;

template <typename Sketch>
constexpr FamilyKind kind_of() noexcept {
  if constexpr (std::is_same_v<Sketch, KarySketch>) {
    return FamilyKind::kTabulation;
  } else if constexpr (std::is_same_v<Sketch, KarySketch64>) {
    return FamilyKind::kCarterWegman;
  } else if constexpr (std::is_same_v<Sketch, MvSketch>) {
    return FamilyKind::kMvTabulation;
  } else {
    static_assert(std::is_same_v<Sketch, MvSketch64>);
    return FamilyKind::kMvCarterWegman;
  }
}

/// Body length implied by a validated header: the registers, plus the
/// candidate and vote tables for the invertible kinds.
[[nodiscard]] std::size_t body_bytes(const SketchHeader& h) noexcept {
  const bool invertible = h.kind == FamilyKind::kMvTabulation ||
                          h.kind == FamilyKind::kMvCarterWegman;
  return h.rows * h.k * (invertible ? 24 : 8);
}

template <typename Sketch>
[[nodiscard]] std::vector<std::uint8_t> encode(const Sketch& sketch) {
  constexpr bool kInvertible = requires { sketch.candidates(); };
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes +
              sketch.registers().size() * (kInvertible ? 24 : 8));
  common::ByteWriter w(out);
  w.u32(kSketchMagic);
  w.u32(kSketchVersion);
  w.u8(static_cast<std::uint8_t>(kind_of<Sketch>()));
  w.u64(sketch.family()->seed());
  w.u32(static_cast<std::uint32_t>(sketch.depth()));
  w.u32(static_cast<std::uint32_t>(sketch.width()));
  w.array(sketch.registers());
  // Invertible family kinds carry the vote state after the registers.
  if constexpr (kInvertible) {
    w.array(sketch.candidates());
    w.array(sketch.votes());
  }
  return out;
}

template <typename Sketch>
[[nodiscard]] SketchHeader expect_header(std::span<const std::uint8_t> bytes) {
  const SketchHeader header = read_sketch_header(bytes);
  if (header.kind != kind_of<Sketch>()) {
    throw SerializeError(SerializeErrorKind::kFamilyMismatch,
                         "packet holds a different sketch family");
  }
  return header;
}

/// Decodes and validates a body of exactly body_bytes(header) bytes. The
/// hash family is fetched from the registry only once every value has
/// passed, so a rejected packet never grows the registry.
template <typename Sketch>
[[nodiscard]] Sketch decode_body(const SketchHeader& header,
                                 std::span<const std::uint8_t> body,
                                 FamilyRegistry& registry) {
  common::ByteReader in(body, "sketch packet");
  const std::size_t cells = header.rows * header.k;
  std::vector<double> registers(cells);
  in.array(std::span(registers));
  check_registers(registers);
  std::vector<std::uint64_t> candidates;
  std::vector<double> votes;
  if constexpr (requires(const Sketch& s) { s.candidates(); }) {
    candidates.resize(cells);
    in.array(std::span(candidates));
    votes.resize(cells);
    in.array(std::span(votes));
    check_votes(candidates, votes, Sketch::kKeyBits);
  }
  typename Sketch::FamilyPtr family;
  if constexpr (std::is_same_v<typename Sketch::FamilyType,
                               hash::TabulationHashFamily>) {
    family = registry.tabulation(header.seed, header.rows);
  } else {
    family = registry.carter_wegman(header.seed, header.rows);
  }
  Sketch sketch(std::move(family), header.k);
  sketch.load_registers(registers);
  if constexpr (requires { sketch.candidates(); }) {
    sketch.load_aux(candidates, votes);
  }
  return sketch;
}

template <typename Sketch>
void write_stream(std::ostream& out, const Sketch& sketch) {
  const std::vector<std::uint8_t> bytes = encode(sketch);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw SerializeError(SerializeErrorKind::kWriteFailed, "write failed");
  }
}

void read_exact(std::istream& in, std::span<std::uint8_t> out) {
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(out.size()));
  if (static_cast<std::size_t>(in.gcount()) != out.size()) {
    throw SerializeError(SerializeErrorKind::kTruncated, "truncated input");
  }
}

/// Reads one sketch and leaves the stream just past it (exporters
/// concatenate sketches into one stream).
template <typename Sketch>
Sketch read_stream(std::istream& in, FamilyRegistry& registry) {
  std::uint8_t head[kHeaderBytes];
  read_exact(in, head);
  const SketchHeader header = expect_header<Sketch>(head);
  std::vector<std::uint8_t> body(body_bytes(header));
  read_exact(in, body);
  return decode_body<Sketch>(header, body, registry);
}

/// A packet is exactly one sketch: its length must match the header before
/// anything is allocated.
template <typename Sketch>
Sketch from_bytes(std::span<const std::uint8_t> bytes,
                  FamilyRegistry& registry) {
  const SketchHeader header = expect_header<Sketch>(bytes);
  const std::size_t expected = kHeaderBytes + body_bytes(header);
  if (bytes.size() < expected) {
    throw SerializeError(SerializeErrorKind::kTruncated,
                         "packet holds " + std::to_string(bytes.size()) +
                             " of " + std::to_string(expected) + " bytes");
  }
  if (bytes.size() > expected) {
    throw SerializeError(SerializeErrorKind::kTrailingBytes,
                         "trailing bytes after sketch payload");
  }
  return decode_body<Sketch>(header, bytes.subspan(kHeaderBytes), registry);
}

}  // namespace

KarySketch::FamilyPtr FamilyRegistry::tabulation(std::uint64_t seed,
                                                 std::size_t rows) {
  auto& slot = tabulation_[{seed, rows}];
  if (!slot) {
    slot = std::make_shared<hash::TabulationHashFamily>(seed, rows);
  }
  return slot;
}

KarySketch64::FamilyPtr FamilyRegistry::carter_wegman(std::uint64_t seed,
                                                      std::size_t rows) {
  auto& slot = cw_[{seed, rows}];
  if (!slot) {
    slot = std::make_shared<hash::CwHashFamily>(seed, rows);
  }
  return slot;
}

SketchHeader read_sketch_header(std::span<const std::uint8_t> packet) {
  if (packet.size() < kHeaderBytes) {
    throw SerializeError(SerializeErrorKind::kTruncated,
                         "packet ends inside the header");
  }
  common::ByteReader in(packet.first(kHeaderBytes), "sketch header");
  if (in.u32() != kSketchMagic) {
    throw SerializeError(SerializeErrorKind::kBadMagic, "bad magic");
  }
  if (in.u32() != kSketchVersion) {
    throw SerializeError(SerializeErrorKind::kBadVersion,
                         "unsupported version");
  }
  // Validate the raw byte before casting into the enum: a cast to FamilyKind
  // from an out-of-range value is unspecified for comparison purposes.
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(FamilyKind::kMvCarterWegman)) {
    throw SerializeError(SerializeErrorKind::kBadFamilyKind,
                         "unknown family kind");
  }
  SketchHeader h;
  h.kind = static_cast<FamilyKind>(kind);
  h.seed = in.u64();
  h.rows = in.u32();
  h.k = in.u32();
  if (!hash::valid_bucket_count(h.k) || h.k < 2 || h.rows < 1 ||
      h.rows > kMaxRows) {
    throw SerializeError(SerializeErrorKind::kBadDimensions,
                         "invalid dimensions");
  }
  return h;
}

void write_sketch(std::ostream& out, const KarySketch& sketch) {
  write_stream(out, sketch);
}

void write_sketch(std::ostream& out, const KarySketch64& sketch) {
  write_stream(out, sketch);
}

void write_sketch(std::ostream& out, const MvSketch& sketch) {
  write_stream(out, sketch);
}

void write_sketch(std::ostream& out, const MvSketch64& sketch) {
  write_stream(out, sketch);
}

KarySketch read_sketch32(std::istream& in, FamilyRegistry& registry) {
  return read_stream<KarySketch>(in, registry);
}

KarySketch64 read_sketch64(std::istream& in, FamilyRegistry& registry) {
  return read_stream<KarySketch64>(in, registry);
}

MvSketch read_mv_sketch32(std::istream& in, FamilyRegistry& registry) {
  return read_stream<MvSketch>(in, registry);
}

MvSketch64 read_mv_sketch64(std::istream& in, FamilyRegistry& registry) {
  return read_stream<MvSketch64>(in, registry);
}

std::vector<std::uint8_t> sketch_to_bytes(const KarySketch& sketch) {
  return encode(sketch);
}

KarySketch sketch_from_bytes(const std::vector<std::uint8_t>& bytes,
                             FamilyRegistry& registry) {
  return from_bytes<KarySketch>(bytes, registry);
}

std::vector<std::uint8_t> mv_sketch_to_bytes(const MvSketch& sketch) {
  return encode(sketch);
}

MvSketch mv_sketch_from_bytes(const std::vector<std::uint8_t>& bytes,
                              FamilyRegistry& registry) {
  return from_bytes<MvSketch>(bytes, registry);
}

}  // namespace scd::sketch
