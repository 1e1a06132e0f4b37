// Sketch serialization — the wire format for distributed collection.
//
// The linearity the paper exploits for forecasting is equally the basis for
// distribution: every router exports its observed sketch per interval and a
// collector COMBINEs them into a network-wide view (§1.2 "sketches can be
// combined in an arithmetical sense"). Combination requires identical hash
// functions, so the wire format carries (family kind, seed, rows) rather
// than the tables themselves; receivers rebuild or share families through a
// FamilyRegistry.
//
// Format (little-endian):
//   magic "SCDK" u32 | version u32 | family_kind u8 | seed u64 | rows u32 |
//   k u32 | registers: rows * k doubles
//
// The invertible (majority-vote) family kinds append the per-bucket vote
// state after the registers:
//   candidates: rows * k u64 | votes: rows * k doubles
// Votes must be finite and nonnegative, and candidates must fit the
// family's key domain; violations reject as kCorruptRegisters.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "sketch/serialize_error.h"

namespace scd::sketch {

inline constexpr std::uint32_t kSketchMagic = 0x4b444353;  // "SCDK" LE
inline constexpr std::uint32_t kSketchVersion = 1;

enum class FamilyKind : std::uint8_t {
  kTabulation = 0,
  kCarterWegman = 1,
  kMvTabulation = 2,    // invertible, 32-bit keys (MvSketch)
  kMvCarterWegman = 3,  // invertible, 64-bit keys (MvSketch64)
};

/// Shares hash families across deserialized sketches so that sketches
/// arriving from different exporters with the same (kind, seed, rows) are
/// COMBINE-compatible (family identity, not just value equality).
class FamilyRegistry {
 public:
  [[nodiscard]] KarySketch::FamilyPtr tabulation(std::uint64_t seed,
                                                 std::size_t rows);
  [[nodiscard]] KarySketch64::FamilyPtr carter_wegman(std::uint64_t seed,
                                                      std::size_t rows);

 private:
  std::map<std::pair<std::uint64_t, std::size_t>, KarySketch::FamilyPtr>
      tabulation_;
  std::map<std::pair<std::uint64_t, std::size_t>, KarySketch64::FamilyPtr> cw_;
};

/// The fixed 25-byte packet header. read_sketch_header validates magic,
/// version, family kind and dimensions without reading the body or touching
/// a FamilyRegistry, so a receiver can refuse a packet built for another
/// hash family or geometry before decoding it. Throws SerializeError.
struct SketchHeader {
  FamilyKind kind = FamilyKind::kTabulation;
  std::uint64_t seed = 0;
  std::size_t rows = 0;
  std::size_t k = 0;
};
[[nodiscard]] SketchHeader read_sketch_header(
    std::span<const std::uint8_t> packet);

/// Writes a sketch. Throws SerializeError(kWriteFailed) on stream failure.
void write_sketch(std::ostream& out, const KarySketch& sketch);
void write_sketch(std::ostream& out, const KarySketch64& sketch);
void write_sketch(std::ostream& out, const MvSketch& sketch);
void write_sketch(std::ostream& out, const MvSketch64& sketch);

/// Reads a sketch previously written with write_sketch. Throws a
/// SerializeError on malformed input or a family-kind mismatch (an
/// invertible-family dump fed to a k-ary reader, or vice versa, is
/// kFamilyMismatch — the typed reject the aggregator counts and drops).
/// Every value is validated before the FamilyRegistry is consulted, so a
/// rejected dump never adds a family to it.
/// Trailing stream data is allowed: exporters concatenate sketches into one
/// stream.
[[nodiscard]] KarySketch read_sketch32(std::istream& in,
                                       FamilyRegistry& registry);
[[nodiscard]] KarySketch64 read_sketch64(std::istream& in,
                                         FamilyRegistry& registry);
[[nodiscard]] MvSketch read_mv_sketch32(std::istream& in,
                                        FamilyRegistry& registry);
[[nodiscard]] MvSketch64 read_mv_sketch64(std::istream& in,
                                          FamilyRegistry& registry);

/// Convenience: (de)serialize via a byte buffer (the "export packet").
/// Unlike the stream readers, the *_from_bytes parsers reject trailing
/// bytes — a packet is exactly one sketch, and its length must match the
/// header (kTruncated / kTrailingBytes) before any register is allocated.
[[nodiscard]] std::vector<std::uint8_t> sketch_to_bytes(const KarySketch& s);
[[nodiscard]] KarySketch sketch_from_bytes(
    const std::vector<std::uint8_t>& bytes, FamilyRegistry& registry);
[[nodiscard]] std::vector<std::uint8_t> mv_sketch_to_bytes(const MvSketch& s);
[[nodiscard]] MvSketch mv_sketch_from_bytes(
    const std::vector<std::uint8_t>& bytes, FamilyRegistry& registry);

}  // namespace scd::sketch
