// The typed error every sketch decoder throws, and the content checks that
// every reader of a sketch table runs: the packet decoder (serialize.cpp)
// and the reader hooks of the sketch field lists (BasicKarySketch::transfer,
// BasicMvSketch::transfer_votes), which cover every table in the engine
// state. A header of its own, because serialize.h includes the sketch
// headers that need these checks.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

namespace scd::sketch {

/// Why a dump was rejected. Sketch dumps cross the network from untrusted
/// exporters, so every reject path is typed: collectors can distinguish a
/// short read (retry) from a corrupt or hostile packet (drop and count).
enum class SerializeErrorKind {
  kTruncated,         ///< input ended inside the header or register payload
  kBadMagic,          ///< leading bytes are not "SCDK"
  kBadVersion,        ///< unknown format version
  kBadFamilyKind,     ///< family-kind byte is not a known FamilyKind
  kBadDimensions,     ///< rows/k outside the valid sketch envelope
  kCorruptRegisters,  ///< register/vote payload decodes to invalid values
  kFamilyMismatch,    ///< dump's family kind does not match the reader used
  kTrailingBytes,     ///< byte-buffer parse left unconsumed bytes
  kWriteFailed,       ///< output stream failed mid-write
};

/// Thrown by every (de)serialization failure path. Derives from
/// std::runtime_error so legacy catch sites keep working; new code should
/// switch on kind().
// scd-lint: allow(include-hygiene) — defined here; serialize.h re-exports it
class SerializeError : public std::runtime_error {
 public:
  SerializeError(SerializeErrorKind kind, const std::string& message)
      : std::runtime_error("sketch serialization: " + message), kind_(kind) {}

  [[nodiscard]] SerializeErrorKind kind() const noexcept { return kind_; }

 private:
  SerializeErrorKind kind_;
};

/// A register can never legitimately be NaN or infinite: UPDATE adds finite
/// deltas. Throws SerializeError(kCorruptRegisters) rather than let the
/// poison spread through COMBINE and every later ESTIMATEF2.
inline void check_registers(std::span<const double> registers) {
  for (const double v : registers) {
    if (!std::isfinite(v)) {
      throw SerializeError(SerializeErrorKind::kCorruptRegisters,
                           "non-finite register value");
    }
  }
}

/// A candidate must fit the family's key domain (key_bits), and a vote is
/// an accumulated absolute mass: finite and nonnegative by construction.
/// Throws SerializeError(kCorruptRegisters) on anything else.
inline void check_votes(std::span<const std::uint64_t> candidates,
                        std::span<const double> votes, unsigned key_bits) {
  if (key_bits < 64) {
    for (const std::uint64_t c : candidates) {
      if ((c >> key_bits) != 0) {
        throw SerializeError(SerializeErrorKind::kCorruptRegisters,
                             "candidate key exceeds the family key domain");
      }
    }
  }
  for (const double v : votes) {
    if (!std::isfinite(v) || v < 0.0) {
      throw SerializeError(SerializeErrorKind::kCorruptRegisters,
                           "invalid vote value");
    }
  }
}

}  // namespace scd::sketch
