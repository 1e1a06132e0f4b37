// Carter-Wegman degree-3 polynomial hashing over GF(2^61 - 1).
//
// h(x) = ((a3*x^3 + a2*x^2 + a1*x + a0) mod p) truncated to 16 bits.
// A degree-3 polynomial with independent uniform coefficients is exactly
// 4-universal over [p]; truncation to 16 bits adds bias O(2^16/p) ~ 2^-45,
// negligible for every guarantee in the paper. Handles arbitrary 64-bit keys
// (keys >= p are first reduced, which merges a vanishing fraction of the key
// space). This is the reference/general-purpose family; TabulationHashFamily
// is the fast path for 32-bit keys.
#pragma once

#include <cstdint>
#include <vector>

#include "hash/hash_family.h"
#include "hash/mersenne61.h"

namespace scd::hash {

class CwHashFamily {
 public:
  /// Polynomial evaluation over GF(2^61 - 1) accepts the full 64-bit key
  /// space (keys >= p are reduced first).
  static constexpr unsigned kKeyBits = 64;

  /// Creates `rows` independent degree-3 polynomial hash functions, with all
  /// coefficients derived deterministically from `seed`.
  CwHashFamily(std::uint64_t seed, std::size_t rows);

  [[nodiscard]] std::uint16_t hash16(std::size_t row,
                                     std::uint64_t key) const noexcept {
    return static_cast<std::uint16_t>(eval61(row, key) & 0xffff);
  }

  /// Full-width evaluation in [0, p); exposed for tests.
  [[nodiscard]] std::uint64_t eval61(std::size_t row,
                                     std::uint64_t key) const noexcept {
    const Coeffs& c = coeffs_[row];
    const std::uint64_t x = reduce61(key);
    // Horner, ((a3*x + a2)*x + a1)*x + a0, with lazy reduction: with every
    // coefficient below 2^61 the partial sums stay below 3, 5 and 7 * 2^61,
    // and one reduce61 at the end yields the canonical value.
    std::uint64_t acc = mul_add_lazy61(c.a3, x, c.a2);
    acc = mul_add_lazy61(acc, x, c.a1);
    acc = mul_add_lazy61(acc, x, c.a0);
    return reduce61(acc);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return coeffs_.size(); }

  /// The seed this family was constructed from (for serialization: a family
  /// is fully determined by (seed, rows)).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  struct Coeffs {
    std::uint64_t a0, a1, a2, a3;
  };
  std::uint64_t seed_ = 0;
  std::vector<Coeffs> coeffs_;
};

static_assert(HashFamily16<CwHashFamily>);

}  // namespace scd::hash
