// Arithmetic modulo the Mersenne prime p = 2^61 - 1, the field underlying the
// Carter-Wegman polynomial hash family (paper refs [10, 39]). Mersenne form
// lets us reduce without division.
#pragma once

#include <cstdint>

namespace scd::hash {

inline constexpr std::uint64_t kMersenne61 = (1ULL << 61) - 1;

/// Reduces any 64-bit value into [0, p). Input may be up to 2^64-1.
[[nodiscard]] constexpr std::uint64_t reduce61(std::uint64_t x) noexcept {
  x = (x & kMersenne61) + (x >> 61);
  if (x >= kMersenne61) x -= kMersenne61;
  return x;
}

/// a * x + b, reduced only partly: congruent to it mod p, and below
/// 2^61 + a + b for x < p (the part of a * x above bit 61 is below a).
/// Horner steps chain it while that bound stays under 2^64; reduce61 then
/// gives the canonical value. No conditional subtract sits on the chain.
[[nodiscard]] constexpr std::uint64_t mul_add_lazy61(std::uint64_t a,
                                                     std::uint64_t x,
                                                     std::uint64_t b) noexcept {
  const unsigned __int128 z = static_cast<unsigned __int128>(a) * x;
  return (static_cast<std::uint64_t>(z) & kMersenne61) +
         static_cast<std::uint64_t>(z >> 61) + b;
}

}  // namespace scd::hash
