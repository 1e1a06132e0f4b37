#include "hash/cw_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "hash/mersenne61.h"

namespace scd::hash {
namespace {

TEST(Mersenne61, Reduce61Correct) {
  EXPECT_EQ(reduce61(0), 0u);
  EXPECT_EQ(reduce61(kMersenne61), 0u);
  EXPECT_EQ(reduce61(kMersenne61 - 1), kMersenne61 - 1);
  EXPECT_EQ(reduce61(kMersenne61 + 5), 5u);
  // Exhaustive-style check against __int128 modulo on assorted values.
  for (std::uint64_t x : {1ULL, 0xffffffffffffffffULL, (1ULL << 62) + 17,
                          (1ULL << 61) + (1ULL << 13), 0x123456789abcdefULL}) {
    EXPECT_EQ(reduce61(x), x % kMersenne61) << x;
  }
}

TEST(Mersenne61, MulAddLazyMatchesInt128) {
  // One step is congruent to a * x + b and below 2^61 + a + b; three
  // chained Horner steps from coefficients below p stay below 7 * 2^61, so
  // reduce61 of the chain is the canonical polynomial value.
  std::uint64_t state = 99;
  const auto draw = [&state] {
    return scd::common::splitmix64(state) % kMersenne61;
  };
  const auto mod = [](unsigned __int128 v) {
    return static_cast<std::uint64_t>(v % kMersenne61);
  };
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = i == 0 ? kMersenne61 - 1 : draw();
    const std::uint64_t x = i == 0 ? kMersenne61 - 1 : draw();
    const std::uint64_t b = i == 0 ? kMersenne61 - 1 : draw();
    const std::uint64_t c = draw();
    const std::uint64_t d = draw();
    const std::uint64_t s1 = mul_add_lazy61(a, x, b);
    EXPECT_LT(s1, 3 * (1ULL << 61));
    EXPECT_EQ(reduce61(s1),
              mod(static_cast<unsigned __int128>(a) * x + b));
    const std::uint64_t s3 = mul_add_lazy61(mul_add_lazy61(s1, x, c), x, d);
    EXPECT_LT(s3, 7 * (1ULL << 61));
    const std::uint64_t expected =
        mod(static_cast<unsigned __int128>(
                mod(static_cast<unsigned __int128>(reduce61(s1)) * x + c)) *
                x +
            d);
    EXPECT_EQ(reduce61(s3), expected);
  }
}

TEST(CwHashFamily, DeterministicPerSeed) {
  CwHashFamily a(42, 5), b(42, 5);
  for (std::uint64_t key = 0; key < 100; ++key) {
    for (std::size_t row = 0; row < 5; ++row) {
      EXPECT_EQ(a.hash16(row, key), b.hash16(row, key));
    }
  }
}

TEST(CwHashFamily, DifferentSeedsDiffer) {
  CwHashFamily a(1, 1), b(2, 1);
  int equal = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    if (a.hash16(0, key) == b.hash16(0, key)) ++equal;
  }
  EXPECT_LT(equal, 10);  // ~1000/65536 expected
}

TEST(CwHashFamily, RowsAreIndependentFunctions) {
  CwHashFamily f(7, 4);
  int equal = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    if (f.hash16(0, key) == f.hash16(1, key)) ++equal;
  }
  EXPECT_LT(equal, 10);
}

TEST(CwHashFamily, Eval61WithinField) {
  CwHashFamily f(11, 3);
  for (std::uint64_t key = 0; key < 5000; key += 37) {
    for (std::size_t row = 0; row < 3; ++row) {
      EXPECT_LT(f.eval61(row, key), kMersenne61);
    }
  }
}

TEST(CwHashFamily, Eval61MatchesPinnedDigest) {
  // FNV-1a over eval61 for every row of two families, on spread keys and
  // the edges of the field (0, p - 1, p, p + 1, 2^63, 2^64 - 1). A change
  // to the polynomial arithmetic must keep every canonical value; the
  // Appendix A guarantees and the pinned KarySketch64 / MvSketch64 bytes
  // (tests/golden) rest on them.
  std::vector<std::uint64_t> keys = {0,
                                     1,
                                     kMersenne61 - 1,
                                     kMersenne61,
                                     kMersenne61 + 1,
                                     1ULL << 63,
                                     ~0ULL};
  for (std::uint64_t i = 0; i < 4096; ++i) {
    keys.push_back(i * 0x9e3779b97f4a7c15ULL);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t seed : {1ULL, 42ULL}) {
    const CwHashFamily f(seed, 5);
    for (const std::uint64_t key : keys) {
      for (std::size_t row = 0; row < f.rows(); ++row) {
        std::uint64_t v = f.eval61(row, key);
        for (int b = 0; b < 8; ++b, v >>= 8) {
          h = (h ^ (v & 0xff)) * 0x100000001b3ULL;
        }
      }
    }
  }
  EXPECT_EQ(h, 0x8928bec360d2a695ULL);
}

TEST(CwHashFamily, Handles64BitKeys) {
  CwHashFamily f(13, 2);
  // Full-width keys must hash without overflow and be deterministic.
  const std::uint64_t huge = 0xfedcba9876543210ULL;
  EXPECT_EQ(f.hash16(0, huge), f.hash16(0, huge));
  EXPECT_EQ(f.eval61(1, huge), f.eval61(1, huge));
}

TEST(CwHashFamily, RowsAccessorMatchesConstruction) {
  EXPECT_EQ(CwHashFamily(1, 1).rows(), 1u);
  EXPECT_EQ(CwHashFamily(1, 25).rows(), 25u);
}

}  // namespace
}  // namespace scd::hash
