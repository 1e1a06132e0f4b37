// Functional tests for the four k-ary sketch operations of §3.1.
#include "sketch/kary_sketch.h"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <numeric>
#include <vector>

#include "common/random.h"

namespace scd::sketch {
namespace {

TEST(KarySketch, FreshSketchIsZero) {
  const auto family = make_tabulation_family(1, 5);
  KarySketch s(family, 1024);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.estimate(42), 0.0);
  EXPECT_EQ(s.estimate_f2(), 0.0);
  EXPECT_EQ(s.depth(), 5u);
  EXPECT_EQ(s.width(), 1024u);
}

TEST(KarySketch, SumTracksTotalUpdateMass) {
  const auto family = make_tabulation_family(2, 5);
  KarySketch s(family, 256);
  s.update(1, 10.0);
  s.update(2, 5.0);
  s.update(1, -3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

TEST(KarySketch, AllRowsCarrySameSum) {
  const auto family = make_tabulation_family(3, 9);
  KarySketch s(family, 64);
  scd::common::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    s.update(rng.next_below(1u << 30), rng.uniform(-5, 20));
  }
  for (std::size_t i = 0; i < s.depth(); ++i) {
    double row_sum = 0.0;
    for (double v : s.row(i)) row_sum += v;
    EXPECT_NEAR(row_sum, s.sum(), 1e-6);
  }
}

TEST(KarySketch, ExactWhenKeysFewerThanBuckets) {
  // With a handful of keys and K = 4096, collisions are overwhelmingly
  // unlikely in some row, and the median-of-rows estimate is near exact.
  const auto family = make_tabulation_family(4, 5);
  KarySketch s(family, 4096);
  const std::map<std::uint64_t, double> truth{
      {10, 100.0}, {20, -50.0}, {30, 7.5}, {40, 0.25}, {50, 1e6}};
  for (const auto& [key, value] : truth) s.update(key, value);
  for (const auto& [key, value] : truth) {
    EXPECT_NEAR(s.estimate(key), value, std::abs(value) * 1e-2 + 300.0);
  }
}

TEST(KarySketch, TurnstileDeletionsCancel) {
  const auto family = make_tabulation_family(5, 5);
  KarySketch s(family, 1024);
  scd::common::Rng rng(2);
  std::vector<std::pair<std::uint64_t, double>> updates;
  for (int i = 0; i < 300; ++i) {
    updates.emplace_back(rng.next_below(1u << 31), rng.uniform(0, 100));
  }
  for (const auto& [k, v] : updates) s.update(k, v);
  for (const auto& [k, v] : updates) s.update(k, -v);  // full cancellation
  EXPECT_NEAR(s.sum(), 0.0, 1e-9);
  for (double reg : s.registers()) EXPECT_NEAR(reg, 0.0, 1e-9);
}

TEST(KarySketch, UpdateAccumulatesPerKey) {
  const auto family = make_tabulation_family(6, 5);
  KarySketch s(family, 4096);
  for (int i = 0; i < 10; ++i) s.update(77, 2.5);
  EXPECT_NEAR(s.estimate(77), 25.0, 1.0);
}

TEST(KarySketch, EstimateF2MatchesExactOnSparseInput) {
  const auto family = make_tabulation_family(7, 9);
  KarySketch s(family, 8192);
  double exact_f2 = 0.0;
  scd::common::Rng rng(3);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const double v = rng.uniform(-100, 100);
    s.update(1000 + i, v);
    exact_f2 += v * v;
  }
  EXPECT_NEAR(s.estimate_f2(), exact_f2, exact_f2 * 0.05);
}

TEST(KarySketch, LinearityOfCombine) {
  const auto family = make_tabulation_family(8, 5);
  KarySketch a(family, 512), b(family, 512);
  a.update(1, 10.0);
  a.update(2, 4.0);
  b.update(1, -2.0);
  b.update(3, 6.0);
  const std::vector<double> coeffs{2.0, -1.0};
  const std::vector<const KarySketch*> parts{&a, &b};
  const KarySketch c = KarySketch::combine(coeffs, parts);
  // Register-level identity: c = 2a - b in every cell.
  for (std::size_t i = 0; i < c.registers().size(); ++i) {
    EXPECT_DOUBLE_EQ(c.registers()[i],
                     2.0 * a.registers()[i] - b.registers()[i]);
  }
  EXPECT_DOUBLE_EQ(c.sum(), 2.0 * a.sum() - b.sum());
}

TEST(KarySketch, CombineEqualsStreamOfMergedUpdates) {
  // COMBINE(1, S1, 1, S2) must equal the sketch of the concatenated stream —
  // the linearity property forecasting relies on (§3.2).
  const auto family = make_tabulation_family(9, 5);
  KarySketch s1(family, 1024), s2(family, 1024), merged(family, 1024);
  scd::common::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = rng.next_below(100000);
    const double v = rng.uniform(-10, 30);
    (i % 2 == 0 ? s1 : s2).update(key, v);
    merged.update(key, v);
  }
  KarySketch combined = s1;
  combined.add_scaled(s2, 1.0);
  for (std::size_t i = 0; i < merged.registers().size(); ++i) {
    EXPECT_NEAR(combined.registers()[i], merged.registers()[i], 1e-9);
  }
}

TEST(KarySketch, ScaleAndSetZero) {
  const auto family = make_tabulation_family(10, 5);
  KarySketch s(family, 256);
  s.update(5, 8.0);
  s.scale(0.5);
  EXPECT_NEAR(s.estimate(5), 4.0, 0.5);
  EXPECT_DOUBLE_EQ(s.sum(), 4.0);
  s.set_zero();
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.estimate_f2(), 0.0);
}

TEST(KarySketch, SumCacheInvalidatedByMutation) {
  const auto family = make_tabulation_family(11, 5);
  KarySketch s(family, 256);
  s.update(1, 3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 3.0);  // populate cache
  s.update(2, 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 7.0);
  KarySketch other(family, 256);
  other.update(3, 1.0);
  s.add_scaled(other, 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 9.0);
}

TEST(KarySketch, CompatibilityRequiresSharedFamily) {
  const auto f1 = make_tabulation_family(12, 5);
  const auto f2 = make_tabulation_family(12, 5);  // same seed, distinct object
  KarySketch a(f1, 256), b(f1, 256), c(f2, 256), d(f1, 512);
  EXPECT_TRUE(a.compatible(b));
  EXPECT_FALSE(a.compatible(c));  // identity, not value, equality
  EXPECT_FALSE(a.compatible(d));
}

TEST(KarySketch, CwFamilyVariantHandles64BitKeys) {
  const auto family = make_cw_family(13, 5);
  KarySketch64 s(family, 4096);
  const std::uint64_t wide_key = 0xdeadbeefcafef00dULL;
  s.update(wide_key, 123.0);
  EXPECT_NEAR(s.estimate(wide_key), 123.0, 2.0);
  EXPECT_NEAR(s.estimate(wide_key + 1), 0.0, 2.0);
}

TEST(KarySketch, ConstructorValidatesShape) {
  const auto family = make_tabulation_family(20, 5);
  EXPECT_THROW(KarySketch(nullptr, 256), std::invalid_argument);
  EXPECT_THROW(KarySketch(family, 1000), std::invalid_argument);  // not pow2
  EXPECT_THROW(KarySketch(family, 1), std::invalid_argument);     // k < 2
  EXPECT_NO_THROW(KarySketch(family, 2));
}

TEST(KarySketch, LoadRegistersRejectsWrongSizeInAllBuildTypes) {
  // Misuse must throw, not assert: with NDEBUG (the default RelWithDebInfo
  // build) an unchecked wrong-sized span is a heap overflow.
  const auto family = make_tabulation_family(21, 5);
  KarySketch s(family, 256);
  const std::vector<double> too_small(5 * 256 - 1, 0.0);
  const std::vector<double> too_big(5 * 256 + 1, 0.0);
  EXPECT_THROW(s.load_registers(too_small), std::invalid_argument);
  EXPECT_THROW(s.load_registers(too_big), std::invalid_argument);
  const std::vector<double> right(5 * 256, 1.5);
  EXPECT_NO_THROW(s.load_registers(right));
  EXPECT_DOUBLE_EQ(s.sum(), 256.0 * 1.5);  // cache invalidated by the load
}

TEST(KarySketch, SwapRegistersExchangesTablesAndChecksTheSize) {
  const auto family = make_tabulation_family(21, 5);
  KarySketch s(family, 256);
  s.update(9, 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 4.0);  // fills the sum cache
  std::vector<double> too_small(5 * 256 - 1, 0.0);
  EXPECT_THROW(s.swap_registers(too_small), std::invalid_argument);
  EXPECT_EQ(too_small.size(), 5u * 256 - 1);  // a rejected swap moves nothing
  std::vector<double> table(5 * 256, 1.5);
  const double* incoming = table.data();
  s.swap_registers(table);
  EXPECT_EQ(s.registers().data(), incoming);  // adopted, not copied
  EXPECT_DOUBLE_EQ(s.sum(), 256.0 * 1.5);     // cache invalidated by the swap
  ASSERT_EQ(table.size(), 5u * 256);
  EXPECT_DOUBLE_EQ(std::accumulate(table.begin(), table.end(), 0.0), 20.0);
}

TEST(KarySketch, AddScaledRejectsIncompatibleSketches) {
  const auto f1 = make_tabulation_family(22, 5);
  const auto f2 = make_tabulation_family(22, 5);  // same seed, distinct object
  KarySketch a(f1, 256), other_family(f2, 256), other_width(f1, 512);
  EXPECT_THROW(a.add_scaled(other_family, 1.0), std::invalid_argument);
  EXPECT_THROW(a.add_scaled(other_width, 1.0), std::invalid_argument);
}

TEST(KarySketch, CombineRejectsMismatchedArguments) {
  const auto f1 = make_tabulation_family(23, 5);
  const auto f2 = make_tabulation_family(23, 5);
  KarySketch a(f1, 256), b(f1, 256), alien(f2, 256);
  const std::vector<const KarySketch*> parts{&a, &b};
  const std::vector<double> short_coeffs{1.0};
  EXPECT_THROW(KarySketch::combine(short_coeffs, parts),
               std::invalid_argument);
  EXPECT_THROW(
      KarySketch::combine(std::vector<double>{}, std::span<const KarySketch* const>{}),
      std::invalid_argument);
  const std::vector<const KarySketch*> mixed{&a, &alien};
  const std::vector<double> coeffs{1.0, 1.0};
  EXPECT_THROW(KarySketch::combine(coeffs, mixed), std::invalid_argument);
}

TEST(KarySketch, KeyDomainIsACompileTimeProperty) {
  // The tabulation fast path truncates keys to 32 bits; the family advertises
  // that so bindings can be checked at compile time (core/sketch_binding.h).
  static_assert(KarySketch::kKeyBits == 32);
  static_assert(KarySketch64::kKeyBits == 64);
}

TEST(KarySketch, ShardedCombineEqualsSerialStream) {
  // The parallel-ingestion invariant (src/ingest): partitioning a stream by
  // key across W shard sketches and COMBINE-merging with unit coefficients
  // reproduces the serial sketch. With integer-valued updates the registers
  // must match bit for bit — each register's multiset of addends is
  // identical, and integer sums are exact in double.
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto family = make_tabulation_family(24, 5);
    KarySketch serial(family, 1024);
    std::vector<KarySketch> shard_sketches;
    for (std::size_t w = 0; w < shards; ++w) {
      shard_sketches.emplace_back(family, 1024);
    }
    scd::common::Rng rng(static_cast<std::uint64_t>(100 + shards));
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t key = rng.next_below(1u << 24);
      const auto value = static_cast<double>(rng.next_in(-50, 50));
      serial.update(key, value);
      shard_sketches[scd::common::mix64(key) % shards].update(key, value);
    }
    std::vector<const KarySketch*> parts;
    for (const KarySketch& s : shard_sketches) parts.push_back(&s);
    const std::vector<double> coeffs(shards, 1.0);
    const KarySketch merged = KarySketch::combine(coeffs, parts);
    ASSERT_EQ(merged.registers().size(), serial.registers().size());
    for (std::size_t r = 0; r < serial.registers().size(); ++r) {
      ASSERT_DOUBLE_EQ(merged.registers()[r], serial.registers()[r])
          << "shards=" << shards << " register=" << r;
    }
    EXPECT_DOUBLE_EQ(merged.estimate_f2(), serial.estimate_f2());
  }
}

TEST(KarySketch, EvenRowCountsEstimateThroughMedianAverage) {
  // H in {2, 4, 6} exercises the even-size median paths (average of the two
  // central per-row estimates): estimates stay near exact on sparse input.
  for (const std::size_t h : {2u, 4u, 6u}) {
    const auto family = make_tabulation_family(25 + h, h);
    KarySketch s(family, 4096);
    s.update(11, 500.0);
    s.update(22, -125.0);
    EXPECT_NEAR(s.estimate(11), 500.0, 5.0) << "h=" << h;
    EXPECT_NEAR(s.estimate(22), -125.0, 5.0) << "h=" << h;
    EXPECT_NEAR(s.estimate_f2(), 500.0 * 500.0 + 125.0 * 125.0,
                0.05 * (500.0 * 500.0 + 125.0 * 125.0))
        << "h=" << h;
  }
}

TEST(KarySketch, TableBytesReflectsDimensions) {
  const auto family = make_tabulation_family(14, 5);
  KarySketch s(family, 1024);
  EXPECT_EQ(s.table_bytes(), 5u * 1024u * sizeof(double));
}

TEST(KarySketch, MemoryIsConstantInStreamLength) {
  const auto family = make_tabulation_family(15, 5);
  KarySketch s(family, 1024);
  const std::size_t before = s.table_bytes();
  scd::common::Rng rng(5);
  for (int i = 0; i < 100000; ++i) s.update(rng.next_u64() & 0xffffffff, 1.0);
  EXPECT_EQ(s.table_bytes(), before);
}

}  // namespace
}  // namespace scd::sketch
