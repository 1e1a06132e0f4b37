// update_batch must be BIT-IDENTICAL to per-record update(): the batched
// path reorders work across rows (hash-batch, then one row sweep at a time)
// but applies each register's updates in record order, so every register
// sees the same sequence of floating-point additions as the scalar path.
// Property-tested over randomized H/K/batch shapes for both hash families
// (tabulation fast path and the generic hash16 fallback), batches spanning
// multiple internal blocks, and duplicate keys within one block. K=32768
// reaches the prefetching row sweep (K >= 8 * kUpdateBlock) and, for
// tabulation, its simd::index_shift_mask pass. The majority-vote sketch's
// update_batch is held to the same contract on all three of its tables.
#include "sketch/kary_sketch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sketch/mv_sketch.h"

#include "common/random.h"

namespace scd::sketch {
namespace {

template <typename Sketch, typename FamilyPtr>
void expect_batch_matches_serial(const FamilyPtr& family, std::size_t k,
                                 std::span<const Record> records,
                                 const char* what) {
  Sketch serial(family, k);
  for (const Record& r : records) serial.update(r.key, r.update);
  Sketch batched(family, k);
  batched.update_batch(records);
  const auto lhs = serial.registers();
  const auto rhs = batched.registers();
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_EQ(lhs[i], rhs[i]) << what << ": register " << i << " diverged";
  }
  EXPECT_EQ(serial.sum(), batched.sum()) << what;
}

std::vector<Record> random_records(common::Rng& rng, std::size_t n,
                                   std::uint64_t key_space, bool integer) {
  std::vector<Record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = integer ? static_cast<double>(rng.next_in(1, 1500))
                             : rng.uniform(-100.0, 100.0);
    out.push_back(Record{rng.next_below(key_space), u});
  }
  return out;
}

TEST(KaryBatchUpdate, MatchesSerialOverRandomShapes) {
  common::Rng rng(71);
  // H x K x batch-size sweep, crossing the internal kUpdateBlock boundary
  // (4096) and the 4-row tabulation group boundary.
  for (const std::size_t h : {1UL, 3UL, 4UL, 5UL, 8UL, 9UL}) {
    for (const std::size_t k : {2UL, 64UL, 4096UL, 32768UL}) {
      for (const std::size_t n : {0UL, 1UL, 17UL, 300UL, 4096UL, 5000UL}) {
        const auto family =
            make_tabulation_family(1000 + h * 10 + k, h);
        const auto records = random_records(rng, n, 1ULL << 32, false);
        expect_batch_matches_serial<KarySketch>(
            family, k, records,
            ("tabulation h=" + std::to_string(h) + " k=" + std::to_string(k) +
             " n=" + std::to_string(n))
                .c_str());
      }
    }
  }
}

TEST(KaryBatchUpdate, MatchesSerialForCwFamily64BitKeys) {
  common::Rng rng(72);
  for (const std::size_t h : {1UL, 5UL, 6UL}) {
    for (const std::size_t k : {1024UL, 32768UL}) {
      for (const std::size_t n : {700UL, 5000UL}) {
        const auto family = make_cw_family(900 + h, h);
        const auto records = random_records(rng, n, ~0ULL, false);
        expect_batch_matches_serial<KarySketch64>(
            family, k, records,
            ("cw h=" + std::to_string(h) + " k=" + std::to_string(k) +
             " n=" + std::to_string(n))
                .c_str());
      }
    }
  }
}

TEST(KaryBatchUpdate, DuplicateKeysAccumulateInRecordOrder) {
  // Repeated keys in one block stress the same-register ordering contract;
  // non-commutative magnitudes (alternating large/small) would expose any
  // reordering as a bit difference.
  const auto family = make_tabulation_family(7, 5);
  std::vector<Record> records;
  for (std::size_t i = 0; i < 600; ++i) {
    records.push_back(Record{i % 7, (i % 2 == 0) ? 1e16 : 1.0});
  }
  expect_batch_matches_serial<KarySketch>(family, 256,
                                          std::span<const Record>(records),
                                          "duplicate keys");
}

TEST(KaryBatchUpdate, IntegerUpdatesStayExact) {
  // The parallel-vs-serial alarm equivalence relies on integer updates
  // surviving any shard/batch decomposition bit-exactly.
  common::Rng rng(73);
  const auto family = make_tabulation_family(8, 5);
  const auto records = random_records(rng, 5000, 1ULL << 20, true);
  expect_batch_matches_serial<KarySketch>(
      family, 4096, std::span<const Record>(records), "integer updates");
}

TEST(KaryBatchUpdate, EmptyBatchKeepsSumCacheIntact) {
  const auto family = make_tabulation_family(9, 5);
  KarySketch s(family, 64);
  s.update(1, 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 2.0);
  s.update_batch({});
  EXPECT_DOUBLE_EQ(s.sum(), 2.0);
}

TEST(KaryBatchUpdate, EstimatesAgreeAfterBatch) {
  common::Rng rng(74);
  const auto family = make_tabulation_family(10, 5);
  const auto records = random_records(rng, 2048, 1ULL << 16, false);
  KarySketch serial(family, 512);
  for (const Record& r : records) serial.update(r.key, r.update);
  KarySketch batched(family, 512);
  batched.update_batch(records);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(serial.estimate(key), batched.estimate(key));
  }
  EXPECT_EQ(serial.estimate_f2(), batched.estimate_f2());
}

// Byte equality of two tables: NaN-safe and sign-of-zero-sensitive, so a
// vote that differs only in rounding or in the sign of a zero fails.
template <typename T>
bool same_bits(std::span<const T> lhs, std::span<const T> rhs) {
  return lhs.size() == rhs.size() &&
         std::memcmp(lhs.data(), rhs.data(), lhs.size() * sizeof(T)) == 0;
}

// Records that drive every branch of the vote rule: half the keys come from
// a hot set of 8, so cells see repeats of their candidate, rivals that it
// outvotes and rivals that overturn it within one block; every eighth update
// is zero (a skipped vote) and about half the rest are negative.
std::vector<Record> vote_records(common::Rng& rng, std::size_t n,
                                 std::uint64_t key_space) {
  std::vector<Record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key =
        rng.next_below(2) == 0 ? rng.next_below(8) : rng.next_below(key_space);
    const double u = i % 8 == 0 ? 0.0 : rng.uniform(-100.0, 100.0);
    out.push_back(Record{key, u});
  }
  return out;
}

template <typename Sketch, typename FamilyPtr>
void expect_mv_batch_matches_serial(const FamilyPtr& family, std::size_t k,
                                    std::span<const Record> records,
                                    const std::string& what) {
  Sketch serial(family, k);
  for (const Record& r : records) serial.update(r.key, r.update);
  Sketch batched(family, k);
  batched.update_batch(records);
  EXPECT_TRUE(same_bits(serial.registers(), batched.registers()))
      << what << ": counters diverged";
  EXPECT_TRUE(same_bits(serial.candidates(), batched.candidates()))
      << what << ": candidates diverged";
  EXPECT_TRUE(same_bits(serial.votes(), batched.votes()))
      << what << ": votes diverged";
}

TEST(MvBatchUpdate, MatchesPerRecordUpdate) {
  common::Rng rng(75);
  for (const std::size_t h : {1UL, 4UL, 5UL, 9UL}) {
    for (const std::size_t k : {64UL, 4096UL, 32768UL}) {
      for (const std::size_t n : {0UL, 1UL, 512UL, 4096UL, 5000UL}) {
        const std::string shape = " h=" + std::to_string(h) +
                                  " k=" + std::to_string(k) +
                                  " n=" + std::to_string(n);
        const auto records32 = vote_records(rng, n, 1ULL << 32);
        expect_mv_batch_matches_serial<MvSketch>(
            make_tabulation_family(2000 + h * 10 + k, h), k, records32,
            "tabulation" + shape);
        const auto records64 = vote_records(rng, n, ~0ULL);
        expect_mv_batch_matches_serial<MvSketch64>(
            make_cw_family(3000 + h * 10 + k, h), k, records64, "cw" + shape);
      }
    }
  }
}

// update_rows: the sharded front end's row workers each sweep a contiguous
// row range of one shared table. Applying every range of any contiguous
// split of [0, H), in any order, must leave the table update_batch leaves,
// for the k-ary and the majority-vote sketch, on both hash families. K=2048
// runs the plain sweep and K=32768 the prefetching one (for tabulation with
// simd::index_shift_mask); ctest reruns this binary on every dispatch leg.

/// Every split of [0, h) into contiguous ranges: bit i of `cuts` set means
/// a range ends after row i.
std::vector<std::pair<std::size_t, std::size_t>> split_ranges(
    std::size_t h, std::uint32_t cuts) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t begin = 0;
  for (std::size_t row = 0; row + 1 < h; ++row) {
    if ((cuts >> row) & 1U) {
      ranges.emplace_back(begin, row + 1);
      begin = row + 1;
    }
  }
  ranges.emplace_back(begin, h);
  return ranges;
}

template <typename Sketch, typename FamilyPtr>
void expect_every_split_matches(const FamilyPtr& family, std::size_t k,
                                std::span<const Record> records,
                                const std::string& what) {
  const std::size_t h = family->rows();
  Sketch full(family, k);
  full.update_batch(records);
  for (std::uint32_t cuts = 0; cuts < (1U << (h - 1)); ++cuts) {
    Sketch split(family, k);
    // Last range first: the ranges do not depend on each other.
    const auto ranges = split_ranges(h, cuts);
    for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
      split.update_rows(records, it->first, it->second);
    }
    const std::string shape = what + " cuts=" + std::to_string(cuts);
    ASSERT_TRUE(same_bits(split.registers(), full.registers())) << shape;
    if constexpr (requires { split.votes(); }) {
      ASSERT_TRUE(same_bits(split.candidates(), full.candidates())) << shape;
      ASSERT_TRUE(same_bits(split.votes(), full.votes())) << shape;
    }
  }
}

TEST(RowSplitUpdate, EveryContiguousSplitEqualsTheFullSweep) {
  common::Rng rng(76);
  // H=5 is the sharded layouts' shape (3/2 at W=2, 2/1/1/1 at W=4); H=9
  // splits across both tabulation group boundaries.
  for (const std::size_t h : {5UL, 9UL}) {
    for (const std::size_t k : {2048UL, 32768UL}) {
      if (h == 9 && k == 32768) continue;  // 256 splits of a 2.4 MB table
      const std::string shape =
          " h=" + std::to_string(h) + " k=" + std::to_string(k);
      const auto records32 = vote_records(rng, 5000, 1ULL << 32);
      const auto records64 = vote_records(rng, 5000, ~0ULL);
      expect_every_split_matches<KarySketch>(
          make_tabulation_family(4000 + h, h), k, records32,
          "kary tabulation" + shape);
      expect_every_split_matches<KarySketch64>(make_cw_family(5000 + h, h), k,
                                               records64, "kary cw" + shape);
      expect_every_split_matches<MvSketch>(
          make_tabulation_family(6000 + h, h), k, records32,
          "mv tabulation" + shape);
      expect_every_split_matches<MvSketch64>(make_cw_family(7000 + h, h), k,
                                             records64, "mv cw" + shape);
    }
  }
}

TEST(RowSplitUpdate, RangeOutsideTheTableThrows) {
  const auto family = make_tabulation_family(11, 5);
  KarySketch kary(family, 64);
  MvSketch mv(family, 64);
  const std::vector<Record> records{{1, 1.0}};
  EXPECT_THROW(kary.update_rows(records, 3, 2), std::invalid_argument);
  EXPECT_THROW(kary.update_rows(records, 0, 6), std::invalid_argument);
  EXPECT_THROW(mv.update_rows(records, 2, 6), std::invalid_argument);
  EXPECT_NO_THROW(kary.update_rows(records, 2, 2));  // empty range
  EXPECT_EQ(kary.sum(), 0.0);
}

}  // namespace
}  // namespace scd::sketch
