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
#include <string>
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

}  // namespace
}  // namespace scd::sketch
