// EpochFold: the sharded front end's merged epoch is byte-identical to
// COMBINE(1, S_0, ..., 1, S_{W-1}) over the W shard sketches — registers,
// and for the invertible family candidates and votes too — at W = 1, 2, 4
// and for all four sketch types the pipeline runs.
//
// The merger folds shards 1..W-1 into shard 0's tables in place instead of
// combining into a fresh sketch, so two things could differ from combine():
// the addition order within a register (the fold keeps shard order), and
// the candidate of a zero-vote cell (combine starts from a zero sketch, in
// which such a cell reads candidate 0). The invertible streams use small
// integer weights over a narrow table so that votes cancel to exactly 0
// both inside shard 0 and across shards; the test asserts that both cases
// occur, so it cannot pass without exercising them. The k-ary streams use
// fractional weights, where addition order shows in the bits.
//
// Runs under the tsan preset via `ctest -L concurrency`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "ingest/shard_set.h"
#include "shard_set_harness.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"

namespace scd::ingest {
namespace {

constexpr std::uint64_t kSeed = 0xf01d;
constexpr std::size_t kH = 3;
constexpr std::size_t kK = 16;

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

template <typename SketchT>
constexpr bool kVotes =
    requires(const SketchT& s) { s.recover_heavy_keys(0.0); };

/// Invertible sketches: weights 1 or 2 over 60 keys, so many cells see
/// their votes cancel exactly. k-ary sketches: fractional weights.
template <typename SketchT>
std::vector<Record> make_records() {
  common::Rng rng(kVotes<SketchT> ? 11 : 12);
  const std::uint64_t key_bits = SketchT::kKeyBits;
  std::vector<Record> records;
  for (int i = 0; i < 400; ++i) {
    std::uint64_t key = 1 + rng.next_below(60);
    if (key_bits == 64) key |= key << 40;  // exercise the high key bits
    const double update = kVotes<SketchT>
                              ? static_cast<double>(1 + rng.next_below(2))
                              : rng.uniform(-1.0, 1.0) * 1000.0;
    records.push_back({key, update});
  }
  return records;
}

template <typename SketchT>
class EpochFold : public ::testing::Test {};

using SketchTypes =
    ::testing::Types<sketch::KarySketch, sketch::KarySketch64,
                     sketch::MvSketch, sketch::MvSketch64>;
TYPED_TEST_SUITE(EpochFold, SketchTypes);

TYPED_TEST(EpochFold, MergedEpochIsByteIdenticalToCombine) {
  using Sketch = TypeParam;
  using Family = typename Sketch::FamilyType;
  const std::vector<Record> records = make_records<Sketch>();

  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "W=" << workers);
    // The shard subsequences, routed as ParallelPipeline routes them.
    std::vector<Chunk> routed(workers);
    for (const Record& r : records) {
      routed[common::mix64(r.key) % workers].push_back(r);
    }

    // Reference: one sketch per shard, then COMBINE in shard order.
    const auto family = std::make_shared<const Family>(kSeed, kH);
    std::vector<Sketch> parts;
    for (const Chunk& chunk : routed) {
      parts.emplace_back(family, kK);
      parts.back().update_batch(chunk);
    }
    std::vector<const Sketch*> ptrs;
    for (const Sketch& part : parts) ptrs.push_back(&part);
    const std::vector<double> ones(workers, 1.0);
    const Sketch combined = Sketch::combine(ones, ptrs);

    // Sharded: the same subsequences through the workers and the merger,
    // each shard fed in several chunks.
    BatchSink sink;
    ShardSet<Sketch> shards(kSeed, kH, kK, workers, /*queue_chunks=*/64,
                            nullptr, /*max_outstanding=*/1, sink.callback());
    for (std::size_t w = 0; w < workers; ++w) {
      const std::span<const Record> chunk(routed[w]);
      for (std::size_t at = 0; at < chunk.size(); at += 97) {
        const auto part = chunk.subspan(at, std::min<std::size_t>(
                                                97, chunk.size() - at));
        shards.submit(w, Chunk(part.begin(), part.end()));
      }
    }
    const core::IntervalBatch batch = sink.close_and_drain(shards);
    shards.stop();

    EXPECT_EQ(batch.records, records.size());
    EXPECT_TRUE(same_bytes(std::span<const double>(batch.registers),
                           combined.registers()));
    if constexpr (kVotes<Sketch>) {
      EXPECT_TRUE(same_bytes(std::span<const std::uint64_t>(
                                 batch.mv_candidates),
                             combined.candidates()));
      EXPECT_TRUE(same_bytes(std::span<const double>(batch.mv_votes),
                             combined.votes()));
      // The stream must reach both zero-vote cases the fold handles.
      bool stale_in_shard0 = false;
      bool cancelled_across = false;
      for (std::size_t idx = 0; idx < combined.votes().size(); ++idx) {
        if (parts[0].votes()[idx] == 0.0 && parts[0].candidates()[idx] != 0) {
          stale_in_shard0 = true;
        }
        if (combined.votes()[idx] == 0.0) {
          for (const Sketch& part : parts) {
            if (part.votes()[idx] != 0.0) cancelled_across = true;
          }
        }
      }
      EXPECT_TRUE(stale_in_shard0);
      if (workers > 1) {
        EXPECT_TRUE(cancelled_across);
      }
    } else {
      EXPECT_TRUE(batch.mv_candidates.empty());
      EXPECT_TRUE(batch.mv_votes.empty());
    }
  }
}

}  // namespace
}  // namespace scd::ingest
