// Cross-thread ShardSet stats regression (docs/CONCURRENCY.md): the
// backpressure/dropped counters are written by the producer thread and read
// by monitoring from arbitrary threads, so they must be atomics — plain
// integers here were a data race, invisible functionally but flagged by the
// annotation pass and by TSan. This test hammers the stats getters from a
// monitor thread while the producer saturates a one-chunk queue; it runs
// under the `concurrency` label so the tsan preset validates it.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hash/tabulation_hash.h"
#include "ingest/shard_set.h"
#include "shard_set_harness.h"
#include "sketch/kary_sketch.h"

namespace scd::ingest {
namespace {

TEST(ShardStatsRace, StatsReadableFromMonitorThreadDuringIngest) {
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kChunks = 200;
  constexpr std::size_t kChunkRecords = 512;
  // One-chunk queues: the producer outruns the workers and takes the
  // blocking-push path, so backpressure_waits_ is actually being written
  // while the monitor reads it.
  BatchSink sink;
  ShardSet<sketch::KarySketch> shards(
      /*seed=*/0x5eed, /*h=*/5, /*k=*/1024, kWorkers, /*queue_chunks=*/1,
      /*instruments=*/nullptr, /*max_outstanding=*/1, sink.callback());

  std::atomic<bool> done{false};
  std::uint64_t last_waits = 0;
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      last_waits = shards.backpressure_waits();
      EXPECT_EQ(shards.dropped_records(), 0u);
    }
  });

  for (std::size_t c = 0; c < kChunks; ++c) {
    for (std::size_t shard = 0; shard < kWorkers; ++shard) {
      Chunk chunk(kChunkRecords);
      for (std::size_t i = 0; i < kChunkRecords; ++i) {
        chunk[i] = {c * kChunkRecords + i, 1.0};
      }
      shards.submit(shard, std::move(chunk));
    }
  }
  const core::IntervalBatch batch = sink.close_and_drain(shards);
  done.store(true, std::memory_order_release);
  monitor.join();
  shards.stop();

  // Nothing was dropped or double-counted while the monitor was reading.
  EXPECT_EQ(batch.records, kWorkers * kChunks * kChunkRecords);
  EXPECT_EQ(shards.dropped_records(), 0u);
  EXPECT_GE(shards.backpressure_waits(), last_waits);
}

}  // namespace
}  // namespace scd::ingest
