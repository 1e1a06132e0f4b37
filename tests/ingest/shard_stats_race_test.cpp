// Cross-thread stats regressions (docs/CONCURRENCY.md), run under the
// `concurrency` label so the tsan preset validates them:
//   * the ShardSet backpressure/dropped counters are written by the producer
//     thread and read by monitoring from arbitrary threads, so they must be
//     atomics — plain integers here were a data race, invisible
//     functionally but flagged by the annotation pass and by TSan;
//   * ParallelPipeline::stats() inside a report callback (merger thread)
//     must not read the producer's clock, which add() is writing.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "hash/tabulation_hash.h"
#include "ingest/parallel_pipeline.h"
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
    Chunk chunk(kChunkRecords);
    for (std::size_t i = 0; i < kChunkRecords; ++i) {
      chunk[i] = {c * kChunkRecords + i, 1.0};
    }
    shards.submit(std::move(chunk));
  }
  const core::IntervalBatch batch =
      sink.close_and_drain(shards, kChunks * kChunkRecords);
  done.store(true, std::memory_order_release);
  monitor.join();
  shards.stop();

  // Nothing was dropped while the monitor was reading: every record landed
  // in every row, so the table's mass is the record count.
  EXPECT_EQ(batch.records, kChunks * kChunkRecords);
  double row_sum = 0.0;
  for (std::size_t j = 0; j < 1024; ++j) row_sum += batch.registers[j];
  EXPECT_EQ(row_sum, static_cast<double>(kChunks * kChunkRecords));
  EXPECT_EQ(shards.dropped_records(), 0u);
  EXPECT_GE(shards.backpressure_waits(), last_waits);
}

TEST(ShardStatsRace, StatsInsideAReportCallbackMatchTheSerialPipeline) {
  // stats() is documented as safe inside an interval callback, which runs
  // on the merger thread while the producer keeps feeding (and counting
  // late records in its own clock) intervals ahead. The callback must see
  // the engine's counters for the interval being reported, which are the
  // serial pipeline's at the same report, and never read the producer.
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 256;
  config.metrics = false;
  struct Seen {
    std::uint64_t out_of_order = 0;
    std::uint64_t records = 0;
  };
  const auto feed = [](auto& pipeline) {
    for (int interval = 0; interval < 120; ++interval) {
      const double base = 10.0 * interval;
      for (std::uint64_t key = 0; key < 40; ++key) {
        pipeline.add(key, 1.0, base + 1.0 + 0.2 * static_cast<double>(key));
        if (key % 8 == 7) pipeline.add(key + 100, 1.0, base + 0.5);  // late
      }
    }
    pipeline.flush();
  };

  std::vector<Seen> serial_seen;
  core::ChangeDetectionPipeline serial(config);
  serial.set_report_callback([&](const core::IntervalReport&) {
    serial_seen.push_back(
        {serial.stats().out_of_order_records, serial.stats().records});
  });
  feed(serial);

  ParallelConfig parallel;
  parallel.workers = 2;
  parallel.batch_size = 8;
  parallel.max_pending_intervals = 8;  // let the producer run ahead
  std::vector<Seen> sharded_seen;
  ParallelPipeline sharded(config, parallel);
  sharded.set_report_callback([&](const core::IntervalReport&) {
    sharded_seen.push_back(
        {sharded.stats().out_of_order_records, sharded.stats().records});
  });
  feed(sharded);

  ASSERT_EQ(sharded_seen.size(), serial_seen.size());
  ASSERT_GT(serial.stats().out_of_order_records, 0u);
  for (std::size_t i = 0; i < serial_seen.size(); ++i) {
    SCOPED_TRACE("report " + std::to_string(i));
    EXPECT_EQ(sharded_seen[i].out_of_order, serial_seen[i].out_of_order);
    EXPECT_EQ(sharded_seen[i].records, serial_seen[i].records);
  }
  EXPECT_EQ(sharded.stats().out_of_order_records,
            serial.stats().out_of_order_records);
}

}  // namespace
}  // namespace scd::ingest
