// Serialize/ShardSet round trip: the wire format must carry a sketch that a
// concurrent sharded ingest produced, bit-exactly, through the export-packet
// path — the distributed-collection story of serialize.h driven by the
// actual parallel front-end instead of a single-threaded fixture.
//
// Two producer threads submit chunks at once, so the chunks reach the
// workers in an order no one fixes; the updates are integer-valued, so the
// registers equal the serial sketch's whatever that order, and the
// comparison can demand bit equality. Runs under the tsan preset via
// `ctest -L concurrency`.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hash/tabulation_hash.h"
#include "ingest/shard_set.h"
#include "shard_set_harness.h"
#include "sketch/kary_sketch.h"
#include "sketch/serialize.h"

namespace scd::ingest {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kH = 5;
constexpr std::size_t kK = 1024;
constexpr std::size_t kWorkers = 4;

/// Deterministic integer-valued record stream.
std::vector<Record> make_records(std::size_t n) {
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = common::mix64(i) % 5000;
    const double update = static_cast<double>(common::mix64(i ^ 0xabcd) % 100);
    records.push_back(Record{key, update});
  }
  return records;
}

TEST(SerializeShardRoundTrip, ParallelMergeSurvivesTheWireFormat) {
  const auto records = make_records(20000);

  // Sharded ingest: two producer threads hand chunks to kWorkers row
  // workers, which fill the epoch's one table.
  BatchSink sink;
  ShardSet<sketch::KarySketch> shards(kSeed, kH, kK, kWorkers,
                                      /*queue_chunks=*/64,
                                      /*instruments=*/nullptr,
                                      /*max_outstanding=*/1, sink.callback());
  const auto produce = [&shards, &records](std::size_t half) {
    const std::size_t begin = half * records.size() / 2;
    const std::size_t end = (half + 1) * records.size() / 2;
    for (std::size_t at = begin; at < end; at += 1000) {
      const std::size_t stop = std::min(end, at + 1000);
      shards.submit(Chunk(records.begin() + static_cast<std::ptrdiff_t>(at),
                          records.begin() + static_cast<std::ptrdiff_t>(stop)));
    }
  };
  std::thread first(produce, 0);
  std::thread second(produce, 1);
  first.join();
  second.join();
  const core::IntervalBatch batch =
      sink.close_and_drain(shards, records.size());
  shards.stop();

  // Rehydrate the epoch's registers into a sketch over the same family and
  // push it through the export packet.
  const auto family = sketch::make_tabulation_family(kSeed, kH);
  sketch::KarySketch merged(family, kK);
  merged.load_registers(batch.registers);
  sketch::FamilyRegistry registry;
  const sketch::KarySketch restored =
      sketch::sketch_from_bytes(sketch::sketch_to_bytes(merged), registry);

  // The restored sketch must equal a serial sketch over the same records —
  // bit-exactly, because every update is integer-valued.
  sketch::KarySketch serial(family, kK);
  for (const Record& r : records) serial.update(r.key, r.update);
  ASSERT_EQ(restored.registers().size(), serial.registers().size());
  for (std::size_t i = 0; i < serial.registers().size(); ++i) {
    EXPECT_EQ(restored.registers()[i], serial.registers()[i]) << i;
  }
  EXPECT_DOUBLE_EQ(restored.estimate_f2(), serial.estimate_f2());
}

TEST(SerializeShardRoundTrip, CorruptedShardExportIsRejected) {
  // A truncated or bit-flipped export of a sharded epoch must be rejected
  // with a typed error, not silently merged into the collector's view.
  BatchSink sink;
  ShardSet<sketch::KarySketch> shards(kSeed, kH, /*k=*/256,
                                      /*worker_count=*/2,
                                      /*queue_chunks=*/8,
                                      /*instruments=*/nullptr,
                                      /*max_outstanding=*/1, sink.callback());
  Chunk chunk;
  for (std::uint64_t key = 0; key < 500; ++key) {
    chunk.push_back(Record{key, 3.0});
  }
  shards.submit(std::move(chunk));
  const core::IntervalBatch batch = sink.close_and_drain(shards, 500);
  shards.stop();

  const auto family = sketch::make_tabulation_family(kSeed, kH);
  sketch::KarySketch merged(family, 256);
  merged.load_registers(batch.registers);
  auto bytes = sketch::sketch_to_bytes(merged);

  sketch::FamilyRegistry registry;
  auto truncated = bytes;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW((void)sketch::sketch_from_bytes(truncated, registry),
               sketch::SerializeError);
  auto flipped = bytes;
  flipped[9] ^= 0x10;  // inside the seed field: family changes, still parses
  EXPECT_NO_THROW((void)sketch::sketch_from_bytes(flipped, registry));
  flipped = bytes;
  flipped[20] ^= 0xff;  // high byte of rows: invalid dimensions
  EXPECT_THROW((void)sketch::sketch_from_bytes(flipped, registry),
               sketch::SerializeError);
}

}  // namespace
}  // namespace scd::ingest
