// MvShardProperty: the invertible sketch the row workers fill is
// bit-identical to a serial update pass — counters, candidates and vote
// counts — at W = 4 over H = 5 rows (a 2/1/1/1 split), and under every
// SCD_SIMD dispatch decision (ctest reruns this suite with SCD_SIMD=scalar
// and avx512 pinned).
//
// Why bit-identity is demandable (docs/KEY_RECOVERY.md): each worker owns
// whole rows and applies every record to them in stream order, so every
// cell sees the serial sequence of counter additions and votes. That holds
// for fractional updates too, which is why the background here is not
// integer-valued.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "ingest/shard_set.h"
#include "shard_set_harness.h"
#include "sketch/mv_sketch.h"

namespace scd::ingest {
namespace {

constexpr std::uint64_t kSeed = 0x5eed;
constexpr std::size_t kH = 5;
constexpr std::size_t kK = 1024;
constexpr std::size_t kWorkers = 4;

/// Light fractional background plus heavy keys with overwhelming
/// per-bucket majority (weight 1e6).
std::vector<Record> make_records() {
  std::vector<Record> records;
  common::Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    records.push_back({rng.next_below(1u << 24), rng.uniform(0.1, 3.0)});
  }
  for (std::uint64_t heavy = 1; heavy <= 8; ++heavy) {
    records.push_back({heavy * 1000003, 1.0e6});
  }
  return records;
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// The W-worker epoch table over `records`, fed in 512-record chunks.
core::IntervalBatch sharded_batch(const std::vector<Record>& records) {
  BatchSink sink;
  ShardSet<sketch::MvSketch> shards(kSeed, kH, kK, kWorkers,
                                    /*queue_chunks=*/64, nullptr,
                                    /*max_outstanding=*/1, sink.callback());
  for (std::size_t at = 0; at < records.size(); at += 512) {
    const auto end = records.begin() +
                     static_cast<std::ptrdiff_t>(
                         std::min(records.size(), at + 512));
    shards.submit(Chunk(records.begin() + static_cast<std::ptrdiff_t>(at),
                        end));
  }
  core::IntervalBatch batch = sink.close_and_drain(shards, records.size());
  shards.stop();
  return batch;
}

TEST(MvShardProperty, ShardedMergeRecoversBitIdenticalToSerial) {
  const auto records = make_records();

  // Serial reference: one sketch, records in stream order.
  const auto family =
      std::make_shared<const hash::TabulationHashFamily>(kSeed, kH);
  sketch::MvSketch serial(family, kK);
  for (const Record& r : records) serial.update(r.key, r.update);
  const auto serial_recovered = serial.recover_heavy_keys(1000.0);
  ASSERT_EQ(serial_recovered.size(), 8u);

  const core::IntervalBatch batch = sharded_batch(records);
  EXPECT_EQ(batch.records, records.size());
  // Recovery sketches collect no replay keys — that is the point.
  EXPECT_TRUE(batch.keys.empty());
  EXPECT_TRUE(same_bytes(std::span<const double>(batch.registers),
                         serial.registers()));
  EXPECT_TRUE(same_bytes(std::span<const std::uint64_t>(batch.mv_candidates),
                         serial.candidates()));
  EXPECT_TRUE(
      same_bytes(std::span<const double>(batch.mv_votes), serial.votes()));

  sketch::MvSketch sharded(family, kK);
  sharded.load_registers(batch.registers);
  sharded.load_aux(batch.mv_candidates, batch.mv_votes);
  const auto sharded_recovered = sharded.recover_heavy_keys(1000.0);
  ASSERT_EQ(sharded_recovered.size(), serial_recovered.size());
  for (std::size_t i = 0; i < serial_recovered.size(); ++i) {
    EXPECT_EQ(sharded_recovered[i].key, serial_recovered[i].key);
    EXPECT_EQ(sharded_recovered[i].value, serial_recovered[i].value);
  }
}

TEST(MvShardProperty, RepeatedShardedRunsAreBitIdentical) {
  const auto records = make_records();
  const core::IntervalBatch first = sharded_batch(records);
  for (int round = 1; round < 3; ++round) {
    const core::IntervalBatch again = sharded_batch(records);
    EXPECT_TRUE(same_bytes(std::span<const double>(again.registers),
                           std::span<const double>(first.registers)));
    EXPECT_TRUE(
        same_bytes(std::span<const std::uint64_t>(again.mv_candidates),
                   std::span<const std::uint64_t>(first.mv_candidates)));
    EXPECT_TRUE(same_bytes(std::span<const double>(again.mv_votes),
                           std::span<const double>(first.mv_votes)));
  }
}

TEST(MvShardProperty, ParallelPipelineInvertibleMatchesSerial) {
  // End-to-end: the W=4 parallel front-end in invertible mode must emit the
  // serial pipeline's alarm set exactly, with zero keys replayed on either
  // side (the vote state rides through IntervalBatch::mv_candidates).
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = kH;
  config.k = 4096;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  config.recovery = core::RecoveryMode::kInvertible;

  core::ChangeDetectionPipeline serial(config);
  ParallelConfig parallel;
  parallel.workers = kWorkers;
  ParallelPipeline sharded(config, parallel);

  const auto feed = [](auto& pipeline) {
    for (std::size_t t = 0; t < 10; ++t) {
      const double start = static_cast<double>(t) * 10.0;
      for (std::uint64_t key = 1; key <= 50; ++key) {
        const double jitter =
            static_cast<double>(common::mix64(key * 1000 + t) % 11) - 5.0;
        pipeline.add(key, 100.0 + jitter, start + 1.0);
      }
      if (t == 6) pipeline.add(999, 5000.0, start + 2.0);
    }
    pipeline.flush();
  };
  feed(serial);
  feed(sharded);

  const auto alarm_set = [](const std::vector<core::IntervalReport>& reports) {
    std::set<std::pair<std::size_t, std::uint64_t>> out;
    for (const auto& report : reports) {
      for (const auto& alarm : report.alarms) {
        out.emplace(report.index, alarm.key);
      }
    }
    return out;
  };
  ASSERT_EQ(serial.reports().size(), sharded.reports().size());
  EXPECT_EQ(alarm_set(serial.reports()), alarm_set(sharded.reports()));
  EXPECT_TRUE(alarm_set(serial.reports()).contains({6, 999}));
  EXPECT_EQ(serial.stats().keys_replayed, 0u);
  EXPECT_EQ(sharded.stats().keys_replayed, 0u);
  for (std::size_t i = 0; i < serial.reports().size(); ++i) {
    EXPECT_EQ(serial.reports()[i].estimated_error_f2,
              sharded.reports()[i].estimated_error_f2)
        << "interval " << i;
  }
}

}  // namespace
}  // namespace scd::ingest
