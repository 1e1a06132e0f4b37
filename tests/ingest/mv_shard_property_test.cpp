// MvShardProperty: the invertible sketch's recovery output is bit-identical
// between a serial update pass and the W=4 sharded COMBINE-merge, and under
// every SCD_SIMD dispatch decision (ctest reruns this suite with
// SCD_SIMD=scalar / avx2 / avx512 pinned).
//
// Why bit-identity is demandable (docs/KEY_RECOVERY.md): updates are
// integer-valued (< 2^53, exact in doubles) so the merged counters equal
// the serial counters exactly, and every heavy key carries overwhelming
// majority mass in its buckets, so its candidacy survives any update
// order or shard merge order. Vote *counts* are order-dependent and are
// deliberately not compared; candidate identity and the recovered
// (key, value) list are the invariant surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
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

/// Integer-valued stream: light background (weight 1) plus heavy keys with
/// overwhelming per-bucket majority (weight 1e6).
std::vector<Record> make_records() {
  std::vector<Record> records;
  common::Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    records.push_back({rng.next_below(1u << 24), 1.0});
  }
  for (std::uint64_t heavy = 1; heavy <= 8; ++heavy) {
    records.push_back({heavy * 1000003, 1.0e6});
  }
  return records;
}

TEST(MvShardProperty, ShardedMergeRecoversBitIdenticalToSerial) {
  const auto records = make_records();

  // Serial reference: one sketch, records in stream order.
  const auto serial_family =
      std::make_shared<const hash::TabulationHashFamily>(kSeed, kH);
  sketch::MvSketch serial(serial_family, kK);
  serial.update_batch(records);
  const auto serial_recovered = serial.recover_heavy_keys(1000.0);
  ASSERT_EQ(serial_recovered.size(), 8u);

  // Sharded: route by the pipeline's key->shard function, close and merge
  // the epoch, rebuild a sketch from the published batch (registers + vote
  // state).
  BatchSink sink;
  ShardSet<sketch::MvSketch> shards(kSeed, kH, kK, kWorkers,
                                    /*queue_chunks=*/64, nullptr,
                                    /*max_outstanding=*/1, sink.callback());
  std::vector<Chunk> chunks(kWorkers);
  for (const Record& r : records) {
    chunks[common::mix64(r.key) % kWorkers].push_back(r);
  }
  for (std::size_t w = 0; w < kWorkers; ++w) {
    shards.submit(w, std::move(chunks[w]));
  }
  const core::IntervalBatch batch = sink.close_and_drain(shards);
  shards.stop();

  ASSERT_EQ(batch.registers.size(), kH * kK);
  ASSERT_EQ(batch.mv_candidates.size(), kH * kK);
  ASSERT_EQ(batch.mv_votes.size(), kH * kK);
  // Recovery sketches collect no replay keys — that is the point.
  EXPECT_TRUE(batch.keys.empty());

  // Integer updates: the merged counter table is exactly the serial one.
  const auto serial_regs = serial.registers();
  for (std::size_t i = 0; i < serial_regs.size(); ++i) {
    ASSERT_EQ(batch.registers[i], serial_regs[i]) << "register " << i;
  }

  sketch::MvSketch merged(
      std::make_shared<const hash::TabulationHashFamily>(kSeed, kH), kK);
  merged.load_registers(batch.registers);
  merged.load_aux(batch.mv_candidates, batch.mv_votes);
  const auto sharded_recovered = merged.recover_heavy_keys(1000.0);

  ASSERT_EQ(sharded_recovered.size(), serial_recovered.size());
  for (std::size_t i = 0; i < serial_recovered.size(); ++i) {
    EXPECT_EQ(sharded_recovered[i].key, serial_recovered[i].key);
    EXPECT_EQ(sharded_recovered[i].value, serial_recovered[i].value);
  }
}

TEST(MvShardProperty, RepeatedShardedRunsAreBitIdentical) {
  const auto records = make_records();
  std::vector<std::vector<sketch::RecoveredHeavyKey>> runs;
  for (int round = 0; round < 3; ++round) {
    BatchSink sink;
    ShardSet<sketch::MvSketch> shards(kSeed, kH, kK, kWorkers, 64, nullptr, 1,
                                      sink.callback());
    std::vector<Chunk> chunks(kWorkers);
    for (const Record& r : records) {
      chunks[common::mix64(r.key) % kWorkers].push_back(r);
    }
    for (std::size_t w = 0; w < kWorkers; ++w) {
      shards.submit(w, std::move(chunks[w]));
    }
    const core::IntervalBatch batch = sink.close_and_drain(shards);
    shards.stop();
    sketch::MvSketch merged(
        std::make_shared<const hash::TabulationHashFamily>(kSeed, kH), kK);
    merged.load_registers(batch.registers);
    merged.load_aux(batch.mv_candidates, batch.mv_votes);
    runs.push_back(merged.recover_heavy_keys(1000.0));
  }
  for (std::size_t round = 1; round < runs.size(); ++round) {
    ASSERT_EQ(runs[round].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[round][i].key, runs[0][i].key);
      EXPECT_EQ(runs[round][i].value, runs[0][i].value);
    }
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
