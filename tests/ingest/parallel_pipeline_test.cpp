// ParallelPipeline: the sharded front-end must reproduce the serial
// pipeline's alarm set exactly — same (interval, key) pairs — for any worker
// count, because sharding by key + COMBINE-merge is algebraically the same
// computation. Updates in these tests are integer-valued so the per-register
// sums are exact regardless of floating-point addition order and the
// comparison can demand bit equality, not tolerance.
//
// Runs under the tsan preset via `ctest -L concurrency`.
#include "ingest/parallel_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "obs/metrics.h"

namespace scd::ingest {
namespace {

core::PipelineConfig base_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 5;
  config.k = 4096;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  return config;
}

/// Integer-valued deterministic stream: 50 steady keys per interval plus a
/// spike on key 999 in interval 6. Works on anything with an add() method.
/// Leaves the last interval open.
template <typename Pipeline>
void add_stream(Pipeline& pipeline, std::size_t intervals) {
  for (std::size_t t = 0; t < intervals; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      const double jitter =
          static_cast<double>(common::mix64(key * 1000 + t) % 11) - 5.0;
      pipeline.add(key, 100.0 + jitter, start + 1.0);
    }
    if (t == 6) pipeline.add(999, 5000.0, start + 2.0);
  }
}

template <typename Pipeline>
void feed_stream(Pipeline& pipeline, std::size_t intervals) {
  add_stream(pipeline, intervals);
  pipeline.flush();
}

using AlarmSet = std::set<std::pair<std::size_t, std::uint64_t>>;

AlarmSet alarm_set(const std::vector<core::IntervalReport>& reports) {
  AlarmSet out;
  for (const auto& report : reports) {
    for (const auto& alarm : report.alarms) {
      out.emplace(report.index, alarm.key);
    }
  }
  return out;
}

TEST(ParallelPipeline, AlarmSetMatchesSerialForEveryWorkerCount) {
  core::ChangeDetectionPipeline serial(base_config());
  feed_stream(serial, 10);
  const AlarmSet expected = alarm_set(serial.reports());
  ASSERT_FALSE(expected.empty());  // the spike must be flagged

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ParallelConfig parallel;
    parallel.workers = workers;
    parallel.batch_size = 16;  // several chunks per interval
    ParallelPipeline pipeline(base_config(), parallel);
    feed_stream(pipeline, 10);

    ASSERT_EQ(pipeline.reports().size(), serial.reports().size())
        << "workers=" << workers;
    EXPECT_EQ(alarm_set(pipeline.reports()), expected)
        << "workers=" << workers;
    // With integer updates the merged registers are bit-identical to the
    // serial sketch, so every derived quantity matches exactly.
    for (std::size_t i = 0; i < serial.reports().size(); ++i) {
      const auto& s = serial.reports()[i];
      const auto& p = pipeline.reports()[i];
      EXPECT_EQ(p.records, s.records) << "workers=" << workers << " i=" << i;
      EXPECT_EQ(p.keys_checked, s.keys_checked);
      EXPECT_DOUBLE_EQ(p.estimated_error_f2, s.estimated_error_f2);
      EXPECT_DOUBLE_EQ(p.alarm_threshold, s.alarm_threshold);
    }
    EXPECT_EQ(pipeline.stats().records, serial.stats().records);
    EXPECT_EQ(pipeline.stats().intervals_closed,
              serial.stats().intervals_closed);
    EXPECT_EQ(pipeline.parallel_stats().barriers, 10u);
  }
}

TEST(ParallelPipeline, RunsAreDeterministic) {
  const auto run = [] {
    ParallelConfig parallel;
    parallel.workers = 4;
    parallel.batch_size = 8;
    ParallelPipeline pipeline(base_config(), parallel);
    feed_stream(pipeline, 8);
    std::vector<double> f2;
    for (const auto& report : pipeline.reports()) {
      f2.push_back(report.estimated_error_f2);
    }
    return std::make_pair(alarm_set(pipeline.reports()), f2);
  };
  const auto [alarms1, f2_1] = run();
  const auto [alarms2, f2_2] = run();
  EXPECT_EQ(alarms1, alarms2);
  ASSERT_EQ(f2_1.size(), f2_2.size());
  for (std::size_t i = 0; i < f2_1.size(); ++i) {
    EXPECT_DOUBLE_EQ(f2_1[i], f2_2[i]) << i;  // fixed merge order => bit-exact
  }
}

TEST(ParallelPipeline, EmptyGapIntervalsMatchSerial) {
  core::ChangeDetectionPipeline serial(base_config());
  serial.add(1, 100.0, 5.0);
  serial.add(1, 100.0, 45.0);  // jumps over intervals 1..3
  serial.flush();

  ParallelConfig parallel;
  parallel.workers = 3;
  ParallelPipeline pipeline(base_config(), parallel);
  pipeline.add(1, 100.0, 5.0);
  pipeline.add(1, 100.0, 45.0);
  pipeline.flush();

  ASSERT_EQ(pipeline.reports().size(), serial.reports().size());
  for (std::size_t i = 0; i < serial.reports().size(); ++i) {
    EXPECT_EQ(pipeline.reports()[i].records, serial.reports()[i].records) << i;
    EXPECT_DOUBLE_EQ(pipeline.reports()[i].start_s,
                     serial.reports()[i].start_s);
  }
}

TEST(ParallelPipeline, NextIntervalReplayMatchesSerial) {
  auto config = base_config();
  config.replay = core::KeyReplayMode::kNextInterval;
  core::ChangeDetectionPipeline serial(config);
  feed_stream(serial, 10);

  ParallelConfig parallel;
  parallel.workers = 4;
  ParallelPipeline pipeline(config, parallel);
  feed_stream(pipeline, 10);

  ASSERT_EQ(pipeline.reports().size(), serial.reports().size());
  EXPECT_EQ(alarm_set(pipeline.reports()), alarm_set(serial.reports()));
}

TEST(ParallelPipeline, WideKeyKindsUseTheCarterWegmanFamily) {
  auto config = base_config();
  config.key_kind = traffic::KeyKind::kSrcDstPair;  // 64-bit keys
  core::ChangeDetectionPipeline serial(config);
  ParallelConfig parallel;
  parallel.workers = 2;
  ParallelPipeline pipeline(config, parallel);
  const std::uint64_t wide = 0xdeadbeefcafef00dULL;
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      serial.add(wide + i, 100.0, static_cast<double>(t) * 10.0 + 1.0);
      pipeline.add(wide + i, 100.0, static_cast<double>(t) * 10.0 + 1.0);
    }
  }
  serial.flush();
  pipeline.flush();
  ASSERT_EQ(pipeline.reports().size(), serial.reports().size());
  for (std::size_t i = 0; i < serial.reports().size(); ++i) {
    EXPECT_DOUBLE_EQ(pipeline.reports()[i].estimated_error_f2,
                     serial.reports()[i].estimated_error_f2);
  }
}

TEST(ParallelPipeline, OutOfOrderRecordsAreClampedAndCounted) {
  ParallelConfig parallel;
  parallel.workers = 2;
  ParallelPipeline pipeline(base_config(), parallel);
  pipeline.add(1, 1.0, 100.0);
  EXPECT_NO_THROW(pipeline.add(2, 1.0, 50.0));  // late record: kept, clamped
  pipeline.flush();
  EXPECT_EQ(pipeline.stats().out_of_order_records, 1u);
  EXPECT_EQ(pipeline.parallel_stats().out_of_order_records, 1u);
  // Both records landed in the single open interval.
  ASSERT_EQ(pipeline.reports().size(), 1u);
  EXPECT_EQ(pipeline.reports()[0].records, 2u);
}

TEST(ParallelPipeline, TinyQueueStillCompletesUnderBackpressure) {
  ParallelConfig parallel;
  parallel.workers = 2;
  parallel.batch_size = 4;
  parallel.queue_capacity = 4;  // one chunk in flight per shard
  ParallelPipeline pipeline(base_config(), parallel);
  feed_stream(pipeline, 6);
  EXPECT_EQ(pipeline.stats().records, 6u * 50u);
  EXPECT_EQ(pipeline.parallel_stats().barriers, 6u);
}

TEST(ParallelPipeline, RejectsNonFiniteUpdates) {
  ParallelConfig parallel;
  parallel.workers = 2;
  ParallelPipeline pipeline(base_config(), parallel);
  EXPECT_THROW(pipeline.add(1, std::nan(""), 0.0), std::invalid_argument);
}

TEST(ParallelPipeline, ConfigValidation) {
  ParallelConfig parallel;
  parallel.workers = 0;
  EXPECT_THROW(ParallelPipeline(base_config(), parallel),
               std::invalid_argument);
  parallel = ParallelConfig{};
  parallel.workers = 500;
  EXPECT_THROW(ParallelPipeline(base_config(), parallel),
               std::invalid_argument);
  parallel = ParallelConfig{};
  parallel.batch_size = 0;
  EXPECT_THROW(ParallelPipeline(base_config(), parallel),
               std::invalid_argument);
  parallel = ParallelConfig{};
  parallel.queue_capacity = 4;
  parallel.batch_size = 512;  // queue cannot hold one chunk
  EXPECT_THROW(ParallelPipeline(base_config(), parallel),
               std::invalid_argument);

  // Pipeline options the sharded front end does not support are rejected.
  auto config = base_config();
  config.randomize_intervals = true;
  EXPECT_THROW(ParallelPipeline(config, ParallelConfig{}),
               std::invalid_argument);
  config = base_config();
  config.key_sample_rate = 0.5;
  EXPECT_THROW(ParallelPipeline(config, ParallelConfig{}),
               std::invalid_argument);
}

TEST(ParallelPipeline, CallbackAndActiveModelForwarding) {
  ParallelConfig parallel;
  parallel.workers = 2;
  ParallelPipeline pipeline(base_config(), parallel);
  std::size_t seen = 0;
  pipeline.set_report_callback(
      [&seen](const core::IntervalReport&) { ++seen; });
  feed_stream(pipeline, 5);
  EXPECT_EQ(seen, pipeline.reports().size());
  EXPECT_EQ(pipeline.active_model().kind, forecast::ModelKind::kEwma);
  EXPECT_EQ(pipeline.config().k, 4096u);
  EXPECT_EQ(pipeline.parallel_config().workers, 2u);
}

TEST(ParallelPipeline, DestructionWithoutFlushJoinsCleanly) {
  ParallelConfig parallel;
  parallel.workers = 4;
  ParallelPipeline pipeline(base_config(), parallel);
  for (std::uint64_t key = 0; key < 100; ++key) {
    pipeline.add(key, 1.0, 1.0);
  }
  // No flush: the destructor must close the queues and join the workers.
}

TEST(ParallelPipeline, SnapshotAndRestoreMidMergeAreRefused) {
  core::ChangeDetectionPipeline reference(base_config());
  feed_stream(reference, 6);
  ParallelConfig parallel;
  parallel.workers = 2;
  parallel.max_pending_intervals = 8;  // the merger may trail by 5 closes
  // A snapshot cut at the 3rd interval close of an undisturbed run.
  std::vector<std::uint8_t> snapshot;
  {
    ParallelPipeline source(base_config(), parallel);
    source.set_interval_close_callback([&](std::size_t closed) {
      if (closed == 3) snapshot = source.save_state();
    });
    feed_stream(source, 6);
  }
  ASSERT_FALSE(snapshot.empty());

  // The merger is held inside the first interval's close callback, so
  // intervals 2..5 are closed but still merging when restore_state runs.
  ParallelPipeline pipeline(base_config(), parallel);
  std::promise<void> gate;
  const std::shared_future<void> opened = gate.get_future().share();
  pipeline.set_interval_close_callback(
      [opened](std::size_t) { opened.wait(); });
  add_stream(pipeline, 6);
  EXPECT_THROW((void)pipeline.save_state(), std::logic_error);
  EXPECT_THROW(pipeline.restore_state(snapshot), std::logic_error);
  gate.set_value();

  // The refused restore touched nothing: every interval is delivered once,
  // in order, and the stream matches the serial run.
  pipeline.flush();
  ASSERT_EQ(pipeline.reports().size(), reference.reports().size());
  for (std::size_t i = 0; i < reference.reports().size(); ++i) {
    EXPECT_EQ(pipeline.reports()[i].index, i);
    EXPECT_EQ(pipeline.reports()[i].records, reference.reports()[i].records);
  }
  EXPECT_EQ(alarm_set(pipeline.reports()), alarm_set(reference.reports()));
  EXPECT_EQ(pipeline.stats().records, reference.stats().records);
}

TEST(ParallelPipeline, RestoreStateFromAnIntervalCallbackIsRefused) {
  ParallelConfig parallel;
  parallel.workers = 2;
  const std::vector<std::uint8_t> fresh =
      ParallelPipeline(base_config(), parallel).save_state();
  ParallelPipeline pipeline(base_config(), parallel);
  std::size_t refused = 0;
  // The interval being delivered is still on the epoch ledger while its
  // callbacks run, so the merger thread is never at a restorable boundary.
  pipeline.set_interval_close_callback([&](std::size_t) {
    try {
      pipeline.restore_state(fresh);
    } catch (const std::logic_error&) {
      ++refused;
    }
  });
  feed_stream(pipeline, 4);
  EXPECT_EQ(refused, 4u);
  EXPECT_EQ(pipeline.reports().size(), 4u);
  EXPECT_EQ(pipeline.stats().records, 4u * 50u);
}

TEST(ParallelPipeline, FlushClosesNoEmptyIntervalAfterARestore) {
  // A snapshot at the 3rd close, restored into both pipelines and flushed
  // before any new record: like the serial engine, the sharded pipeline
  // reports and ships nothing, since the open interval holds no record.
  ParallelConfig parallel;
  parallel.workers = 2;
  std::vector<std::uint8_t> snapshot;
  {
    ParallelPipeline source(base_config(), parallel);
    source.set_interval_close_callback([&](std::size_t closed) {
      if (closed == 3) snapshot = source.save_state();
    });
    feed_stream(source, 4);
  }
  ASSERT_FALSE(snapshot.empty());

  core::ChangeDetectionPipeline serial(base_config());
  serial.restore_state(snapshot);
  serial.flush();
  ParallelPipeline pipeline(base_config(), parallel);
  std::size_t shipped = 0;
  pipeline.set_interval_batch_callback(
      [&](std::uint64_t, const core::IntervalBatch&) { ++shipped; });
  pipeline.restore_state(snapshot);
  pipeline.flush();
  EXPECT_EQ(serial.reports().size(), 0u);
  EXPECT_EQ(pipeline.reports().size(), serial.reports().size());
  EXPECT_EQ(shipped, 0u);
  EXPECT_EQ(pipeline.position().interval_index,
            serial.position().interval_index);

  // A second flush of a fed stream adds no interval either.
  ParallelPipeline fed(base_config(), parallel);
  feed_stream(fed, 4);
  fed.flush();
  EXPECT_EQ(fed.reports().size(), 4u);
}

TEST(ParallelPipeline, FlushClosesAStartAtAnchoredEmptyIntervalZero) {
  // The one empty interval flush() closes: interval 0 anchored by start_at,
  // which a quiet aggregation node ships so the aggregator hears from it.
  ParallelConfig parallel;
  parallel.workers = 2;
  ParallelPipeline pipeline(base_config(), parallel);
  std::vector<std::uint64_t> shipped;
  pipeline.set_interval_batch_callback(
      [&](std::uint64_t index, const core::IntervalBatch& batch) {
        shipped.push_back(index);
        EXPECT_EQ(batch.records, 0u);
      });
  pipeline.start_at(100.0);
  pipeline.flush();
  ASSERT_EQ(pipeline.reports().size(), 1u);
  EXPECT_EQ(pipeline.reports()[0].index, 0u);
  EXPECT_EQ(pipeline.reports()[0].records, 0u);
  EXPECT_EQ(shipped, std::vector<std::uint64_t>{0});
}

TEST(ParallelPipeline, PendingEpochsGaugeTracksTheTrailingMerger) {
  ParallelConfig parallel;
  parallel.workers = 2;
  parallel.max_pending_intervals = 3;
  ParallelPipeline pipeline(base_config(), parallel);  // metrics on
  const obs::Gauge& pending = obs::MetricsRegistry::global().gauge(
      "scd_ingest_pending_epochs", "");
  double peak = 0.0;
  // A slow close callback keeps the merger trailing the producer, which
  // then runs into the max_pending_intervals bound.
  pipeline.set_interval_close_callback([](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  for (std::size_t t = 0; t < 12; ++t) {
    for (std::uint64_t key = 1; key <= 20; ++key) {
      pipeline.add(key, 1.0, static_cast<double>(t) * 10.0 + 1.0);
      // Sampled once this pipeline has closed an interval and so owns the
      // process-wide gauge.
      if (t > 0) peak = std::max(peak, pending.value());
    }
  }
  pipeline.flush();
  EXPECT_LE(peak, static_cast<double>(parallel.max_pending_intervals));
  EXPECT_GE(peak, 2.0);  // the merger really trailed
  EXPECT_EQ(pending.value(), 0.0);
  EXPECT_EQ(pipeline.reports().size(), 12u);
}

}  // namespace
}  // namespace scd::ingest
