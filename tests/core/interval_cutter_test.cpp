// IntervalCutter: the one stream clock behind every front end.
//
// Direct cases pin the cutter's rules: the anchor, the late-record clamp,
// multi-interval gaps, §6's drawn lengths and start_at. The agreement suite
// then feeds one trace through every front end — serial add_record, the
// mmap feed_trace, and ParallelPipeline at W=1/2/4 — and demands identical
// reports and out-of-order counts. The trace carries a quiet gap, a late
// record inside the open interval and a record older than the open
// interval's start. Updates are integer byte counts, so every register sum
// is exact and the sharded front end can be held to bit equality.
#include "core/interval_cutter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "eval/trace_mmap.h"
#include "ingest/parallel_pipeline.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "traffic/flow_record.h"
#include "traffic/trace_io.h"

namespace scd::core {
namespace {

constexpr double kIntervalS = 10.0;

PipelineConfig base_config() {
  PipelineConfig config;
  config.interval_s = kIntervalS;
  config.h = 5;
  config.k = 4096;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  config.metrics = false;
  return config;
}

// ---------------------------------------------------------------------------
// Direct cutter cases

/// A close callback that records each closed interval and advances.
struct Closer {
  IntervalCutter& cutter;
  std::vector<IntervalCutter::Position> closed;
  void operator()() {
    closed.push_back(cutter.position());
    cutter.next();
  }
};

TEST(IntervalCutter, FirstRecordAnchorsIntervalZero) {
  IntervalCutter cutter(base_config());
  EXPECT_FALSE(cutter.position().started);
  Closer closer{cutter, {}};
  EXPECT_EQ(cutter.place(1234.5, closer), 1234.5);
  EXPECT_TRUE(closer.closed.empty());
  const IntervalCutter::Position& p = cutter.position();
  EXPECT_TRUE(p.started);
  EXPECT_EQ(p.index, 0u);
  EXPECT_EQ(p.start_s, 1234.5);
  EXPECT_EQ(p.end_s(), 1234.5 + kIntervalS);
  EXPECT_EQ(p.high_water_s, 1234.5);
  EXPECT_EQ(p.records, 1u);
}

TEST(IntervalCutter, LateRecordsAreCountedAndClampedToTheOpenInterval) {
  obs::MetricsRegistry registry;
  obs::Counter& metric = registry.counter("late_total", "late records");
  IntervalCutter cutter(base_config(), &metric);
  Closer closer{cutter, {}};
  cutter.place(100.0, closer);
  cutter.place(115.0, closer);  // closes [100, 110)
  ASSERT_EQ(closer.closed.size(), 1u);
  // Late but inside the open interval [110, 120): binned where it is.
  EXPECT_EQ(cutter.place(112.0, closer), 112.0);
  // Older than the open interval's start: clamped to it.
  EXPECT_EQ(cutter.place(50.0, closer), 110.0);
  EXPECT_EQ(closer.closed.size(), 1u);  // nothing reopened a past interval
  EXPECT_EQ(cutter.position().out_of_order, 2u);
  EXPECT_EQ(metric.value(), 2u);
  EXPECT_EQ(cutter.position().high_water_s, 115.0);
  EXPECT_EQ(cutter.position().records, 3u);
}

TEST(IntervalCutter, GapsCloseEveryIntervalUpToTheRecord) {
  IntervalCutter cutter(base_config());
  Closer closer{cutter, {}};
  cutter.place(0.0, closer);
  cutter.place(1.0, closer);
  cutter.place(35.0, closer);  // skips [10, 20) and [20, 30)
  ASSERT_EQ(closer.closed.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(closer.closed[i].index, i);
    EXPECT_EQ(closer.closed[i].start_s, static_cast<double>(i) * kIntervalS);
    EXPECT_EQ(closer.closed[i].len_s, kIntervalS);
  }
  EXPECT_EQ(closer.closed[0].records, 2u);
  EXPECT_EQ(closer.closed[1].records, 0u);
  EXPECT_EQ(closer.closed[2].records, 0u);
  EXPECT_EQ(cutter.position().index, 3u);
  EXPECT_EQ(cutter.position().start_s, 30.0);
  EXPECT_EQ(cutter.position().records, 1u);
  // A record exactly on a boundary opens the next interval.
  cutter.place(40.0, closer);
  EXPECT_EQ(closer.closed.size(), 4u);
  EXPECT_EQ(cutter.position().start_s, 40.0);
}

TEST(IntervalCutter, DrawnLengthsStayWithinTheClampAndVary) {
  PipelineConfig config = base_config();
  config.randomize_intervals = true;
  IntervalCutter cutter(config);
  Closer closer{cutter, {}};
  cutter.place(0.0, closer);
  cutter.place(5000.0, closer);
  ASSERT_GT(closer.closed.size(), 100u);
  std::set<double> lengths;
  double expected_start = 0.0;
  for (const IntervalCutter::Position& p : closer.closed) {
    EXPECT_GE(p.len_s, 0.25 * kIntervalS);
    EXPECT_LE(p.len_s, 4.0 * kIntervalS);
    EXPECT_EQ(p.start_s, expected_start);  // intervals tile the stream
    expected_start += p.len_s;
    lengths.insert(p.len_s);
  }
  EXPECT_GT(lengths.size(), 50u);
  // Same seed, same lengths: the draw is part of the replayable state.
  IntervalCutter again(config);
  Closer again_closer{again, {}};
  again.place(0.0, again_closer);
  again.place(5000.0, again_closer);
  ASSERT_EQ(again_closer.closed.size(), closer.closed.size());
  for (std::size_t i = 0; i < closer.closed.size(); ++i) {
    EXPECT_EQ(again_closer.closed[i].len_s, closer.closed[i].len_s);
  }
}

TEST(IntervalCutter, StartAtAnchorsAndThrowsOnceStarted) {
  IntervalCutter cutter(base_config());
  EXPECT_THROW(cutter.start_at(std::nan("")), std::invalid_argument);
  cutter.start_at(100.0);
  EXPECT_TRUE(cutter.position().started);
  EXPECT_EQ(cutter.position().start_s, 100.0);
  EXPECT_THROW(cutter.start_at(200.0), std::logic_error);
  // Records before the anchor are late, like any other regression.
  Closer closer{cutter, {}};
  EXPECT_EQ(cutter.place(90.0, closer), 100.0);
  EXPECT_EQ(cutter.position().out_of_order, 1u);

  IntervalCutter fed(base_config());
  Closer fed_closer{fed, {}};
  fed.place(5.0, fed_closer);
  EXPECT_THROW(fed.start_at(0.0), std::logic_error);
}

// ---------------------------------------------------------------------------
// Front-end agreement

traffic::FlowRecord make_record(double time_s, std::uint32_t dst_ip,
                                std::uint64_t bytes) {
  traffic::FlowRecord r;
  r.timestamp_us = static_cast<std::uint64_t>(time_s * 1e6);
  r.src_ip = 0x0a000001;
  r.dst_ip = dst_ip;
  r.bytes = bytes;
  return r;
}

/// 14 intervals of 40 steady keys, a spike on key 999 in interval 8, a
/// quiet gap over intervals 3 and 4, one record late inside the open
/// interval (interval 6) and one older than the open interval's start
/// (interval 10, stamped in interval 9). Every stamp is a multiple of
/// 1/8 s, exact in binary, so the grid anchored at 1.125 s never rounds a
/// record across a boundary.
std::vector<traffic::FlowRecord> agreement_records() {
  std::vector<traffic::FlowRecord> records;
  for (std::size_t t = 0; t < 14; ++t) {
    if (t == 3 || t == 4) continue;  // quiet gap
    const double start = static_cast<double>(t) * kIntervalS;
    for (std::uint32_t key = 1; key <= 40; ++key) {
      const auto jitter =
          static_cast<std::uint64_t>(common::mix64(key * 1000 + t) % 11);
      records.push_back(
          make_record(start + 1.0 + 0.125 * key, key, 300 + jitter));
    }
    if (t == 6) records.push_back(make_record(start + 2.0, 7, 450));
    if (t == 8) records.push_back(make_record(start + 6.0, 999, 40000));
    if (t == 10) records.push_back(make_record(start - 4.0, 11, 320));
  }
  return records;
}

constexpr std::uint64_t kLateRecords = 2;

/// Writes `records` as a .scdt trace in the given order. TraceWriter only
/// takes nondecreasing timestamps, so late records are written with their
/// predecessor's stamp and patched in the bytes afterwards.
void write_unordered_trace(const std::string& path,
                           const std::vector<traffic::FlowRecord>& records) {
  std::vector<traffic::FlowRecord> ordered = records;
  std::vector<std::size_t> late;
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    if (ordered[i].timestamp_us < ordered[i - 1].timestamp_us) {
      ordered[i].timestamp_us = ordered[i - 1].timestamp_us;
      late.push_back(i);
    }
  }
  traffic::write_trace(path, ordered);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (const std::size_t i : late) {
    common::store_le(bytes.data() + traffic::kTraceHeaderBytes +
                         i * traffic::kTraceRecordBytes,
                     records[i].timestamp_us);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

struct FeedRun {
  std::vector<IntervalReport> reports;
  std::uint64_t out_of_order = 0;
};

FeedRun serial_run(const PipelineConfig& config,
                   const std::vector<traffic::FlowRecord>& records) {
  ChangeDetectionPipeline pipeline(config);
  for (const traffic::FlowRecord& r : records) pipeline.add_record(r);
  pipeline.flush();
  return {pipeline.reports(), pipeline.stats().out_of_order_records};
}

FeedRun mmap_run(const PipelineConfig& config,
                 const std::vector<traffic::FlowRecord>& records) {
  // One file per test: ctest runs the cases as parallel processes.
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  const std::string path = (std::filesystem::path(::testing::TempDir()) /
                            ("cutter_" + name + ".scdt"))
                               .string();
  write_unordered_trace(path, records);
  const eval::MappedTrace trace(path);
  EXPECT_EQ(trace.record_count(), records.size());
  ChangeDetectionPipeline pipeline(config);
  eval::feed_trace(trace, pipeline);
  std::filesystem::remove(path);
  return {pipeline.reports(), pipeline.stats().out_of_order_records};
}

FeedRun parallel_run(const PipelineConfig& config,
                     const std::vector<traffic::FlowRecord>& records,
                     std::size_t workers) {
  ingest::ParallelConfig parallel;
  parallel.workers = workers;
  parallel.batch_size = 16;  // several chunks per interval
  ingest::ParallelPipeline pipeline(config, parallel);
  for (const traffic::FlowRecord& r : records) pipeline.add_record(r);
  pipeline.flush();
  return {pipeline.reports(), pipeline.stats().out_of_order_records};
}

using AlarmSet = std::set<std::pair<std::size_t, std::uint64_t>>;

AlarmSet alarm_set(const IntervalReport& report) {
  AlarmSet out;
  for (const detect::Alarm& alarm : report.alarms) {
    out.emplace(report.index, alarm.key);
  }
  return out;
}

void expect_same_run(const FeedRun& expected, const FeedRun& actual,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(actual.out_of_order, expected.out_of_order);
  ASSERT_EQ(actual.reports.size(), expected.reports.size());
  for (std::size_t i = 0; i < expected.reports.size(); ++i) {
    const IntervalReport& e = expected.reports[i];
    const IntervalReport& a = actual.reports[i];
    EXPECT_EQ(a.index, e.index) << "report " << i;
    EXPECT_EQ(a.start_s, e.start_s) << "report " << i;
    EXPECT_EQ(a.end_s, e.end_s) << "report " << i;
    EXPECT_EQ(a.records, e.records) << "report " << i;
    EXPECT_EQ(a.keys_checked, e.keys_checked) << "report " << i;
    EXPECT_EQ(a.estimated_error_f2, e.estimated_error_f2) << "report " << i;
    EXPECT_EQ(alarm_set(a), alarm_set(e)) << "report " << i;
  }
}

// gtest names each case after this struct's raw bytes; `name` comes last so
// the leading bytes are fixed fields, not a pointer that moves with every
// load of the test binary.
struct Mode {
  RecoveryMode recovery;
  bool randomize_intervals;
  double key_sample_rate;
  bool sharded;  // ParallelConfig accepts the configuration
  const char* name;
};

constexpr Mode kModes[] = {
    {RecoveryMode::kReplay, false, 1.0, true, "replay"},
    {RecoveryMode::kInvertible, false, 1.0, true, "invertible"},
    {RecoveryMode::kReplay, true, 1.0, false, "randomize_intervals"},
    {RecoveryMode::kReplay, false, 0.5, false, "key_sample_rate=0.5"},
};

class FrontEndAgreement : public ::testing::TestWithParam<Mode> {};

TEST_P(FrontEndAgreement, EveryFrontEndCutsTheSameIntervals) {
  const Mode& mode = GetParam();
  PipelineConfig config = base_config();
  config.recovery = mode.recovery;
  config.randomize_intervals = mode.randomize_intervals;
  config.key_sample_rate = mode.key_sample_rate;
  const std::vector<traffic::FlowRecord> records = agreement_records();

  const FeedRun serial = serial_run(config, records);
  EXPECT_EQ(serial.out_of_order, kLateRecords);
  if (!mode.randomize_intervals) {
    // Fixed grid: 14 intervals, the gap closed as two empty ones.
    ASSERT_EQ(serial.reports.size(), 14u);
    EXPECT_EQ(serial.reports[3].records, 0u);
    EXPECT_EQ(serial.reports[4].records, 0u);
    EXPECT_EQ(serial.reports[6].records, 41u);   // the in-interval late one
    EXPECT_EQ(serial.reports[10].records, 41u);  // the clamped one
    // Sampling may drop the spike's key; every other mode must flag it.
    if (mode.key_sample_rate == 1.0) {
      EXPECT_TRUE(alarm_set(serial.reports[8]).contains({8, 999}));
    }
  }

  expect_same_run(serial, mmap_run(config, records), "feed_trace");
  if (!mode.sharded) return;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    expect_same_run(serial, parallel_run(config, records, workers),
                    "ParallelPipeline W=" + std::to_string(workers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FrontEndAgreement, ::testing::ValuesIn(kModes),
    [](const ::testing::TestParamInfo<Mode>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (c == '=' || c == '.') c = '_';
      }
      return name;
    });

TEST(FrontEndAgreement, OutOfOrderMetricAdvancesOnEveryFrontEnd) {
  PipelineConfig config = base_config();
  config.metrics = true;
  const std::vector<traffic::FlowRecord> records = agreement_records();
  const obs::Counter& metric = obs::PipelineInstruments::global().out_of_order;

  std::uint64_t before = metric.value();
  (void)serial_run(config, records);
  EXPECT_EQ(metric.value() - before, kLateRecords) << "serial add_record";

  before = metric.value();
  (void)mmap_run(config, records);
  EXPECT_EQ(metric.value() - before, kLateRecords) << "feed_trace";

  before = metric.value();
  (void)parallel_run(config, records, 2);
  EXPECT_EQ(metric.value() - before, kLateRecords) << "ParallelPipeline";
}

}  // namespace
}  // namespace scd::core
