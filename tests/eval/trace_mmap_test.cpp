// MappedTrace corpus + zero-copy feed equivalence.
//
// Corpus half (corrupt-checkpoint style): every way an on-disk .scdt file
// can lie — truncated header, foreign magic, future version, a short final
// record, trailing garbage — must surface as the matching typed
// traffic::TraceError from both MappedTrace and TraceReader, and a
// zero-record file (header only) must map cleanly.
//
// Feed half: feed_trace() is add_record() over the mapping, so its reports
// must be bit-identical to the per-record feed of the same trace read with
// TraceReader — including a quiet gap and a record patched out of order in
// the file itself. tests/core/interval_cutter_test.cpp covers the feed in
// every configuration the serial pipeline accepts.
#include "eval/trace_mmap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "traffic/flow_record.h"
#include "traffic/trace_io.h"

namespace scd::eval {
namespace {

std::string fresh_path(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove(path);
  return path.string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

traffic::FlowRecord make_record(double time_s, std::uint32_t dst_ip,
                                std::uint64_t bytes) {
  traffic::FlowRecord r;
  r.timestamp_us = static_cast<std::uint64_t>(time_s * 1e6);
  r.src_ip = 0x0a000001;
  r.dst_ip = dst_ip;
  r.bytes = bytes;
  return r;
}

/// Deterministic multi-interval stream: 40 steady keys per 10 s interval
/// with integer-jittered byte counts, a spike on key 999 in interval 6, and
/// a quiet gap (no records) in interval 3 so empty-interval closing is on
/// the path. Integer updates keep every register sum exact, so the
/// comparisons below can demand bit equality.
std::vector<traffic::FlowRecord> corpus_records() {
  std::vector<traffic::FlowRecord> records;
  for (std::size_t t = 0; t < 10; ++t) {
    if (t == 3) continue;  // gap interval
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint32_t key = 1; key <= 40; ++key) {
      const auto jitter = static_cast<std::uint64_t>(
          common::mix64(key * 1000 + t) % 11);
      records.push_back(make_record(start + 1.0, key, 300 + jitter));
    }
    if (t == 6) records.push_back(make_record(start + 2.0, 999, 40000));
  }
  return records;
}

core::PipelineConfig corpus_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 5;
  config.k = 4096;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  config.metrics = false;
  return config;
}

/// One corpus file per test: ctest runs the cases as parallel processes, so
/// a shared name would let one case rewrite the file under another.
std::string corpus_trace() {
  const std::string path = fresh_path(
      std::string("mmap_corpus_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".scdt");
  traffic::write_trace(path, corpus_records());
  return path;
}

using AlarmSet = std::set<std::pair<std::size_t, std::uint64_t>>;

AlarmSet alarm_set(const std::vector<core::IntervalReport>& reports) {
  AlarmSet out;
  for (const auto& report : reports) {
    for (const auto& alarm : report.alarms) out.emplace(report.index, alarm.key);
  }
  return out;
}

/// Both readers share one header check, so every corrupt file must be
/// rejected at open by each of them with the same typed kind.
void expect_map_error(const std::string& path, traffic::TraceErrorKind kind,
                      const std::string& label) {
  SCOPED_TRACE(label);
  const auto expect_rejected = [&](const char* reader, const auto& open) {
    try {
      open();
      ADD_FAILURE() << reader << " opened successfully; expected "
                    << traffic::trace_error_kind_name(kind);
    } catch (const traffic::TraceError& error) {
      EXPECT_EQ(error.kind(), kind) << reader << ": " << error.what();
    }
  };
  expect_rejected("MappedTrace", [&] { MappedTrace trace(path); });
  expect_rejected("TraceReader", [&] { traffic::TraceReader reader(path); });
}

TEST(MappedTrace, RoundTripMatchesTraceReader) {
  const std::string path = corpus_trace();
  const std::vector<traffic::FlowRecord> expected = traffic::read_trace(path);
  const MappedTrace trace(path);
  ASSERT_EQ(trace.record_count(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(trace.record(i), expected[i]) << "record " << i;
  }
}

TEST(MappedTrace, ZeroRecordFileIsValid) {
  const std::string path = fresh_path("mmap_empty.scdt");
  traffic::write_trace(path, {});
  const MappedTrace trace(path);
  EXPECT_EQ(trace.record_count(), 0u);
  EXPECT_EQ(trace.size_bytes(), 16u);

  core::ChangeDetectionPipeline pipeline(corpus_config());
  feed_trace(trace, pipeline);
  EXPECT_EQ(pipeline.stats().records, 0u);
  EXPECT_EQ(pipeline.stats().intervals_closed, 0u);
  EXPECT_TRUE(pipeline.reports().empty());
}

TEST(MappedTrace, MissingFileIsOpenFailed) {
  expect_map_error(fresh_path("mmap_missing.scdt"),
                   traffic::TraceErrorKind::kOpenFailed, "missing file");
}

TEST(MappedTrace, TruncatedHeaderIsTyped) {
  const std::string path = corpus_trace();
  const std::vector<std::uint8_t> pristine = read_file(path);
  for (const std::size_t len : {std::size_t{0}, std::size_t{8},
                                std::size_t{15}}) {
    write_file(path, {pristine.begin(), pristine.begin() +
                                            static_cast<std::ptrdiff_t>(len)});
    expect_map_error(path, traffic::TraceErrorKind::kTruncatedHeader,
                     "header cut at byte " + std::to_string(len));
  }
}

TEST(MappedTrace, BadMagicIsTyped) {
  const std::string path = corpus_trace();
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[0] ^= 0xff;
  write_file(path, bytes);
  expect_map_error(path, traffic::TraceErrorKind::kBadMagic, "flipped magic");
}

TEST(MappedTrace, BadVersionIsTyped) {
  const std::string path = corpus_trace();
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[4] = 0x7f;  // version field, little-endian low byte
  write_file(path, bytes);
  expect_map_error(path, traffic::TraceErrorKind::kBadVersion,
                   "future version");
}

TEST(MappedTrace, ShortFinalRecordIsTyped) {
  const std::string path = corpus_trace();
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.pop_back();  // cut the last record one byte short
  write_file(path, bytes);
  expect_map_error(path, traffic::TraceErrorKind::kTruncatedBody,
                   "short final record");
  // Losing a whole record is the same lie: the header still promises it.
  bytes.resize(bytes.size() + 1 - traffic::kTraceRecordBytes);
  write_file(path, bytes);
  expect_map_error(path, traffic::TraceErrorKind::kTruncatedBody,
                   "missing final record");
}

TEST(MappedTrace, TrailingBytesAreTyped) {
  const std::string path = corpus_trace();
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.push_back(0xab);
  write_file(path, bytes);
  expect_map_error(path, traffic::TraceErrorKind::kTrailingBytes,
                   "trailing garbage");
}

TEST(MappedTrace, FeedMatchesPerRecordFeedBitExactly) {
  const std::string path = corpus_trace();

  core::ChangeDetectionPipeline serial(corpus_config());
  for (const traffic::FlowRecord& r : traffic::read_trace(path)) {
    serial.add_record(r);
  }
  serial.flush();
  const AlarmSet expected = alarm_set(serial.reports());
  ASSERT_FALSE(expected.empty());  // the spike must be flagged

  const MappedTrace trace(path);
  core::ChangeDetectionPipeline pipeline(corpus_config());
  feed_trace(trace, pipeline);

  EXPECT_EQ(pipeline.stats().records, trace.record_count());
  EXPECT_EQ(pipeline.stats().out_of_order_records, 0u);
  EXPECT_EQ(pipeline.stats().intervals_closed, serial.reports().size());
  ASSERT_EQ(pipeline.reports().size(), serial.reports().size());
  EXPECT_EQ(alarm_set(pipeline.reports()), expected);
  for (std::size_t i = 0; i < serial.reports().size(); ++i) {
    const auto& s = serial.reports()[i];
    const auto& p = pipeline.reports()[i];
    EXPECT_EQ(p.records, s.records) << "i=" << i;
    EXPECT_EQ(p.keys_checked, s.keys_checked);
    EXPECT_DOUBLE_EQ(p.estimated_error_f2, s.estimated_error_f2);
    EXPECT_DOUBLE_EQ(p.alarm_threshold, s.alarm_threshold);
  }
}

TEST(MappedTrace, FeedClampsAndCountsOutOfOrderRecords) {
  // Patch one mid-stream timestamp backwards (byte surgery — TraceWriter
  // enforces ordering, the reader must tolerate what routers actually emit).
  const std::string path = corpus_trace();
  std::vector<std::uint8_t> bytes = read_file(path);
  const std::size_t offset = 16 + 50 * traffic::kTraceRecordBytes;
  for (std::size_t i = 0; i < 8; ++i) bytes[offset + i] = 0;  // t = 0 us
  write_file(path, bytes);

  core::ChangeDetectionPipeline serial(corpus_config());
  for (const traffic::FlowRecord& r : traffic::read_trace(path)) {
    serial.add_record(r);
  }
  serial.flush();
  ASSERT_EQ(serial.stats().out_of_order_records, 1u);

  const MappedTrace trace(path);
  core::ChangeDetectionPipeline pipeline(corpus_config());
  feed_trace(trace, pipeline);
  EXPECT_EQ(pipeline.stats().out_of_order_records, 1u);
  ASSERT_EQ(pipeline.reports().size(), serial.reports().size());
  EXPECT_EQ(alarm_set(pipeline.reports()), alarm_set(serial.reports()));
  for (std::size_t i = 0; i < serial.reports().size(); ++i) {
    EXPECT_EQ(pipeline.reports()[i].records, serial.reports()[i].records);
    EXPECT_DOUBLE_EQ(pipeline.reports()[i].estimated_error_f2,
                     serial.reports()[i].estimated_error_f2);
  }
}

}  // namespace
}  // namespace scd::eval
