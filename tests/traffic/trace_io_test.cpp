#include "traffic/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/random.h"

namespace scd::traffic {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "scd_trace_test";
    std::filesystem::create_directories(dir);
    const auto path = dir / name;
    paths_.push_back(path.string());
    return path.string();
  }

  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

FlowRecord sample_record(std::uint64_t t_us) {
  FlowRecord r;
  r.timestamp_us = t_us;
  r.src_ip = 0x0a000001;
  r.dst_ip = 0xc0a80102;
  r.src_port = 12345;
  r.dst_port = 80;
  r.protocol = 6;
  r.tos = 4;
  r.flags = 0x18;
  r.packets = 10;
  r.bytes = 15000;
  return r;
}

TEST_F(TraceIoTest, RoundTripsSingleRecord) {
  const auto path = temp_path("single.scdt");
  const FlowRecord original = sample_record(123456789);
  write_trace(path, {original});
  const auto records = read_trace(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], original);
}

TEST_F(TraceIoTest, RoundTripsManyRandomRecords) {
  const auto path = temp_path("many.scdt");
  scd::common::Rng rng(1);
  std::vector<FlowRecord> records;
  std::uint64_t t = 0;
  for (int i = 0; i < 5000; ++i) {
    FlowRecord r;
    t += rng.next_below(1000);
    r.timestamp_us = t;
    r.src_ip = static_cast<std::uint32_t>(rng.next_u64());
    r.dst_ip = static_cast<std::uint32_t>(rng.next_u64());
    r.src_port = static_cast<std::uint16_t>(rng.next_u64());
    r.dst_port = static_cast<std::uint16_t>(rng.next_u64());
    r.protocol = static_cast<std::uint8_t>(rng.next_below(256));
    r.packets = static_cast<std::uint32_t>(rng.next_below(1000) + 1);
    r.bytes = rng.next_below(1000000);
    records.push_back(r);
  }
  write_trace(path, records);
  EXPECT_EQ(read_trace(path), records);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  const auto path = temp_path("empty.scdt");
  write_trace(path, {});
  EXPECT_TRUE(read_trace(path).empty());
}

TEST_F(TraceIoTest, ReaderReportsRecordCount) {
  const auto path = temp_path("count.scdt");
  write_trace(path, {sample_record(1), sample_record(2), sample_record(3)});
  TraceReader reader(path);
  EXPECT_EQ(reader.record_count(), 3u);
}

TEST_F(TraceIoTest, StreamingReadMatchesBulkRead) {
  const auto path = temp_path("stream.scdt");
  std::vector<FlowRecord> records;
  for (std::uint64_t i = 0; i < 100; ++i) records.push_back(sample_record(i));
  write_trace(path, records);
  TraceReader reader(path);
  FlowRecord r;
  std::size_t n = 0;
  while (reader.next(r)) {
    EXPECT_EQ(r, records[n]);
    ++n;
  }
  EXPECT_EQ(n, records.size());
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(TraceReader("/nonexistent/dir/file.scdt"), std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicThrows) {
  const auto path = temp_path("badmagic.scdt");
  std::ofstream out(path, std::ios::binary);
  out.write("NOPE0000000000000000", 20);
  out.close();
  EXPECT_THROW({ TraceReader reader(path); }, std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedHeaderThrows) {
  const auto path = temp_path("short.scdt");
  std::ofstream out(path, std::ios::binary);
  out.write("SC", 2);
  out.close();
  EXPECT_THROW({ TraceReader reader(path); }, std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedBodyIsRejectedAtOpen) {
  const auto path = temp_path("truncbody.scdt");
  std::vector<FlowRecord> records;
  for (std::uint64_t t = 1; t <= 10; ++t) records.push_back(sample_record(t));
  write_trace(path, records);
  // A torn copy: the last 20 bytes are gone, so record 10 is cut short.
  // Reading it as a 9-record trace would silently drop data.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 20);
  try {
    TraceReader reader(path);
    FAIL() << "truncated trace opened";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.kind(), TraceErrorKind::kTruncatedBody) << e.what();
  }
  EXPECT_THROW((void)read_trace(path), TraceError);
}

TEST_F(TraceIoTest, UnfinishedWriterIsRejectedAtOpen) {
  const auto path = temp_path("unfinished.scdt");
  write_trace(path, {sample_record(1), sample_record(2)});
  // A writer killed before finish() leaves the provisional record count 0
  // in the header while the records are on disk.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(8);
  const char zero[8] = {};
  file.write(zero, sizeof(zero));
  file.close();
  try {
    TraceReader reader(path);
    FAIL() << "unfinished trace opened as an empty trace";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.kind(), TraceErrorKind::kTrailingBytes) << e.what();
  }
}

TEST_F(TraceIoTest, WriterCountsRecords) {
  const auto path = temp_path("writer.scdt");
  TraceWriter writer(path);
  writer.append(sample_record(10));
  writer.append(sample_record(20));
  EXPECT_EQ(writer.records_written(), 2u);
  writer.finish();
}

TEST_F(TraceIoTest, UnwritableDirectoryThrows) {
  EXPECT_THROW(TraceWriter("/nonexistent/dir/out.scdt"), std::runtime_error);
}

}  // namespace
}  // namespace scd::traffic
