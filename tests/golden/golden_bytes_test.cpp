// Golden-bytes tests: every byte format that crosses the process boundary —
// checkpoint files (serial, sharded, invertible), wire frames carrying an
// IntervalPayload, sketch packets of every FamilyKind, .scdt traces — and
// config_fingerprint are pinned to exact values. A codec refactor that
// changes a single output byte orphans existing checkpoints, breaks wire
// protocol v1 handshakes, or makes stored traces unreadable; these tests
// catch it before it ships.
//
// Each fixture is built from integer-valued updates and EWMA(0.5), so the
// registers and forecasts are exact in binary floating point and the pinned
// bytes hold under every SCD_SIMD dispatch decision (see the scalar and
// avx512 reruns in tests/CMakeLists.txt).
//
// Pipeline state streams carry wall-clock stage timings (PipelineStats
// *_seconds). Those six doubles are zeroed at fixed offsets before pinning;
// everything else in the stream is deterministic. Each masked state is also
// restored into a fresh pipeline and saved again, which must reproduce it
// byte for byte: the pin covers the reader as well as the writer.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "checkpoint/checkpoint.h"
#include "common/crc32.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "net/wire.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "sketch/serialize.h"
#include "traffic/flow_record.h"
#include "traffic/trace_io.h"

namespace scd {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::string hex(const std::uint8_t* p, std::size_t n) {
  std::string out;
  char buf[3];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "%02x", p[i]);
    out += buf;
  }
  return out;
}

std::string hex_prefix(const Bytes& bytes, std::size_t n) {
  return hex(bytes.data(), std::min(n, bytes.size()));
}

std::uint32_t crc_of(const Bytes& bytes) {
  return common::crc32(bytes.data(), bytes.size());
}

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A scratch directory owned by this process and the running test. ctest
/// runs each case on its own and again inside the whole-binary dispatch
/// legs, possibly at the same time, so a name shared between processes
/// would let one delete the other's files mid-write.
std::filesystem::path fresh_dir(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string owner =
      std::to_string(::getpid()) + "_" +
      (test != nullptr
           ? std::string(test->test_suite_name()) + "." + test->name()
           : std::string("no_test"));
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (name + "_" + owner);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Pipeline fixtures

core::PipelineConfig golden_config(core::RecoveryMode recovery) {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 64;
  config.seed = 0x601dc0de;
  config.threshold = 0.05;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.recovery = recovery;
  config.metrics = false;
  return config;
}

/// Integer-valued stream: 40 steady keys every 10 s, key 7 spikes at t=51.
template <typename Pipeline>
void feed(Pipeline& pipeline) {
  for (double t = 1.0; t < 120.0; t += 10.0) {
    for (std::uint64_t key = 0; key < 40; ++key) {
      pipeline.add(key, 100.0 + static_cast<double>(key % 7), t);
    }
    if (t > 50.0 && t < 60.0) pipeline.add(7, 50000.0, t + 1.0);
  }
}

/// Engine-state offsets of the wall-clock doubles in the stats block:
/// 48 (config guards) + 40 (stream position) + 104 (model config)
/// + 16 (smoothed F2) + 96 (two RNG snapshots) = 304 is stats.records;
/// update_seconds follows the nine counters, then update_samples, then the
/// five per-stage totals.
constexpr std::size_t kStatsRecordsOffset = 304;
constexpr std::size_t kTimingOffsets[] = {376, 392, 400, 408, 416, 424};

std::uint64_t u64_at(const Bytes& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes.at(offset + i)) << (8 * i);
  }
  return v;
}

void mask_timings(Bytes& state, std::uint64_t expected_records) {
  ASSERT_EQ(u64_at(state, kStatsRecordsOffset), expected_records)
      << "engine-state layout moved; update the golden offsets";
  for (const std::size_t off : kTimingOffsets) {
    for (std::size_t i = 0; i < 8; ++i) state.at(off + i) = 0;
  }
}

/// Serial engine state captured at the 6th interval close.
Bytes serial_state(const core::PipelineConfig& config) {
  core::ChangeDetectionPipeline pipeline(config);
  Bytes state;
  pipeline.set_interval_close_callback([&](std::size_t closed) {
    if (closed == 6) state = pipeline.save_state();
  });
  feed(pipeline);
  pipeline.flush();
  return state;
}

Bytes parallel_state(const core::PipelineConfig& config) {
  ingest::ParallelConfig parallel;
  parallel.workers = 2;
  ingest::ParallelPipeline pipeline(config, parallel);
  Bytes state;
  pipeline.set_interval_close_callback([&](std::size_t closed) {
    if (closed == 6) state = pipeline.save_state();
  });
  feed(pipeline);
  pipeline.flush();
  return state;
}

struct Pinned {
  std::size_t size;
  std::uint32_t crc;
  std::string header_hex;
};

void expect_checkpoint_file(const core::PipelineConfig& config,
                            const Bytes& state, const std::string& dir_name,
                            const Pinned& pinned) {
  const auto dir = fresh_dir(dir_name);
  checkpoint::CheckpointWriterOptions options;
  options.directory = dir;
  options.metrics = false;
  checkpoint::CheckpointWriter writer(options, config);
  const auto path = writer.write(checkpoint::PayloadKind::kSerial, 6, state);
  const Bytes file = read_file(path);
  EXPECT_EQ(file.size(), pinned.size);
  EXPECT_EQ(crc_of(file), pinned.crc);
  EXPECT_EQ(hex_prefix(file, checkpoint::kCheckpointHeaderBytes),
            pinned.header_hex);
  std::filesystem::remove_all(dir);
}

TEST(GoldenBytes, SerialCheckpointFile) {
  const auto config = golden_config(core::RecoveryMode::kReplay);
  Bytes state = serial_state(config);
  mask_timings(state, 241);
  core::ChangeDetectionPipeline restored(config);
  restored.restore_state(state);
  EXPECT_EQ(restored.save_state(), state);
  EXPECT_EQ(state.size(), 2016u);
  EXPECT_EQ(crc_of(state), 1359682534u);
  expect_checkpoint_file(
      config, state, "golden_serial",
      {2064, 3459665199u,
       "53434450010000000100000000000000e6d94e4ddbc0645b0600000000000000"
       "e007000000000000e61b0b51f8a50a7a"});
}

TEST(GoldenBytes, ParallelCheckpointFile) {
  const auto config = golden_config(core::RecoveryMode::kReplay);
  Bytes state = parallel_state(config);
  mask_timings(state, 241);
  ingest::ParallelConfig parallel;
  parallel.workers = 2;
  ingest::ParallelPipeline restored(config, parallel);
  restored.restore_state(state);
  EXPECT_EQ(restored.save_state(), state);
  // The sharded front end saves the serial engine's own stream, so it pins
  // to the serial bytes.
  EXPECT_EQ(state.size(), 2016u);
  EXPECT_EQ(crc_of(state), 1359682534u);
  expect_checkpoint_file(
      config, state, "golden_parallel",
      {2064, 3459665199u,
       "53434450010000000100000000000000e6d94e4ddbc0645b0600000000000000"
       "e007000000000000e61b0b51f8a50a7a"});
}

TEST(GoldenBytes, InvertibleCheckpointFile) {
  const auto config = golden_config(core::RecoveryMode::kInvertible);
  Bytes state = serial_state(config);
  mask_timings(state, 241);
  core::ChangeDetectionPipeline restored(config);
  restored.restore_state(state);
  EXPECT_EQ(restored.save_state(), state);
  EXPECT_EQ(state.size(), 5096u);
  EXPECT_EQ(crc_of(state), 415180303u);
  expect_checkpoint_file(
      config, state, "golden_invertible",
      {5144, 3934926535u,
       "5343445001000000010000000000000064fe0116c2664c090600000000000000"
       "e8130000000000000f26bf186fc2e4cc"});
}

// ---------------------------------------------------------------------------
// Sketch packets, one per FamilyKind

template <typename Sketch>
void fill(Sketch& sketch) {
  for (std::uint64_t key = 1; key <= 50; ++key) {
    sketch.update(key * 2654435761u % 0xffffffffu, static_cast<double>(key));
  }
  sketch.update(12345, 9000.0);
  sketch.update(12345, -1000.0);
}

template <typename Sketch>
Bytes stream_bytes(const Sketch& sketch) {
  std::ostringstream out(std::ios::binary);
  sketch::write_sketch(out, sketch);
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

constexpr std::size_t kPacketHeaderBytes = 25;

TEST(GoldenBytes, TabulationSketchPacket) {
  sketch::KarySketch s(sketch::make_tabulation_family(21, 3), 64);
  fill(s);
  const Bytes bytes = sketch::sketch_to_bytes(s);
  EXPECT_EQ(stream_bytes(s), bytes);
  EXPECT_EQ(bytes.size(), 1561u);
  EXPECT_EQ(crc_of(bytes), 4013253810u);
  EXPECT_EQ(hex_prefix(bytes, kPacketHeaderBytes),
            "5343444b010000000015000000000000000300000040000000");
}

TEST(GoldenBytes, CarterWegmanSketchPacket) {
  sketch::KarySketch64 s(sketch::make_cw_family(22, 3), 64);
  fill(s);
  const Bytes bytes = stream_bytes(s);
  EXPECT_EQ(bytes.size(), 1561u);
  EXPECT_EQ(crc_of(bytes), 770496156u);
  EXPECT_EQ(hex_prefix(bytes, kPacketHeaderBytes),
            "5343444b010000000116000000000000000300000040000000");
}

TEST(GoldenBytes, MvTabulationSketchPacket) {
  sketch::MvSketch s(sketch::make_tabulation_family(23, 3), 64);
  fill(s);
  const Bytes bytes = sketch::mv_sketch_to_bytes(s);
  EXPECT_EQ(stream_bytes(s), bytes);
  EXPECT_EQ(bytes.size(), 4633u);
  EXPECT_EQ(crc_of(bytes), 3064396600u);
  EXPECT_EQ(hex_prefix(bytes, kPacketHeaderBytes),
            "5343444b010000000217000000000000000300000040000000");
}

TEST(GoldenBytes, MvCarterWegmanSketchPacket) {
  sketch::MvSketch64 s(sketch::make_cw_family(24, 3), 64);
  fill(s);
  const Bytes bytes = stream_bytes(s);
  EXPECT_EQ(bytes.size(), 4633u);
  EXPECT_EQ(crc_of(bytes), 2206100876u);
  EXPECT_EQ(hex_prefix(bytes, kPacketHeaderBytes),
            "5343444b010000000318000000000000000300000040000000");
}

// ---------------------------------------------------------------------------
// Wire frame

TEST(GoldenBytes, IntervalDataWireFrame) {
  sketch::KarySketch s(sketch::make_tabulation_family(21, 3), 64);
  fill(s);
  net::IntervalPayload payload;
  payload.start_s = 60.0;
  payload.len_s = 10.0;
  payload.records = 51;
  payload.sketch_packet = sketch::sketch_to_bytes(s);
  payload.keys = {1, 2, 3, 12345, 0xffffffffu};
  net::FrameHeader header;
  header.type = net::MessageType::kIntervalData;
  header.node_id = 3;
  header.interval_index = 6;
  header.config_fingerprint = 0x0123456789abcdefull;
  const Bytes frame =
      net::encode_frame(header, net::encode_interval_payload(payload));
  EXPECT_EQ(frame.size(), 1705u);
  EXPECT_EQ(crc_of(frame), 3299320170u);
  EXPECT_EQ(hex_prefix(frame, net::kFrameHeaderBytes),
            "5343444e01000000030000000000000003000000000000000600000000000000"
            "efcdab89674523017106000000000000d1e86a64697e851c");
}

// ---------------------------------------------------------------------------
// .scdt trace

TEST(GoldenBytes, ScdtTrace) {
  std::vector<traffic::FlowRecord> records;
  for (std::uint32_t i = 0; i < 10; ++i) {
    traffic::FlowRecord r;
    r.timestamp_us = 1'000'000ull * i + 17;
    r.src_ip = 0x0a000001u + i;
    r.dst_ip = 0xc0a80000u + 7 * i;
    r.src_port = static_cast<std::uint16_t>(1024 + i);
    r.dst_port = 443;
    r.protocol = static_cast<std::uint8_t>(i % 2 == 0 ? 6 : 17);
    r.tos = static_cast<std::uint8_t>(i);
    r.flags = static_cast<std::uint16_t>(0x18 + i);
    r.packets = 3 + i;
    r.bytes = 1500ull * (i + 1) + (1ull << 40);
    records.push_back(r);
  }
  const auto dir = fresh_dir("golden_trace");
  const auto path = (dir / "golden.scdt").string();
  traffic::write_trace(path, records);
  const Bytes file = read_file(path);
  EXPECT_EQ(file.size(), 16u + 36u * 10u);
  EXPECT_EQ(crc_of(file), 3191658713u);
  EXPECT_EQ(hex_prefix(file, 16 + 36),
            "53434454010000000a000000000000001100000000000000"
            "0100000a0000a8c00004bb010600180003000000dc05000000010000");
  EXPECT_EQ(traffic::read_trace(path), records);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// config_fingerprint

TEST(GoldenBytes, ReplayConfigFingerprint) {
  EXPECT_EQ(core::config_fingerprint(core::PipelineConfig{}),
            12014348713276870220ull);
  EXPECT_EQ(core::config_fingerprint(
                golden_config(core::RecoveryMode::kReplay)),
            6585600603249891814ull);
}

TEST(GoldenBytes, InvertibleConfigFingerprint) {
  core::PipelineConfig config;
  config.recovery = core::RecoveryMode::kInvertible;
  EXPECT_EQ(core::config_fingerprint(config), 7046730732571485198ull);
  EXPECT_EQ(core::config_fingerprint(
                golden_config(core::RecoveryMode::kInvertible)),
            670023428350279268ull);
}

}  // namespace
}  // namespace scd
