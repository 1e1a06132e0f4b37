// Basic checkpoint/restore mechanics: file naming and listing, cadence,
// retention, fingerprint sensitivity, boundary-only save_state, and a
// write → recover round trip for both pipeline flavours.
#include "checkpoint/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"

namespace scd::checkpoint {
namespace {

core::PipelineConfig small_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 64;
  config.threshold = 0.05;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.metrics = false;
  return config;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Deterministic stream: 40 steady keys, key 7 spikes in interval 5.
void feed_stream(core::ChangeDetectionPipeline& pipeline, double from_s,
                 double to_s) {
  for (double t = 1.0; t < 120.0; t += 10.0) {
    if (t < from_s || t >= to_s) continue;
    for (std::uint64_t key = 0; key < 40; ++key) {
      pipeline.add(key, 100.0 + static_cast<double>(key % 7), t);
    }
    if (t > 50.0 && t < 60.0) pipeline.add(7, 50000.0, t + 1.0);
  }
}

TEST(CheckpointFilename, ZeroPaddedAndSorted) {
  EXPECT_EQ(checkpoint_filename(0), "ckpt-00000000000000000000.scdc");
  EXPECT_EQ(checkpoint_filename(42), "ckpt-00000000000000000042.scdc");
  EXPECT_LT(checkpoint_filename(9), checkpoint_filename(10));
  EXPECT_LT(checkpoint_filename(99), checkpoint_filename(100));
}

TEST(CheckpointList, NewestFirstIgnoringStrays) {
  const auto dir = fresh_dir("ckpt_list");
  std::filesystem::create_directories(dir);
  for (const std::uint64_t i : {3u, 12u, 7u}) {
    std::ofstream(dir / checkpoint_filename(i)) << "x";
  }
  std::ofstream(dir / "ckpt-00000000000000000099.scdc.tmp") << "x";
  std::ofstream(dir / "notes.txt") << "x";
  const auto files = list_checkpoints(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].filename(), checkpoint_filename(12));
  EXPECT_EQ(files[1].filename(), checkpoint_filename(7));
  EXPECT_EQ(files[2].filename(), checkpoint_filename(3));
}

TEST(CheckpointList, MissingDirectoryIsEmpty) {
  EXPECT_TRUE(list_checkpoints(fresh_dir("ckpt_nodir")).empty());
}

TEST(CheckpointWriterTest, DueFollowsCadence) {
  CheckpointWriterOptions options;
  options.directory = fresh_dir("ckpt_due");
  options.every = 3;
  options.metrics = false;
  const CheckpointWriter writer(options, small_config());
  EXPECT_FALSE(writer.due(0));
  EXPECT_FALSE(writer.due(1));
  EXPECT_TRUE(writer.due(3));
  EXPECT_FALSE(writer.due(4));
  EXPECT_TRUE(writer.due(6));
}

TEST(CheckpointWriterTest, RejectsZeroCadence) {
  CheckpointWriterOptions options;
  options.directory = fresh_dir("ckpt_zero");
  options.every = 0;
  EXPECT_THROW(CheckpointWriter(options, small_config()),
               std::invalid_argument);
}

TEST(CheckpointWriterTest, RetentionKeepsNewest) {
  CheckpointWriterOptions options;
  options.directory = fresh_dir("ckpt_keep");
  options.keep = 2;
  options.metrics = false;
  CheckpointWriter writer(options, small_config());
  const std::vector<std::uint8_t> state{1, 2, 3};
  for (std::uint64_t i = 1; i <= 5; ++i) {
    writer.write(PayloadKind::kSerial, i, state);
  }
  const auto files = list_checkpoints(options.directory);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].filename(), checkpoint_filename(5));
  EXPECT_EQ(files[1].filename(), checkpoint_filename(4));
}

TEST(ConfigFingerprint, SensitiveToStateAffectingFields) {
  const core::PipelineConfig base = small_config();
  const std::uint64_t fp = core::config_fingerprint(base);
  core::PipelineConfig changed = base;
  changed.threshold = 0.06;
  EXPECT_NE(core::config_fingerprint(changed), fp);
  changed = base;
  changed.k = 128;
  EXPECT_NE(core::config_fingerprint(changed), fp);
  changed = base;
  changed.model.alpha = 0.25;
  EXPECT_NE(core::config_fingerprint(changed), fp);
  changed = base;
  changed.seed = 99;
  EXPECT_NE(core::config_fingerprint(changed), fp);
}

TEST(ConfigFingerprint, IgnoresMetricsFlag) {
  core::PipelineConfig a = small_config();
  core::PipelineConfig b = small_config();
  a.metrics = false;
  b.metrics = true;
  EXPECT_EQ(core::config_fingerprint(a), core::config_fingerprint(b));
}

TEST(SaveState, ThrowsMidInterval) {
  core::ChangeDetectionPipeline pipeline(small_config());
  EXPECT_NO_THROW((void)pipeline.save_state());  // before the first record
  pipeline.add(1, 100.0, 1.0);
  EXPECT_THROW((void)pipeline.save_state(), std::logic_error);
}

TEST(Recover, EmptyDirectoryLeavesPipelineUntouched) {
  core::ChangeDetectionPipeline pipeline(small_config());
  const RecoverResult result = recover(fresh_dir("ckpt_empty"), pipeline);
  EXPECT_FALSE(result.restored);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_FALSE(pipeline.position().started);
}

TEST(Recover, SerialRoundTripResumesIdentically) {
  const core::PipelineConfig config = small_config();
  const auto dir = fresh_dir("ckpt_serial_rt");

  // Reference: one uninterrupted run.
  core::ChangeDetectionPipeline reference(config);
  feed_stream(reference, 0.0, 1e9);
  reference.flush();

  // Checkpointed run that "crashes" after t = 75 s.
  {
    core::ChangeDetectionPipeline pipeline(config);
    CheckpointWriterOptions options;
    options.directory = dir;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    feed_stream(pipeline, 0.0, 75.0);
    // Pipeline destroyed without flush: the crash.
  }
  ASSERT_FALSE(list_checkpoints(dir).empty());

  core::ChangeDetectionPipeline resumed(config);
  const RecoverResult result = recover(dir, resumed);
  ASSERT_TRUE(result.restored);
  EXPECT_EQ(result.skipped, 0u);
  const double resume_s = resumed.position().next_interval_start_s;
  feed_stream(resumed, resume_s, 1e9);
  resumed.flush();

  // Every post-restore report must match the uninterrupted run exactly.
  ASSERT_FALSE(resumed.reports().size() == 0u);
  for (const core::IntervalReport& report : resumed.reports()) {
    ASSERT_LT(report.index, reference.reports().size());
    const core::IntervalReport& expected = reference.reports()[report.index];
    EXPECT_EQ(report.index, expected.index);
    EXPECT_EQ(report.records, expected.records);
    EXPECT_EQ(report.detection_ran, expected.detection_ran);
    EXPECT_EQ(report.estimated_error_f2, expected.estimated_error_f2);
    EXPECT_EQ(report.alarm_threshold, expected.alarm_threshold);
    ASSERT_EQ(report.alarms.size(), expected.alarms.size());
    for (std::size_t i = 0; i < report.alarms.size(); ++i) {
      EXPECT_EQ(report.alarms[i].key, expected.alarms[i].key);
      EXPECT_EQ(report.alarms[i].error, expected.alarms[i].error);
    }
  }
}

TEST(Recover, ParallelRoundTripRestores) {
  const core::PipelineConfig config = small_config();
  ingest::ParallelConfig parallel;
  parallel.workers = 4;
  const auto dir = fresh_dir("ckpt_parallel_rt");
  std::size_t barriers_at_crash = 0;
  {
    ingest::ParallelPipeline pipeline(config, parallel);
    CheckpointWriterOptions options;
    options.directory = dir;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    for (double t = 1.0; t < 75.0; t += 10.0) {
      for (std::uint64_t key = 0; key < 40; ++key) {
        pipeline.add(key, 100.0, t);
      }
    }
    pipeline.flush();
    barriers_at_crash = pipeline.parallel_stats().barriers;
  }
  ASSERT_GT(barriers_at_crash, 0u);
  ASSERT_FALSE(list_checkpoints(dir).empty());

  ingest::ParallelPipeline resumed(config, parallel);
  const RecoverResult result = recover(dir, resumed);
  ASSERT_TRUE(result.restored);
  EXPECT_TRUE(resumed.position().started);
  EXPECT_GT(resumed.position().next_interval_start_s, 0.0);
}

TEST(Recover, ConfigMismatchIsTypedError) {
  const core::PipelineConfig config = small_config();
  const auto dir = fresh_dir("ckpt_mismatch");
  {
    core::ChangeDetectionPipeline pipeline(config);
    CheckpointWriterOptions options;
    options.directory = dir;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    feed_stream(pipeline, 0.0, 45.0);
  }
  core::PipelineConfig other = config;
  other.threshold = 0.5;
  core::ChangeDetectionPipeline pipeline(other);
  try {
    (void)recover(dir, pipeline);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.checkpoint_kind(), CheckpointErrorKind::kConfigMismatch);
  }
}

TEST(Recover, EitherPipelineRestoresTheOthersCheckpoint) {
  // Both pipelines write the serial engine's stream, so a directory written
  // by one recovers into the other, at the same stream position.
  const core::PipelineConfig config = small_config();
  ingest::ParallelConfig parallel;
  parallel.workers = 2;
  const auto serial_dir = fresh_dir("ckpt_cross_serial");
  const auto sharded_dir = fresh_dir("ckpt_cross_sharded");
  CheckpointWriterOptions options;
  options.metrics = false;
  {
    core::ChangeDetectionPipeline pipeline(config);
    options.directory = serial_dir;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    feed_stream(pipeline, 0.0, 45.0);
  }
  {
    ingest::ParallelPipeline pipeline(config, parallel);
    options.directory = sharded_dir;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    for (double t = 1.0; t < 45.0; t += 10.0) {
      for (std::uint64_t key = 0; key < 40; ++key) {
        pipeline.add(key, 100.0 + static_cast<double>(key % 7), t);
      }
    }
  }
  ingest::ParallelPipeline sharded(config, parallel);
  const RecoverResult into_sharded = recover(serial_dir, sharded);
  core::ChangeDetectionPipeline serial(config);
  const RecoverResult into_serial = recover(sharded_dir, serial);
  ASSERT_TRUE(into_sharded.restored);
  ASSERT_TRUE(into_serial.restored);
  EXPECT_EQ(into_sharded.skipped, 0u);
  EXPECT_EQ(into_serial.skipped, 0u);
  EXPECT_EQ(into_sharded.interval_index, into_serial.interval_index);
  EXPECT_EQ(sharded.position().interval_index,
            serial.position().interval_index);
  EXPECT_EQ(sharded.position().next_interval_start_s,
            serial.position().next_interval_start_s);
  EXPECT_EQ(sharded.stats().records, serial.stats().records);
}

}  // namespace
}  // namespace scd::checkpoint
