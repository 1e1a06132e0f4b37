// Corrupt-checkpoint corpus: every class of on-disk damage — truncation at
// each section boundary, flipped bits in header and payload, a stale
// version field, foreign magic, trailing garbage — must surface as a typed
// skip (never a misload), and recover() must fall back to the newest older
// checkpoint that still verifies.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checkpoint/checkpoint_metrics.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "obs/metrics.h"
#include "sketch/serialize.h"

namespace scd::checkpoint {
namespace {

core::PipelineConfig corpus_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 64;
  config.model.kind = forecast::ModelKind::kEwma;
  config.metrics = false;
  return config;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Captures SCD_WARN lines so the skip *reason* is assertable.
class LogCapture {
 public:
  LogCapture() {
    common::set_log_sink([this](common::LogLevel, const std::string& line) {
      lines_.push_back(line);
    });
  }
  ~LogCapture() { common::set_log_sink(nullptr); }

  [[nodiscard]] bool contains(const std::string& needle) const {
    for (const std::string& line : lines_) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> lines_;
};

/// A directory with two valid checkpoints; tests corrupt the newer one and
/// expect recovery from the older.
struct Corpus {
  std::filesystem::path dir;
  std::filesystem::path newest;
  std::filesystem::path older;
  std::vector<std::uint8_t> pristine;  // newest file's original bytes

  explicit Corpus(const std::string& name) : dir(fresh_dir(name)) {
    const core::PipelineConfig config = corpus_config();
    core::ChangeDetectionPipeline pipeline(config);
    CheckpointWriterOptions options;
    options.directory = dir;
    options.keep = 10;
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    for (double t = 1.0; t < 65.0; t += 10.0) {
      for (std::uint64_t key = 0; key < 20; ++key) {
        pipeline.add(key, 300.0, t);
      }
    }
    const auto files = list_checkpoints(dir);
    EXPECT_GE(files.size(), 2u);
    newest = files[0];
    older = files[1];
    pristine = read_file(newest);
    EXPECT_GE(pristine.size(), kCheckpointHeaderBytes);
  }
};

/// Corrupts `corpus.newest`, runs recover(), and expects the older file to
/// be restored with exactly one skip whose logged reason mentions `reason`.
void expect_skip_to_previous(const Corpus& corpus, const std::string& label,
                             const std::string& reason) {
  SCOPED_TRACE(label);
  LogCapture capture;
  core::ChangeDetectionPipeline pipeline(corpus_config());
  const RecoverResult result = recover(corpus.dir, pipeline);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.path, corpus.older);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_TRUE(capture.contains(reason))
      << "no skip logged with reason \"" << reason << "\"";
}

TEST(CorruptCheckpoint, TruncationAtEverySectionBoundary) {
  Corpus corpus("corrupt_trunc");
  // Section boundaries of the 48-byte header (magic, version, kind,
  // reserved, fingerprint, interval, payload_len, payload CRC, header CRC),
  // plus mid-payload and one-byte-short-of-complete.
  const std::size_t boundaries[] = {
      0, 1, 4, 8, 12, 16, 24, 32, 40, 44, 47, 48,
      kCheckpointHeaderBytes + (corpus.pristine.size() - 48) / 2,
      corpus.pristine.size() - 1};
  for (const std::size_t cut : boundaries) {
    std::vector<std::uint8_t> bytes = corpus.pristine;
    bytes.resize(cut);
    write_file(corpus.newest, bytes);
    expect_skip_to_previous(corpus, "truncated to " + std::to_string(cut),
                            "[truncated]");
  }
}

TEST(CorruptCheckpoint, BitFlipsAreCaughtByCrcs) {
  Corpus corpus("corrupt_flip");
  // One flip in each header field and several spread through the payload.
  const std::size_t size = corpus.pristine.size();
  const std::size_t offsets[] = {5,  9,  17, 25, 33, 41, 45,
                                 49, 48 + (size - 48) / 3, size - 1};
  for (const std::size_t offset : offsets) {
    std::vector<std::uint8_t> bytes = corpus.pristine;
    bytes[offset] ^= 0x10u;
    write_file(corpus.newest, bytes);
    expect_skip_to_previous(corpus, "bit flip at " + std::to_string(offset),
                            "[bad-crc]");
  }
}

TEST(CorruptCheckpoint, StaleVersionByte) {
  Corpus corpus("corrupt_version");
  std::vector<std::uint8_t> bytes = corpus.pristine;
  bytes[4] = 0x7f;  // version -> 127
  // Recompute the header CRC so *only* the version is wrong — this is what
  // a file from a future/foreign build would look like.
  const std::uint32_t crc = common::crc32(bytes.data(), 44);
  for (int i = 0; i < 4; ++i) {
    bytes[44 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  write_file(corpus.newest, bytes);
  expect_skip_to_previous(corpus, "stale version", "[bad-version]");
}

TEST(CorruptCheckpoint, ForeignMagic) {
  Corpus corpus("corrupt_magic");
  std::vector<std::uint8_t> bytes = corpus.pristine;
  bytes[0] = 'X';
  write_file(corpus.newest, bytes);
  expect_skip_to_previous(corpus, "foreign magic", "[bad-magic]");
}

TEST(CorruptCheckpoint, TrailingGarbage) {
  Corpus corpus("corrupt_trailing");
  std::vector<std::uint8_t> bytes = corpus.pristine;
  bytes.push_back(0xee);
  bytes.push_back(0xee);
  write_file(corpus.newest, bytes);
  expect_skip_to_previous(corpus, "trailing garbage", "[bad-payload]");
}

/// Overwrites the little-endian double at `offset` of a state stream.
std::vector<std::uint8_t> patch_f64(std::vector<std::uint8_t> bytes,
                                    std::size_t offset, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes.at(offset + i) = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return bytes;
}

TEST(CorruptCheckpoint, RestoreRejectsAnInvalidStreamClock) {
  // A CRC-valid snapshot whose stream clock is wrong: a length of zero or
  // below spins the interval cutter forever on the next record, and a
  // non-finite time never closes an interval. The restore must refuse it.
  const core::PipelineConfig config = corpus_config();
  core::ChangeDetectionPipeline source(config);
  for (double t = 1.0; t < 45.0; t += 10.0) {
    for (std::uint64_t key = 0; key < 20; ++key) source.add(key, 300.0, t);
  }
  source.flush();
  const std::vector<std::uint8_t> state = source.save_state();
  // Engine state: version and five config guards (48 bytes), started,
  // then start_s at 56, len_s at 64 and high_water_s at 72.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    std::size_t offset;
    double value;
  } engine_cases[] = {{64, 0.0},  {64, -5.0}, {64, nan}, {64, 7.0},
                      {56, nan},  {56, inf},  {72, nan}, {72, -inf}};
  for (const auto& c : engine_cases) {
    SCOPED_TRACE("offset " + std::to_string(c.offset) + " value " +
                 std::to_string(c.value));
    core::ChangeDetectionPipeline restored(config);
    EXPECT_THROW(restored.restore_state(patch_f64(state, c.offset, c.value)),
                 sketch::SerializeError);
  }
  core::ChangeDetectionPipeline untouched(config);
  EXPECT_NO_THROW(untouched.restore_state(state));

  // The sharded front end restores the same stream into its engine, and
  // refuses the same clocks.
  ingest::ParallelConfig parallel;
  parallel.workers = 2;
  for (const auto& c : engine_cases) {
    SCOPED_TRACE("sharded, offset " + std::to_string(c.offset) + " value " +
                 std::to_string(c.value));
    ingest::ParallelPipeline restored(config, parallel);
    EXPECT_THROW(restored.restore_state(patch_f64(state, c.offset, c.value)),
                 sketch::SerializeError);
  }
  ingest::ParallelPipeline untouched_sharded(config, parallel);
  EXPECT_NO_THROW(untouched_sharded.restore_state(state));
}

TEST(CorruptCheckpoint, RestoreRejectsNonFiniteRegisters) {
  // A CRC-valid snapshot whose sketch registers were patched to NaN or
  // infinity. Accepted, it poisons every later ESTIMATEF2 (each report reads
  // NaN and detection stays dead), so the restore must refuse it as the
  // packet decoder does. EWMA with alpha 1: after two closes the model state
  // is interval 1's sketch, whose only key puts 12345 in one register per
  // row.
  core::PipelineConfig config = corpus_config();
  config.model.alpha = 1.0;
  core::ChangeDetectionPipeline source(config);
  std::vector<std::uint8_t> older;
  std::vector<std::uint8_t> state;
  source.set_interval_close_callback([&](std::size_t closed) {
    if (closed == 1) older = source.save_state();
    if (closed == 2) state = source.save_state();
  });
  for (int t = 0; t < 4; ++t) {
    const double time = 10.0 * t + 1.0;
    if (t == 1) {
      source.add(7, 12345.0, time);
      continue;
    }
    for (std::uint64_t key = 0; key < 20; ++key) source.add(key, 300.0, time);
  }
  ASSERT_FALSE(older.empty());
  ASSERT_FALSE(state.empty());
  std::vector<std::size_t> offsets;
  for (std::size_t at = 0; at + 8 <= state.size(); ++at) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(state[at + i]) << (8 * i);
    }
    if (std::bit_cast<double>(bits) == 12345.0) offsets.push_back(at);
  }
  ASSERT_EQ(offsets.size(), config.h);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> poisoned = state;
  for (const std::size_t at : offsets) poisoned = patch_f64(poisoned, at, nan);
  std::vector<std::vector<std::uint8_t>> cases = {
      poisoned, patch_f64(state, offsets[0], inf),
      patch_f64(state, offsets[0], -inf)};
  ingest::ParallelConfig parallel;
  parallel.workers = 2;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const auto expect_corrupt = [&](auto& pipeline) {
      try {
        pipeline.restore_state(cases[c]);
        ADD_FAILURE() << "restore accepted non-finite registers";
      } catch (const sketch::SerializeError& e) {
        EXPECT_EQ(e.kind(), sketch::SerializeErrorKind::kCorruptRegisters);
      }
    };
    core::ChangeDetectionPipeline serial(config);
    expect_corrupt(serial);
    ingest::ParallelPipeline sharded(config, parallel);
    expect_corrupt(sharded);
  }

  // recover() skips and counts the poisoned file and falls back to the
  // older snapshot.
  const std::filesystem::path dir = fresh_dir("ckpt_nonfinite_registers");
  std::filesystem::create_directories(dir);
  const std::uint64_t fingerprint = core::config_fingerprint(config);
  write_file(dir / checkpoint_filename(1),
             encode_checkpoint_frame(PayloadKind::kSerial, fingerprint, 1,
                                     older));
  write_file(dir / checkpoint_filename(2),
             encode_checkpoint_frame(PayloadKind::kSerial, fingerprint, 2,
                                     poisoned));
  LogCapture capture;
  core::ChangeDetectionPipeline restored(config);
  const RecoverResult result = recover(dir, restored);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.interval_index, 1u);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_TRUE(capture.contains("non-finite register"));
}

TEST(CorruptCheckpoint, RetiredShardedKindIsSkippedAsBadPayload) {
  // Payload kind 2 held the sharded front end's own state stream, which is
  // gone: both pipelines now write the engine stream as kind 1. A kind-2
  // file fails frame validation, and recover() skips and counts it rather
  // than refusing to run.
  core::PipelineConfig config = corpus_config();
  config.metrics = true;  // recover() counts the skip
  const std::filesystem::path dir = fresh_dir("corrupt_retired_kind2");
  std::filesystem::create_directories(dir);
  write_file(dir / checkpoint_filename(4),
             encode_checkpoint_frame(static_cast<PayloadKind>(2),
                                     core::config_fingerprint(config), 4,
                                     {0x01, 0x02, 0x03}));
  try {
    (void)decode_checkpoint_frame(read_file(dir / checkpoint_filename(4)));
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.checkpoint_kind(), CheckpointErrorKind::kBadPayload);
  }
  obs::Counter& skipped = CheckpointInstruments::global().restore_skipped;
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "serial");
    LogCapture capture;
    const std::uint64_t skipped_before = skipped.value();
    RecoverResult result;
    if (sharded) {
      ingest::ParallelPipeline pipeline(config, ingest::ParallelConfig{});
      result = recover(dir, pipeline);
      EXPECT_FALSE(pipeline.position().started);
    } else {
      core::ChangeDetectionPipeline pipeline(config);
      result = recover(dir, pipeline);
      EXPECT_FALSE(pipeline.position().started);
    }
    EXPECT_FALSE(result.restored);
    EXPECT_EQ(result.skipped, 1u);
    EXPECT_EQ(skipped.value() - skipped_before, 1u);
    EXPECT_TRUE(capture.contains("unknown kind 2"));
  }
}

TEST(CheckpointListing, OrdersByNumericIntervalNotLexicographically) {
  const std::filesystem::path dir = fresh_dir("listing_numeric");
  std::filesystem::create_directories(dir);
  // An unpadded name (as a hand-renamed or foreign-tool file would have):
  // lexicographically "ckpt-5..." outranks "ckpt-00...0100...", which once
  // made recovery probe interval 5 before interval 100.
  write_file(dir / "ckpt-5.scdc", {0x01});
  write_file(dir / checkpoint_filename(100), {0x02});
  write_file(dir / checkpoint_filename(99), {0x03});
  const auto files = list_checkpoints(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].filename().string(), checkpoint_filename(100));
  EXPECT_EQ(files[1].filename().string(), checkpoint_filename(99));
  EXPECT_EQ(files[2].filename().string(), "ckpt-5.scdc");
}

TEST(CheckpointListing, DuplicateIntervalTieBreaksOnFilename) {
  const std::filesystem::path dir = fresh_dir("listing_dup");
  std::filesystem::create_directories(dir);
  // Two spellings of interval 7 plus an unparsable name: the listing must be
  // one total order (interval desc, then filename asc, unparsable last) no
  // matter how the directory iterator happens to enumerate them.
  write_file(dir / "ckpt-7.scdc", {0x01});
  write_file(dir / checkpoint_filename(7), {0x02});
  write_file(dir / "ckpt-notanumber.scdc", {0x03});
  write_file(dir / checkpoint_filename(3), {0x04});
  const auto files = list_checkpoints(dir);
  ASSERT_EQ(files.size(), 4u);
  EXPECT_EQ(files[0].filename().string(), checkpoint_filename(7));
  EXPECT_EQ(files[1].filename().string(), "ckpt-7.scdc");
  EXPECT_EQ(files[2].filename().string(), checkpoint_filename(3));
  EXPECT_EQ(files[3].filename().string(), "ckpt-notanumber.scdc");
}

TEST(CorruptCheckpoint, DuplicateIntervalRecoveryIsDeterministic) {
  Corpus corpus("corrupt_dup_interval");
  // Learn the newest snapshot's interval index from a pristine recovery.
  std::uint64_t interval = 0;
  {
    core::ChangeDetectionPipeline pipeline(corpus_config());
    const RecoverResult pristine = recover(corpus.dir, pipeline);
    ASSERT_TRUE(pristine.restored);
    ASSERT_EQ(pristine.path, corpus.newest);
    interval = pristine.interval_index;
  }
  // Add a second, unpadded spelling of the SAME interval (a hand-restored
  // backup). The padded writer-produced name sorts first (filename
  // ascending within the tie), so pristine recovery still picks it...
  const std::filesystem::path duplicate =
      corpus.dir / ("ckpt-" + std::to_string(interval) + ".scdc");
  write_file(duplicate, corpus.pristine);
  {
    core::ChangeDetectionPipeline pipeline(corpus_config());
    const RecoverResult result = recover(corpus.dir, pipeline);
    ASSERT_TRUE(result.restored);
    EXPECT_EQ(result.path, corpus.newest);
    EXPECT_EQ(result.skipped, 0u);
  }
  // ...and when the padded file is damaged, recovery falls back to the
  // duplicate of the same interval — never to an older interval.
  std::vector<std::uint8_t> damaged = corpus.pristine;
  damaged.resize(damaged.size() / 2);
  write_file(corpus.newest, damaged);
  {
    core::ChangeDetectionPipeline pipeline(corpus_config());
    const RecoverResult result = recover(corpus.dir, pipeline);
    ASSERT_TRUE(result.restored);
    EXPECT_EQ(result.path, duplicate);
    EXPECT_EQ(result.interval_index, interval);
    EXPECT_EQ(result.skipped, 1u);
  }
}

TEST(CorruptCheckpoint, AllCandidatesCorruptMeansNoRestore) {
  Corpus corpus("corrupt_all");
  for (const auto& path : list_checkpoints(corpus.dir)) {
    std::vector<std::uint8_t> bytes = read_file(path);
    bytes.resize(bytes.size() / 2);
    write_file(path, bytes);
  }
  LogCapture capture;
  core::ChangeDetectionPipeline pipeline(corpus_config());
  const RecoverResult result = recover(corpus.dir, pipeline);
  EXPECT_FALSE(result.restored);
  EXPECT_GE(result.skipped, 2u);
  EXPECT_FALSE(pipeline.position().started);
}

}  // namespace
}  // namespace scd::checkpoint
