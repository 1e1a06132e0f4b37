#include "checkpoint/checkpoint.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "checkpoint/checkpoint_metrics.h"
#include "common/atomic_file.h"
#include "common/frame.h"
#include "common/logging.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "sketch/serialize.h"

namespace scd::checkpoint {

const char* checkpoint_error_kind_name(CheckpointErrorKind kind) noexcept {
  switch (kind) {
    case CheckpointErrorKind::kWriteFailed:
      return "write-failed";
    case CheckpointErrorKind::kTruncated:
      return "truncated";
    case CheckpointErrorKind::kBadMagic:
      return "bad-magic";
    case CheckpointErrorKind::kBadVersion:
      return "bad-version";
    case CheckpointErrorKind::kBadCrc:
      return "bad-crc";
    case CheckpointErrorKind::kConfigMismatch:
      return "config-mismatch";
    case CheckpointErrorKind::kBadPayload:
      return "bad-payload";
  }
  return "unknown";
}

namespace {

/// Maps each checkpoint failure onto the closest base SerializeErrorKind so
/// legacy catch sites switching on kind() stay meaningful.
[[nodiscard]] sketch::SerializeErrorKind base_kind(
    CheckpointErrorKind kind) noexcept {
  switch (kind) {
    case CheckpointErrorKind::kWriteFailed:
      return sketch::SerializeErrorKind::kWriteFailed;
    case CheckpointErrorKind::kTruncated:
      return sketch::SerializeErrorKind::kTruncated;
    case CheckpointErrorKind::kBadMagic:
      return sketch::SerializeErrorKind::kBadMagic;
    case CheckpointErrorKind::kBadVersion:
      return sketch::SerializeErrorKind::kBadVersion;
    case CheckpointErrorKind::kBadCrc:
      return sketch::SerializeErrorKind::kCorruptRegisters;
    case CheckpointErrorKind::kConfigMismatch:
      return sketch::SerializeErrorKind::kFamilyMismatch;
    case CheckpointErrorKind::kBadPayload:
      return sketch::SerializeErrorKind::kCorruptRegisters;
  }
  return sketch::SerializeErrorKind::kCorruptRegisters;
}

}  // namespace

CheckpointError::CheckpointError(CheckpointErrorKind kind,
                                 const std::string& message)
    : sketch::SerializeError(
          base_kind(kind), std::string("checkpoint [") +
                               checkpoint_error_kind_name(kind) + "] " +
                               message),
      kind_(kind) {}

// ---------------------------------------------------------------------------
// Real file ops

namespace {

/// Delegates to the shared common/atomic_file.h primitives (the same recipe
/// now also backs flight-recorder dumps), translating their (bool, message)
/// reporting into CheckpointError. Message formats are unchanged:
/// "<op> <path>: <strerror>".
class PosixFileOps final : public FileOps {
 public:
  void write_file_durable(const std::filesystem::path& path,
                          const std::vector<std::uint8_t>& data) override {
    std::string error;
    if (!common::write_file_durable(path, data.data(), data.size(), error)) {
      throw CheckpointError(CheckpointErrorKind::kWriteFailed, error);
    }
  }

  void rename_durable(const std::filesystem::path& from,
                      const std::filesystem::path& to) override {
    std::string error;
    if (!common::rename_durable(from, to, error)) {
      throw CheckpointError(CheckpointErrorKind::kWriteFailed, error);
    }
  }

  void remove_file(const std::filesystem::path& path) noexcept override {
    common::remove_file_quiet(path);
  }
};

// ---------------------------------------------------------------------------
// Frame encode/parse

constexpr common::FrameFormat kFormat{
    .magic = kCheckpointMagic,
    .version = kCheckpointVersion,
    .min_kind = static_cast<std::uint32_t>(PayloadKind::kSerial),
    .max_kind = static_cast<std::uint32_t>(PayloadKind::kSerial),
    .fields = 2,  // config_fingerprint, interval_index
};
static_assert(kFormat.header_bytes() == kCheckpointHeaderBytes);

[[nodiscard]] CheckpointErrorKind checkpoint_kind(
    common::FrameErrorKind kind) noexcept {
  switch (kind) {
    case common::FrameErrorKind::kTruncated:
      return CheckpointErrorKind::kTruncated;
    case common::FrameErrorKind::kBadMagic:
      return CheckpointErrorKind::kBadMagic;
    case common::FrameErrorKind::kBadVersion:
      return CheckpointErrorKind::kBadVersion;
    case common::FrameErrorKind::kBadHeaderCrc:
    case common::FrameErrorKind::kBadPayloadCrc:
      return CheckpointErrorKind::kBadCrc;
    case common::FrameErrorKind::kBadKind:
    case common::FrameErrorKind::kOversized:
    case common::FrameErrorKind::kTrailingBytes:
      return CheckpointErrorKind::kBadPayload;
  }
  return CheckpointErrorKind::kBadPayload;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint_frame(
    PayloadKind kind, std::uint64_t config_fingerprint,
    std::uint64_t interval_index, const std::vector<std::uint8_t>& payload) {
  const std::uint64_t fields[] = {config_fingerprint, interval_index};
  return common::encode_frame(kFormat, static_cast<std::uint32_t>(kind),
                              fields, payload);
}

CheckpointFrame decode_checkpoint_frame(const std::vector<std::uint8_t>& bytes) {
  common::FrameHead head;
  try {
    head = common::parse_frame(kFormat, bytes, common::kNoPayloadCeiling);
  } catch (const common::FrameError& e) {
    throw CheckpointError(checkpoint_kind(e.kind()), e.what());
  }
  CheckpointFrame parsed;
  parsed.kind = static_cast<PayloadKind>(head.kind);
  parsed.config_fingerprint = head.fields[0];
  parsed.interval_index = head.fields[1];
  parsed.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(
                                            kCheckpointHeaderBytes),
                        bytes.end());
  return parsed;
}

namespace {

[[nodiscard]] std::vector<std::uint8_t> read_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "cannot open " + path.string());
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

constexpr const char* kCheckpointPrefix = "ckpt-";
constexpr const char* kCheckpointSuffix = ".scdc";
constexpr const char* kTempSuffix = ".tmp";

}  // namespace

FileOps& real_file_ops() noexcept {
  static PosixFileOps ops;
  return ops;
}

std::string checkpoint_filename(std::uint64_t interval_index) {
  std::string digits = std::to_string(interval_index);
  digits.insert(0, 20 - std::min<std::size_t>(20, digits.size()), '0');
  return kCheckpointPrefix + digits + kCheckpointSuffix;
}

namespace {

/// The interval index encoded in a checkpoint filename, or nullopt when the
/// part between prefix and suffix is not a pure decimal number (hand-renamed
/// files, foreign tools). Writer-produced names are 20-digit zero-padded,
/// but the listing must not ASSUME that: "ckpt-5.scdc" sorted
/// lexicographically lands above "ckpt-00000000000000000100.scdc", which
/// once made recovery order depend on how a file had been (re)named.
[[nodiscard]] std::optional<std::uint64_t> parse_checkpoint_interval(
    const std::string& name) {
  const std::size_t prefix_len = std::string(kCheckpointPrefix).size();
  const std::size_t suffix_len = std::string(kCheckpointSuffix).size();
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  // 20 decimal digits can exceed 2^64 - 1; reject overflow instead of
  // wrapping into a bogus (and possibly "newest") index.
  std::uint64_t value = 0;
  for (const char c : digits) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

std::vector<std::filesystem::path> list_checkpoints(
    const std::filesystem::path& directory) {
  struct Candidate {
    std::filesystem::path path;
    std::string name;
    std::optional<std::uint64_t> interval;
  };
  std::vector<Candidate> found;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(kCheckpointPrefix) &&
        name.ends_with(kCheckpointSuffix)) {
      found.push_back({entry.path(), name, parse_checkpoint_interval(name)});
    }
  }
  // Newest (highest NUMERIC interval) first; names that do not parse sort
  // last. Two files claiming the same interval (e.g. a padded and an
  // unpadded spelling) tie-break on the filename, ascending — a total order
  // independent of directory-iteration order, so recover() probes the same
  // file first on every filesystem.
  std::sort(found.begin(), found.end(),
            [](const Candidate& a, const Candidate& b) {
              const bool a_valid = a.interval.has_value();
              const bool b_valid = b.interval.has_value();
              if (a_valid != b_valid) return a_valid;
              if (a_valid && *a.interval != *b.interval) {
                return *a.interval > *b.interval;
              }
              return a.name < b.name;
            });
  std::vector<std::filesystem::path> out;
  out.reserve(found.size());
  for (Candidate& candidate : found) out.push_back(std::move(candidate.path));
  return out;
}

// ---------------------------------------------------------------------------
// CheckpointWriter

CheckpointWriter::CheckpointWriter(CheckpointWriterOptions options,
                                   const core::PipelineConfig& config)
    : options_(std::move(options)),
      fingerprint_(core::config_fingerprint(config)),
      ops_(options_.file_ops != nullptr ? options_.file_ops
                                        : &real_file_ops()) {
  if (options_.every < 1 || options_.keep < 1) {
    throw std::invalid_argument(
        "CheckpointWriter: every and keep must be >= 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    throw CheckpointError(CheckpointErrorKind::kWriteFailed,
                          "create directory " + options_.directory.string() +
                              ": " + ec.message());
  }
}

bool CheckpointWriter::due(std::size_t intervals_closed) const noexcept {
  return intervals_closed > 0 && intervals_closed % options_.every == 0;
}

std::filesystem::path CheckpointWriter::write(
    PayloadKind kind, std::uint64_t interval_index,
    const std::vector<std::uint8_t>& state) {
  // Only a durable write is observed; a failed one still ends its span.
  double write_s = 0.0;
  obs::ScopedTimer timer(nullptr, &write_s, "checkpoint_write", "checkpoint",
                         interval_index);
  CheckpointInstruments* obs =
      options_.metrics ? &CheckpointInstruments::global() : nullptr;
  const std::filesystem::path final_path =
      options_.directory / checkpoint_filename(interval_index);
  const std::filesystem::path temp_path =
      final_path.string() + kTempSuffix;
  const std::vector<std::uint8_t> framed =
      encode_checkpoint_frame(kind, fingerprint_, interval_index, state);
  try {
    ops_->write_file_durable(temp_path, framed);
    ops_->rename_durable(temp_path, final_path);
  } catch (const std::exception& e) {
    // Leave no temp file behind; the previous checkpoints are untouched.
    ops_->remove_file(temp_path);
    if (obs != nullptr) obs->write_failures.inc();
    // A failing checkpoint is exactly when the recent past matters: capture
    // it before rethrowing (the dump itself runs on the recorder's thread).
    obs::FlightRecorder::notify_checkpoint_error("checkpoint write",
                                                 e.what());
    throw;
  } catch (...) {
    ops_->remove_file(temp_path);
    if (obs != nullptr) obs->write_failures.inc();
    throw;
  }
  prune();
  if (obs != nullptr) {
    obs->snapshots.inc();
    obs->snapshot_bytes.inc(framed.size());
    obs->last_snapshot_bytes.set(static_cast<double>(framed.size()));
    obs->snapshot_seconds.observe(timer.stop());
  }
  return final_path;
}

namespace {

/// Installs `writer`'s snapshot callback on either pipeline: both save the
/// serial engine's state stream.
template <typename Pipeline>
void install(CheckpointWriter& writer, Pipeline& pipeline) {
  pipeline.set_interval_close_callback([&writer, &pipeline](
                                           std::size_t closed) {
    if (!writer.due(closed)) return;
    try {
      (void)writer.write(PayloadKind::kSerial,
                         pipeline.position().interval_index,
                         pipeline.save_state());
    } catch (const std::exception& e) {
      SCD_WARN() << "checkpoint write failed (stream continues): "
                 << e.what();
    }
  });
}

}  // namespace

void CheckpointWriter::attach(core::ChangeDetectionPipeline& pipeline) {
  install(*this, pipeline);
}

void CheckpointWriter::attach(ingest::ParallelPipeline& pipeline) {
  attached_ = &pipeline;
  install(*this, pipeline);
}

void CheckpointWriter::detach() noexcept {
  if (attached_ == nullptr) return;
  try {
    // Write any still-due snapshot, then uninstall. drain() returns with
    // the merger idle and no epoch can close while this (producer) thread
    // is here, so clearing the callback cannot race a delivery.
    attached_->drain();
  } catch (...) {
    // A merge failure is already parked in the pipeline and rethrows from
    // its next add()/flush(); detaching must still complete.
  }
  attached_->set_interval_close_callback(nullptr);
  attached_ = nullptr;
}

CheckpointWriter::~CheckpointWriter() { detach(); }

void CheckpointWriter::prune() noexcept {
  try {
    const std::vector<std::filesystem::path> existing =
        list_checkpoints(options_.directory);
    for (std::size_t i = options_.keep; i < existing.size(); ++i) {
      ops_->remove_file(existing[i]);
    }
    // Stray temp files are always garbage from an interrupted writer.
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(options_.directory, ec)) {
      if (entry.path().extension() == kTempSuffix) {
        ops_->remove_file(entry.path());
      }
    }
  } catch (...) {
    // Retention is best-effort; an unreadable directory entry must not fail
    // a successful snapshot.
  }
}

// ---------------------------------------------------------------------------
// recover()

namespace {

/// Scans newest-first and restores the first checkpoint `pipeline` accepts.
/// Each candidate is restored into a scratch pipeline of the same
/// configuration and moved into place only on success, so a mid-restore
/// throw never leaves `pipeline` half-mutated.
template <typename Pipeline, typename... Extra>
RecoverResult recover_scan(const std::filesystem::path& directory,
                           Pipeline& pipeline, const Extra&... extra) {
  const core::PipelineConfig& config = pipeline.config();
  const std::uint64_t expected_fingerprint =
      core::config_fingerprint(config);
  RecoverResult result;
  CheckpointInstruments* obs =
      config.metrics ? &CheckpointInstruments::global() : nullptr;
  for (const std::filesystem::path& path : list_checkpoints(directory)) {
    try {
      const CheckpointFrame parsed = decode_checkpoint_frame(read_file(path));
      if (parsed.config_fingerprint != expected_fingerprint) {
        throw CheckpointError(
            CheckpointErrorKind::kConfigMismatch,
            path.string() +
                " was written by a pipeline with a different configuration "
                "(fingerprint mismatch); refusing to restore");
      }
      Pipeline scratch(config, extra...);
      scratch.restore_state(parsed.payload);
      pipeline = std::move(scratch);
      result.restored = true;
      result.path = path;
      result.interval_index = parsed.interval_index;
      if (obs != nullptr) obs->restores.inc();
      return result;
    } catch (const CheckpointError& e) {
      if (e.checkpoint_kind() == CheckpointErrorKind::kConfigMismatch) throw;
      SCD_WARN() << "recover: skipping " << path.string() << ": " << e.what();
    } catch (const sketch::SerializeError& e) {
      // Framing verified but the engine rejected the payload — version
      // drift or a corruption the CRC missed. An older checkpoint may
      // still be good.
      SCD_WARN() << "recover: skipping " << path.string() << ": " << e.what();
    }
    ++result.skipped;
    if (obs != nullptr) obs->restore_skipped.inc();
  }
  return result;
}

}  // namespace

RecoverResult recover(const std::filesystem::path& directory,
                      core::ChangeDetectionPipeline& pipeline) {
  return recover_scan(directory, pipeline);
}

RecoverResult recover(const std::filesystem::path& directory,
                      ingest::ParallelPipeline& pipeline) {
  return recover_scan(directory, pipeline, pipeline.parallel_config());
}

}  // namespace scd::checkpoint
