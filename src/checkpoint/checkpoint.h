// Versioned checkpoint/restore for the change-detection pipelines.
//
// A checkpoint is one file holding a pipeline's complete interval-boundary
// state (core/pipeline.h save_state(): sketches, forecast-model state,
// counters, RNG words). The file is written atomically — serialize to a
// temp file, fsync, rename into place, fsync the directory — and framed
// with CRC32s, so after a crash the directory contains only (a) complete,
// verifiable checkpoints and (b) garbage that verification rejects; never a
// file that loads but lies. recover() scans the directory newest-first,
// skips anything corrupt or truncated (with a logged reason), and restores
// the newest valid snapshot so that all post-restore reports are
// bit-identical to an uninterrupted run.
//
// File layout (little-endian):
//   u32 magic "SCDP" | u32 version | u32 payload_kind | u32 reserved |
//   u64 config_fingerprint | u64 interval_index | u64 payload_len |
//   u32 payload_crc32 | u32 header_crc32          (48-byte header)
//   payload_len bytes of pipeline state
// header_crc32 covers the 44 bytes before it; payload_crc32 covers the
// payload. This is common/frame.h's shared CRC frame (the wire protocol's
// too) with two u64 fields. A restore against a pipeline whose
// config_fingerprint differs — different sketch geometry, model,
// thresholds — is a typed error (kConfigMismatch), never a silent misload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "sketch/serialize.h"

namespace scd::checkpoint {

inline constexpr std::uint32_t kCheckpointMagic = 0x50444353;  // "SCDP" LE
inline constexpr std::uint32_t kCheckpointVersion = 1;
/// Fixed header size in bytes (see file layout above).
inline constexpr std::size_t kCheckpointHeaderBytes = 48;

/// What kind of pipeline state the payload holds. Both pipelines write the
/// serial engine's state stream (kSerial), so a file restores into either
/// at any worker count. Kind 2, a retired sharded front-end stream, fails
/// frame validation (kBadPayload) and recover() skips it.
enum class PayloadKind : std::uint32_t {
  kSerial = 1,
};

/// Why a checkpoint operation failed. Every failure path in this module is
/// typed: recovery logic distinguishes "skip this file, try an older one"
/// (corruption) from "refuse to run" (config mismatch) from "the disk is
/// failing" (write errors).
enum class CheckpointErrorKind {
  kWriteFailed,     ///< I/O failure while writing, fsyncing, or renaming
  kTruncated,       ///< file ends inside the header or payload
  kBadMagic,        ///< leading bytes are not "SCDP"
  kBadVersion,      ///< unknown checkpoint format version
  kBadCrc,          ///< header or payload CRC32 mismatch
  kConfigMismatch,  ///< config fingerprint differs from the restorer
  kBadPayload,      ///< framing verified but the pipeline rejected the state
};

[[nodiscard]] const char* checkpoint_error_kind_name(
    CheckpointErrorKind kind) noexcept;

/// Thrown by every checkpoint failure path. Derives from
/// sketch::SerializeError (the library's serialization error family) so
/// existing catch sites handle checkpoint faults too; new code switches on
/// checkpoint_kind().
class CheckpointError : public sketch::SerializeError {
 public:
  CheckpointError(CheckpointErrorKind kind, const std::string& message);

  [[nodiscard]] CheckpointErrorKind checkpoint_kind() const noexcept {
    return kind_;
  }

 private:
  CheckpointErrorKind kind_;
};

/// The file-system primitives the writer uses, as a seam: production code
/// uses real_file_ops(); tests substitute an ScdFaultInjector
/// (fault_injection.h) to simulate partial writes, torn renames, and bit
/// rot without root or loopback devices.
class FileOps {
 public:
  virtual ~FileOps() = default;

  /// Writes `data` to `path` (create or truncate) and flushes file contents
  /// to stable storage. Throws CheckpointError(kWriteFailed) on failure; the
  /// file may then hold any prefix of `data`.
  virtual void write_file_durable(const std::filesystem::path& path,
                                  const std::vector<std::uint8_t>& data) = 0;

  /// Atomically replaces `to` with `from`, then flushes the parent directory
  /// so the rename itself survives power loss. Throws
  /// CheckpointError(kWriteFailed) on failure.
  virtual void rename_durable(const std::filesystem::path& from,
                              const std::filesystem::path& to) = 0;

  /// Best-effort unlink (cleanup paths must not throw over an ENOENT).
  virtual void remove_file(const std::filesystem::path& path) noexcept = 0;
};

/// The process's real POSIX-backed FileOps.
[[nodiscard]] FileOps& real_file_ops() noexcept;

struct CheckpointWriterOptions {
  std::filesystem::path directory;
  /// Snapshot every N interval closes (>= 1).
  std::size_t every = 1;
  /// Complete checkpoints retained; after each successful write, older
  /// files beyond this count are pruned (>= 1).
  std::size_t keep = 2;
  /// Feed the scd_ckpt_* instruments (docs/OBSERVABILITY.md).
  bool metrics = true;
  /// File-system seam; null means real_file_ops().
  FileOps* file_ops = nullptr;
};

/// Writes atomic checkpoint files named ckpt-<interval, zero-padded>.scdc
/// into a directory, keeping the newest `keep`. One writer owns a directory;
/// concurrent writers into the same directory are not coordinated.
class CheckpointWriter {
 public:
  /// `config` is the pipeline configuration whose fingerprint every written
  /// file carries. Creates the directory if needed (throws
  /// CheckpointError(kWriteFailed) when that fails).
  CheckpointWriter(CheckpointWriterOptions options,
                   const core::PipelineConfig& config);
  /// Detaches from an attached parallel pipeline first (draining its
  /// merger), so a writer destroyed before the pipeline can never be
  /// called into from the merger thread afterwards.
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// True when `intervals_closed` (from the interval-close callback) lands
  /// on the writer's cadence.
  [[nodiscard]] bool due(std::size_t intervals_closed) const noexcept;

  /// Frames `state` (a pipeline save_state() stream) and writes it
  /// atomically. Returns the final path. Throws
  /// CheckpointError(kWriteFailed) on I/O failure — the directory then still
  /// holds the previous checkpoints, never a half-written current one.
  std::filesystem::path write(PayloadKind kind, std::uint64_t interval_index,
                              const std::vector<std::uint8_t>& state);

  /// Installs an interval-close callback on `pipeline` that snapshots every
  /// `options.every` closes. Write failures inside the callback are logged
  /// and counted (scd_ckpt_write_failures_total), not thrown — a full disk
  /// must not kill a live detection stream. The writer must outlive the
  /// pipeline's use of the callback.
  void attach(core::ChangeDetectionPipeline& pipeline);
  /// The parallel overload's callback runs on the pipeline's merger
  /// thread. Either the writer outlives the pipeline, or — when destroyed
  /// first — the pipeline must still be alive so the destructor can drain
  /// and detach.
  void attach(ingest::ParallelPipeline& pipeline);

  /// Drains the attached parallel pipeline's outstanding interval merges
  /// (writing any due checkpoints) and uninstalls the callback. Called
  /// automatically by the destructor; no-op for serial attachments or when
  /// never attached.
  void detach() noexcept;

  [[nodiscard]] const CheckpointWriterOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  void prune() noexcept;

  CheckpointWriterOptions options_;
  std::uint64_t fingerprint_;
  FileOps* ops_;  // never null after construction
  ingest::ParallelPipeline* attached_ = nullptr;
};

/// Outcome of a recover() scan.
struct RecoverResult {
  /// True when a valid checkpoint was restored into the pipeline.
  bool restored = false;
  /// Path of the checkpoint used (empty when !restored).
  std::filesystem::path path;
  /// Interval index the restored snapshot was taken at.
  std::uint64_t interval_index = 0;
  /// Candidate files skipped as corrupt, truncated, or unreadable.
  std::size_t skipped = 0;
};

/// Scans `directory` newest-first and restores the newest valid checkpoint
/// into `pipeline`, which must be freshly constructed (restore precedes
/// set_report_callback — restoring replaces the pipeline wholesale, so
/// callbacks installed earlier would be lost silently).
///
/// Corrupt, truncated or unreadable files are skipped with a logged reason
/// and counted (scd_ckpt_restore_skipped_total); the state is first loaded
/// into a scratch pipeline so a failure mid-restore never leaves `pipeline`
/// half-mutated. A checkpoint whose config fingerprint does not match throws
/// CheckpointError(kConfigMismatch): silently falling back to an older file
/// would mask an operator error. Either pipeline restores a file either
/// wrote. When no valid checkpoint exists, returns restored = false and
/// leaves `pipeline` untouched.
[[nodiscard]] RecoverResult recover(const std::filesystem::path& directory,
                                    core::ChangeDetectionPipeline& pipeline);
[[nodiscard]] RecoverResult recover(const std::filesystem::path& directory,
                                    ingest::ParallelPipeline& pipeline);

/// One decoded checkpoint file: the validated header fields plus the raw
/// (CRC-checked) payload bytes. The payload is still opaque here — restoring
/// it into a pipeline is recover()'s job.
struct CheckpointFrame {
  PayloadKind kind = PayloadKind::kSerial;
  std::uint64_t config_fingerprint = 0;
  std::uint64_t interval_index = 0;
  std::vector<std::uint8_t> payload;
};

/// Parses and validates a whole checkpoint file image: magic, header CRC,
/// version, payload kind, length, and payload CRC, in that order. Throws
/// CheckpointError with the specific kind on the first violation. This is
/// the exact parser recover() runs on untrusted on-disk bytes, exposed so
/// the fuzz harness (fuzz/fuzz_checkpoint.cpp) can drive it directly.
[[nodiscard]] CheckpointFrame decode_checkpoint_frame(
    const std::vector<std::uint8_t>& bytes);

/// Inverse of decode_checkpoint_frame: frames `payload` with a valid header.
/// Exposed for corpus generation and round-trip tests.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint_frame(
    PayloadKind kind, std::uint64_t config_fingerprint,
    std::uint64_t interval_index, const std::vector<std::uint8_t>& payload);

/// Checkpoint file names for `interval_index`: "ckpt-<20-digit index>.scdc".
[[nodiscard]] std::string checkpoint_filename(std::uint64_t interval_index);

/// Lists complete checkpoint files ("ckpt-*.scdc") in `directory`, sorted
/// newest (highest NUMERIC interval) first — the index is parsed from the
/// name rather than compared lexicographically, so an unpadded "ckpt-5.scdc"
/// never outranks interval 100, and two spellings of the same interval
/// tie-break on the filename (ascending) for a total order independent of
/// directory-iteration order. Names whose index does not parse sort last.
/// Missing directory = empty list.
[[nodiscard]] std::vector<std::filesystem::path> list_checkpoints(
    const std::filesystem::path& directory);

}  // namespace scd::checkpoint
