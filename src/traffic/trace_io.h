// Binary trace file format — the repository's stand-in for "netflow dumps"
// (§4.1). Little-endian, fixed-size records:
//
//   header:  magic "SCDT" | u32 version | u64 record_count   (16 bytes)
//   records: timestamp_us u64 | src_ip u32 | dst_ip u32 | src_port u16 |
//            dst_port u16 | protocol u8 | tos u8 | flags u16 | packets u32 |
//            bytes u64                                       (36 bytes)
//
// Records must be appended in nondecreasing timestamp order (asserted by the
// writer), matching how routers emit flow export.
//
// Both readers — TraceReader here and the zero-copy eval::MappedTrace — run
// the same header check (check_trace_header) and the same record decoder
// (decode_trace_record): a file opens only when it holds exactly
// record_count whole records, so a torn or cut-off trace is a typed
// TraceError at open, never a silently short trace.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "traffic/flow_record.h"

namespace scd::traffic {

inline constexpr std::uint32_t kTraceMagic = 0x54444353;  // "SCDT" LE
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::size_t kTraceHeaderBytes = 16;
inline constexpr std::size_t kTraceRecordBytes = 36;

/// Why a trace file was rejected, checked in this order. Callers
/// distinguish "no such file" from "this file is not a trace" from "this
/// trace was cut off or overwritten".
enum class TraceErrorKind {
  kOpenFailed,       ///< open/stat/mmap itself failed
  kTruncatedHeader,  ///< file ends inside the 16-byte header
  kBadMagic,         ///< leading bytes are not "SCDT"
  kBadVersion,       ///< unknown trace format version
  kTruncatedBody,    ///< fewer bytes than record_count whole records
  kTrailingBytes,    ///< file longer than record_count implies
};

[[nodiscard]] const char* trace_error_kind_name(TraceErrorKind kind) noexcept;

/// Thrown by every trace validation failure path of both readers.
class TraceError : public std::runtime_error {
 public:
  TraceError(TraceErrorKind kind, const std::string& message)
      : std::runtime_error(std::string(trace_error_kind_name(kind)) + ": " +
                           message),
        kind_(kind) {}

  [[nodiscard]] TraceErrorKind kind() const noexcept { return kind_; }

 private:
  TraceErrorKind kind_;
};

/// Validates a trace against its total length `file_len`: header length,
/// magic, version, then body length. `header` holds the file's first
/// min(file_len, 16) bytes. Returns record_count.
[[nodiscard]] inline std::uint64_t check_trace_header(
    std::span<const std::uint8_t> header, std::uint64_t file_len,
    const std::string& path) {
  if (file_len < kTraceHeaderBytes || header.size() < kTraceHeaderBytes) {
    throw TraceError(TraceErrorKind::kTruncatedHeader,
                     path + " ends inside the 16-byte trace header (" +
                         std::to_string(file_len) + " bytes)");
  }
  common::ByteReader in(header.first(kTraceHeaderBytes), "trace header");
  if (in.u32() != kTraceMagic) {
    throw TraceError(TraceErrorKind::kBadMagic,
                     path + ": not an SCDT trace file");
  }
  const std::uint32_t version = in.u32();
  if (version != kTraceVersion) {
    throw TraceError(TraceErrorKind::kBadVersion,
                     path + ": trace format version " +
                         std::to_string(version) +
                         " (this build reads version " +
                         std::to_string(kTraceVersion) + ")");
  }
  const std::uint64_t count = in.u64();
  const std::uint64_t whole =
      (file_len - kTraceHeaderBytes) / kTraceRecordBytes;
  if (whole < count) {
    throw TraceError(TraceErrorKind::kTruncatedBody,
                     path + ": header promises " + std::to_string(count) +
                         " records but only " + std::to_string(whole) +
                         " whole records are present");
  }
  const std::uint64_t expected = kTraceHeaderBytes + count * kTraceRecordBytes;
  if (file_len > expected) {
    throw TraceError(TraceErrorKind::kTrailingBytes,
                     path + ": " + std::to_string(file_len - expected) +
                         " bytes after the last of " + std::to_string(count) +
                         " records");
  }
  return count;
}

/// Decodes one 36-byte record. Fields are read little-endian — FlowRecord
/// has alignment padding, so record bytes are never cast.
[[nodiscard]] inline FlowRecord decode_trace_record(
    const std::uint8_t* p) noexcept {
  using common::load_le;
  FlowRecord r;
  r.timestamp_us = load_le<std::uint64_t>(p);
  r.src_ip = load_le<std::uint32_t>(p + 8);
  r.dst_ip = load_le<std::uint32_t>(p + 12);
  r.src_port = load_le<std::uint16_t>(p + 16);
  r.dst_port = load_le<std::uint16_t>(p + 18);
  r.protocol = p[20];
  r.tos = p[21];
  r.flags = load_le<std::uint16_t>(p + 22);
  r.packets = load_le<std::uint32_t>(p + 24);
  r.bytes = load_le<std::uint64_t>(p + 28);
  return r;
}

class TraceWriter {
 public:
  /// Opens (truncates) the file and writes a provisional header. Throws
  /// std::runtime_error on I/O failure.
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const FlowRecord& record);

  /// Patches the record count into the header and closes the file. Called by
  /// the destructor if not called explicitly; call it directly to observe
  /// errors.
  void finish();

  [[nodiscard]] std::uint64_t records_written() const noexcept { return count_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::uint64_t count_ = 0;
  std::uint64_t last_timestamp_ = 0;
  bool finished_ = false;
};

class TraceReader {
 public:
  /// Opens the file and validates it with check_trace_header. Throws
  /// TraceError (a std::runtime_error) with the first violation's kind.
  explicit TraceReader(const std::string& path);

  /// Reads the next record; returns false after record_count() records.
  /// Throws TraceError(kTruncatedBody) if the file shrank since open.
  [[nodiscard]] bool next(FlowRecord& out);

  [[nodiscard]] std::uint64_t record_count() const noexcept { return count_; }

 private:
  std::ifstream in_;
  std::string path_;
  std::uint64_t count_ = 0;
  std::uint64_t read_ = 0;
};

/// Convenience: writes a whole vector as a trace file.
void write_trace(const std::string& path, const std::vector<FlowRecord>& records);

/// Convenience: reads a whole trace file into memory.
[[nodiscard]] std::vector<FlowRecord> read_trace(const std::string& path);

}  // namespace scd::traffic
