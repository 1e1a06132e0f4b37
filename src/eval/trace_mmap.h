// Zero-copy trace ingest — mmap(2) the binary .scdt trace format.
//
// TraceReader (src/traffic/trace_io.h) pulls one 36-byte record per
// ifstream read into a stack buffer before decoding it. MappedTrace skips
// that copy: the whole file is mapped read-only (madvise SEQUENTIAL so the
// kernel reads ahead and drops pages behind) and each record is decoded in
// place from the mapped bytes.
//
// Validation is traffic::check_trace_header, the same check TraceReader
// runs: every way an on-disk file can lie has a typed traffic::TraceError,
// checked in order (open, header length, magic, version, body length), and
// a file that maps successfully is structurally sound — record_count()
// whole records are present, no trailing garbage. A zero-record trace
// (header only) is valid.
//
// feed_trace() is the per-record feed over the mapping: add_record for
// every record, then flush(). The pipeline's own interval cutter
// (core/interval_cutter.h) therefore decides every boundary, late-record
// clamp and quiet-gap close, so the reports, alarms and PipelineStats equal
// those of any other add_record feed of the same records, in every
// configuration the pipeline accepts (asserted by
// tests/core/interval_cutter_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/pipeline.h"
#include "traffic/flow_record.h"

namespace scd::eval {

/// RAII read-only mapping of one .scdt trace file. Move-only; the mapping
/// (and the records decoded from it) stays valid for the object's lifetime.
class MappedTrace {
 public:
  /// Opens, maps, and validates `path`. Throws traffic::TraceError with the
  /// specific kind on the first violation; on throw nothing stays mapped.
  explicit MappedTrace(const std::string& path);
  ~MappedTrace();
  MappedTrace(MappedTrace&& other) noexcept;
  MappedTrace& operator=(MappedTrace&& other) noexcept;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  /// Records in the trace, from the validated header.
  [[nodiscard]] std::uint64_t record_count() const noexcept { return count_; }
  /// Total mapped bytes (header + records).
  [[nodiscard]] std::size_t size_bytes() const noexcept { return map_len_; }

  /// Decodes record `index` (< record_count()) in place from the mapped
  /// bytes (traffic::decode_trace_record).
  [[nodiscard]] traffic::FlowRecord record(std::size_t index) const noexcept;

 private:
  const std::uint8_t* map_ = nullptr;  // null only after move-out
  std::size_t map_len_ = 0;
  std::uint64_t count_ = 0;
};

/// Feeds every record of the trace into `pipeline` with add_record, in file
/// order, then flush()es it. Late records are counted in the pipeline's
/// PipelineStats::out_of_order_records.
void feed_trace(const MappedTrace& trace,
                core::ChangeDetectionPipeline& pipeline);

}  // namespace scd::eval
