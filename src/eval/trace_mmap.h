// Zero-copy trace ingest — mmap(2) the binary .scdt trace format.
//
// TraceReader (src/traffic/trace_io.h) pulls one 36-byte record per
// ifstream read: a syscall-amortized copy into a stack buffer, a decode,
// and then — on the parallel path — a second copy through the producer's
// chunk staging into a BoundedQueue. At multi-million-records/s that
// per-record motion, not hashing, dominates the feed side. MappedTrace
// removes it: the whole file is mapped read-only (madvise SEQUENTIAL so the
// kernel reads ahead and drops pages behind), records are decoded in place
// from the mapped bytes, and feed_trace() hands 4K-record slices straight
// to BasicKarySketch::update_batch via ChangeDetectionPipeline::
// ingest_interval — no BoundedQueue, no per-record virtual dispatch, one
// decode per record into a reusable scratch buffer.
//
// Validation is traffic::check_trace_header, the same check TraceReader
// runs: every way an on-disk file can lie has a typed traffic::TraceError,
// checked in order (open, header length, magic, version, body length), and
// a file that maps successfully is structurally sound — record_count()
// whole records are present, no trailing garbage. A zero-record trace
// (header only) is valid.
//
// feed_trace() reproduces ChangeDetectionPipeline::add_record's stream
// contract exactly — same interval grid (first record opens interval 0 at
// its timestamp), same out-of-order clamp into the open interval, quiet
// gaps closed as empty intervals — so on the same trace the reports and
// alarms are bit-identical to the per-record feed (asserted by
// tests/eval/trace_mmap_test.cpp). Out-of-order records are counted in the
// returned MmapFeedStats (the batch feed has no per-record stats channel
// into the engine), matching how ParallelPipeline folds its front-end
// counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

  /// Bulk decode of `out.size()` records starting at `first` into caller
  /// scratch — the slice primitive feed_trace() builds on. The range
  /// [first, first + out.size()) must lie within record_count().
  void decode(std::size_t first,
              std::span<traffic::FlowRecord> out) const noexcept;

 private:
  const std::uint8_t* map_ = nullptr;  // null only after move-out
  std::size_t map_len_ = 0;
  std::uint64_t count_ = 0;
};

/// Front-end counters for one feed_trace() run (the engine's own
/// PipelineStats track everything downstream of ingest_interval).
struct MmapFeedStats {
  std::uint64_t records = 0;
  std::uint64_t out_of_order_records = 0;
  std::size_t intervals_closed = 0;
};

struct MmapFeedOptions {
  /// Records decoded and applied per update_batch slice. 4096 matches
  /// BasicKarySketch::kUpdateBlock, so each slice is exactly one
  /// hash-batched row sweep. Must be >= 1.
  std::size_t slice_records = 4096;
};

/// Feeds the whole trace into `pipeline` via the batched interval path and
/// closes the final (possibly partial) interval, like flush(). The pipeline
/// must be freshly positioned (no interval in progress); its config supplies
/// the key/update extraction, interval grid, and sketch geometry. Throws
/// std::invalid_argument on out-of-range options.
MmapFeedStats feed_trace(const MappedTrace& trace,
                         core::ChangeDetectionPipeline& pipeline,
                         const MmapFeedOptions& options = {});

}  // namespace scd::eval
