#include "eval/trace_mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "sketch/kary_sketch.h"
#include "traffic/flow_record.h"
#include "traffic/key_extract.h"
#include "traffic/trace_io.h"

namespace scd::eval {

using traffic::TraceError;
using traffic::TraceErrorKind;

MappedTrace::MappedTrace(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(hicpp-vararg)
  if (fd < 0) {
    throw TraceError(TraceErrorKind::kOpenFailed,
                     "cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw TraceError(TraceErrorKind::kOpenFailed,
                     "cannot stat " + path + ": " + std::strerror(err));
  }
  const auto file_len = static_cast<std::size_t>(st.st_size);
  if (file_len < traffic::kTraceHeaderBytes) {
    ::close(fd);
    (void)traffic::check_trace_header({}, file_len, path);  // throws
  }
  void* map = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (map == MAP_FAILED) {
    throw TraceError(TraceErrorKind::kOpenFailed,
                     "cannot mmap " + path + ": " + std::strerror(errno));
  }
  try {
    count_ = traffic::check_trace_header(
        {static_cast<const std::uint8_t*>(map), traffic::kTraceHeaderBytes},
        file_len, path);
  } catch (...) {
    ::munmap(map, file_len);
    throw;
  }
  // Advisory only: tells the kernel to read ahead aggressively and drop
  // pages behind the sweep. A failure changes nothing observable.
  (void)::madvise(map, file_len, MADV_SEQUENTIAL);
  map_ = static_cast<const std::uint8_t*>(map);
  map_len_ = file_len;
}

MappedTrace::~MappedTrace() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_len_);
  }
}

MappedTrace::MappedTrace(MappedTrace&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      count_(std::exchange(other.count_, 0)) {}

MappedTrace& MappedTrace::operator=(MappedTrace&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(const_cast<std::uint8_t*>(map_), map_len_);
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    count_ = std::exchange(other.count_, 0);
  }
  return *this;
}

traffic::FlowRecord MappedTrace::record(std::size_t index) const noexcept {
  return traffic::decode_trace_record(map_ + traffic::kTraceHeaderBytes +
                                      index * traffic::kTraceRecordBytes);
}

void MappedTrace::decode(std::size_t first,
                         std::span<traffic::FlowRecord> out) const noexcept {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = record(first + i);
}

namespace {

/// The slice feed, templated on the hash family exactly like ShardSet: the
/// 32-bit tabulation fast path for IP-derived keys, the CW family for
/// 64-bit address pairs.
template <typename Family>
MmapFeedStats feed_impl(const MappedTrace& trace,
                        core::ChangeDetectionPipeline& pipeline,
                        const MmapFeedOptions& options) {
  using Sketch = sketch::BasicKarySketch<Family>;
  const core::PipelineConfig& config = pipeline.config();
  Sketch sketch(std::make_shared<const Family>(config.seed, config.h),
                config.k);
  std::unordered_set<std::uint64_t> keys;
  MmapFeedStats stats;

  // Mirrors ChangeDetectionPipeline::add's stream position: first record
  // opens interval 0 at its timestamp, regressing records are clamped into
  // the open interval, gaps close empty intervals.
  bool started = false;
  double current_start = 0.0;
  double last_time = 0.0;
  std::uint64_t records_in_interval = 0;

  const auto close_interval = [&] {
    core::IntervalBatch batch;
    batch.start_s = current_start;
    batch.len_s = config.interval_s;
    batch.records = records_in_interval;
    batch.registers.assign(sketch.registers().begin(),
                           sketch.registers().end());
    batch.keys.assign(keys.begin(), keys.end());
    pipeline.ingest_interval(std::move(batch));
    sketch.set_zero();
    keys.clear();
    records_in_interval = 0;
    current_start += config.interval_s;
    ++stats.intervals_closed;
  };

  std::vector<traffic::FlowRecord> raw(options.slice_records);
  std::vector<sketch::Record> staged(options.slice_records);
  const auto apply = [&](std::size_t begin, std::size_t end) {
    if (begin == end) return;
    for (std::size_t i = begin; i < end; ++i) keys.insert(staged[i].key);
    sketch.update_batch(
        std::span<const sketch::Record>(staged.data() + begin, end - begin));
    records_in_interval += end - begin;
    stats.records += end - begin;
  };

  const std::uint64_t total = trace.record_count();
  for (std::uint64_t base = 0; base < total; base += options.slice_records) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(options.slice_records, total - base));
    trace.decode(static_cast<std::size_t>(base), {raw.data(), n});
    std::size_t segment = 0;  // first staged record not yet applied
    for (std::size_t i = 0; i < n; ++i) {
      double t = traffic::record_time_s(raw[i]);
      if (!started) {
        started = true;
        current_start = t;
        last_time = t;
      }
      if (t < last_time) {
        ++stats.out_of_order_records;
        if (t < current_start) t = current_start;
      } else {
        last_time = t;
      }
      if (t >= current_start + config.interval_s) {
        // Boundary inside the slice: flush the staged prefix into the open
        // interval, then close up to the record's interval (closing empty
        // intervals across any quiet gap).
        apply(segment, i);
        segment = i;
        while (t >= current_start + config.interval_s) close_interval();
      }
      staged[i] = {traffic::extract_key(raw[i], config.key_kind),
                   traffic::extract_update(raw[i], config.update_kind)};
    }
    apply(segment, n);
  }
  // End of stream: close the interval in progress, like flush().
  if (started) close_interval();
  return stats;
}

}  // namespace

MmapFeedStats feed_trace(const MappedTrace& trace,
                         core::ChangeDetectionPipeline& pipeline,
                         const MmapFeedOptions& options) {
  if (options.slice_records < 1) {
    throw std::invalid_argument(
        "feed_trace: slice_records must be at least 1");
  }
  if (traffic::key_fits_32bit(pipeline.config().key_kind)) {
    return feed_impl<hash::TabulationHashFamily>(trace, pipeline, options);
  }
  return feed_impl<hash::CwHashFamily>(trace, pipeline, options);
}

}  // namespace scd::eval
