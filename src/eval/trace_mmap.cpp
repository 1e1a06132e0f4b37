#include "eval/trace_mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/pipeline.h"
#include "traffic/flow_record.h"
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

void feed_trace(const MappedTrace& trace,
                core::ChangeDetectionPipeline& pipeline) {
  for (std::uint64_t i = 0; i < trace.record_count(); ++i) {
    pipeline.add_record(trace.record(static_cast<std::size_t>(i)));
  }
  pipeline.flush();
}

}  // namespace scd::eval
