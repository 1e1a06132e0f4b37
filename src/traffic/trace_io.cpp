#include "traffic/trace_io.h"

#include <array>
#include <cassert>
#include <stdexcept>

#include "traffic/flow_record.h"

namespace scd::traffic {

const char* trace_error_kind_name(TraceErrorKind kind) noexcept {
  switch (kind) {
    case TraceErrorKind::kOpenFailed: return "open-failed";
    case TraceErrorKind::kTruncatedHeader: return "truncated-header";
    case TraceErrorKind::kBadMagic: return "bad-magic";
    case TraceErrorKind::kBadVersion: return "bad-version";
    case TraceErrorKind::kTruncatedBody: return "truncated-body";
    case TraceErrorKind::kTrailingBytes: return "trailing-bytes";
  }
  return "unknown";
}

namespace {

void encode_record(const FlowRecord& r, std::uint8_t* p) noexcept {
  using common::store_le;
  store_le(p, r.timestamp_us);
  store_le(p + 8, r.src_ip);
  store_le(p + 12, r.dst_ip);
  store_le(p + 16, r.src_port);
  store_le(p + 18, r.dst_port);
  p[20] = r.protocol;
  p[21] = r.tos;
  store_le(p + 22, r.flags);
  store_le(p + 24, r.packets);
  store_le(p + 28, r.bytes);
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (!out_) throw std::runtime_error("TraceWriter: cannot open " + path);
  std::array<std::uint8_t, kTraceHeaderBytes> header{};
  common::store_le(header.data(), kTraceMagic);
  common::store_le(header.data() + 4, kTraceVersion);
  // header[8..16): record_count, patched by finish()
  out_.write(reinterpret_cast<const char*>(header.data()), header.size());
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; errors are observable via explicit finish().
  }
}

void TraceWriter::append(const FlowRecord& record) {
  assert(record.timestamp_us >= last_timestamp_ &&
         "trace records must be time-ordered");
  last_timestamp_ = record.timestamp_us;
  std::array<std::uint8_t, kTraceRecordBytes> buf{};
  encode_record(record, buf.data());
  out_.write(reinterpret_cast<const char*>(buf.data()), buf.size());
  if (!out_) throw std::runtime_error("TraceWriter: write failed on " + path_);
  ++count_;
}

void TraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  out_.seekp(8);  // record_count offset
  std::uint8_t count[8];
  common::store_le(count, count_);
  out_.write(reinterpret_cast<const char*>(count), sizeof(count));
  out_.close();
  if (!out_ && count_ > 0) {
    throw std::runtime_error("TraceWriter: finalize failed on " + path_);
  }
}

TraceReader::TraceReader(const std::string& path)
    : in_(path, std::ios::binary | std::ios::ate), path_(path) {
  if (!in_) {
    throw TraceError(TraceErrorKind::kOpenFailed, "cannot open " + path);
  }
  const std::streamoff file_len = in_.tellg();
  if (file_len < 0) {
    throw TraceError(TraceErrorKind::kOpenFailed, "cannot size " + path);
  }
  in_.seekg(0);
  std::array<std::uint8_t, kTraceHeaderBytes> header{};
  in_.read(reinterpret_cast<char*>(header.data()), header.size());
  count_ = check_trace_header(
      std::span(header).first(static_cast<std::size_t>(in_.gcount())),
      static_cast<std::uint64_t>(file_len), path);
}

bool TraceReader::next(FlowRecord& out) {
  if (read_ >= count_) return false;
  std::array<std::uint8_t, kTraceRecordBytes> buf{};
  in_.read(reinterpret_cast<char*>(buf.data()), buf.size());
  if (!in_) {
    throw TraceError(TraceErrorKind::kTruncatedBody,
                     path_ + " ends inside record " + std::to_string(read_));
  }
  out = decode_trace_record(buf.data());
  ++read_;
  return true;
}

void write_trace(const std::string& path,
                 const std::vector<FlowRecord>& records) {
  TraceWriter writer(path);
  for (const FlowRecord& r : records) writer.append(r);
  writer.finish();
}

std::vector<FlowRecord> read_trace(const std::string& path) {
  TraceReader reader(path);
  std::vector<FlowRecord> records;
  records.reserve(reader.record_count());
  FlowRecord r;
  while (reader.next(r)) records.push_back(r);
  return records;
}

}  // namespace scd::traffic
