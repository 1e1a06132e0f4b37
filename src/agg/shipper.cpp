#include "agg/shipper.h"

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "net/net_metrics.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "sketch/kary_sketch.h"
#include "sketch/serialize.h"
#include "traffic/key_extract.h"

namespace scd::agg {

Shipper::Shipper(ShipperConfig config) : config_(std::move(config)) {}

std::uint64_t Shipper::connect(const core::PipelineConfig& pipeline) {
  if (!traffic::key_fits_32bit(pipeline.key_kind)) {
    throw net::WireError(
        net::WireErrorKind::kBadPayload,
        "the wire format ships 32-bit tabulation sketch packets; this "
        "pipeline's key kind needs the 64-bit sketch and cannot be shipped");
  }
  pipeline_ = pipeline;
  fingerprint_ = core::config_fingerprint(pipeline_);
  family_ = registry_.tabulation(pipeline_.seed, pipeline_.h);
  sock_ = net::Socket::connect_tcp(config_.host, config_.port);
  if (config_.ack_timeout_s > 0) sock_.set_recv_timeout(config_.ack_timeout_s);
  const net::Frame reply =
      send_and_await(net::MessageType::kHello, next_to_ship_, {});
  if (reply.header.type == net::MessageType::kBye) {
    bye();
    throw net::WireError(
        net::WireErrorKind::kBadPayload,
        "aggregator refused the handshake (unknown node id " +
            std::to_string(config_.node_id) +
            " or mismatched config fingerprint)");
  }
  if (reply.header.type != net::MessageType::kHelloAck) {
    throw net::WireError(net::WireErrorKind::kBadType,
                         "expected HelloAck, got " +
                             std::string(net::message_type_name(
                                 reply.header.type)));
  }
  // The rejoin contract: the aggregator tells us where to resume. Intervals
  // below this are already integrated and will be skipped by ship().
  next_to_ship_ = reply.header.interval_index;
  return next_to_ship_;
}

bool Shipper::ship(std::uint64_t interval_index,
                   const core::IntervalBatch& batch) {
  if (interval_index < next_to_ship_) {
    ++skipped_;
    return false;
  }
  net::IntervalPayload payload;
  payload.start_s = batch.start_s;
  payload.len_s = batch.len_s;
  payload.records = batch.records;
  payload.keys = batch.keys;
  // Rebuild the interval's observed sketch around the shared family so the
  // packet carries the (kind, seed, rows) the aggregator's registry resolves
  // to the identical hash functions — the COMBINE-compatibility contract.
  sketch::KarySketch sketch(family_, pipeline_.k);
  sketch.load_registers(batch.registers);
  payload.sketch_packet = sketch::sketch_to_bytes(sketch);
  const std::vector<std::uint8_t> bytes =
      net::encode_interval_payload(payload);
  const net::Frame reply =
      send_and_await(net::MessageType::kIntervalData, interval_index, bytes);
  if (reply.header.type == net::MessageType::kBye) {
    bye();
    throw net::WireError(net::WireErrorKind::kBadPayload,
                         "aggregator refused interval " +
                             std::to_string(interval_index));
  }
  if (reply.header.type != net::MessageType::kAck ||
      reply.header.interval_index != interval_index) {
    throw net::WireError(net::WireErrorKind::kBadType,
                         "expected Ack for interval " +
                             std::to_string(interval_index));
  }
  next_to_ship_ = interval_index + 1;
  return true;
}

void Shipper::attach(ingest::ParallelPipeline& pipeline) {
  pipeline.set_interval_batch_callback(
      [this](std::uint64_t interval_index, const core::IntervalBatch& batch) {
        ship(interval_index, batch);
      });
  attached_ = &pipeline;
}

void Shipper::detach() noexcept {
  if (attached_ == nullptr) return;
  try {
    // Ship every interval already closed, then uninstall. drain() returns
    // with the merger idle and no epoch can close while this (producer)
    // thread is here, so clearing the callback cannot race a delivery.
    attached_->drain();
  } catch (...) {
    // A ship/merge failure is already parked in the pipeline and rethrows
    // from its next add()/flush(); detaching must still complete.
  }
  attached_->set_interval_batch_callback(nullptr);
  attached_ = nullptr;
}

Shipper::~Shipper() { detach(); }

void Shipper::bye() noexcept {
  if (!sock_.valid()) return;
  try {
    net::FrameHeader header;
    header.type = net::MessageType::kBye;
    header.node_id = config_.node_id;
    header.config_fingerprint = fingerprint_;
    sock_.send_all(net::encode_frame(header, {}));
  } catch (...) {
    // Best effort: the aggregator treats a vanished connection the same way.
  }
  sock_.close();
}

net::Frame Shipper::send_and_await(net::MessageType type,
                                   std::uint64_t interval_index,
                                   std::span<const std::uint8_t> payload) {
  net::FrameHeader header;
  header.type = type;
  header.node_id = config_.node_id;
  header.interval_index = interval_index;
  header.config_fingerprint = fingerprint_;
  const std::vector<std::uint8_t> bytes = net::encode_frame(header, payload);
  sock_.send_all(bytes);
  if (pipeline_.metrics) {
    net::NetInstruments::global().frames_sent.inc();
    net::NetInstruments::global().bytes_sent.inc(bytes.size());
  }
  std::uint8_t buf[4096];
  for (;;) {
    if (std::optional<net::Frame> frame = reader_.next()) {
      if (pipeline_.metrics) net::NetInstruments::global().frames_received.inc();
      return *std::move(frame);
    }
    const std::size_t n = sock_.recv_some(buf, sizeof(buf));
    if (n == 0) {
      throw net::WireError(net::WireErrorKind::kIo,
                           "aggregator closed the connection while a reply "
                           "was pending");
    }
    if (pipeline_.metrics) net::NetInstruments::global().bytes_received.inc(n);
    reader_.feed({buf, n});
  }
}

}  // namespace scd::agg
