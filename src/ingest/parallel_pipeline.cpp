#include "ingest/parallel_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/random.h"
#include "core/interval_cutter.h"
#include "core/pipeline.h"
#include "core/sketch_binding.h"
#include "ingest/ingest_metrics.h"
#include "ingest/shard_set.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "sketch/serialize.h"
#include "traffic/flow_record.h"
#include "traffic/key_extract.h"

namespace scd::ingest {

namespace {

/// Front-end state stream layout version; bump on any field change. The
/// serial engine's payload is versioned separately inside its own blob.
constexpr std::uint64_t kFrontendStateVersion = 1;

/// The serial engine's late-record counter: late records never reach the
/// engine here (the front end clamps them before sharding), so the front
/// end's cutter feeds the same scd_pipeline_out_of_order_total.
[[nodiscard]] obs::Counter* out_of_order_metric(
    const core::PipelineConfig& config) {
  return config.metrics ? &obs::PipelineInstruments::global().out_of_order
                        : nullptr;
}

}  // namespace

void ParallelConfig::validate(const core::PipelineConfig& pipeline) const {
  if (workers < 1 || workers > 256) {
    throw std::invalid_argument("ParallelConfig: workers must be in [1, 256]");
  }
  if (batch_size < 1) {
    throw std::invalid_argument("ParallelConfig: batch_size must be >= 1");
  }
  if (queue_capacity < batch_size) {
    throw std::invalid_argument(
        "ParallelConfig: queue_capacity must hold at least one batch");
  }
  if (max_pending_intervals < 1 || max_pending_intervals > 64) {
    throw std::invalid_argument(
        "ParallelConfig: max_pending_intervals must be in [1, 64]");
  }
  if (pipeline.randomize_intervals) {
    throw std::invalid_argument(
        "ParallelConfig: randomize_intervals is not supported by sharded "
        "ingestion (the front-end state stream carries no drawn interval "
        "length or length-generator state, so a restore could not resume "
        "the cut)");
  }
  if (pipeline.key_sample_rate < 1.0) {
    throw std::invalid_argument(
        "ParallelConfig: key_sample_rate < 1 would make shard key buffers "
        "depend on record arrival order; sample keys in the caller instead");
  }
}

class ParallelPipeline::Impl {
 public:
  Impl(core::PipelineConfig config, ParallelConfig parallel)
      : config_(std::move(config)),
        parallel_(parallel),
        serial_(config_),  // validates config_ and owns forecast/detect
        cutter_(config_, out_of_order_metric(config_)) {
    parallel_.validate(config_);
    if (config_.metrics) {
      instruments_ = std::make_unique<IngestInstruments>(IngestInstruments::
          create(obs::MetricsRegistry::global(), parallel_.workers));
    }
    const std::size_t queue_chunks = std::max<std::size_t>(
        1, parallel_.queue_capacity / parallel_.batch_size);
    // The workers accumulate the sketch type the serial engine consumes;
    // the merger delivers every closed interval, in order, to handle_merged
    // (docs/PERFORMANCE.md).
    core::with_sketch_type(
        config_.recovery, config_.key_kind, [&]<typename SketchT>() {
          shards_ = std::make_unique<ShardSet<SketchT>>(
              config_.seed, config_.h, config_.k, parallel_.workers,
              queue_chunks, instruments_.get(),
              parallel_.max_pending_intervals,
              [this](const ShardSetBase::Close& close,
                     core::IntervalBatch&& batch) {
                handle_merged(close, std::move(batch));
              });
        });
    pending_.resize(parallel_.workers);
    for (Chunk& chunk : pending_) chunk.reserve(parallel_.batch_size);
  }

  ~Impl() { shards_->stop(); }

  void add(std::uint64_t key, double update, double time_s) {
    if (!std::isfinite(update)) {
      throw std::invalid_argument(
          "ParallelPipeline: update must be finite");
    }
    cutter_.place(time_s, [this] { close_interval(); });
    Chunk& chunk = pending_[shard_of(key)];
    chunk.push_back({key, update});
    if (chunk.size() >= parallel_.batch_size) {
      flush_chunk(shard_of(key));
    }
    ++records_;
  }

  void start_at(double time_s) { cutter_.start_at(time_s); }

  void flush() {
    if (!cutter_.position().started) return;
    close_interval();
    // Wait for the merger to consume every closed epoch: after drain() the
    // serial stages have ingested all intervals and the merger is idle, so
    // touching serial_ from this thread is ordered (via the drain lock).
    shards_->drain();
    serial_.flush();
  }

  void drain() { shards_->drain(); }

  [[nodiscard]] core::PipelineStats stats() const noexcept {
    core::PipelineStats s = serial_.stats();
    s.out_of_order_records += cutter_.position().out_of_order;
    return s;
  }

  [[nodiscard]] ParallelStats parallel_stats() const noexcept {
    ParallelStats s;
    s.records = records_;
    s.out_of_order_records = cutter_.position().out_of_order;
    s.barriers = static_cast<std::size_t>(cutter_.position().index);
    s.backpressure_waits = shards_->backpressure_waits();
    s.shutdown_dropped_records = shards_->dropped_records();
    return s;
  }

  void set_interval_close_callback(std::function<void(std::size_t)> callback) {
    on_interval_close_ = std::move(callback);
  }

  void set_interval_batch_callback(
      std::function<void(std::uint64_t, const core::IntervalBatch&)>
          callback) {
    on_interval_batch_ = std::move(callback);
  }

  [[nodiscard]] std::vector<std::uint8_t> save_state() const {
    if (!shards_->on_merger_thread()) {
      require_boundary("ParallelPipeline::save_state");
    }
    const core::IntervalCutter::Position clock = boundary();
    std::vector<std::uint8_t> bytes;
    common::ByteWriter out(bytes);
    out.u64(kFrontendStateVersion);
    out.u64(clock.started ? 1 : 0);
    out.f64(clock.start_s);
    out.f64(clock.high_water_s);
    // Records accepted before the boundary: every one of them has been
    // ingested by the serial stages (shards drop records only at shutdown).
    out.u64(serial_.stats().records);
    out.u64(clock.out_of_order);
    out.u64(clock.index);
    // Shard sketches are all drained at a boundary and backpressure_waits
    // is a transient liveness counter, so the serial engine blob is the
    // only nested payload.
    const std::vector<std::uint8_t> serial = serial_.save_state();
    out.u64(serial.size());
    out.bytes(serial);
    return bytes;
  }

  void restore_state(const std::vector<std::uint8_t>& bytes) {
    require_boundary("ParallelPipeline::restore_state");
    common::ByteReader in(bytes, "parallel front-end state");
    std::uint64_t records = 0;
    std::uint64_t serial_size = 0;
    core::IntervalCutter::Position clock;
    clock.len_s = config_.interval_s;
    try {
      const std::uint64_t version = in.u64();
      if (version != kFrontendStateVersion) {
        throw sketch::SerializeError(
            sketch::SerializeErrorKind::kBadVersion,
            "parallel front-end state version " + std::to_string(version) +
                " is not the supported version " +
                std::to_string(kFrontendStateVersion));
      }
      clock.started = in.u64() != 0;
      clock.start_s = in.f64();
      clock.high_water_s = in.f64();
      records = in.u64();
      clock.out_of_order = in.u64();
      clock.index = in.u64();
      serial_size = in.u64();
    } catch (const common::TruncatedError& e) {
      throw sketch::SerializeError(sketch::SerializeErrorKind::kTruncated,
                                   e.what());
    }
    if (in.remaining() < serial_size) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kTruncated,
          "parallel front-end state ends inside the serial engine blob");
    }
    if (in.remaining() > serial_size) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kTrailingBytes,
          "parallel front-end state has trailing bytes after the serial "
          "engine blob");
    }
    const auto serial = in.bytes(in.remaining());
    serial_.restore_state({serial.begin(), serial.end()});
    cutter_.restore(clock);
    records_ = records;
  }

  [[nodiscard]] core::StreamPosition position() const noexcept {
    core::StreamPosition p = serial_.position();
    const core::IntervalCutter::Position clock = boundary();
    p.started = clock.started;
    p.next_interval_start_s = clock.start_s;
    p.high_water_s = std::max(p.high_water_s, clock.high_water_s);
    return p;
  }

  core::PipelineConfig config_;
  ParallelConfig parallel_;
  core::ChangeDetectionPipeline serial_;
  std::unique_ptr<IngestInstruments> instruments_;
  std::unique_ptr<ShardSetBase> shards_;

 private:
  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const noexcept {
    // Fixed key->shard routing: deterministic shard contents regardless of
    // thread scheduling, and disjoint per-shard key buffers.
    return static_cast<std::size_t>(common::mix64(key) % parallel_.workers);
  }

  void flush_chunk(std::size_t shard) {
    if (pending_[shard].empty()) return;
    shards_->submit(shard, std::move(pending_[shard]));
    pending_[shard] = Chunk{};
    pending_[shard].reserve(parallel_.batch_size);
  }

  void close_interval() {
    // The span covers only the epoch stamp, not the merge: a wide
    // "interval_close_barrier" next to a short "barrier_combine" reads as
    // producer-side backpressure (max_pending_intervals reached).
    SCD_TRACE_SPAN("interval_close_barrier", "ingest");
    for (std::size_t i = 0; i < pending_.size(); ++i) flush_chunk(i);
    // The close rides the epoch: the merger hands this position back with
    // the merged batch. May block on max_pending_intervals; rethrows a
    // pending merge failure. The cutter's index survives
    // save_state/restore_state, so a restored node keeps numbering where
    // the snapshot left off.
    shards_->close_epoch(cutter_.position());
    cutter_.next();
  }

  /// Merger-thread consumer of one merged epoch and the close it rode on.
  /// Runs the aggregation-tier ordering contract sequentially: ship
  /// (interval-batch tap) → serial ingest → checkpoint (interval-close
  /// callback) — docs/DISTRIBUTED.md.
  void handle_merged(const ShardSetBase::Close& close,
                     core::IntervalBatch&& batch) {
    batch.start_s = close.start_s;
    batch.len_s = close.len_s;
    // Read by save_state()/position() re-entered from the callbacks below.
    delivering_ = close;
    // Export tap BEFORE the serial ingest: the shipper must see the batch
    // while it is still intact, and ship-then-ingest-then-checkpoint is the
    // ordering the rejoin protocol relies on (docs/DISTRIBUTED.md).
    if (on_interval_batch_) on_interval_batch_(close.index, batch);
    // The engine adopts the merged tables and leaves its zeroed ones in
    // the batch; they go back to the shards for the next merge.
    serial_.ingest_interval(std::move(batch));
    // NOLINTNEXTLINE(bugprone-use-after-move): swapped, not moved from.
    shards_->recycle(std::move(batch));
    // Fires with this interval fully ingested: save_state() from the
    // callback captures serial-equivalent state for the closed interval.
    if (on_interval_close_) {
      on_interval_close_(static_cast<std::size_t>(close.index) + 1);
    }
  }

  /// The interval boundary save_state() and position() describe. Inside an
  /// interval callback (merger thread) it is the end of the interval being
  /// delivered — exactly what a synchronous close would have left, even
  /// though the producer may already be filling later epochs. Anywhere else
  /// it is the producer's cutter.
  [[nodiscard]] core::IntervalCutter::Position boundary() const noexcept {
    if (!shards_->on_merger_thread()) return cutter_.position();
    core::IntervalCutter::Position next = delivering_;
    next.start_s = next.end_s();
    ++next.index;
    next.records = 0;
    return next;
  }

  /// save_state's boundary rule off the merger thread: no closed interval
  /// still merging and no record accepted since the last close.
  void require_boundary(const char* caller) const {
    if (shards_->pending_epochs() != 0) {
      throw std::logic_error(
          std::string(caller) +
          ": closed intervals are still being merged; call it from the "
          "interval-close callback or after flush()");
    }
    if (cutter_.position().records != 0) {
      throw std::logic_error(
          std::string(caller) +
          ": records accepted since the last interval close; call it from "
          "the interval-close callback or after flush()");
    }
  }

  core::IntervalCutter cutter_;  // producer-side stream clock
  std::vector<Chunk> pending_;   // per-shard producer-side batches
  std::uint64_t records_ = 0;    // records accepted by add()
  // Merger thread only: the close whose callbacks are running.
  core::IntervalCutter::Position delivering_;
  std::function<void(std::size_t)> on_interval_close_;
  std::function<void(std::uint64_t, const core::IntervalBatch&)>
      on_interval_batch_;
};

ParallelPipeline::ParallelPipeline(core::PipelineConfig config,
                                   ParallelConfig parallel)
    : impl_(std::make_unique<Impl>(std::move(config), parallel)) {}

ParallelPipeline::~ParallelPipeline() = default;
ParallelPipeline::ParallelPipeline(ParallelPipeline&&) noexcept = default;
ParallelPipeline& ParallelPipeline::operator=(ParallelPipeline&&) noexcept =
    default;

void ParallelPipeline::add(std::uint64_t key, double update, double time_s) {
  impl_->add(key, update, time_s);
}

void ParallelPipeline::add_record(const traffic::FlowRecord& record) {
  add(traffic::extract_key(record, impl_->config_.key_kind),
      traffic::extract_update(record, impl_->config_.update_kind),
      traffic::record_time_s(record));
}

void ParallelPipeline::start_at(double time_s) { impl_->start_at(time_s); }

void ParallelPipeline::flush() { impl_->flush(); }

void ParallelPipeline::drain() { impl_->drain(); }

const std::vector<core::IntervalReport>& ParallelPipeline::reports()
    const noexcept {
  return impl_->serial_.reports();
}

void ParallelPipeline::set_report_callback(
    std::function<void(const core::IntervalReport&)> callback) {
  impl_->serial_.set_report_callback(std::move(callback));
}

void ParallelPipeline::set_alarm_provenance_callback(
    std::function<void(const detect::AlarmProvenance&)> callback) {
  impl_->serial_.set_alarm_provenance_callback(std::move(callback));
}

void ParallelPipeline::set_interval_close_callback(
    std::function<void(std::size_t)> callback) {
  impl_->set_interval_close_callback(std::move(callback));
}

void ParallelPipeline::set_interval_batch_callback(
    std::function<void(std::uint64_t, const core::IntervalBatch&)> callback) {
  impl_->set_interval_batch_callback(std::move(callback));
}

std::vector<std::uint8_t> ParallelPipeline::save_state() const {
  return impl_->save_state();
}

void ParallelPipeline::restore_state(const std::vector<std::uint8_t>& bytes) {
  impl_->restore_state(bytes);
}

core::StreamPosition ParallelPipeline::position() const noexcept {
  return impl_->position();
}

core::PipelineStats ParallelPipeline::stats() const noexcept {
  return impl_->stats();
}

ParallelStats ParallelPipeline::parallel_stats() const noexcept {
  return impl_->parallel_stats();
}

const core::PipelineConfig& ParallelPipeline::config() const noexcept {
  return impl_->config_;
}

const ParallelConfig& ParallelPipeline::parallel_config() const noexcept {
  return impl_->parallel_;
}

const forecast::ModelConfig& ParallelPipeline::active_model() const noexcept {
  return impl_->serial_.active_model();
}

}  // namespace scd::ingest
