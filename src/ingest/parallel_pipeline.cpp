#include "ingest/parallel_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/interval_cutter.h"
#include "core/pipeline.h"
#include "core/sketch_binding.h"
#include "ingest/ingest_metrics.h"
#include "ingest/shard_set.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "traffic/flow_record.h"
#include "traffic/key_extract.h"

namespace scd::ingest {

namespace {

/// The serial engine's late-record counter: the front end clamps late
/// records before sharding, so its cutter bumps
/// scd_pipeline_out_of_order_total, and the engine only adds the count each
/// close hands it.
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
        "ingestion (the producer cuts intervals with its own length "
        "generator, which no snapshot carries, so a restore could not resume "
        "the cut)");
  }
  if (pipeline.key_sample_rate < 1.0) {
    throw std::invalid_argument(
        "ParallelConfig: key_sample_rate < 1 is not supported by sharded "
        "ingestion (the serial engine draws the key sample as records "
        "arrive, which the front end's workers bypass); sample keys in the "
        "caller instead");
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
      instruments_ = std::make_unique<IngestInstruments>(
          IngestInstruments::create(
              obs::MetricsRegistry::global(),
              row_worker_count(parallel_.workers, config_.h)));
    }
    const std::size_t queue_chunks = std::max<std::size_t>(
        1, parallel_.queue_capacity / parallel_.batch_size);
    // The workers fill the sketch type the serial engine consumes; the
    // merger delivers every closed interval, in order, to handle_merged
    // (docs/PERFORMANCE.md).
    core::with_sketch_type(
        config_.recovery, config_.key_kind, [&]<typename SketchT>() {
          shards_ = std::make_unique<ShardSet<SketchT>>(
              config_.seed, config_.h, config_.k, parallel_.workers,
              queue_chunks, instruments_.get(),
              parallel_.max_pending_intervals,
              [this](const ShardSetBase::Close& close,
                     core::IntervalBatch& batch) {
                handle_merged(close, batch);
              });
        });
    pending_.reserve(parallel_.batch_size);
  }

  ~Impl() { shards_->stop(); }

  void add(std::uint64_t key, double update, double time_s) {
    if (!std::isfinite(update)) {
      throw std::invalid_argument(
          "ParallelPipeline: update must be finite");
    }
    cutter_.place(time_s, [this] { close_interval(); });
    pending_.push_back({key, update});
    if (pending_.size() >= parallel_.batch_size) flush_chunk();
    ++records_;
  }

  void start_at(double time_s) { cutter_.start_at(time_s); }

  void flush() {
    const core::IntervalCutter::Position& clock = cutter_.position();
    if (!clock.started) return;
    // Close only an interval that holds records, as the serial engine does,
    // so a restored or already flushed pipeline reports no phantom interval.
    // A start_at-anchored interval 0 still closes: a quiet aggregation node
    // ships its empty first interval.
    if (clock.records != 0 || clock.index == 0) close_interval();
    // Wait for the merger to deliver every closed epoch: after drain() the
    // serial stages have ingested all intervals and the merger is idle, so
    // touching serial_ from this thread is ordered (via the drain lock).
    shards_->drain();
    serial_.flush();
  }

  void drain() { shards_->drain(); }

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
    return serial_.save_state();
  }

  void restore_state(const std::vector<std::uint8_t>& bytes) {
    require_boundary("ParallelPipeline::restore_state");
    serial_.restore_state(bytes);
    // The producer's clock resumes where the engine's stopped.
    const core::StreamPosition engine = serial_.position();
    const core::PipelineStats stats = serial_.stats();
    core::IntervalCutter::Position clock;
    clock.started = engine.started;
    clock.start_s = engine.next_interval_start_s;
    clock.len_s = config_.interval_s;
    clock.high_water_s = engine.high_water_s;
    clock.index = engine.interval_index;
    clock.out_of_order = stats.out_of_order_records;
    cutter_.restore(clock);
    records_ = stats.records;
  }

  core::PipelineConfig config_;
  ParallelConfig parallel_;
  core::ChangeDetectionPipeline serial_;
  std::unique_ptr<IngestInstruments> instruments_;
  std::unique_ptr<ShardSetBase> shards_;

 private:
  void flush_chunk() {
    if (pending_.empty()) return;
    shards_->submit(std::move(pending_));
    pending_ = Chunk{};
    pending_.reserve(parallel_.batch_size);
  }

  void close_interval() {
    // The span covers only the epoch stamp, not the delivery: a wide
    // "interval_close_barrier" next to short "ingest_interval" spans reads
    // as producer-side backpressure (max_pending_intervals reached).
    SCD_TRACE_SPAN("interval_close_barrier", "ingest");
    flush_chunk();
    // The close rides the epoch: the merger hands this position back with
    // the epoch's batch. May block on max_pending_intervals; rethrows a
    // pending delivery failure. The cutter's index survives
    // save_state/restore_state, so a restored node keeps numbering where
    // the snapshot left off.
    shards_->close_epoch(cutter_.position());
    cutter_.next();
  }

  /// Merger-thread consumer of one epoch's batch and the close it rode on.
  /// Runs the aggregation-tier ordering contract sequentially: ship
  /// (interval-batch tap) → serial ingest → checkpoint (interval-close
  /// callback) — docs/DISTRIBUTED.md.
  void handle_merged(const ShardSetBase::Close& close,
                     core::IntervalBatch& batch) {
    batch.start_s = close.start_s;
    batch.len_s = close.len_s;
    batch.high_water_s = close.high_water_s;
    // The engine's late count stands at the previous close's; the close
    // carries the count since then.
    batch.out_of_order =
        close.out_of_order - serial_.stats().out_of_order_records;
    // Export tap BEFORE the serial ingest: the shipper must see the batch
    // while it is still intact, and ship-then-ingest-then-checkpoint is the
    // ordering the rejoin protocol relies on (docs/DISTRIBUTED.md).
    if (on_interval_batch_) on_interval_batch_(close.index, batch);
    // The engine adopts the epoch's tables and leaves its zeroed ones in
    // the batch; they go back into the workers' table ring.
    serial_.ingest_interval(std::move(batch));
    // Fires with this interval fully ingested: save_state() from the
    // callback captures serial-equivalent state for the closed interval.
    if (on_interval_close_) {
      on_interval_close_(static_cast<std::size_t>(close.index) + 1);
    }
  }

  /// save_state's boundary rule off the merger thread: no closed interval
  /// still in flight and no record accepted since the last close.
  void require_boundary(const char* caller) const {
    if (shards_->pending_epochs() != 0) {
      throw std::logic_error(
          std::string(caller) +
          ": closed intervals are still in flight; call it from the "
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
  Chunk pending_;                // the producer-side chunk being filled
  std::uint64_t records_ = 0;    // records accepted by add()
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
  return impl_->serial_.position();
}

core::PipelineStats ParallelPipeline::stats() const noexcept {
  return impl_->serial_.stats();
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
