// ParallelPipeline — sharded multi-threaded ingestion in front of the
// unchanged forecast/detect stages (docs/PARALLEL_INGEST.md).
//
// The paper's COMBINE operation (§3.1) makes the observed sketch S_o(t)
// shardable: W workers update private sketches drawn from one shared hash
// family, and at each interval boundary the per-shard sketches are merged
// with an exact linear combination. The serial ChangeDetectionPipeline then
// consumes the merged interval via ingest_interval(), so forecasting,
// thresholding, key replay, hysteresis and online re-fitting all run
// unmodified — the parallel front-end only parallelizes UPDATE, the per-
// record hot path that dominates at line rate.
//
// Interval close is asynchronous (docs/PERFORMANCE.md): closing an interval
// stamps an epoch token through the shard queues and returns; workers
// publish their finished sketches and immediately start the next epoch on a
// pooled sketch, and a dedicated merger thread COMBINE-merges each epoch
// and drives the serial stages — so the producer and the workers never
// stall on the merge. All interval-granularity callbacks (report, alarm
// provenance, interval batch, interval close) therefore run on the merger
// thread, strictly in interval order, never concurrently with each other.
// At most ParallelConfig::max_pending_intervals closed intervals may be
// outstanding before the producer blocks (bounded memory).
//
// Determinism: records are routed to shards by key, each shard queue is
// FIFO with a single producer, the merge folds shards in index order, and
// epochs are merged in order. On the same input the alarm set
// (interval, key) equals the serial pipeline's; register values agree up to
// floating-point addition order within each register (bit-exact when
// updates are integer-valued).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "traffic/flow_record.h"

namespace scd::ingest {

struct ParallelConfig {
  /// Shard workers. One queue, one private sketch and one key buffer each.
  /// More workers than physical cores just adds merge and memory cost.
  std::size_t workers = 4;
  /// Per-shard queue capacity in RECORDS. Full queue = producer blocks
  /// (backpressure, never drop).
  std::size_t queue_capacity = 1 << 16;
  /// Records per producer-side chunk. The queue lock is taken once per
  /// chunk, so the per-record overhead is ~lock_cost / batch_size.
  std::size_t batch_size = 512;
  /// Upper bound on intervals that are closed but not yet merged and
  /// ingested. Closing one more blocks the producer until the merger
  /// catches up — the backpressure that bounds pooled-sketch memory at
  /// (max_pending_intervals + 1) sketch sets. 1 ≈ the old synchronous
  /// barrier; 2 (default) double-buffers a full interval of merge latency.
  std::size_t max_pending_intervals = 2;

  /// Throws std::invalid_argument when out of range or when the pipeline
  /// config asks for what the sharded front end does not support:
  /// randomize_intervals (its state stream has no interval length to
  /// resume from) and key_sample_rate < 1 (shard key buffers would depend
  /// on arrival order).
  void validate(const core::PipelineConfig& pipeline) const;
};

/// Front-end counters, complementing the core PipelineStats.
struct ParallelStats {
  std::uint64_t records = 0;             // records accepted by add()
  std::uint64_t out_of_order_records = 0;
  std::uint64_t backpressure_waits = 0;  // chunk pushes that blocked
  std::size_t barriers = 0;              // interval-close merges
  /// Records lost because shutdown closed a shard queue while a push was
  /// blocked on capacity. Zero in any run that flush()es before destruction.
  std::uint64_t shutdown_dropped_records = 0;
};

class ParallelPipeline {
 public:
  /// Spawns the worker threads immediately. The single-threaded
  /// ChangeDetectionPipeline remains the default everywhere; this wrapper is
  /// opt-in for multi-core ingestion.
  ParallelPipeline(core::PipelineConfig config, ParallelConfig parallel);
  ~ParallelPipeline();
  ParallelPipeline(ParallelPipeline&&) noexcept;
  ParallelPipeline& operator=(ParallelPipeline&&) noexcept;

  /// Same contract as ChangeDetectionPipeline::add — including the
  /// out-of-order clamp — but the sketch UPDATE happens on a shard worker.
  void add(std::uint64_t key, double update, double time_s);
  void add_record(const traffic::FlowRecord& record);

  /// Anchors the interval grid at `time_s` before any record arrives. By
  /// default the first record's timestamp opens interval 0, which is right
  /// for a single vantage point but wrong for the aggregation tier: every
  /// node must cut intervals on the SAME boundaries or their sketches are
  /// not COMBINE-compatible (docs/DISTRIBUTED.md). Records earlier than the
  /// anchor are clamped like any out-of-order record; a quiet node closes
  /// leading empty intervals as time advances. Throws std::logic_error once
  /// the stream has started.
  void start_at(double time_s);

  /// Closes the interval in progress, waits for every outstanding epoch to
  /// be merged and ingested, and flushes the serial stages. Call once at
  /// end of stream. Also the synchronization point for the accessors below:
  /// reports()/stats()/position()/save_state() are safe after flush() (or
  /// from inside an interval callback), not concurrently with merging.
  void flush();

  /// Blocks until every interval closed so far has been merged, ingested,
  /// and had its callbacks run, WITHOUT closing the open interval. After
  /// drain() the merger is idle, so replacing or detaching callbacks is
  /// safe; Shipper and CheckpointWriter drain-and-detach automatically in
  /// their destructors. Rethrows a pending merge/callback failure.
  void drain();

  [[nodiscard]] const std::vector<core::IntervalReport>& reports()
      const noexcept;
  void set_report_callback(
      std::function<void(const core::IntervalReport&)> callback);

  /// Forwards to the serial engine's alarm-provenance hook: one record per
  /// alarm with the full evidence chain (see core pipeline docs). Runs on
  /// the merger thread while the interval's merge is consumed.
  void set_alarm_provenance_callback(
      std::function<void(const detect::AlarmProvenance&)> callback);

  /// Invoked for every closed interval with the 0-based interval index and
  /// the COMBINE-merged batch (registers, distinct keys, record count),
  /// BEFORE the serial stages consume it. This is the export tap of the
  /// aggregation tier: a node-side shipper serializes the batch and ships
  /// it, and because shipping completes before the serial ingest and the
  /// checkpoint callback run, a crash can only ever lose work the
  /// aggregator will see again on replay (dedup by (node, interval) makes
  /// the re-ship harmless — docs/DISTRIBUTED.md). Runs on the merger
  /// thread, in interval order; a throw from the callback fails the stream
  /// (rethrown from the next add()/flush()).
  void set_interval_batch_callback(
      std::function<void(std::uint64_t, const core::IntervalBatch&)> callback);

  /// Invoked once per closed interval, after the merged batch has been
  /// ingested by the serial stages — the point where the pipeline state
  /// visible to save_state() is serial-equivalent for that interval.
  /// Checkpointing layers hook here; the argument is the number of
  /// intervals closed so far. Runs on the merger thread, in interval order.
  /// Distinct from the serial engine's own interval-close callback, which
  /// would fire before the front-end position advanced.
  void set_interval_close_callback(std::function<void(std::size_t)> callback);

  /// Serializes front-end position and counters plus the full serial-engine
  /// snapshot. Only legal at an interval boundary: from the interval-close
  /// callback (where it captures exactly the just-ingested interval's
  /// position, even though the producer may already be filling later
  /// epochs), after flush(), or before the first record. Throws
  /// std::logic_error when records have been accepted since the last close
  /// or closed intervals are still being merged. Worker count and queue
  /// sizing are NOT part of the state — a snapshot restores into a
  /// ParallelPipeline with any ParallelConfig, or even into a plain serial
  /// feed of the same PipelineConfig.
  [[nodiscard]] std::vector<std::uint8_t> save_state() const;

  /// Restores a save_state() stream. Same contract as
  /// ChangeDetectionPipeline::restore_state: the pipeline must be freshly
  /// constructed with the same PipelineConfig, callbacks are installed
  /// after; throws sketch::SerializeError on malformed input or config
  /// mismatch. Applies save_state()'s boundary rule before it touches any
  /// state: throws std::logic_error when records have been accepted since
  /// the last close or closed intervals are still being merged (restoring
  /// under a running merger would pair its in-flight intervals with the
  /// restored clock), and when called from an interval callback.
  void restore_state(const std::vector<std::uint8_t>& bytes);

  /// Current stream position; after restore_state, tells the feeder where
  /// to resume.
  [[nodiscard]] core::StreamPosition position() const noexcept;

  /// Core counters (records, alarms, ...) with out_of_order_records folded
  /// in from the front-end.
  [[nodiscard]] core::PipelineStats stats() const noexcept;
  [[nodiscard]] ParallelStats parallel_stats() const noexcept;

  [[nodiscard]] const core::PipelineConfig& config() const noexcept;
  [[nodiscard]] const ParallelConfig& parallel_config() const noexcept;
  [[nodiscard]] const forecast::ModelConfig& active_model() const noexcept;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace scd::ingest
