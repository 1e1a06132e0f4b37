// ParallelPipeline — multi-threaded ingestion in front of the unchanged
// forecast/detect stages (docs/PARALLEL_INGEST.md).
//
// The paper's H hash rows are independent (§3.1), so the observed sketch
// S_o(t) shards by row: W row workers each own a contiguous range of the
// rows of one shared table and apply every record to those rows, in stream
// order. No worker keeps a sketch of its own and nothing is combined; the
// serial ChangeDetectionPipeline consumes each interval's table via
// ingest_interval(), so forecasting, thresholding, key replay, hysteresis
// and online re-fitting all run unmodified — the front end parallelizes
// UPDATE, the per-record hot path that dominates at line rate.
//
// Interval close is asynchronous (docs/PERFORMANCE.md): closing an interval
// stamps an epoch token through the worker queues and returns; workers
// finish the epoch's rows and move on to the next epoch's table, and a
// dedicated merger thread hands each finished table to the serial stages —
// so the producer and the workers never stall on the close. All
// interval-granularity callbacks (report, alarm provenance, interval batch,
// interval close) therefore run on the merger thread, strictly in interval
// order, never concurrently with each other. At most
// ParallelConfig::max_pending_intervals closed intervals may be outstanding
// before the producer blocks (bounded memory).
//
// Determinism: every register, candidate and vote receives the serial
// pipeline's updates in the serial order, so for any finite updates the
// reports and save_state() bytes equal the serial pipeline's bit for bit,
// at every worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "traffic/flow_record.h"

namespace scd::ingest {

struct ParallelConfig {
  /// Row workers. Each owns one queue and a contiguous range of the H hash
  /// rows (sizes differ by at most one); a value above H runs H workers.
  /// More workers than physical cores just adds hashing and memory traffic.
  std::size_t workers = 4;
  /// Per-worker queue capacity in RECORDS; a chunk is shared by all the
  /// queues, not copied. Full queue = producer blocks (backpressure, never
  /// drop).
  std::size_t queue_capacity = 1 << 16;
  /// Records per producer-side chunk. The queue lock is taken once per
  /// chunk, so the per-record overhead is ~lock_cost / batch_size.
  std::size_t batch_size = 512;
  /// Upper bound on intervals that are closed but not yet delivered and
  /// ingested. Closing one more blocks the producer until the merger
  /// catches up — the backpressure that bounds the front end's tables at
  /// (max_pending_intervals + 2) sketch tables: the epoch ring and the one
  /// being delivered. 1 ≈ a synchronous barrier; 2 (default)
  /// double-buffers a full interval of delivery latency.
  std::size_t max_pending_intervals = 2;

  /// Throws std::invalid_argument when out of range or when the pipeline
  /// config asks for what the sharded front end does not support:
  /// randomize_intervals (the producer's interval-length generator is in no
  /// snapshot, so a restore could not resume the cut) and
  /// key_sample_rate < 1 (the engine draws the key sample per record).
  void validate(const core::PipelineConfig& pipeline) const;
};

/// Front-end counters, complementing the core PipelineStats.
struct ParallelStats {
  std::uint64_t records = 0;             // records accepted by add()
  std::uint64_t out_of_order_records = 0;
  std::uint64_t backpressure_waits = 0;  // chunk pushes that blocked
  std::size_t barriers = 0;              // intervals closed
  /// Records lost because shutdown closed a worker queue while a push was
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
  /// out-of-order clamp — but the sketch UPDATE happens on the row workers.
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

  /// Closes the interval in progress if it holds records (or is interval 0
  /// anchored by start_at), waits for every outstanding epoch to be
  /// delivered and ingested, and flushes the serial stages. Call once at
  /// end of stream. Also the synchronization point for the accessors below:
  /// reports()/stats()/position()/save_state() are safe after flush() (or
  /// from inside an interval callback), not concurrently with delivery.
  void flush();

  /// Blocks until every interval closed so far has been delivered, ingested,
  /// and had its callbacks run, WITHOUT closing the open interval. After
  /// drain() the merger is idle, so replacing or detaching callbacks is
  /// safe; Shipper and CheckpointWriter drain-and-detach automatically in
  /// their destructors. Rethrows a pending delivery/callback failure.
  void drain();

  [[nodiscard]] const std::vector<core::IntervalReport>& reports()
      const noexcept;
  void set_report_callback(
      std::function<void(const core::IntervalReport&)> callback);

  /// Forwards to the serial engine's alarm-provenance hook: one record per
  /// alarm with the full evidence chain (see core pipeline docs). Runs on
  /// the merger thread while the interval's batch is consumed.
  void set_alarm_provenance_callback(
      std::function<void(const detect::AlarmProvenance&)> callback);

  /// Invoked for every closed interval with the 0-based interval index and
  /// its batch (registers, distinct keys, record count, votes),
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

  /// Invoked once per closed interval, after the interval's batch has been
  /// ingested by the serial stages — the point where the pipeline state
  /// visible to save_state() is serial-equivalent for that interval.
  /// Checkpointing layers hook here; the argument is the number of
  /// intervals closed so far. Runs on the merger thread, in interval order.
  /// Distinct from the serial engine's own interval-close callback, which
  /// would fire before the front-end position advanced.
  void set_interval_close_callback(std::function<void(std::size_t)> callback);

  /// The serial engine's own snapshot (ChangeDetectionPipeline::
  /// save_state): the engine holds the stream clock, the late-record count
  /// and the high-water mark, because every close hands them over with the
  /// interval's batch. Only legal at an interval boundary: from the
  /// interval-close callback (where it captures exactly the just-ingested
  /// interval, even though the producer may already be filling later
  /// epochs), after flush(), or before the first record. Throws
  /// std::logic_error when records have been accepted since the last close
  /// or closed intervals are still in flight. Worker count and queue
  /// sizing are NOT part of the state, so a snapshot restores into a
  /// ParallelPipeline with any ParallelConfig or into a
  /// ChangeDetectionPipeline of the same PipelineConfig, and either's
  /// snapshot restores here. A start_at anchor with no interval closed yet
  /// is not in the snapshot: the restored pipeline reports
  /// position().started == false and the caller anchors again.
  [[nodiscard]] std::vector<std::uint8_t> save_state() const;

  /// Restores a save_state() stream into the engine and resumes the
  /// producer's clock from it. Same contract as
  /// ChangeDetectionPipeline::restore_state: the pipeline must be freshly
  /// constructed with the same PipelineConfig, callbacks are installed
  /// after; throws sketch::SerializeError on malformed input or config
  /// mismatch. Applies save_state()'s boundary rule before it touches any
  /// state: throws std::logic_error when records have been accepted since
  /// the last close or closed intervals are still in flight (restoring
  /// under a running merger would pair its in-flight intervals with the
  /// restored clock), and when called from an interval callback.
  void restore_state(const std::vector<std::uint8_t>& bytes);

  /// The serial engine's stream position: the boundary after the last
  /// ingested interval. After restore_state it tells the feeder where to
  /// resume.
  [[nodiscard]] core::StreamPosition position() const noexcept;

  /// The serial engine's counters (records, alarms, late records, ...) as
  /// of the last ingested interval. Inside an interval callback they are
  /// the serial pipeline's counters at the same report; they never read
  /// the producer's state, which may already be intervals ahead.
  [[nodiscard]] core::PipelineStats stats() const noexcept;
  /// The front end's own counters; read them on the thread that feeds
  /// add(), not from an interval callback.
  [[nodiscard]] ParallelStats parallel_stats() const noexcept;

  [[nodiscard]] const core::PipelineConfig& config() const noexcept;
  [[nodiscard]] const ParallelConfig& parallel_config() const noexcept;
  [[nodiscard]] const forecast::ModelConfig& active_model() const noexcept;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace scd::ingest
