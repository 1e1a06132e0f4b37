// Instruments for the sharded ingestion front-end (src/ingest).
//
// Same model as obs/pipeline_metrics.h: registered once per construction
// against a registry (the process-global one by default), held by stable
// reference afterwards so the worker hot paths never lock or allocate.
// Families:
//   scd_ingest_queue_records          gauge      records queued, summed over
//                                                the worker queues
//   scd_ingest_pending_epochs         gauge      intervals closed but not yet
//                                                delivered (the epoch
//                                                ledger's depth)
//   scd_ingest_backpressure_total     counter    pushes that had to block
//   scd_ingest_shard_apply_seconds    histogram  one chunk applied to one
//                                                worker's rows, {shard=i}
//   scd_ingest_batch_size             histogram  records per chunk
//   scd_ingest_batch_records_total    counter    records handed to the
//                                                workers
//   scd_ingest_shutdown_dropped_records_total  counter  records lost when
//                                                close() raced a blocked push
#pragma once

#include <cstddef>
#include <vector>

#include "obs/metrics.h"

namespace scd::ingest {

struct IngestInstruments {
  obs::Gauge& queue_records;
  /// Merger lag: closed intervals not yet delivered, set at each close and
  /// after each delivery. Bounded by max_pending_intervals; 0 after flush()
  /// or drain().
  obs::Gauge& pending_epochs;
  obs::Counter& backpressure_waits;
  /// Chunk sizes flowing through the batched-UPDATE path, in records —
  /// how much hash batching and per-row sweeping each chunk amortizes over.
  obs::Histogram& batch_size;
  /// Total records handed to the workers, each of which applies every
  /// record to its rows with BasicKarySketch::update_rows.
  obs::Counter& batch_records;
  /// Records discarded because the pipeline shut down while a full-queue
  /// push was still waiting. Always zero in a clean run; nonzero means the
  /// final interval's sketch is missing these records.
  obs::Counter& shutdown_dropped_records;
  /// One histogram per row worker, labelled {shard="0".."W-1"}.
  std::vector<obs::Histogram*> shard_apply_seconds;

  /// Registers (or finds) the bundle for a front-end with `workers` row
  /// workers.
  /// Identical (name, labels) identities across pipelines share instances.
  [[nodiscard]] static IngestInstruments create(obs::MetricsRegistry& registry,
                                                std::size_t workers);
};

}  // namespace scd::ingest
