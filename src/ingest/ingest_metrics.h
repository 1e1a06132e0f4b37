// Instruments for the sharded ingestion front-end (src/ingest).
//
// Same model as obs/pipeline_metrics.h: registered once per construction
// against a registry (the process-global one by default), held by stable
// reference afterwards so the worker hot paths never lock or allocate.
// Families:
//   scd_ingest_queue_records          gauge      records queued across shards
//   scd_ingest_backpressure_total     counter    pushes that had to block
//   scd_ingest_merge_seconds          histogram  one epoch merge (merger
//                                                thread: COMBINE + key
//                                                concat + recycling)
//   scd_ingest_shard_apply_seconds    histogram  one chunk applied, {shard=i}
//   scd_ingest_batch_size             histogram  records per batched UPDATE
//   scd_ingest_batch_records_total    counter    records through update_batch
//   scd_ingest_shutdown_dropped_records_total  counter  records lost when
//                                                close() raced a blocked push
#pragma once

#include <cstddef>
#include <vector>

#include "obs/metrics.h"

namespace scd::ingest {

struct IngestInstruments {
  obs::Gauge& queue_records;
  obs::Counter& backpressure_waits;
  obs::Histogram& merge_seconds;
  /// Chunk sizes flowing through the batched-UPDATE path, in records —
  /// how much hash batching and per-row sweeping each chunk amortizes over.
  obs::Histogram& batch_size;
  /// Total records applied via BasicKarySketch::update_batch.
  obs::Counter& batch_records;
  /// Records discarded because the pipeline shut down while a full-queue
  /// push was still waiting. Always zero in a clean run; nonzero means the
  /// final interval's sketch is missing these records.
  obs::Counter& shutdown_dropped_records;
  /// One histogram per shard worker, labelled {shard="0".."W-1"}.
  std::vector<obs::Histogram*> shard_apply_seconds;

  /// Registers (or finds) the bundle for a front-end with `workers` shards.
  /// Identical (name, labels) identities across pipelines share instances.
  [[nodiscard]] static IngestInstruments create(obs::MetricsRegistry& registry,
                                                std::size_t workers);
};

}  // namespace scd::ingest
