#include "ingest/ingest_metrics.h"

#include <string>

#include "obs/metrics.h"

namespace scd::ingest {

IngestInstruments IngestInstruments::create(obs::MetricsRegistry& registry,
                                            std::size_t workers) {
  IngestInstruments out{
      registry.gauge("scd_ingest_queue_records",
                     "Records currently buffered, summed over the worker "
                     "queues (a chunk counts once per queue)"),
      registry.gauge("scd_ingest_pending_epochs",
                     "Intervals closed but not yet delivered by the sharded "
                     "front end's merger thread"),
      registry.counter("scd_ingest_backpressure_total",
                       "Chunk pushes that blocked on a full worker queue"),
      registry.histogram(
          "scd_ingest_batch_size",
          "Records per chunk applied through the batched sketch UPDATE path",
          {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0}),
      registry.counter(
          "scd_ingest_batch_records_total",
          "Records handed to the row workers, each applying every record "
          "to its rows"),
      registry.counter(
          "scd_ingest_shutdown_dropped_records_total",
          "Records discarded because queue close() raced a blocked push "
          "during shutdown (the final interval is short these records)"),
      {}};
  out.shard_apply_seconds.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    out.shard_apply_seconds.push_back(&registry.histogram(
        "scd_ingest_shard_apply_seconds",
        "Latency of one record chunk applied to a row worker's rows of the "
        "epoch table",
        obs::Histogram::default_latency_buckets(),
        {{"shard", std::to_string(i)}}));
  }
  return out;
}

}  // namespace scd::ingest
