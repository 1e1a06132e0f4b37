// Drives a ShardSet through its one delivery path, the one ParallelPipeline
// uses: the epoch callback copies each batch into a sink and leaves the
// delivered tables behind, not zeroed (the engine leaves an earlier
// interval's), and a close waits for the merger with close_epoch() +
// drain().
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "ingest/shard_set.h"

namespace scd::ingest {

/// Collects delivered batches in delivery order. Declare it before the
/// ShardSet it feeds, so it outlives the merger thread.
class BatchSink {
 public:
  [[nodiscard]] ShardSetBase::MergedBatchCallback callback() {
    return [this](const ShardSetBase::Close&, core::IntervalBatch& batch) {
      batches_.push_back(batch);
    };
  }

  /// Closes `shards`' open epoch, which holds `records` records, and
  /// returns its batch once the merger has delivered it.
  [[nodiscard]] core::IntervalBatch close_and_drain(ShardSetBase& shards,
                                                    std::uint64_t records) {
    ShardSetBase::Close close;
    close.records = records;
    shards.close_epoch(close);
    shards.drain();
    core::IntervalBatch batch = std::move(batches_.back());
    batches_.pop_back();
    return batch;
  }

 private:
  std::vector<core::IntervalBatch> batches_;
};

}  // namespace scd::ingest
