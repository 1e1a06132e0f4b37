// Drives a ShardSet through its one delivery path, the one ParallelPipeline
// uses: the epoch callback copies each batch into a sink and leaves zeroed
// tables behind, as the engine does, and a close waits for the merger with
// close_epoch() + drain().
#pragma once

#include <algorithm>
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
      std::fill(batch.registers.begin(), batch.registers.end(), 0.0);
      std::fill(batch.mv_candidates.begin(), batch.mv_candidates.end(), 0);
      std::fill(batch.mv_votes.begin(), batch.mv_votes.end(), 0.0);
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
