// Drives a ShardSet through its one merge path, the one ParallelPipeline
// uses: the merged-batch callback collects into a sink, and a close waits
// for the merger with close_epoch() + drain().
#pragma once

#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "ingest/shard_set.h"

namespace scd::ingest {

/// Collects merged batches in delivery order. Declare it before the
/// ShardSet it feeds, so it outlives the merger thread.
class BatchSink {
 public:
  [[nodiscard]] ShardSetBase::MergedBatchCallback callback() {
    return [this](const ShardSetBase::Close&, core::IntervalBatch&& batch) {
      batches_.push_back(std::move(batch));
    };
  }

  /// Closes `shards`' open epoch and returns its merged batch once the
  /// merger has delivered it.
  [[nodiscard]] core::IntervalBatch close_and_drain(ShardSetBase& shards) {
    shards.close_epoch({});
    shards.drain();
    core::IntervalBatch batch = std::move(batches_.back());
    batches_.pop_back();
    return batch;
  }

 private:
  std::vector<core::IntervalBatch> batches_;
};

}  // namespace scd::ingest
