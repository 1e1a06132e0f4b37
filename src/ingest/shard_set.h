// Shard workers for parallel ingestion (docs/PARALLEL_INGEST.md).
//
// W workers each own a private k-ary sketch drawn from ONE shared hash
// family — the precondition for COMBINE (§3.1): linear combination is only
// meaningful between sketches with identical hash functions. Records are
// routed to a fixed shard by key, so
//   * each shard's registers accumulate a deterministic subsequence of the
//     stream (single producer per queue, FIFO), and
//   * the per-shard distinct-key buffers are disjoint — concatenating them
//     at the epoch boundary reproduces the serial pipeline's key set exactly.
//
// Interval close is epoch-based and asynchronous (docs/PERFORMANCE.md): the
// producer stamps one epoch-tagged token per queue after the interval's
// records and returns immediately; each worker, on seeing the token,
// publishes its finished sketch and key buffer for that epoch and starts
// the next epoch on a fresh sketch drawn from a shared pool (the merger
// recycles consumed sketches back, so steady state is double-buffered with
// no allocation). A dedicated merger thread waits until all W shards have
// published epoch e, COMBINE-merges the handoffs in shard order, and hands
// the merged IntervalBatch to the owner's callback — epochs are merged and
// delivered strictly in order, off the ingest hot path. Workers therefore
// never stall at an interval boundary; the only producer-side wait is the
// max_outstanding backpressure cap. Sketch linearity makes the merge exact
// — the merged table equals the serial pipeline's table up to
// floating-point addition order within each register, and the fixed shard
// order keeps it bit-identical run to run.
//
// The synchronous barrier_merge() remains for single-epoch callers (tests,
// tools): it closes one epoch and performs the merge inline on the calling
// thread. The two modes share the publish/collect protocol.
//
// Locking contract (docs/CONCURRENCY.md): epoch_mutex_ guards the per-shard
// publish deques and the epoch counters; publish/collect go through the
// SCD_REQUIRES(epoch_mutex_) helpers so a clang -Wthread-safety build
// rejects an unlocked handoff access. pool_mutex_ guards the recycled
// sketch pool and is ordered after epoch_mutex_ (never the reverse). The
// stats counters are relaxed atomics: written by the producer thread,
// readable from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/numa.h"
#include "common/thread_annotations.h"
#include "core/pipeline.h"
#include "ingest/bounded_queue.h"
#include "ingest/ingest_metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "sketch/kary_sketch.h"

namespace scd::ingest {

/// One (key, update) stream item. Alias of the sketch layer's batch-record
/// type so a dequeued chunk feeds BasicKarySketch::update_batch directly.
using Record = sketch::Record;

/// Producer-side batch: the queue is locked once per chunk, not per record.
using Chunk = std::vector<Record>;

struct ShardMessage {
  Chunk records;
  bool barrier = false;
  /// Epoch being closed; meaningful only on barrier tokens. The producer
  /// stamps tokens with consecutive epochs, so each worker's published
  /// handoffs are in epoch order by construction.
  std::uint64_t epoch = 0;
};

/// Type-erased interface so ParallelPipeline can hold either family's shard
/// set behind one pointer (mirroring the core pipeline's engine dispatch).
class ShardSetBase {
 public:
  /// Merged-epoch delivery: (epoch, batch), invoked on the merger thread in
  /// strict epoch order.
  using MergedBatchCallback =
      std::function<void(std::uint64_t, core::IntervalBatch&&)>;

  virtual ~ShardSetBase() = default;
  /// Enqueues a chunk for `shard` (blocking when the queue is full).
  virtual void submit(std::size_t shard, Chunk&& chunk) = 0;
  /// Closes the interval in progress synchronously: barrier, COMBINE-merge,
  /// key concat on the calling thread. All of the interval's chunks must
  /// have been submitted first. Mutually exclusive with the async epoch
  /// mode below.
  [[nodiscard]] virtual core::IntervalBatch barrier_merge() = 0;
  /// Arms asynchronous epoch merging: spawns the merger thread, which
  /// invokes `on_merged` once per closed epoch, in epoch order. At most
  /// `max_outstanding` epochs may be closed-but-unmerged before
  /// close_epoch() blocks (backpressure bound on pooled-sketch memory).
  /// Call once, before any record is submitted.
  virtual void begin_async(MergedBatchCallback on_merged,
                           std::size_t max_outstanding) = 0;
  /// Closes the current epoch without waiting for the merge: stamps one
  /// epoch-tagged token per shard queue and returns. Rethrows a pending
  /// merger failure (a callback throw) on the calling thread.
  virtual void close_epoch() = 0;
  /// Blocks until every closed epoch has been merged and delivered.
  /// Rethrows a pending merger failure.
  virtual void drain() = 0;
  /// Closes all queues and joins the workers (and merger). Idempotent.
  /// Closed-but-unmerged epochs are discarded, like in-flight records.
  virtual void stop() = 0;
  [[nodiscard]] virtual std::size_t workers() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t backpressure_waits() const noexcept = 0;
  /// Records lost because close() raced a blocked push during shutdown.
  /// Nonzero only when the pipeline is destroyed with records in flight.
  [[nodiscard]] virtual std::uint64_t dropped_records() const noexcept = 0;
};

/// Templated on the sketch type (not the hash family) so the parallel path
/// covers every engine the core pipeline can run: plain k-ary (either
/// family) and the invertible majority-vote sketch. Sketches
/// that recover keys from their own state (`recover_heavy_keys`) skip the
/// per-shard distinct-key buffers entirely — that is the single-pass win —
/// and vote-carrying sketches publish their merged candidate/vote arrays
/// through IntervalBatch::mv_candidates / mv_votes.
template <typename SketchT>
class ShardSet final : public ShardSetBase {
 public:
  using Sketch = SketchT;
  using Family = typename SketchT::FamilyType;

  /// The sketch can enumerate heavy keys from its own state, so workers do
  /// not need to collect the interval's distinct keys for replay.
  static constexpr bool kRecovers =
      requires(const SketchT& s) { s.recover_heavy_keys(0.0); };
  /// The sketch carries majority-vote candidate/vote arrays that must ride
  /// along with the merged registers.
  static constexpr bool kHasVoteState =
      requires(const SketchT& s) { s.candidates(); };

  /// `queue_chunks` is the per-shard queue capacity in chunks; `instruments`
  /// may be null (metrics disabled).
  ShardSet(std::uint64_t seed, std::size_t h, std::size_t k,
           std::size_t worker_count, std::size_t queue_chunks,
           IngestInstruments* instruments)
      : family_(std::make_shared<const Family>(seed, h)),
        k_(k),
        instruments_(instruments) {
    shards_.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      shards_.push_back(std::make_unique<Shard>(queue_chunks));
    }
    for (std::size_t i = 0; i < worker_count; ++i) {
      shards_[i]->thread = std::thread([this, i] { run_worker(i); });
    }
  }

  ~ShardSet() override { stop(); }

  void submit(std::size_t shard, Chunk&& chunk) override {
    BoundedQueue<ShardMessage>& queue = shards_[shard]->queue;
    const auto n = static_cast<double>(chunk.size());
    ShardMessage msg{std::move(chunk), false, 0};
    if (instruments_ != nullptr) instruments_->queue_records.add(n);
    if (!queue.try_push(msg)) {
      // mo: stats counter — single producer writes, any thread may read
      // via backpressure_waits(); no ordering ties it to other state.
      backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
      if (instruments_ != nullptr) instruments_->backpressure_waits.inc();
      if (!queue.push(msg)) {
        // Closed mid-shutdown. The chunk is still intact (push leaves its
        // argument alone on failure), so the loss is counted instead of
        // vanishing: every dropped record biases the interval's sketch, and
        // an operator must be able to see that the stream was cut short.
        // mo: stats counter — same single-writer/any-reader contract.
        dropped_records_.fetch_add(msg.records.size(),
                                   std::memory_order_relaxed);
        if (instruments_ != nullptr) {
          instruments_->queue_records.add(-n);
          instruments_->shutdown_dropped_records.inc(msg.records.size());
        }
      }
    }
  }

  core::IntervalBatch barrier_merge() SCD_EXCLUDES(epoch_mutex_) override {
    const std::uint64_t epoch = stamp_epoch_tokens();
    std::vector<EpochHandoff> handoffs;
    {
      common::MutexLock lock(epoch_mutex_);
      while (!epoch_ready_locked()) epoch_cv_.wait(epoch_mutex_);
      handoffs = take_epoch_locked();
      ++epochs_merged_;
    }
    (void)epoch;
    return merge_epoch(std::move(handoffs));
  }

  void begin_async(MergedBatchCallback on_merged,
                   std::size_t max_outstanding) override {
    on_merged_ = std::move(on_merged);
    max_outstanding_ = max_outstanding;
    merger_ = std::thread([this] { run_merger(); });
  }

  void close_epoch() SCD_EXCLUDES(epoch_mutex_) override {
    {
      common::MutexLock lock(epoch_mutex_);
      rethrow_merge_error_locked();
      // Backpressure: bound the closed-but-unmerged window so pooled-sketch
      // memory stays at max_outstanding_ + 1 sketch sets per shard.
      while (epochs_closed_ - epochs_merged_ >= max_outstanding_ &&
             merge_error_ == nullptr) {
        epoch_cv_.wait(epoch_mutex_);
      }
      rethrow_merge_error_locked();
    }
    (void)stamp_epoch_tokens();
  }

  void drain() SCD_EXCLUDES(epoch_mutex_) override {
    common::MutexLock lock(epoch_mutex_);
    while (epochs_merged_ < epochs_closed_ && merge_error_ == nullptr) {
      epoch_cv_.wait(epoch_mutex_);
    }
    rethrow_merge_error_locked();
  }

  void stop() SCD_EXCLUDES(epoch_mutex_) override {
    // Order matters: close the queues and join the workers FIRST, so every
    // epoch token already in flight is consumed and its handoff published
    // (close() lets consumers drain remaining items). Only then tell the
    // merger to finish — it merges and delivers every fully-published
    // epoch before exiting, preserving the synchronous-close guarantee
    // that a closed interval is never silently lost: an unflushed
    // destructor drops only records of the still-open interval.
    for (auto& shard : shards_) shard->queue.close();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
    {
      common::MutexLock lock(epoch_mutex_);
      stopping_ = true;
    }
    epoch_cv_.notify_all();
    if (merger_.joinable()) merger_.join();
  }

  [[nodiscard]] std::size_t workers() const noexcept override {
    return shards_.size();
  }
  [[nodiscard]] std::uint64_t backpressure_waits() const noexcept override {
    // mo: stats read — a point-in-time sample, no ordering required.
    return backpressure_waits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_records() const noexcept override {
    // mo: stats read — a point-in-time sample, no ordering required.
    return dropped_records_.load(std::memory_order_relaxed);
  }

 private:
  /// One finished epoch from one shard: the worker's parked sketch, the
  /// interval's distinct keys, and the record count.
  struct EpochHandoff {
    std::uint64_t epoch = 0;
    std::optional<Sketch> sketch;
    std::vector<std::uint64_t> keys;
    std::uint64_t records = 0;
  };

  struct Shard {
    explicit Shard(std::size_t queue_chunks) : queue(queue_chunks) {}
    BoundedQueue<ShardMessage> queue;
    // Published epochs, oldest first: appended by the worker, drained in
    // epoch order by the merger (or a barrier_merge caller), both under
    // the owning ShardSet's epoch_mutex_ (a nested struct cannot name the
    // outer instance's mutex in an attribute, so the SCD_REQUIRES helpers
    // below carry the contract).
    std::deque<EpochHandoff> published;
    std::thread thread;
  };

  /// Stamps one epoch-tagged barrier token per shard queue and advances the
  /// closed-epoch counter. Producer thread only.
  std::uint64_t stamp_epoch_tokens() SCD_EXCLUDES(epoch_mutex_) {
    std::uint64_t epoch = 0;
    {
      common::MutexLock lock(epoch_mutex_);
      epoch = epochs_closed_++;
    }
    for (auto& shard : shards_) {
      ShardMessage token{{}, true, epoch};
      shard->queue.push(token);
    }
    return epoch;
  }

  /// Worker side of the epoch close: parks the finished interval's sketch
  /// and key set at the back of the shard's publish deque.
  void publish_handoff_locked(Shard& shard, EpochHandoff&& handoff)
      SCD_REQUIRES(epoch_mutex_) {
    shard.published.push_back(std::move(handoff));
  }

  /// True when every shard has published its oldest outstanding epoch.
  [[nodiscard]] bool epoch_ready_locked() const SCD_REQUIRES(epoch_mutex_) {
    for (const auto& shard : shards_) {
      if (shard->published.empty()) return false;
    }
    return true;
  }

  /// Pops the oldest published epoch from every shard, in shard order.
  /// Caller holds epoch_mutex_ and has seen epoch_ready_locked().
  [[nodiscard]] std::vector<EpochHandoff> take_epoch_locked()
      SCD_REQUIRES(epoch_mutex_) {
    std::vector<EpochHandoff> handoffs;
    handoffs.reserve(shards_.size());
    for (auto& shard : shards_) {
      handoffs.push_back(std::move(shard->published.front()));
      shard->published.pop_front();
    }
    return handoffs;
  }

  void rethrow_merge_error_locked() SCD_REQUIRES(epoch_mutex_) {
    if (merge_error_ != nullptr) std::rethrow_exception(merge_error_);
  }

  /// COMBINE-merges one epoch's W handoffs in shard order and concatenates
  /// the key buffers; recycles the consumed sketches into the pool. Runs
  /// with no lock held — the handoffs were moved out under epoch_mutex_.
  [[nodiscard]] core::IntervalBatch merge_epoch(
      std::vector<EpochHandoff> handoffs) SCD_EXCLUDES(epoch_mutex_) {
    obs::ScopedTimer timer(
        instruments_ != nullptr ? &instruments_->merge_seconds : nullptr,
        nullptr, "barrier_combine", "ingest");
    // COMBINE(1, S_0, ..., 1, S_{W-1}) in shard order — fixed order keeps
    // the merged registers bit-identical run to run.
    std::vector<const Sketch*> parts;
    parts.reserve(handoffs.size());
    for (auto& handoff : handoffs) parts.push_back(&*handoff.sketch);
    const std::vector<double> coeffs(handoffs.size(), 1.0);
    const Sketch merged = Sketch::combine(coeffs, parts);

    core::IntervalBatch batch;
    batch.registers.assign(merged.registers().begin(),
                           merged.registers().end());
    if constexpr (kHasVoteState) {
      batch.mv_candidates.assign(merged.candidates().begin(),
                                 merged.candidates().end());
      batch.mv_votes.assign(merged.votes().begin(), merged.votes().end());
    }
    for (auto& handoff : handoffs) {
      batch.records += handoff.records;
      batch.keys.insert(batch.keys.end(), handoff.keys.begin(),
                        handoff.keys.end());
    }
    recycle_sketches(std::move(handoffs));
    return batch;
  }

  /// Returns consumed handoff sketches to the pool, zeroed, so workers
  /// start their next epoch without allocating a fresh table.
  void recycle_sketches(std::vector<EpochHandoff> handoffs)
      SCD_EXCLUDES(pool_mutex_) {
    common::MutexLock lock(pool_mutex_);
    for (auto& handoff : handoffs) {
      handoff.sketch->set_zero();
      pool_.push_back(std::move(*handoff.sketch));
    }
  }

  /// A zeroed sketch for the worker's next epoch: pooled when available
  /// (steady state — the merger recycles one per shard per epoch),
  /// freshly allocated otherwise (first epochs only).
  [[nodiscard]] Sketch pooled_sketch() SCD_EXCLUDES(pool_mutex_) {
    {
      common::MutexLock lock(pool_mutex_);
      if (!pool_.empty()) {
        Sketch sketch = std::move(pool_.back());
        pool_.pop_back();
        return sketch;
      }
    }
    return Sketch(family_, k_);
  }

  /// Merger thread: merges published epochs strictly in order and delivers
  /// each batch to on_merged_. A callback throw is parked in merge_error_
  /// and rethrown on the producer thread (close_epoch/drain); the merger
  /// stops — the stream is failed, exactly like a synchronous close throw.
  void run_merger() {
    for (;;) {
      std::vector<EpochHandoff> handoffs;
      {
        common::MutexLock lock(epoch_mutex_);
        while (!epoch_ready_locked() && !stopping_) {
          epoch_cv_.wait(epoch_mutex_);
        }
        // Drain-on-stop: ready epochs are still merged and delivered after
        // stopping_ is set (the workers were joined first, so every closed
        // epoch is fully published by now); exit only when none remain.
        if (!epoch_ready_locked()) return;
        handoffs = take_epoch_locked();
      }
      const std::uint64_t epoch = handoffs.front().epoch;
      try {
        core::IntervalBatch batch = merge_epoch(std::move(handoffs));
        on_merged_(epoch, std::move(batch));
      } catch (...) {
        common::MutexLock lock(epoch_mutex_);
        merge_error_ = std::current_exception();
        epoch_cv_.notify_all();
        return;
      }
      {
        common::MutexLock lock(epoch_mutex_);
        ++epochs_merged_;
      }
      epoch_cv_.notify_all();
    }
  }

  void run_worker(std::size_t index) {
    // Best-effort NUMA placement (common/numa.h): pin this worker to a node
    // round-robin BEFORE allocating its sketch, so the table and every
    // pooled sketch it later first-touches land on local memory. A no-op
    // without libnuma or on single-node hosts.
    common::numa_bind_index(index);
    Shard& shard = *shards_[index];
    // Worker-local interval state; only the epoch handoff is shared.
    Sketch sketch(family_, k_);
    std::unordered_set<std::uint64_t> keys;
    std::uint64_t records = 0;
    obs::Histogram* apply_hist =
        instruments_ != nullptr ? instruments_->shard_apply_seconds[index]
                                : nullptr;
    for (;;) {
      std::optional<ShardMessage> msg;
      {
        // The dequeue span covers queue wait: a long "ingest_dequeue" next
        // to short "shard_update_batch" spans reads as a starved worker.
        SCD_TRACE_SPAN("ingest_dequeue", "ingest");
        msg = shard.queue.pop();
      }
      if (!msg.has_value()) break;
      if (msg->barrier) {
        EpochHandoff handoff;
        handoff.epoch = msg->epoch;
        handoff.sketch.emplace(std::move(sketch));
        if constexpr (!kRecovers) {
          handoff.keys.assign(keys.begin(), keys.end());
        }
        handoff.records = records;
        {
          common::MutexLock lock(epoch_mutex_);
          publish_handoff_locked(shard, std::move(handoff));
        }
        epoch_cv_.notify_all();
        // The worker starts the next epoch immediately — no wait for the
        // merge. The pooled sketch is the async scheme's double buffer.
        sketch = pooled_sketch();
        keys.clear();
        records = 0;
        continue;
      }
      obs::ScopedTimer timer(apply_hist, nullptr, "shard_update_batch",
                             "ingest", msg->records.size());
      // Batched UPDATE (docs/PERFORMANCE.md): hash-batch + per-row sweep,
      // bit-identical to per-record update() on this shard's subsequence.
      sketch.update_batch(msg->records);
      if constexpr (!kRecovers) {
        for (const Record& r : msg->records) keys.insert(r.key);
      }
      records += msg->records.size();
      timer.stop();
      if (apply_hist != nullptr) {
        instruments_->batch_size.observe(
            static_cast<double>(msg->records.size()));
        instruments_->batch_records.inc(msg->records.size());
        instruments_->queue_records.add(
            -static_cast<double>(msg->records.size()));
      }
    }
  }

  std::shared_ptr<const Family> family_;
  std::size_t k_;
  IngestInstruments* instruments_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Epoch protocol state. epoch_mutex_ is ordered before pool_mutex_
  // (docs/CONCURRENCY.md lock-order table); in practice neither path nests
  // them today, but the declared order is the one any future nesting must
  // follow.
  common::Mutex epoch_mutex_ SCD_ACQUIRED_BEFORE(pool_mutex_);
  common::CondVar epoch_cv_;
  std::uint64_t epochs_closed_ SCD_GUARDED_BY(epoch_mutex_) = 0;
  std::uint64_t epochs_merged_ SCD_GUARDED_BY(epoch_mutex_) = 0;
  bool stopping_ SCD_GUARDED_BY(epoch_mutex_) = false;
  std::exception_ptr merge_error_ SCD_GUARDED_BY(epoch_mutex_);
  // Recycled zeroed sketches (double buffering): merger refills, workers
  // draw at each epoch boundary.
  common::Mutex pool_mutex_;
  std::vector<Sketch> pool_ SCD_GUARDED_BY(pool_mutex_);
  // Async-mode configuration: written once by begin_async before any epoch
  // closes, read by the producer and merger afterwards.
  MergedBatchCallback on_merged_;
  std::size_t max_outstanding_ = 1;
  std::thread merger_;
  // Stats counters: producer thread writes, stats() may be called from any
  // thread (monitoring), so plain integers here were a data race.
  std::atomic<std::uint64_t> backpressure_waits_{0};
  std::atomic<std::uint64_t> dropped_records_{0};
};

}  // namespace scd::ingest
