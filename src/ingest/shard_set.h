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
// producer records the close on the epoch ledger, stamps one barrier token
// per queue after the interval's records and returns immediately; each
// worker, on seeing the token, publishes its finished sketch and key buffer
// and starts the next epoch on a zeroed sketch drawn from the recycle pool.
// A dedicated merger thread waits until all W shards have published the
// oldest epoch, folds shards 1..W-1 into shard 0's tables in shard order
// (COMBINE, §3.1, in place), moves the folded tables into the IntervalBatch
// and hands it back to the owner together with the close it recorded —
// epochs are merged and delivered strictly in order, off the ingest hot
// path. Workers therefore never stall at an interval boundary; the only
// producer-side wait is the max_outstanding backpressure cap. Sketch
// linearity makes the merge exact — the merged table equals the serial
// pipeline's table up to floating-point addition order within each
// register, and the fixed shard order keeps it bit-identical run to run.
// There is one merge path: tests and the pipeline both close with
// close_epoch() and wait with drain().
//
// Tables circulate; none is copied (docs/PERFORMANCE.md). The engine adopts
// the batch's tables by swap and leaves its own zeroed ones in the batch;
// recycle() takes those back, and the next merge swaps them into shard 0's
// sketch, which rejoins the pool already zeroed. The merger zeroes only
// shards 1..W-1, and after the first epochs nothing is allocated.
//
// Locking contract (docs/CONCURRENCY.md): epoch_mutex_ is the set's one
// lock (the per-shard queues keep their own). It guards the epoch ledger
// (closes_), the per-shard publish deques, the recycle pool and the
// returned tables; publish and collect go through the
// SCD_REQUIRES(epoch_mutex_) helpers so a clang -Wthread-safety build
// rejects an unlocked handoff access. The stats counters are relaxed
// atomics: written by the producer thread, readable from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/numa.h"
#include "common/thread_annotations.h"
#include "core/interval_cutter.h"
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
  /// Closes the shard's current epoch. FIFO order puts it after every chunk
  /// of the interval, so the worker has applied them all when it publishes.
  bool barrier = false;
};

/// Type-erased interface so ParallelPipeline can hold either family's shard
/// set behind one pointer (mirroring the core pipeline's engine dispatch).
class ShardSetBase {
 public:
  /// What close_epoch() records for an epoch and the merger hands back with
  /// its merged batch: the cutter position of the interval being closed.
  using Close = core::IntervalCutter::Position;
  /// Merged-epoch delivery: (close, batch), invoked on the merger thread in
  /// strict epoch order.
  using MergedBatchCallback =
      std::function<void(const Close&, core::IntervalBatch&&)>;

  virtual ~ShardSetBase() = default;
  /// Enqueues a chunk for `shard` (blocking when the queue is full).
  virtual void submit(std::size_t shard, Chunk&& chunk) = 0;
  /// Closes the current epoch without waiting for the merge: appends
  /// `close` to the epoch ledger, stamps one barrier token per shard queue
  /// and returns. All of the epoch's chunks must have been submitted first.
  /// Blocks while max_outstanding epochs are closed but not yet delivered
  /// (the bound on pooled-sketch memory). Rethrows a pending merger failure
  /// (a callback throw) on the calling thread.
  virtual void close_epoch(const Close& close) = 0;
  /// Blocks until every closed epoch has been merged and delivered.
  /// Rethrows a pending merger failure.
  virtual void drain() = 0;
  /// Closes all queues and joins the workers and the merger, which first
  /// delivers every epoch the workers published. Idempotent.
  virtual void stop() = 0;
  /// Hands a delivered batch's tables back to the pool once its consumer
  /// has left zeroed tables in it (ChangeDetectionPipeline::ingest_interval
  /// does): the next merge moves its folded tables out through them instead
  /// of allocating. Throws std::invalid_argument unless the tables have
  /// this set's h x k shape (for the invertible family, the vote arrays
  /// too).
  virtual void recycle(core::IntervalBatch&& batch) = 0;
  /// Epochs closed but not yet merged and delivered, callbacks included.
  [[nodiscard]] virtual std::size_t pending_epochs() const = 0;
  /// True on the merger thread: the caller runs inside the merged-batch
  /// callback.
  [[nodiscard]] virtual bool on_merger_thread() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t backpressure_waits() const noexcept = 0;
  /// Records lost because close() raced a blocked push during shutdown.
  /// Nonzero only when the pipeline is destroyed with records in flight.
  [[nodiscard]] virtual std::uint64_t dropped_records() const noexcept = 0;
};

/// Templated on the sketch type (not the hash family) so the parallel path
/// covers every engine the core pipeline can run: plain k-ary (either
/// family) and the invertible majority-vote sketch. Sketches that recover
/// keys from their own state (`recover_heavy_keys`) skip the per-shard
/// distinct-key buffers entirely — that is the single-pass win — and
/// publish their merged candidate/vote arrays through
/// IntervalBatch::mv_candidates / mv_votes.
template <typename SketchT>
class ShardSet final : public ShardSetBase {
 public:
  using Sketch = SketchT;
  using Family = typename SketchT::FamilyType;

  /// The sketch enumerates heavy keys from its majority-vote state, so
  /// workers collect no distinct keys and the candidate/vote arrays ride
  /// along with the merged registers.
  static constexpr bool kRecovers =
      requires(const SketchT& s) { s.recover_heavy_keys(0.0); };

  /// Starts the W workers and the merger. `queue_chunks` is the per-shard
  /// queue capacity in chunks; `instruments` may be null (metrics
  /// disabled). `on_merged` receives every closed epoch, in order, on the
  /// merger thread; at most `max_outstanding` epochs may be closed but
  /// undelivered before close_epoch() blocks.
  ShardSet(std::uint64_t seed, std::size_t h, std::size_t k,
           std::size_t worker_count, std::size_t queue_chunks,
           IngestInstruments* instruments, std::size_t max_outstanding,
           MergedBatchCallback on_merged)
      : family_(std::make_shared<const Family>(seed, h)),
        k_(k),
        instruments_(instruments),
        max_outstanding_(max_outstanding),
        on_merged_(std::move(on_merged)) {
    shards_.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      shards_.push_back(std::make_unique<Shard>(queue_chunks));
    }
    for (std::size_t i = 0; i < worker_count; ++i) {
      shards_[i]->thread = std::thread([this, i] { run_worker(i); });
    }
    merger_ = std::thread([this] { run_merger(); });
  }

  ~ShardSet() override { stop(); }

  void submit(std::size_t shard, Chunk&& chunk) override {
    BoundedQueue<ShardMessage>& queue = shards_[shard]->queue;
    const auto n = static_cast<double>(chunk.size());
    ShardMessage msg{std::move(chunk), false};
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

  void close_epoch(const Close& close) SCD_EXCLUDES(epoch_mutex_) override {
    {
      common::MutexLock lock(epoch_mutex_);
      // Backpressure: bound the closed-but-undelivered window so pooled-
      // sketch memory stays at max_outstanding_ + 1 sketch sets per shard.
      while (closes_.size() >= max_outstanding_ && merge_error_ == nullptr) {
        epoch_cv_.wait(epoch_mutex_);
      }
      rethrow_merge_error_locked();
      closes_.push_back(close);
      export_pending_locked();
    }
    for (auto& shard : shards_) {
      ShardMessage token{{}, true};
      shard->queue.push(token);
    }
  }

  void drain() SCD_EXCLUDES(epoch_mutex_) override {
    common::MutexLock lock(epoch_mutex_);
    while (!closes_.empty() && merge_error_ == nullptr) {
      epoch_cv_.wait(epoch_mutex_);
    }
    rethrow_merge_error_locked();
  }

  void stop() SCD_EXCLUDES(epoch_mutex_) override {
    // Order matters: close the queues and join the workers FIRST, so every
    // barrier token already in flight is consumed and its handoff
    // published (close() lets consumers drain remaining items). Only then
    // tell the merger to finish — it merges and delivers every fully-
    // published epoch before exiting, so a closed interval is never
    // silently lost: an unflushed destructor drops only records of the
    // still-open interval.
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

  void recycle(core::IntervalBatch&& batch)
      SCD_EXCLUDES(epoch_mutex_) override {
    const std::size_t cells = family_->rows() * k_;
    bool shaped = batch.registers.size() == cells;
    if constexpr (kRecovers) {
      shaped = shaped && batch.mv_candidates.size() == cells &&
               batch.mv_votes.size() == cells;
    }
    if (!shaped) {
      throw std::invalid_argument(
          "ShardSet::recycle: the batch's tables do not have the shard "
          "sketches' h x k shape");
    }
    // Only the tables are reused; the key buffer keeps its capacity.
    batch.start_s = 0.0;
    batch.len_s = 0.0;
    batch.records = 0;
    batch.keys.clear();
    common::MutexLock lock(epoch_mutex_);
    returned_ = std::move(batch);
  }

  [[nodiscard]] std::size_t pending_epochs() const
      SCD_EXCLUDES(epoch_mutex_) override {
    common::MutexLock lock(epoch_mutex_);
    return closes_.size();
  }
  [[nodiscard]] bool on_merger_thread() const noexcept override {
    return std::this_thread::get_id() == merger_.get_id();
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
    std::optional<Sketch> sketch;
    std::vector<std::uint64_t> keys;
    std::uint64_t records = 0;
  };

  struct Shard {
    explicit Shard(std::size_t queue_chunks) : queue(queue_chunks) {}
    BoundedQueue<ShardMessage> queue;
    // Published epochs, oldest first: appended by the worker, drained in
    // epoch order by the merger, both under the owning ShardSet's
    // epoch_mutex_ (a nested struct cannot name the outer instance's mutex
    // in an attribute, so the SCD_REQUIRES helpers below carry the
    // contract).
    std::deque<EpochHandoff> published;
    std::thread thread;
  };

  /// Worker side of the epoch close: parks the finished interval's sketch
  /// and key set at the back of the shard's publish deque and, in the same
  /// critical section, draws a zeroed recycled sketch for the next epoch
  /// (none until the merger has returned one).
  [[nodiscard]] std::optional<Sketch> publish_handoff_locked(
      Shard& shard, EpochHandoff&& handoff) SCD_REQUIRES(epoch_mutex_) {
    shard.published.push_back(std::move(handoff));
    if (pool_.empty()) return std::nullopt;
    std::optional<Sketch> next(std::move(pool_.back()));
    pool_.pop_back();
    return next;
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

  /// Mirrors the ledger depth into scd_ingest_pending_epochs.
  void export_pending_locked() SCD_REQUIRES(epoch_mutex_) {
    if (instruments_ != nullptr) {
      instruments_->pending_epochs.set(static_cast<double>(closes_.size()));
    }
  }

  /// The tables the next merged batch carries the fold out in: the ones
  /// recycle() took back, or — until the first comes back — fresh zeroed
  /// ones.
  [[nodiscard]] core::IntervalBatch take_returned() SCD_EXCLUDES(epoch_mutex_) {
    {
      common::MutexLock lock(epoch_mutex_);
      if (returned_.has_value()) {
        core::IntervalBatch batch = std::move(*returned_);
        returned_.reset();
        return batch;
      }
    }
    const std::size_t cells = family_->rows() * k_;
    core::IntervalBatch batch;
    batch.registers.assign(cells, 0.0);
    if constexpr (kRecovers) {
      batch.mv_candidates.assign(cells, 0);
      batch.mv_votes.assign(cells, 0.0);
    }
    return batch;
  }

  /// Merges one epoch's W handoffs: folds shards 1..W-1 into shard 0 in
  /// shard order, moves the folded tables into the batch and concatenates
  /// the key buffers; returns every handoff sketch to the pool zeroed. Runs
  /// with no lock held — the handoffs were moved out under epoch_mutex_ —
  /// except to exchange tables with the pool.
  [[nodiscard]] core::IntervalBatch merge_epoch(
      std::vector<EpochHandoff> handoffs) SCD_EXCLUDES(epoch_mutex_) {
    obs::ScopedTimer timer(
        instruments_ != nullptr ? &instruments_->merge_seconds : nullptr,
        nullptr, "barrier_combine", "ingest");
    // S_0 += S_1, ..., += S_{W-1}: the additions of COMBINE(1, S_0, ...,
    // 1, S_{W-1}) in the same order, so the result is byte-identical to
    // it. COMBINE starts from a zero sketch: 0 + S_0 is S_0 exactly (shard
    // registers start at +0.0 and take only finite adds, so none is -0.0),
    // and a zero-vote cell merged into it reads candidate 0, which
    // clear_stale_candidates() reproduces.
    Sketch& merged = *handoffs.front().sketch;
    if constexpr (kRecovers) merged.clear_stale_candidates();
    for (std::size_t i = 1; i < handoffs.size(); ++i) {
      merged.add_scaled(*handoffs[i].sketch, 1.0);
      handoffs[i].sketch->set_zero();
    }
    // The batch's zeroed tables go into shard 0's sketch, its folded
    // tables into the batch.
    core::IntervalBatch batch = take_returned();
    merged.swap_registers(batch.registers);
    if constexpr (kRecovers) {
      merged.swap_aux(batch.mv_candidates, batch.mv_votes);
    }
    for (auto& handoff : handoffs) {
      batch.records += handoff.records;
      batch.keys.insert(batch.keys.end(), handoff.keys.begin(),
                        handoff.keys.end());
    }
    common::MutexLock lock(epoch_mutex_);
    for (auto& handoff : handoffs) pool_.push_back(std::move(*handoff.sketch));
    return batch;
  }

  /// Merger thread: merges published epochs strictly in order and delivers
  /// each batch with its recorded close to on_merged_; the close leaves the
  /// ledger only after its callback returns. A callback throw is parked in
  /// merge_error_ and rethrown on the producer thread (close_epoch/drain);
  /// the merger stops — the stream is failed, exactly like a synchronous
  /// close throw.
  void run_merger() {
    for (;;) {
      std::vector<EpochHandoff> handoffs;
      Close close;
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
        // close_epoch() appends the close before stamping the tokens, so a
        // published epoch always finds its close at the ledger's front.
        close = closes_.front();
      }
      try {
        on_merged_(close, merge_epoch(std::move(handoffs)));
      } catch (...) {
        common::MutexLock lock(epoch_mutex_);
        merge_error_ = std::current_exception();
        epoch_cv_.notify_all();
        return;
      }
      {
        common::MutexLock lock(epoch_mutex_);
        closes_.pop_front();
        export_pending_locked();
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
        handoff.sketch.emplace(std::move(sketch));
        if constexpr (!kRecovers) {
          handoff.keys.assign(keys.begin(), keys.end());
        }
        handoff.records = records;
        std::optional<Sketch> next;
        {
          common::MutexLock lock(epoch_mutex_);
          next = publish_handoff_locked(shard, std::move(handoff));
        }
        epoch_cv_.notify_all();
        // The worker starts the next epoch immediately — no wait for the
        // merge. The pooled sketch is the async scheme's double buffer;
        // only the first epochs allocate.
        sketch = next.has_value() ? std::move(*next) : Sketch(family_, k_);
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
  const std::size_t max_outstanding_;
  const MergedBatchCallback on_merged_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable common::Mutex epoch_mutex_;
  common::CondVar epoch_cv_;
  // The epoch ledger: one close per epoch that is closed but not yet
  // delivered, oldest first. close_epoch() appends, the merger pops after
  // the epoch's callback returns.
  std::deque<Close> closes_ SCD_GUARDED_BY(epoch_mutex_);
  bool stopping_ SCD_GUARDED_BY(epoch_mutex_) = false;
  std::exception_ptr merge_error_ SCD_GUARDED_BY(epoch_mutex_);
  // Recycled zeroed sketches (double buffering): the merger refills,
  // workers draw at each epoch boundary.
  std::vector<Sketch> pool_ SCD_GUARDED_BY(epoch_mutex_);
  // Zeroed tables recycle() took back from a delivered batch; the next
  // merge swaps them into shard 0's sketch.
  std::optional<core::IntervalBatch> returned_ SCD_GUARDED_BY(epoch_mutex_);
  std::thread merger_;
  // Stats counters: producer thread writes, stats() may be called from any
  // thread (monitoring), so plain integers here were a data race.
  std::atomic<std::uint64_t> backpressure_waits_{0};
  std::atomic<std::uint64_t> dropped_records_{0};
};

}  // namespace scd::ingest
