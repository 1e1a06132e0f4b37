// Row workers for parallel ingestion (docs/PARALLEL_INGEST.md).
//
// The paper's H rows are independent hash functions (§3.1), and a register
// — like the invertible sketch's candidate and vote — depends only on the
// updates that hash into it, in record order. So the front end shards the
// sketch by ROW: worker w owns a contiguous range of rows of the epoch's one
// table and applies every record of the stream to those rows with the row
// sweep (BasicKarySketch::update_rows), in stream order. The workers write
// disjoint cells of one shared table and nothing is merged: every register
// receives exactly the serial pipeline's additions in the serial order, so
// an epoch's table is the serial table bit for bit, votes included, for any
// finite updates. W workers split the H rows into contiguous ranges whose
// sizes differ by at most one (H=5: 3/2 at W=2, 2/1/1/1 at W=4); a W above
// H runs H workers.
//
// The producer broadcasts each chunk, shared and not copied, to every
// worker's queue. Interval close is epoch-based and asynchronous: the
// producer records the close on the epoch ledger and stamps one barrier
// token per queue after the interval's chunks; each worker, on its token,
// marks the epoch done and moves on to the next epoch's table. Once every
// worker is done with the oldest epoch, the merger thread hands its table
// to the owner with the close it recorded — epochs are delivered strictly
// in order, off the ingest hot path. Workers never stall at an interval
// boundary; the only producer-side wait is the max_outstanding
// backpressure cap. In replay mode the worker with the fewest rows also
// collects the epoch's distinct keys.
//
// Tables circulate; none is copied or allocated after construction
// (docs/PERFORMANCE.md). Epoch e fills ring slot e mod (max_outstanding +
// 1): with at most max_outstanding epochs closed but undelivered, a slot is
// free again before the producer opens the epoch that reuses it. The merger
// swaps a done slot's tables into its batch, whose tables the owner left
// there (ChangeDetectionPipeline::ingest_interval adopts a batch's tables by
// swap and leaves its previous ones, not zeroed), so the slot rejoins the
// ring holding an older interval's state. Whoever fills a table zeroes it:
// each worker zeroes its own rows of the slot, registers and, for the
// invertible sketch, candidates and votes, before the epoch's first chunk
// (at the barrier, for an epoch without chunks). Stale candidates would
// otherwise survive where a vote is zero and reach the engine's snapshot.
//
// Locking contract (docs/CONCURRENCY.md): epoch_mutex_ is the set's one
// lock (the worker queues keep their own). It guards the epoch ledger
// (closes_), the merge error and the ring's per-epoch state; workers reach
// a slot's table only through the SCD_REQUIRES(epoch_mutex_) helpers, so a
// clang -Wthread-safety build rejects an unlocked handoff. A worker then
// writes its rows of the table it was handed without the lock: no other
// thread touches that table until every worker has passed the epoch's
// barrier. The stats counters are relaxed atomics: written by the producer
// thread, readable from any thread.
#pragma once

#include <algorithm>
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

#include "common/cell_range.h"
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
/// type so a dequeued chunk feeds BasicKarySketch::update_rows directly.
using Record = sketch::Record;

/// Producer-side batch: the queue is locked once per chunk, not per record.
using Chunk = std::vector<Record>;

struct ShardMessage {
  /// The chunk every worker applies to its rows; null is the barrier token
  /// that closes the worker's current epoch. FIFO order puts the token after
  /// every chunk of the interval.
  std::shared_ptr<const Chunk> records;
};

/// Type-erased interface so ParallelPipeline can hold either family's row
/// workers behind one pointer (mirroring the core pipeline's engine
/// dispatch).
class ShardSetBase {
 public:
  /// What close_epoch() records for an epoch and the merger hands back with
  /// its table: the cutter position of the interval being closed.
  using Close = core::IntervalCutter::Position;
  /// Epoch delivery: (close, batch), invoked on the merger thread in strict
  /// epoch order. The callback must leave tables of the batch's shape in it,
  /// with any contents (ChangeDetectionPipeline::ingest_interval leaves its
  /// previous ones): they become a later epoch's table, which the workers
  /// zero before filling.
  using MergedBatchCallback =
      std::function<void(const Close&, core::IntervalBatch&)>;

  virtual ~ShardSetBase() = default;
  /// Hands `chunk` to every worker (blocking while a queue is full).
  virtual void submit(Chunk&& chunk) = 0;
  /// Closes the current epoch without waiting for its delivery: appends
  /// `close` to the epoch ledger, stamps one barrier token per worker queue
  /// and returns. All of the epoch's chunks must have been submitted first.
  /// Blocks while max_outstanding epochs are closed but not yet delivered
  /// (the bound on the table ring). Rethrows a pending merger failure (a
  /// callback throw) on the calling thread.
  virtual void close_epoch(const Close& close) = 0;
  /// Blocks until every closed epoch has been delivered. Rethrows a pending
  /// merger failure.
  virtual void drain() = 0;
  /// Closes all queues and joins the workers and the merger, which first
  /// delivers every epoch the workers finished. Idempotent.
  virtual void stop() = 0;
  /// Epochs closed but not yet delivered, callbacks included.
  [[nodiscard]] virtual std::size_t pending_epochs() const = 0;
  /// True on the merger thread: the caller runs inside the epoch callback.
  [[nodiscard]] virtual bool on_merger_thread() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t backpressure_waits() const noexcept = 0;
  /// Records lost because close() raced a blocked push during shutdown.
  /// Nonzero only when the pipeline is destroyed with records in flight.
  [[nodiscard]] virtual std::uint64_t dropped_records() const noexcept = 0;
};

/// The workers that `workers` requested run over `rows` hash rows: one per
/// row at most.
[[nodiscard]] inline std::size_t row_worker_count(std::size_t workers,
                                                  std::size_t rows) noexcept {
  return std::min(workers, rows);
}

/// Templated on the sketch type (not the hash family) so the parallel path
/// covers every engine the core pipeline can run: plain k-ary (either
/// family) and the invertible majority-vote sketch. Sketches that recover
/// keys from their own state (`recover_heavy_keys`) collect no distinct
/// keys — that is the single-pass win — and deliver their candidate and
/// vote arrays through IntervalBatch::mv_candidates / mv_votes.
template <typename SketchT>
class ShardSet final : public ShardSetBase {
 public:
  using Sketch = SketchT;
  using Family = typename SketchT::FamilyType;

  /// The sketch enumerates heavy keys from its majority-vote state, so no
  /// worker collects keys and the candidate/vote arrays ride along with the
  /// registers.
  static constexpr bool kRecovers =
      requires(const SketchT& s) { s.recover_heavy_keys(0.0); };

  /// Starts row_worker_count(worker_count, h) workers and the merger.
  /// `queue_chunks` is the per-worker queue capacity in chunks;
  /// `instruments` may be null (metrics disabled). `on_merged` receives
  /// every closed epoch, in order, on the merger thread; at most
  /// `max_outstanding` epochs may be closed but undelivered before
  /// close_epoch() blocks.
  ShardSet(std::uint64_t seed, std::size_t h, std::size_t k,
           std::size_t worker_count, std::size_t queue_chunks,
           IngestInstruments* instruments, std::size_t max_outstanding,
           MergedBatchCallback on_merged)
      : cells_(h * k),
        instruments_(instruments),
        max_outstanding_(max_outstanding),
        on_merged_(std::move(on_merged)) {
    const auto family = std::make_shared<const Family>(seed, h);
    {
      common::MutexLock lock(epoch_mutex_);
      ring_.reserve(max_outstanding + 1);
      for (std::size_t i = 0; i <= max_outstanding; ++i) {
        ring_.emplace_back(family, k);
      }
    }
    // The merger's batch starts with tables of the ring's shape, which the
    // first delivery swaps into the ring.
    batch_.registers.assign(cells_, 0.0);
    if constexpr (kRecovers) {
      batch_.mv_candidates.assign(cells_, 0);
      batch_.mv_votes.assign(cells_, 0.0);
    }
    const std::size_t workers = row_worker_count(worker_count, h);
    workers_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      // Contiguous ranges; the first h % workers take one extra row.
      const std::size_t base = h / workers;
      const std::size_t extra = h % workers;
      const std::size_t begin = w * base + std::min(w, extra);
      workers_.push_back(std::make_unique<Worker>(
          queue_chunks, begin, begin + base + (w < extra ? 1 : 0), k));
    }
    for (std::size_t w = 0; w < workers; ++w) {
      workers_[w]->thread = std::thread([this, w] { run_worker(w); });
    }
    merger_ = std::thread([this] { run_merger(); });
  }

  ~ShardSet() override { stop(); }

  void submit(Chunk&& chunk) override {
    const std::size_t n = chunk.size();
    const ShardMessage msg{std::make_shared<const Chunk>(std::move(chunk))};
    if (instruments_ != nullptr) {
      instruments_->batch_size.observe(static_cast<double>(n));
      instruments_->batch_records.inc(n);
    }
    bool dropped = false;
    for (auto& worker : workers_) {
      ShardMessage copy = msg;
      if (instruments_ != nullptr) {
        instruments_->queue_records.add(static_cast<double>(n));
      }
      if (worker->queue.try_push(copy)) continue;
      // mo: stats counter — single producer writes, any thread may read
      // via backpressure_waits(); no ordering ties it to other state.
      backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
      if (instruments_ != nullptr) instruments_->backpressure_waits.inc();
      if (!worker->queue.push(copy)) {
        // Closed mid-shutdown: this worker's rows miss the chunk. The loss
        // is counted instead of vanishing, since every dropped record
        // biases the interval's sketch and an operator must be able to see
        // that the stream was cut short.
        dropped = true;
        if (instruments_ != nullptr) {
          instruments_->queue_records.add(-static_cast<double>(n));
        }
      }
    }
    if (dropped) {
      // mo: stats counter — same single-writer/any-reader contract.
      dropped_records_.fetch_add(n, std::memory_order_relaxed);
      if (instruments_ != nullptr) {
        instruments_->shutdown_dropped_records.inc(n);
      }
    }
  }

  void close_epoch(const Close& close) SCD_EXCLUDES(epoch_mutex_) override {
    {
      common::MutexLock lock(epoch_mutex_);
      // Backpressure: bound the closed-but-undelivered window, which is
      // what lets max_outstanding + 1 ring slots serve every epoch.
      while (closes_.size() >= max_outstanding_ && merge_error_ == nullptr) {
        epoch_cv_.wait(epoch_mutex_);
      }
      rethrow_merge_error_locked();
      closes_.push_back(close);
      export_pending_locked();
    }
    for (auto& worker : workers_) {
      ShardMessage token;
      worker->queue.push(token);
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
    // barrier token already in flight is consumed. Only then tell the
    // merger to finish — it delivers every epoch all workers finished
    // before exiting, so a closed interval is never silently lost: an
    // unflushed destructor drops only records of the still-open interval.
    for (auto& worker : workers_) worker->queue.close();
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    {
      common::MutexLock lock(epoch_mutex_);
      stopping_ = true;
    }
    epoch_cv_.notify_all();
    if (merger_.joinable()) merger_.join();
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
  /// One ring slot: the table of every epoch e with e mod ring size equal
  /// to its index.
  struct Epoch {
    Epoch(std::shared_ptr<const Family> family, std::size_t k)
        : table(std::move(family), k) {}
    Sketch table;
    std::vector<std::uint64_t> keys;  // replay mode: the epoch's keys
    std::size_t done = 0;             // workers past the epoch's barrier
  };

  struct Worker {
    Worker(std::size_t queue_chunks, std::size_t begin, std::size_t end,
           std::size_t k)
        : queue(queue_chunks),
          row_begin(begin),
          row_end(end),
          cells{begin * k, end * k} {}
    BoundedQueue<ShardMessage> queue;
    const std::size_t row_begin;
    const std::size_t row_end;
    const common::CellRange cells;  // the rows' cells, row-major
    std::thread thread;
  };

  /// The table a worker fills for `epoch`. Handed out under the lock; the
  /// worker then writes its rows without it.
  [[nodiscard]] Sketch& epoch_table_locked(std::uint64_t epoch)
      SCD_REQUIRES(epoch_mutex_) {
    return ring_[epoch % ring_.size()].table;
  }

  /// Worker side of the barrier: marks `epoch` done for one worker (the key
  /// collector also hands over the epoch's keys) and returns the next
  /// epoch's table.
  [[nodiscard]] Sketch& finish_epoch_locked(std::uint64_t epoch,
                                            std::vector<std::uint64_t>* keys)
      SCD_REQUIRES(epoch_mutex_) {
    Epoch& slot = ring_[epoch % ring_.size()];
    if (keys != nullptr) slot.keys.swap(*keys);
    ++slot.done;
    return epoch_table_locked(epoch + 1);
  }

  /// True when every worker has passed `epoch`'s barrier.
  [[nodiscard]] bool epoch_ready_locked(std::uint64_t epoch) const
      SCD_REQUIRES(epoch_mutex_) {
    return ring_[epoch % ring_.size()].done == workers_.size();
  }

  /// Moves the ready `epoch`'s tables and keys into batch_ and batch_'s
  /// tables (the ones the callback left) into the slot, which is then free
  /// for a later epoch.
  void take_epoch_locked(std::uint64_t epoch) SCD_REQUIRES(epoch_mutex_) {
    Epoch& slot = ring_[epoch % ring_.size()];
    slot.table.swap_registers(batch_.registers);
    if constexpr (kRecovers) {
      slot.table.swap_aux(batch_.mv_candidates, batch_.mv_votes);
    }
    batch_.keys.swap(slot.keys);
    slot.keys.clear();
    slot.done = 0;
  }

  /// The tables the callback left in batch_ become a later epoch's table:
  /// throws std::invalid_argument unless they have the ring's shape.
  void check_returned_tables() const {
    bool shaped = batch_.registers.size() == cells_;
    if constexpr (kRecovers) {
      shaped = shaped && batch_.mv_candidates.size() == cells_ &&
               batch_.mv_votes.size() == cells_;
    }
    if (!shaped) {
      throw std::invalid_argument(
          "ShardSet: the epoch callback left tables of another shape than "
          "h x k in the batch");
    }
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

  /// Merger thread: delivers finished epochs strictly in order, each with
  /// its recorded close, to on_merged_; the close leaves the ledger only
  /// after its callback returns. A callback throw is parked in merge_error_
  /// and rethrown on the producer thread (close_epoch/drain); the merger
  /// stops — the stream is failed, exactly like a synchronous close throw.
  void run_merger() {
    for (std::uint64_t epoch = 0;; ++epoch) {
      Close close;
      {
        common::MutexLock lock(epoch_mutex_);
        while (!epoch_ready_locked(epoch) && !stopping_) {
          epoch_cv_.wait(epoch_mutex_);
        }
        // Drain-on-stop: finished epochs are still delivered after
        // stopping_ is set (the workers were joined first, so every
        // closed epoch is finished by now); exit only when none remain.
        if (!epoch_ready_locked(epoch)) return;
        // close_epoch() appends the close before stamping the tokens, so
        // a finished epoch always finds its close at the ledger's front.
        close = closes_.front();
        take_epoch_locked(epoch);
      }
      batch_.records = close.records;
      try {
        on_merged_(close, batch_);
        check_returned_tables();
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
    // Best-effort NUMA placement (common/numa.h): spread the workers over
    // the nodes round-robin. A no-op without libnuma or on single-node
    // hosts.
    common::numa_bind_index(index);
    Worker& worker = *workers_[index];
    // In replay mode the last worker, which owns the fewest rows, collects
    // the distinct keys.
    const bool collects_keys = !kRecovers && index + 1 == workers_.size();
    std::unordered_set<std::uint64_t> keys;
    std::uint64_t epoch = 0;
    Sketch* table = nullptr;
    // The slot holds an older interval's state until this worker zeroes
    // its rows of it, once per epoch.
    bool rows_zeroed = false;
    {
      common::MutexLock lock(epoch_mutex_);
      table = &epoch_table_locked(epoch);
    }
    obs::Histogram* apply_hist =
        instruments_ != nullptr ? instruments_->shard_apply_seconds[index]
                                : nullptr;
    for (;;) {
      std::optional<ShardMessage> msg;
      {
        // The dequeue span covers queue wait: a long "ingest_dequeue" next
        // to short "shard_update_batch" spans reads as a starved worker.
        SCD_TRACE_SPAN("ingest_dequeue", "ingest");
        msg = worker.queue.pop();
      }
      if (!msg.has_value()) break;
      if (msg->records == nullptr) {
        if (!rows_zeroed) {  // an epoch without chunks
          obs::ScopedTimer timer(apply_hist, nullptr, "shard_zero_rows",
                                 "ingest");
          table->set_zero(worker.cells);
        }
        rows_zeroed = false;
        std::vector<std::uint64_t> handoff(keys.begin(), keys.end());
        keys.clear();
        {
          common::MutexLock lock(epoch_mutex_);
          table = &finish_epoch_locked(epoch, collects_keys ? &handoff
                                                            : nullptr);
        }
        epoch_cv_.notify_all();
        ++epoch;
        continue;
      }
      const Chunk& chunk = *msg->records;
      obs::ScopedTimer timer(apply_hist, nullptr, "shard_update_batch",
                             "ingest", chunk.size());
      if (!rows_zeroed) {
        table->set_zero(worker.cells);
        rows_zeroed = true;
      }
      // The row sweep over this worker's rows (docs/PERFORMANCE.md): a
      // hash pass over the chunk, then one row at a time, votes included.
      table->update_rows(chunk, worker.row_begin, worker.row_end);
      if (collects_keys) {
        for (const Record& r : chunk) keys.insert(r.key);
      }
      timer.stop();
      if (instruments_ != nullptr) {
        instruments_->queue_records.add(-static_cast<double>(chunk.size()));
      }
    }
  }

  const std::size_t cells_;  // h x k
  IngestInstruments* instruments_;
  const std::size_t max_outstanding_;
  const MergedBatchCallback on_merged_;
  std::vector<std::unique_ptr<Worker>> workers_;
  mutable common::Mutex epoch_mutex_;
  common::CondVar epoch_cv_;
  // The epoch ledger: one close per epoch that is closed but not yet
  // delivered, oldest first. close_epoch() appends, the merger pops after
  // the epoch's callback returns.
  std::deque<Close> closes_ SCD_GUARDED_BY(epoch_mutex_);
  bool stopping_ SCD_GUARDED_BY(epoch_mutex_) = false;
  std::exception_ptr merge_error_ SCD_GUARDED_BY(epoch_mutex_);
  // The epoch-table ring: max_outstanding + 1 slots, sized at construction.
  std::vector<Epoch> ring_ SCD_GUARDED_BY(epoch_mutex_);
  // The merger's batch: the delivered epoch's tables while its callback
  // runs, the tables the callback left between deliveries. Merger thread
  // only.
  core::IntervalBatch batch_;
  std::thread merger_;
  // Stats counters: producer thread writes, stats() may be called from any
  // thread (monitoring), so plain integers here were a data race.
  std::atomic<std::uint64_t> backpressure_waits_{0};
  std::atomic<std::uint64_t> dropped_records_{0};
};

}  // namespace scd::ingest
