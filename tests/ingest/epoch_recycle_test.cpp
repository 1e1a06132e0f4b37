// EpochRecycle: in steady state the merged epoch travels from the shards to
// the engine and back by swap. No h x k table is allocated or copied per
// interval (docs/PERFORMANCE.md, "Asynchronous epoch merge").
//
// The pin is an allocation count. This file replaces the global operator
// new for the whole test_ingest binary with one that counts allocations of
// at least a given size while a LargeAllocations scope is open. Every
// h x k table is that large; chunks, handoff deques and key buffers are
// far smaller. Allocation is process-wide, so the count covers the
// producer, the workers and the merger at once.
//
// Runs under the tsan preset via `ctest -L concurrency`. The merger → pool
// → worker hand-off of recycled tables is exactly what it should watch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "ingest/shard_set.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"

namespace {

// mo: a counter and a threshold, read on every allocation from any thread;
// the test reads the count only after drain() has synchronised with the
// threads it counts.
std::atomic<std::size_t> g_count_from_bytes{0};  // 0: not counting
std::atomic<std::size_t> g_large_allocations{0};

}  // namespace

void* operator new(std::size_t bytes) {
  const std::size_t from = g_count_from_bytes.load(std::memory_order_relaxed);
  if (from != 0 && bytes >= from) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// The replaced operator new above allocates with malloc, so free is the
// matching release; GCC cannot see that pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace scd::ingest {
namespace {

/// Counts allocations of at least `bytes` while in scope.
class LargeAllocations {
 public:
  explicit LargeAllocations(std::size_t bytes) {
    g_large_allocations.store(0, std::memory_order_relaxed);
    g_count_from_bytes.store(bytes, std::memory_order_relaxed);
  }
  ~LargeAllocations() { g_count_from_bytes.store(0, std::memory_order_relaxed); }
  LargeAllocations(const LargeAllocations&) = delete;
  LargeAllocations& operator=(const LargeAllocations&) = delete;
  [[nodiscard]] std::size_t count() const noexcept {
    return g_large_allocations.load(std::memory_order_relaxed);
  }
};

constexpr std::uint64_t kSeed = 0x7ec;
constexpr std::size_t kH = 5;
constexpr std::size_t kK = 4096;
constexpr std::size_t kTableBytes = kH * kK * sizeof(double);

/// Stands in for the engine: adopts each delivered batch's tables by swap,
/// clears what it adopted (the engine's close does the same) and hands its
/// zeroed tables back through recycle(). Records which tables arrived and
/// which went back.
template <typename SketchT>
class AdoptingConsumer {
 public:
  static constexpr bool kVotes =
      requires(const SketchT& s) { s.recover_heavy_keys(0.0); };

  AdoptingConsumer()
      : registers_(kH * kK, 0.0),
        candidates_(kVotes ? kH * kK : 0, 0),
        votes_(kVotes ? kH * kK : 0, 0.0) {}

  /// Set before the first close; the merger reads it only after
  /// close_epoch() has synchronised with it.
  ShardSetBase* shards = nullptr;
  /// Per delivered epoch: its register table, and whether that table had
  /// been delivered or handed back before.
  std::vector<const double*> delivered;
  std::vector<bool> seen_before;

  [[nodiscard]] ShardSetBase::MergedBatchCallback callback() {
    return [this](const ShardSetBase::Close&, core::IntervalBatch&& batch) {
      delivered.push_back(batch.registers.data());
      seen_before.push_back(known_.count(batch.registers.data()) == 1);
      known_.insert(batch.registers.data());
      registers_.swap(batch.registers);
      candidates_.swap(batch.mv_candidates);
      votes_.swap(batch.mv_votes);
      std::fill(registers_.begin(), registers_.end(), 0.0);
      std::fill(candidates_.begin(), candidates_.end(), 0);
      std::fill(votes_.begin(), votes_.end(), 0.0);
      known_.insert(batch.registers.data());
      shards->recycle(std::move(batch));
    };
  }

 private:
  std::set<const double*> known_;
  std::vector<double> registers_;
  std::vector<std::uint64_t> candidates_;
  std::vector<double> votes_;
};

/// One epoch of 2000 records spread over every shard.
void feed_epoch(ShardSetBase& shards, std::size_t workers,
                std::uint64_t epoch) {
  std::vector<Chunk> chunks(workers);
  common::Rng rng(epoch + 1);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.next_below(1u << 20);
    chunks[common::mix64(key) % workers].push_back(
        {key, static_cast<double>(1 + rng.next_below(100))});
  }
  for (std::size_t w = 0; w < workers; ++w) {
    shards.submit(w, std::move(chunks[w]));
  }
  shards.close_epoch({});
}

template <typename SketchT>
void expect_no_table_allocated_in_steady_state(std::size_t workers) {
  SCOPED_TRACE(::testing::Message() << "W=" << workers);
  constexpr std::uint64_t kWarmEpochs = 4;
  constexpr std::uint64_t kSteadyEpochs = 16;
  AdoptingConsumer<SketchT> consumer;
  ShardSet<SketchT> shards(kSeed, kH, kK, workers, /*queue_chunks=*/64,
                           nullptr, /*max_outstanding=*/1,
                           consumer.callback());
  consumer.shards = &shards;
  for (std::uint64_t e = 0; e < kWarmEpochs; ++e) {
    feed_epoch(shards, workers, e);
  }
  shards.drain();
  std::size_t allocated = 0;
  {
    const LargeAllocations tables(kTableBytes);
    for (std::uint64_t e = kWarmEpochs; e < kWarmEpochs + kSteadyEpochs;
         ++e) {
      feed_epoch(shards, workers, e);
    }
    shards.drain();
    allocated = tables.count();
  }
  shards.stop();
  EXPECT_EQ(allocated, 0u);
  ASSERT_EQ(consumer.delivered.size(), kWarmEpochs + kSteadyEpochs);
}

TEST(EpochRecycle, MergerAllocatesNoTableInSteadyState) {
  for (const std::size_t workers : {1u, 2u, 4u}) {
    expect_no_table_allocated_in_steady_state<sketch::MvSketch64>(workers);
    expect_no_table_allocated_in_steady_state<sketch::KarySketch>(workers);
  }
}

TEST(EpochRecycle, WorkersFillTablesFromTheCirculatingSet) {
  // One worker and one outstanding epoch make the circulation order fixed:
  // each epoch's pooled sketch is the one the previous merge returned.
  // After the first epochs, every table a batch delivers is one that was
  // delivered or handed back before — the tables go round, none is new.
  constexpr std::uint64_t kWarmEpochs = 4;
  constexpr std::uint64_t kEpochs = 24;
  AdoptingConsumer<sketch::MvSketch64> consumer;
  ShardSet<sketch::MvSketch64> shards(kSeed, kH, kK, /*worker_count=*/1,
                                      /*queue_chunks=*/64, nullptr,
                                      /*max_outstanding=*/1,
                                      consumer.callback());
  consumer.shards = &shards;
  for (std::uint64_t e = 0; e < kEpochs; ++e) feed_epoch(shards, 1, e);
  shards.drain();
  shards.stop();
  ASSERT_EQ(consumer.delivered.size(), kEpochs);
  for (std::uint64_t e = kWarmEpochs; e < kEpochs; ++e) {
    EXPECT_TRUE(consumer.seen_before[e])
        << "epoch " << e << " delivered a table outside the circulating set";
  }
}

TEST(EpochRecycle, RecycleRejectsTablesOfTheWrongShape) {
  ShardSet<sketch::MvSketch64> shards(
      kSeed, kH, kK, 1, 4, nullptr, 1,
      [](const ShardSetBase::Close&, core::IntervalBatch&&) {});
  core::IntervalBatch batch;
  batch.registers.assign(kH * kK, 0.0);
  batch.mv_candidates.assign(kH * kK, 0);
  batch.mv_votes.assign(kH * kK - 1, 0.0);
  EXPECT_THROW(shards.recycle(std::move(batch)), std::invalid_argument);
  core::IntervalBatch kary_only;
  kary_only.registers.assign(kH * kK, 0.0);
  EXPECT_THROW(shards.recycle(std::move(kary_only)), std::invalid_argument);
  core::IntervalBatch good;
  good.registers.assign(kH * kK, 0.0);
  good.mv_candidates.assign(kH * kK, 0);
  good.mv_votes.assign(kH * kK, 0.0);
  EXPECT_NO_THROW(shards.recycle(std::move(good)));
  shards.stop();
}

/// Steady 40-key intervals of integer updates, interval t at [10t, 10t+10).
template <typename Pipeline>
void add_intervals(Pipeline& pipeline, std::size_t from, std::size_t to) {
  for (std::size_t t = from; t < to; ++t) {
    for (std::uint64_t key = 1; key <= 40; ++key) {
      pipeline.add(key * 7919, 100.0 + static_cast<double>((key + t) % 5),
                   static_cast<double>(t) * 10.0 + 1.0);
    }
  }
}

TEST(EpochRecycle, ShardedFrontEndAddsNoTableAllocationToTheEngines) {
  // The engine's own close allocates its forecast and error sketches each
  // interval. A serial pipeline shows that count; the sharded pipeline,
  // whose merger hands the engine its tables by swap and takes them back
  // through recycle(), must show exactly the same count.
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = kH;
  config.k = kK;
  config.key_kind = traffic::KeyKind::kSrcDstPair;
  config.recovery = core::RecoveryMode::kInvertible;
  config.model.kind = forecast::ModelKind::kEwma;
  config.metrics = false;
  constexpr std::size_t kWarm = 6;
  constexpr std::size_t kSteady = 12;

  core::ChangeDetectionPipeline serial(config);
  add_intervals(serial, 0, kWarm);
  std::size_t serial_allocated = 0;
  {
    const LargeAllocations tables(kTableBytes);
    add_intervals(serial, kWarm, kWarm + kSteady);
    serial_allocated = tables.count();
  }

  ParallelConfig parallel;
  parallel.workers = 2;
  parallel.batch_size = 64;
  parallel.max_pending_intervals = 1;
  ParallelPipeline sharded(config, parallel);
  add_intervals(sharded, 0, kWarm);
  sharded.drain();
  std::size_t sharded_allocated = 0;
  {
    const LargeAllocations tables(kTableBytes);
    add_intervals(sharded, kWarm, kWarm + kSteady);
    sharded.drain();
    sharded_allocated = tables.count();
  }
  sharded.flush();
  serial.flush();

  EXPECT_GT(serial_allocated, 0u);  // the counter sees the engine's tables
  EXPECT_EQ(sharded_allocated, serial_allocated);
  ASSERT_EQ(sharded.reports().size(), serial.reports().size());
  for (std::size_t i = 0; i < serial.reports().size(); ++i) {
    EXPECT_EQ(sharded.reports()[i].estimated_error_f2,
              serial.reports()[i].estimated_error_f2);
  }
}

}  // namespace
}  // namespace scd::ingest
