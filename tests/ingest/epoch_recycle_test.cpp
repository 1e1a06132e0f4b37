// EpochRecycle: in steady state the merged epoch travels from the shards to
// the engine and back by swap, and the engine steps its forecast into
// tables it keeps. No h x k table is allocated or copied per interval
// (docs/PERFORMANCE.md, "Fold, adopt, recycle").
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
#include <optional>
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

/// Table-sized allocations of `pipeline` over kSteady intervals after a
/// kWarm-interval warm-up; a sharded pipeline is drained on both sides of
/// the count so its merger's work falls inside it.
template <typename Pipeline>
std::size_t steady_table_allocations(Pipeline& pipeline) {
  constexpr std::size_t kWarm = 6;
  constexpr std::size_t kSteady = 12;
  constexpr bool kSharded = requires(Pipeline& p) { p.drain(); };
  add_intervals(pipeline, 0, kWarm);
  if constexpr (kSharded) pipeline.drain();
  std::size_t allocated = 0;
  {
    const LargeAllocations tables(kTableBytes);
    add_intervals(pipeline, kWarm, kWarm + kSteady);
    if constexpr (kSharded) pipeline.drain();
    allocated = tables.count();
  }
  pipeline.flush();
  return allocated;
}

/// Neither the serial engine nor the sharded front end and its engine
/// allocate a table in steady state, and both report the same intervals.
void expect_no_table_allocated_by_the_engines(
    const core::PipelineConfig& config) {
  std::optional<core::ChangeDetectionPipeline> serial;
  {
    // The counter sees the engine's tables: building one allocates them,
    // so the zeros below are readings, not a counter that sees nothing.
    const LargeAllocations tables(kTableBytes);
    serial.emplace(config);
    EXPECT_GT(tables.count(), 0u);
  }
  EXPECT_EQ(steady_table_allocations(*serial), 0u);

  ParallelConfig parallel;
  parallel.workers = 2;
  parallel.batch_size = 64;
  parallel.max_pending_intervals = 1;
  ParallelPipeline sharded(config, parallel);
  EXPECT_EQ(steady_table_allocations(sharded), 0u);

  ASSERT_EQ(sharded.reports().size(), serial->reports().size());
  for (std::size_t i = 0; i < serial->reports().size(); ++i) {
    EXPECT_EQ(sharded.reports()[i].estimated_error_f2,
              serial->reports()[i].estimated_error_f2);
  }
}

core::PipelineConfig steady_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = kH;
  config.k = kK;
  config.key_kind = traffic::KeyKind::kSrcDstPair;
  config.model.kind = forecast::ModelKind::kEwma;
  config.metrics = false;
  return config;
}

TEST(EpochRecycle, ShardedFrontEndAddsNoTableAllocationToTheEngines) {
  // The engine steps the forecast into tables it keeps
  // (ForecastRunner::step_into), and the sharded front end hands it the
  // merged tables by swap and takes them back through recycle(): the
  // invertible engine allocates no table per interval on either path.
  core::PipelineConfig config = steady_config();
  config.recovery = core::RecoveryMode::kInvertible;
  expect_no_table_allocated_by_the_engines(config);
}

TEST(EpochRecycle, NextIntervalReplayEngineAllocatesNoTable) {
  // A key-replay engine under kNextInterval parks each detection until the
  // next interval's keys arrive; parking swaps the step's tables with the
  // parked ones instead of moving fresh ones out.
  core::PipelineConfig config = steady_config();
  config.recovery = core::RecoveryMode::kReplay;
  config.replay = core::KeyReplayMode::kNextInterval;
  expect_no_table_allocated_by_the_engines(config);
}

TEST(EpochRecycle, RefitHistoryReusesItsOldestTable) {
  // With online re-fitting on, each close keeps the observed counters in
  // the refit window; once the window is full the oldest table takes the
  // new counters instead of a fresh table being allocated. The window of 4
  // fills during warm-up, and no refit falls inside the counted intervals.
  core::PipelineConfig config = steady_config();
  config.recovery = core::RecoveryMode::kInvertible;
  config.refit_every = 100;
  config.refit_window = 4;
  expect_no_table_allocated_by_the_engines(config);
}

}  // namespace
}  // namespace scd::ingest
