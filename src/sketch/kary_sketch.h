// k-ary sketch (paper §3.1) — the paper's core data structure.
//
// An H x K table of double registers; row i is paired with an independent
// 4-universal hash function h_i. The four operations of §3.1 are provided:
//
//   UPDATE(S, a, u):    T[i][h_i(a)] += u for all rows
//   ESTIMATE(S, a):     median_i (T[i][h_i(a)] - sum/K) / (1 - 1/K)
//   ESTIMATEF2(S):      median_i K/(K-1) * sum_j T[i][j]^2 - sum^2/(K-1)
//   COMBINE(c_l, S_l):  entry-wise linear combination
//
// Per-row estimates are unbiased with variance <= F2/(K-1) (Appendix A/B);
// the median across rows makes the probability of an extreme estimate
// exponentially small in H.
//
// The hash family is shared (by shared_ptr) among all sketches that must be
// COMBINEd — linear combination is only meaningful between sketches drawn
// with identical hash functions, and sharing also keeps the tabulation
// tables' memory cost amortized across the whole forecasting pipeline.
//
// Key-domain constraint: a family declares the key width it hashes faithfully
// (Family::kKeyBits). TabulationHashFamily covers 32-bit keys only; feeding it
// a wider key would silently truncate and collide two distinct keys. Use
// KarySketch64 (Carter-Wegman) for 64-bit key kinds — the pipeline's
// key_fits_32bit dispatch and core/sketch_binding.h's compile-time mapping
// both enforce this binding; debug builds additionally assert it per call.
//
// Structural misuse (mismatched register spans in load_registers, combining
// sketches of different family or width) throws std::invalid_argument in all
// build types — these paths are cold, and an unchecked mismatch is an
// out-of-bounds write in release builds.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "hash/cw_hash.h"
#include "hash/hash_family.h"
#include "hash/tabulation_hash.h"
#include "sketch/median.h"
#include "sketch/serialize_error.h"
#include "simd/kernels.h"

namespace scd::sketch {

inline constexpr std::size_t kMaxRows = 32;  // paper uses H <= 25

/// One (key, update) stream item — the unit of batched UPDATE. Shared with
/// the ingest front-end (ingest::Record is an alias) so row workers can
/// hand whole dequeued chunks to update_rows without copying.
struct Record {
  std::uint64_t key = 0;
  double update = 0.0;
};

template <hash::HashFamily16 Family>
class BasicMvSketch;

template <hash::HashFamily16 Family>
class BasicKarySketch {
 public:
  using FamilyPtr = std::shared_ptr<const Family>;
  using FamilyType = Family;

  /// Widest key (in bits) the hash family evaluates without truncation.
  static constexpr unsigned kKeyBits = Family::kKeyBits;

  /// K must be a power of two in [2, 2^16]; the family supplies H = rows().
  /// Throws std::invalid_argument on a null family or out-of-range shape.
  BasicKarySketch(FamilyPtr family, std::size_t k)
      : family_(std::move(family)), k_(k) {
    if (family_ == nullptr) {
      throw std::invalid_argument("BasicKarySketch: null hash family");
    }
    if (!hash::valid_bucket_count(k_) || k_ < 2) {
      throw std::invalid_argument(
          "BasicKarySketch: k must be a power of two in [2, 65536]");
    }
    if (family_->rows() < 1 || family_->rows() > kMaxRows) {
      throw std::invalid_argument("BasicKarySketch: rows must be in [1, 32]");
    }
    table_.assign(family_->rows() * k_, 0.0);
  }

  // The sum cache is atomic (see sum()), which deletes the implicit
  // copy/move members; these restore them. The table/family copies are
  // plain; only the cache fields need explicit atomic loads. Copying
  // concurrently with reads is safe; copying concurrently with mutation is
  // a race on table_ itself and was never supported.
  BasicKarySketch(const BasicKarySketch& other)
      : family_(other.family_), k_(other.k_), table_(other.table_) {
    copy_sum_cache(other);
  }
  BasicKarySketch& operator=(const BasicKarySketch& other) {
    if (this != &other) {
      family_ = other.family_;
      k_ = other.k_;
      table_ = other.table_;
      copy_sum_cache(other);
    }
    return *this;
  }
  BasicKarySketch(BasicKarySketch&& other) noexcept
      : family_(std::move(other.family_)),
        k_(other.k_),
        table_(std::move(other.table_)) {
    copy_sum_cache(other);
  }
  BasicKarySketch& operator=(BasicKarySketch&& other) noexcept {
    if (this != &other) {
      family_ = std::move(other.family_);
      k_ = other.k_;
      table_ = std::move(other.table_);
      copy_sum_cache(other);
    }
    return *this;
  }
  ~BasicKarySketch() = default;

  [[nodiscard]] std::size_t depth() const noexcept { return family_->rows(); }
  [[nodiscard]] std::size_t width() const noexcept { return k_; }
  [[nodiscard]] const FamilyPtr& family() const noexcept { return family_; }

  /// Records hashed (and applied) per block inside update_batch. The block
  /// must comfortably exceed the cache lines in one row (K/8: 512 lines at
  /// K=4096) — each row sweep pulls the row into L1 once, so the larger the
  /// block, the more scattered adds amortize that fill; at 4096 records the
  /// sweep revisits each line ~8x at K=4096. The per-block hash scratch
  /// (kUpdateBlock x ceil(H/4) packed u64) lives in thread-local storage.
  static constexpr std::size_t kUpdateBlock = 4096;
  /// How many records ahead of the applying index the target register is
  /// software-prefetched within a row sweep.
  static constexpr std::size_t kPrefetchLead = 16;

  /// UPDATE — adds u to the key's register in every row. `key` must fit the
  /// family's key domain (kKeyBits); checked in debug builds.
  void update(std::uint64_t key, double u) noexcept {
    update_cells(key, u, [](std::size_t) noexcept {});
  }

  /// UPDATE that also hands each touched register's flat index
  /// (row * K + bucket) to `on_cell`, row by row, right after the add — the
  /// hook through which BasicMvSketch votes without hashing the key twice.
  template <typename OnCell>
  void update_cells(std::uint64_t key, double u, OnCell&& on_cell) noexcept {
    assert_key_in_domain(key);
    const std::size_t h = depth();
    const std::uint64_t mask = k_ - 1;
    if constexpr (requires(const Family f, std::uint32_t k32, std::uint16_t* o) {
                    f.hash_all(k32, o);
                  }) {
      // Batched path (tabulation): one packed lookup per 4 rows.
      std::array<std::uint16_t, kMaxRows> hv;
      family_->hash_all(static_cast<std::uint32_t>(key), hv.data());
      for (std::size_t i = 0; i < h; ++i) {
        const std::size_t idx = i * k_ + (hv[i] & mask);
        table_[idx] += u;
        on_cell(idx);
      }
    } else {
      for (std::size_t i = 0; i < h; ++i) {
        const std::size_t idx = i * k_ + (family_->hash16(i, key) & mask);
        table_[idx] += u;
        on_cell(idx);
      }
    }
    // mo: mutation invalidates the cache; mutators are single-threaded by
    // contract, so no ordering against the table writes is needed.
    sum_valid_.store(false, std::memory_order_relaxed);
  }

  /// Batched UPDATE: applies every record of the chunk, bit-identically to
  /// calling update() record by record (each register receives its updates
  /// in record order). Processes kUpdateBlock records at a time in two
  /// passes — hash-batch all keys of the block first (one packed tabulation
  /// lookup per 4 rows per key), then sweep the table one ROW at a time
  /// applying the block's scattered adds with a short software prefetch
  /// lead. The row sweep is the point: the per-record path touches H rows
  /// spread over the whole H x K x 8 B table per record, while the sweep
  /// concentrates kUpdateBlock scattered adds on one row, filling each of
  /// the row's K/8 cache lines into L1 once per ~(kUpdateBlock * 8 / K)
  /// adds. Grows a thread-local hash scratch on first use (an allocation
  /// failure there terminates, as this path is noexcept).
  void update_batch(std::span<const Record> records) noexcept {
    sweep_rows(records, 0, depth(), [](std::size_t, const Record&) noexcept {},
               [](std::size_t) noexcept {});
  }

  /// update_batch restricted to rows [row_begin, row_end): the same hash
  /// pass and row sweep over those rows only. Applying every range of a
  /// contiguous split of [0, depth()) leaves the table update_batch would,
  /// and calls on disjoint ranges of one sketch may run concurrently — the
  /// sharded front end's row workers do (docs/PARALLEL_INGEST.md). Throws
  /// std::invalid_argument unless row_begin <= row_end <= depth().
  void update_rows(std::span<const Record> records, std::size_t row_begin,
                   std::size_t row_end) {
    check_row_range(row_begin, row_end);
    sweep_rows(records, row_begin, row_end,
               [](std::size_t, const Record&) noexcept {},
               [](std::size_t) noexcept {});
  }

  /// Total update mass sum(S) = sum_j T[0][j]; identical across rows for any
  /// sketch built by UPDATE/COMBINE. Cached until the next mutation. The
  /// cache mirrors the paper's "compute sum once before ESTIMATE calls".
  ///
  /// Thread safety: concurrent sum()/estimate() calls on a frozen sketch
  /// (e.g. parallel ESTIMATE over a forecast-error sketch) are safe — the
  /// lazy cache is double-checked through atomics, and racing fills compute
  /// the same value from the same frozen table. Mutation concurrent with
  /// any read remains a race on the table itself, as before.
  [[nodiscard]] double sum() const noexcept {
    // mo: double-checked cache (waiver, docs/CONCURRENCY.md) — the
    // release store on sum_valid_ publishes cached_sum_; the acquire load
    // here pairs with it, so a reader that sees valid==true also sees the
    // matching cached value. Racing fillers write the same value computed
    // from the same frozen table.
    if (!sum_valid_.load(std::memory_order_acquire)) {
      const double s = simd::hsum(table_.data(), k_);
      cached_sum_.store(s, std::memory_order_relaxed);
      sum_valid_.store(true, std::memory_order_release);
      return s;
    }
    // mo: value was published by the release/acquire pair above.
    return cached_sum_.load(std::memory_order_relaxed);
  }

  /// ESTIMATE — reconstructs v_a from the sketch. Same key-domain
  /// constraint as update().
  [[nodiscard]] double estimate(std::uint64_t key) const noexcept {
    assert_key_in_domain(key);
    const std::size_t h = depth();
    const std::uint64_t mask = k_ - 1;
    const double per_bucket = sum() / static_cast<double>(k_);
    const double denom = 1.0 - 1.0 / static_cast<double>(k_);
    std::array<double, kMaxRows> est;
    if constexpr (requires(const Family f, std::uint32_t k32, std::uint16_t* o) {
                    f.hash_all(k32, o);
                  }) {
      std::array<std::uint16_t, kMaxRows> hv;
      family_->hash_all(static_cast<std::uint32_t>(key), hv.data());
      for (std::size_t i = 0; i < h; ++i) {
        est[i] = (table_[i * k_ + (hv[i] & mask)] - per_bucket) / denom;
      }
    } else {
      for (std::size_t i = 0; i < h; ++i) {
        est[i] =
            (table_[i * k_ + (family_->hash16(i, key) & mask)] - per_bucket) /
            denom;
      }
    }
    return median_inplace(std::span<double>(est.data(), h));
  }

  /// Per-row evidence behind estimate(key), for alarm provenance: fills
  /// `raw_buckets[i]` with the bucket value T[i][h_i(key)] and
  /// `row_estimates[i]` with the unbiased per-row estimate
  /// (T[i][h_i(key)] - sum/K) / (1 - 1/K). The median of `row_estimates`
  /// equals estimate(key) exactly. Both spans must have length depth().
  void estimate_rows(std::uint64_t key, std::span<double> raw_buckets,
                     std::span<double> row_estimates) const {
    assert_key_in_domain(key);
    const std::size_t h = depth();
    if (raw_buckets.size() != h || row_estimates.size() != h) {
      throw std::invalid_argument("estimate_rows: spans must have length h");
    }
    const std::uint64_t mask = k_ - 1;
    const double per_bucket = sum() / static_cast<double>(k_);
    const double denom = 1.0 - 1.0 / static_cast<double>(k_);
    for (std::size_t i = 0; i < h; ++i) {
      const double bucket =
          table_[i * k_ + (family_->hash16(i, key) & mask)];
      raw_buckets[i] = bucket;
      row_estimates[i] = (bucket - per_bucket) / denom;
    }
  }

  /// ESTIMATEF2 — estimates the second moment F2 = sum_a v_a^2.
  [[nodiscard]] double estimate_f2() const noexcept {
    const std::size_t h = depth();
    const auto kd = static_cast<double>(k_);
    const double s = sum();
    std::array<double, kMaxRows> est;
    for (std::size_t i = 0; i < h; ++i) {
      const double sq = simd::sum_squares(&table_[i * k_], k_);
      est[i] = (kd * sq - s * s) / (kd - 1.0);
    }
    return median_inplace(std::span<double>(est.data(), h));
  }

  /// Estimated L2 norm sqrt(max(F2^est, 0)); F2^est can be slightly negative
  /// for near-empty sketches because it is an unbiased (not nonnegative)
  /// estimator.
  [[nodiscard]] double estimate_l2() const noexcept {
    return std::sqrt(std::max(estimate_f2(), 0.0));
  }

  // ---- Linear-space operations (COMBINE) ------------------------------
  // These make BasicKarySketch a LinearSignal so that every forecasting
  // model in src/forecast runs unchanged at the sketch level.

  void set_zero() noexcept {
    std::fill(table_.begin(), table_.end(), 0.0);
    // mo: release publishes the zero cache exactly like sum()'s fill path.
    cached_sum_.store(0.0, std::memory_order_relaxed);
    sum_valid_.store(true, std::memory_order_release);
  }

  void scale(double c) noexcept {
    simd::scale(table_.data(), table_.size(), c);
    // mo: single-mutator path — scaling the cached sum in place keeps the
    // cache coherent without republishing (validity flag is unchanged).
    cached_sum_.store(cached_sum_.load(std::memory_order_relaxed) * c,
                      std::memory_order_relaxed);
  }

  /// *this += c * other. Throws std::invalid_argument unless the two
  /// sketches share the same family and width — combining incompatible
  /// sketches is meaningless and, unchecked, an out-of-bounds read/write.
  void add_scaled(const BasicKarySketch& other, double c) {
    if (!compatible(other)) {
      throw std::invalid_argument(
          "BasicKarySketch::add_scaled: incompatible sketches (family or "
          "width mismatch)");
    }
    simd::axpy(table_.data(), other.table_.data(), table_.size(), c);
    // mo: cache invalidation on the single-mutator path (see update()).
    sum_valid_.store(false, std::memory_order_relaxed);
  }

  [[nodiscard]] bool compatible(const BasicKarySketch& other) const noexcept {
    return family_ == other.family_ && k_ == other.k_;
  }

  /// COMBINE(c_1, S_1, ..., c_l, S_l) as a free-standing construction.
  /// Throws std::invalid_argument when empty, when coeffs and sketches
  /// differ in length, or when any sketch is incompatible with the first.
  [[nodiscard]] static BasicKarySketch combine(
      std::span<const double> coeffs,
      std::span<const BasicKarySketch* const> sketches) {
    if (sketches.empty() || coeffs.size() != sketches.size()) {
      throw std::invalid_argument(
          "BasicKarySketch::combine: need one coefficient per sketch and at "
          "least one sketch");
    }
    BasicKarySketch out(sketches.front()->family_, sketches.front()->k_);
    for (std::size_t l = 0; l < sketches.size(); ++l) {
      out.add_scaled(*sketches[l], coeffs[l]);
    }
    return out;
  }

  /// Replaces the register table wholesale (deserialization).
  /// The data must have been produced by a sketch with the same family and
  /// width; throws std::invalid_argument on a wrong-sized span (unchecked,
  /// that is a heap overflow in release builds).
  void load_registers(std::span<const double> values) {
    if (values.size() != table_.size()) {
      throw std::invalid_argument(
          "BasicKarySketch::load_registers: span size does not match the "
          "register table");
    }
    std::copy(values.begin(), values.end(), table_.begin());
    // mo: cache invalidation on the single-mutator path (see update()).
    sum_valid_.store(false, std::memory_order_relaxed);
  }

  /// Exchanges the register table with `values` — load_registers without
  /// the copy: the sharded front end moves an epoch's table into the
  /// batch, and the engine adopts the batch's table, this way. Same contract as
  /// load_registers: throws std::invalid_argument unless `values` holds
  /// exactly H * K registers.
  void swap_registers(std::vector<double>& values) {
    if (values.size() != table_.size()) {
      throw std::invalid_argument(
          "BasicKarySketch::swap_registers: vector size does not match the "
          "register table");
    }
    table_.swap(values);
    // mo: cache invalidation on the single-mutator path (see update()).
    sum_valid_.store(false, std::memory_order_relaxed);
  }

  /// The register table as one field (common/bytes.h): its size, then the
  /// registers. The reader's table must already have the writer's shape;
  /// a non-finite register throws SerializeError(kCorruptRegisters).
  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& self) {
    ar.pinned(self.table_.size(), [](std::uint64_t n) {
      throw common::FieldError("sketch table of " + std::to_string(n) +
                               " registers has another shape");
    });
    ar.array(std::span(self.table_));
    if constexpr (Ar::kReads) {
      check_registers(self.table_);
      // mo: cache invalidation on the single-mutator path (see update()).
      self.sum_valid_.store(false, std::memory_order_relaxed);
    }
  }

  /// Raw register access for tests and serialization.
  [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
    return {&table_[i * k_], k_};
  }
  [[nodiscard]] std::span<const double> registers() const noexcept {
    return table_;
  }

  /// Memory footprint of the register table in bytes (excludes the shared
  /// hash family).
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return table_.size() * sizeof(double);
  }

 private:
  // The majority-vote sketch merges its counters and votes in one kernel
  // pass (simd::mv_fold), which writes this table through
  // registers_for_write(), and sweeps its rows with sweep_rows.
  friend class BasicMvSketch<Family>;

  void check_row_range(std::size_t row_begin, std::size_t row_end) const {
    if (row_begin > row_end || row_end > depth()) {
      throw std::invalid_argument(
          "BasicKarySketch::update_rows: row range outside [0, depth()]");
    }
  }

  /// The batched UPDATE of rows [row_begin, row_end) with per-cell hooks,
  /// the batch counterpart of update_cells: on_cell(idx, record) runs right
  /// after each add, with the register's flat index (row * K + bucket), in
  /// record order within a row; prefetch_cell(idx) runs beside the large-K
  /// sweep's prefetch. Writes only those rows' registers.
  template <typename OnCell, typename PrefetchCell>
  void sweep_rows(std::span<const Record> records, std::size_t row_begin,
                  std::size_t row_end, OnCell&& on_cell,
                  PrefetchCell&& prefetch_cell) noexcept {
    const std::uint64_t mask = k_ - 1;
    // Software-prefetch the sweep's target registers only when the row is
    // bigger than the block covers: then nearly every add lands on a cold
    // line and the lookahead hides the fetch. For smaller K each line is
    // revisited ~(kUpdateBlock * 8 / K) times per block and the redundant
    // prefetches measurably slow the sweep (bench_kernel_throughput).
    const bool prefetch_rows = k_ >= 8 * kUpdateBlock;
    const Family& family = *family_;
    for (std::size_t base = 0; base < records.size(); base += kUpdateBlock) {
      const std::size_t n = std::min(kUpdateBlock, records.size() - base);
      const Record* block = records.data() + base;
      // Applies the block to row i in record order, bucket(j) being record
      // j's bucket there: bit-identical to the per-record path.
      const auto sweep_row = [&](std::size_t i, auto bucket) {
        const std::size_t row_base = i * k_;
        double* const row = &table_[row_base];
        const auto add = [&](std::size_t j, std::size_t b) {
          row[b] += block[j].update;
          on_cell(row_base + b, block[j]);
        };
        if (prefetch_rows) {
          for (std::size_t j = 0; j < n; ++j) {
            if (j + kPrefetchLead < n) {
              const std::size_t ahead = bucket(j + kPrefetchLead);
              __builtin_prefetch(&row[ahead], 1);
              prefetch_cell(row_base + ahead);
            }
            add(j, bucket(j));
          }
        } else {
          for (std::size_t j = 0; j < n; ++j) add(j, bucket(j));
        }
      };
      if constexpr (requires(const Family f, std::uint32_t k32) {
                      { f.hash_group(std::size_t{0}, k32) };
                    }) {
        // Tabulation fast path: per key, one packed 64-bit lookup per group
        // of 4 rows the range touches, stored group-major as-is; the row
        // sweep shifts its own 16-bit lane out. Thread-local so the
        // worst-case scratch (kUpdateBlock x 8 groups x 8 B) never touches
        // the worker stacks.
        const std::size_t first_group = row_begin / 4;
        const std::size_t end_group = (row_end + 3) / 4;
        thread_local std::vector<std::uint64_t> gv_storage;
        if (gv_storage.size() < end_group * kUpdateBlock) {
          gv_storage.resize(end_group * kUpdateBlock);
        }
        std::uint64_t* const gv = gv_storage.data();
        thread_local std::vector<std::uint32_t> idx_storage;
        if (idx_storage.size() < kUpdateBlock) {
          idx_storage.resize(kUpdateBlock);
        }
        std::uint32_t* const idx = idx_storage.data();
        for (std::size_t j = 0; j < n; ++j) {
          assert_key_in_domain(block[j].key);
          // Hash-table lookups are the batched path's dominant cost (the
          // character tables are MBs, far beyond L1); prefetching a fixed
          // lead of keys ahead keeps several misses in flight.
          if constexpr (requires(const Family f, std::uint32_t k32) {
                          f.prefetch(k32);
                        }) {
            if (j + kPrefetchLead < n) {
              family.prefetch(
                  static_cast<std::uint32_t>(block[j + kPrefetchLead].key));
            }
          }
          const auto key32 = static_cast<std::uint32_t>(block[j].key);
          for (std::size_t g = first_group; g < end_group; ++g) {
            gv[g * kUpdateBlock + j] = family.hash_group(g, key32);
          }
        }
        for (std::size_t i = row_begin; i < row_end; ++i) {
          const std::uint64_t* const rg = &gv[(i / 4) * kUpdateBlock];
          const unsigned shift = static_cast<unsigned>((i % 4) * 16);
          if (prefetch_rows) {
            // Widened integer pre-pass (simd::index_shift_mask): extract the
            // whole block's bucket indices with vector shifts/masks, then run
            // the add sweep over the narrow u32 stream. On the large-K rows
            // this path serves, the sweep is miss-bound, so decoupling the
            // index arithmetic keeps the prefetch address one load (not a
            // shift+mask chain) ahead of the add.
            simd::index_shift_mask(rg, n, shift, mask, idx);
            sweep_row(i,
                      [idx](std::size_t j) -> std::size_t { return idx[j]; });
          } else {
            sweep_row(i, [rg, shift, mask](std::size_t j) -> std::size_t {
              return (rg[j] >> shift) & mask;
            });
          }
        }
      } else {
        thread_local std::vector<std::uint16_t> hv_storage;
        if (hv_storage.size() < row_end * kUpdateBlock) {
          hv_storage.resize(row_end * kUpdateBlock);
        }
        std::uint16_t* const hv = hv_storage.data();
        // Key-outer: the key's reduction mod p, hash16's first step, is
        // loop-invariant across the rows, so it runs once per key.
        for (std::size_t j = 0; j < n; ++j) {
          assert_key_in_domain(block[j].key);
          for (std::size_t i = row_begin; i < row_end; ++i) {
            hv[i * kUpdateBlock + j] = family.hash16(i, block[j].key);
          }
        }
        for (std::size_t i = row_begin; i < row_end; ++i) {
          const std::uint16_t* const rhv = &hv[i * kUpdateBlock];
          sweep_row(i, [rhv, mask](std::size_t j) -> std::size_t {
            return rhv[j] & mask;
          });
        }
      }
    }
    if (!records.empty()) {
      // mo: cache invalidation on the single-mutator path (see update()).
      sum_valid_.store(false, std::memory_order_relaxed);
    }
  }

  /// The writable register table; invalidates the sum cache.
  [[nodiscard]] double* registers_for_write() noexcept {
    // mo: cache invalidation on the single-mutator path (see update()).
    sum_valid_.store(false, std::memory_order_relaxed);
    return table_.data();
  }

  /// Debug-mode guard for the key-domain constraint: the tabulation fast
  /// path truncates keys to 32 bits, so a 64-bit key kind bound to
  /// KarySketch (rather than KarySketch64) would collide distinct keys
  /// silently. Release builds rely on the compile-time binding in
  /// core/sketch_binding.h and the pipeline's key_fits_32bit dispatch.
  static void assert_key_in_domain([[maybe_unused]] std::uint64_t key) noexcept {
    if constexpr (kKeyBits < 64) {
      assert((key >> kKeyBits) == 0 &&
             "key exceeds the hash family's domain; use KarySketch64");
    }
  }

  /// Transfers the source's sum cache, tolerating a concurrent reader
  /// filling the source cache mid-copy: read the valid flag first (acquire
  /// pairs with the release store in sum()), and only trust cached_sum_
  /// when the flag was already set.
  void copy_sum_cache(const BasicKarySketch& other) noexcept {
    // mo: acquire pairs with sum()'s release on the source — only when the
    // flag was already set is the relaxed cached_sum_ read known complete.
    const bool valid = other.sum_valid_.load(std::memory_order_acquire);
    // mo: destination is under construction (no concurrent readers yet).
    cached_sum_.store(
        valid ? other.cached_sum_.load(std::memory_order_relaxed) : 0.0,
        std::memory_order_relaxed);
    sum_valid_.store(valid, std::memory_order_relaxed);
  }

  FamilyPtr family_;
  std::size_t k_;
  std::vector<double> table_;  // row-major H x K
  // Lazy sum cache, shared by concurrent const readers (see sum()).
  mutable std::atomic<double> cached_sum_{0.0};
  mutable std::atomic<bool> sum_valid_{true};
};

/// Default k-ary sketch: tabulation hashing, 32-bit keys (the paper's
/// configuration — destination IP keys).
using KarySketch = BasicKarySketch<hash::TabulationHashFamily>;

/// k-ary sketch over arbitrary 64-bit keys (e.g. src^dst pairs) using the
/// Carter-Wegman polynomial family.
using KarySketch64 = BasicKarySketch<hash::CwHashFamily>;

/// Convenience: builds a shared tabulation family for H rows.
[[nodiscard]] inline KarySketch::FamilyPtr make_tabulation_family(
    std::uint64_t seed, std::size_t rows) {
  return std::make_shared<hash::TabulationHashFamily>(seed, rows);
}

[[nodiscard]] inline KarySketch64::FamilyPtr make_cw_family(std::uint64_t seed,
                                                            std::size_t rows) {
  return std::make_shared<hash::CwHashFamily>(seed, rows);
}

}  // namespace scd::sketch
