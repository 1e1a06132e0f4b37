// Majority-vote invertible sketch — k-ary-compatible change detection with
// single-pass heavy-key recovery (ROADMAP open item 2; per "A Fast and
// Compact Invertible Sketch for Network-Wide Heavy Flow Detection",
// arXiv 1910.10441).
//
// Each (row, bucket) cell carries the usual k-ary counter PLUS a candidate
// key and a vote count maintained by weighted Boyer-Moore majority voting:
//
//   UPDATE(S, a, u):  T[i][h_i(a)] += u, then vote with weight |u| —
//                     same candidate: vote += |u|; different candidate:
//                     vote -= |u|, adopting `a` when the vote crosses zero.
//
// The counter table is exactly the k-ary table (same ESTIMATE /
// ESTIMATEF2 / COMBINE arithmetic, same hash family contract), so the
// forecasting models run on this sketch unchanged and the error sketch
// S_e(t) = S_o(t) - S_f(t) keeps per-bucket candidates. Any key holding a
// strict majority of a bucket's total absolute update mass is that bucket's
// final candidate regardless of arrival or merge order — which is what
// makes recover_heavy_keys() a replay-free read-out: sweep the buckets
// whose |counter| clears the threshold, collect their candidates, and
// verify each against the median ESTIMATE.
//
// Linear-space operations extend to the vote state deterministically:
// scale(c) multiplies votes by |c| (candidates unchanged), and
// add_scaled(other, c) merges each bucket's (candidate, vote) pair with the
// weighted majority rule using weight |c| * other.vote. Votes are
// order-sensitive in general, but candidate identity for strict-majority
// keys is not — see docs/KEY_RECOVERY.md for the exact invariant the
// serial-vs-sharded property test relies on.
//
// Structural misuse (null family, bad shape, mismatched spans, combining
// incompatible sketches) throws std::invalid_argument in all build types,
// matching BasicKarySketch's contract.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "hash/cw_hash.h"
#include "hash/hash_family.h"
#include "hash/tabulation_hash.h"
#include "sketch/kary_sketch.h"
#include "sketch/median.h"
#include "simd/kernels.h"

namespace scd::sketch {

/// One key read out of an invertible sketch: the candidate and its verified
/// median estimate. 64-bit key so both key domains share the result type.
struct RecoveredHeavyKey {
  std::uint64_t key = 0;
  double value = 0.0;
};

template <hash::HashFamily16 Family>
class BasicMvSketch {
 public:
  using FamilyPtr = std::shared_ptr<const Family>;
  using FamilyType = Family;

  /// Widest key (in bits) the hash family evaluates without truncation.
  static constexpr unsigned kKeyBits = Family::kKeyBits;

  /// K must be a power of two in [2, 2^16]; the family supplies H = rows().
  /// Throws std::invalid_argument on a null family or out-of-range shape.
  BasicMvSketch(FamilyPtr family, std::size_t k)
      : family_(std::move(family)), k_(k) {
    if (family_ == nullptr) {
      throw std::invalid_argument("BasicMvSketch: null hash family");
    }
    if (!hash::valid_bucket_count(k_) || k_ < 2) {
      throw std::invalid_argument(
          "BasicMvSketch: k must be a power of two in [2, 65536]");
    }
    if (family_->rows() < 1 || family_->rows() > kMaxRows) {
      throw std::invalid_argument("BasicMvSketch: rows must be in [1, 32]");
    }
    const std::size_t cells = family_->rows() * k_;
    table_.assign(cells, 0.0);
    candidates_.assign(cells, 0);
    votes_.assign(cells, 0.0);
  }

  [[nodiscard]] std::size_t depth() const noexcept { return family_->rows(); }
  [[nodiscard]] std::size_t width() const noexcept { return k_; }
  [[nodiscard]] const FamilyPtr& family() const noexcept { return family_; }

  /// UPDATE — adds u to the key's register in every row and votes on the
  /// bucket's candidate with weight |u|. `key` must fit the family's key
  /// domain (kKeyBits); checked in debug builds.
  void update(std::uint64_t key, double u) noexcept {
    assert_key_in_domain(key);
    const std::size_t h = depth();
    const std::uint64_t mask = k_ - 1;
    const double w = std::abs(u);
    if constexpr (requires(const Family f, std::uint32_t k32, std::uint16_t* o) {
                    f.hash_all(k32, o);
                  }) {
      std::array<std::uint16_t, kMaxRows> hv;
      family_->hash_all(static_cast<std::uint32_t>(key), hv.data());
      for (std::size_t i = 0; i < h; ++i) {
        const std::size_t idx = i * k_ + (hv[i] & mask);
        table_[idx] += u;
        vote(idx, key, w);
      }
    } else {
      for (std::size_t i = 0; i < h; ++i) {
        const std::size_t idx = i * k_ + (family_->hash16(i, key) & mask);
        table_[idx] += u;
        vote(idx, key, w);
      }
    }
  }

  /// Batched UPDATE, bit-identical to calling update() record by record.
  /// The vote state forces per-record sequential application (a bucket's
  /// candidate depends on every prior update that hashed into it), so unlike
  /// BasicKarySketch there is no row-sweep rearrangement to exploit — this
  /// is the documented UPDATE-cost trade-off of the invertible family.
  void update_batch(std::span<const Record> records) noexcept {
    for (const Record& r : records) update(r.key, r.update);
  }

  /// Total update mass sum(S) = sum_j T[0][j]; identical across rows for any
  /// sketch built by UPDATE/COMBINE. Recomputed per call (no cache — the
  /// recovery sweep computes it once and reuses it internally).
  [[nodiscard]] double sum() const noexcept {
    return simd::hsum(table_.data(), k_);
  }

  /// ESTIMATE — identical arithmetic to BasicKarySketch::estimate.
  [[nodiscard]] double estimate(std::uint64_t key) const noexcept {
    const double per_bucket = sum() / static_cast<double>(k_);
    const double denom = 1.0 - 1.0 / static_cast<double>(k_);
    return estimate_with(key, per_bucket, denom);
  }

  /// Per-row evidence behind estimate(key), for alarm provenance; both spans
  /// must have length depth(). Matches BasicKarySketch::estimate_rows.
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
      const double bucket = table_[i * k_ + (family_->hash16(i, key) & mask)];
      raw_buckets[i] = bucket;
      row_estimates[i] = (bucket - per_bucket) / denom;
    }
  }

  /// ESTIMATEF2 — identical arithmetic to BasicKarySketch::estimate_f2.
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

  [[nodiscard]] double estimate_l2() const noexcept {
    return std::sqrt(std::max(estimate_f2(), 0.0));
  }

  /// Single-pass heavy-key read-out: sweeps every (row, bucket) whose
  /// |counter| >= threshold_abs, collects the bucket's candidate (buckets
  /// that never received an update carry no candidate), deduplicates, and
  /// verifies each candidate's median ESTIMATE against the same threshold.
  /// Results are sorted by |value| descending (ties by key ascending), ready
  /// for detect::top_n / detect::above_threshold. With threshold_abs == 0
  /// every voted bucket contributes its candidate — the top-N mode.
  /// `candidates_swept`, when non-null, receives the pre-verification
  /// candidate count (the scd_recovery_candidates_total increment).
  [[nodiscard]] std::vector<RecoveredHeavyKey> recover_heavy_keys(
      double threshold_abs, std::size_t* candidates_swept = nullptr) const;

  // ---- Linear-space operations (COMBINE) ------------------------------
  // BasicMvSketch is a LinearSignal: the counters combine exactly like the
  // k-ary table, and the vote state follows with the weighted-majority
  // merge rule so the combined sketch remains invertible.

  void set_zero() noexcept {
    std::fill(table_.begin(), table_.end(), 0.0);
    std::fill(candidates_.begin(), candidates_.end(), 0);
    std::fill(votes_.begin(), votes_.end(), 0.0);
  }

  /// Counters scale linearly; votes scale by |c| (a vote is an absolute
  /// mass), candidates are unchanged. scale(0) clears every vote, which
  /// resets each bucket to the "no candidate" state.
  void scale(double c) noexcept {
    simd::scale(table_.data(), table_.size(), c);
    const double w = std::abs(c);
    for (double& v : votes_) v *= w;
  }

  /// *this += c * other. Counters combine entry-wise; each bucket's
  /// candidate pair merges by majority vote with weight |c| * other.vote.
  /// Throws std::invalid_argument unless the two sketches share the same
  /// family and width.
  void add_scaled(const BasicMvSketch& other, double c) {
    if (!compatible(other)) {
      throw std::invalid_argument(
          "BasicMvSketch::add_scaled: incompatible sketches (family or "
          "width mismatch)");
    }
    simd::axpy(table_.data(), other.table_.data(), table_.size(), c);
    const double w = std::abs(c);
    for (std::size_t idx = 0; idx < votes_.size(); ++idx) {
      vote(idx, other.candidates_[idx], w * other.votes_[idx]);
    }
  }

  [[nodiscard]] bool compatible(const BasicMvSketch& other) const noexcept {
    return family_ == other.family_ && k_ == other.k_;
  }

  /// COMBINE(c_1, S_1, ..., c_l, S_l). Throws std::invalid_argument when
  /// empty, when coeffs and sketches differ in length, or when any sketch is
  /// incompatible with the first. Applied in argument order, which is what
  /// makes the shard merge deterministic.
  [[nodiscard]] static BasicMvSketch combine(
      std::span<const double> coeffs,
      std::span<const BasicMvSketch* const> sketches) {
    if (sketches.empty() || coeffs.size() != sketches.size()) {
      throw std::invalid_argument(
          "BasicMvSketch::combine: need one coefficient per sketch and at "
          "least one sketch");
    }
    BasicMvSketch out(sketches.front()->family_, sketches.front()->k_);
    for (std::size_t l = 0; l < sketches.size(); ++l) {
      out.add_scaled(*sketches[l], coeffs[l]);
    }
    return out;
  }

  /// Replaces the counter table wholesale (deserialization, shard merge).
  /// Throws std::invalid_argument on a wrong-sized span. The vote state is
  /// untouched — pair with load_aux() when restoring a full snapshot.
  void load_registers(std::span<const double> values) {
    if (values.size() != table_.size()) {
      throw std::invalid_argument(
          "BasicMvSketch::load_registers: span size does not match the "
          "register table");
    }
    std::copy(values.begin(), values.end(), table_.begin());
  }

  /// Replaces the candidate/vote state wholesale. Both spans must have
  /// H * K entries; throws std::invalid_argument otherwise. Content
  /// validation (finite, nonnegative votes) is the serializer's job — this
  /// is the same division of labour as load_registers.
  void load_aux(std::span<const std::uint64_t> cand,
                std::span<const double> vote_counts) {
    if (cand.size() != candidates_.size() ||
        vote_counts.size() != votes_.size()) {
      throw std::invalid_argument(
          "BasicMvSketch::load_aux: span sizes do not match the table");
    }
    std::copy(cand.begin(), cand.end(), candidates_.begin());
    std::copy(vote_counts.begin(), vote_counts.end(), votes_.begin());
  }

  /// Raw state access for tests and serialization.
  [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
    return {&table_[i * k_], k_};
  }
  [[nodiscard]] std::span<const double> registers() const noexcept {
    return table_;
  }
  [[nodiscard]] std::span<const std::uint64_t> candidates() const noexcept {
    return candidates_;
  }
  [[nodiscard]] std::span<const double> votes() const noexcept {
    return votes_;
  }

  /// Memory footprint of counters + candidates + votes in bytes (excludes
  /// the shared hash family) — 3x the plain k-ary table.
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return table_.size() * sizeof(double) +
           candidates_.size() * sizeof(std::uint64_t) +
           votes_.size() * sizeof(double);
  }

 private:
  /// Weighted Boyer-Moore step on one bucket: weight w of evidence for
  /// `key`. A zero vote count means "no candidate"; the stored candidate is
  /// then stale and must not be read (recover_heavy_keys skips it).
  void vote(std::size_t idx, std::uint64_t key, double w) noexcept {
    if (w == 0.0) return;
    if (votes_[idx] == 0.0) {
      candidates_[idx] = key;
      votes_[idx] = w;
    } else if (candidates_[idx] == key) {
      votes_[idx] += w;
    } else if (votes_[idx] >= w) {
      votes_[idx] -= w;
    } else {
      votes_[idx] = w - votes_[idx];
      candidates_[idx] = key;
    }
  }

  [[nodiscard]] double estimate_with(std::uint64_t key, double per_bucket,
                                     double denom) const noexcept {
    assert_key_in_domain(key);
    const std::size_t h = depth();
    const std::uint64_t mask = k_ - 1;
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

  /// Debug-mode guard for the key-domain constraint (see BasicKarySketch).
  static void assert_key_in_domain(
      [[maybe_unused]] std::uint64_t key) noexcept {
    if constexpr (kKeyBits < 64) {
      assert((key >> kKeyBits) == 0 &&
             "key exceeds the hash family's domain; use MvSketch64");
    }
  }

  FamilyPtr family_;
  std::size_t k_;
  std::vector<double> table_;                 // row-major H x K counters
  std::vector<std::uint64_t> candidates_;     // per-bucket majority candidate
  std::vector<double> votes_;                 // per-bucket vote count (>= 0)
};

/// Invertible sketch over 32-bit keys (tabulation hashing — the paper's
/// destination-IP configuration, now replay-free).
using MvSketch = BasicMvSketch<hash::TabulationHashFamily>;

/// Invertible sketch over arbitrary 64-bit keys (Carter-Wegman family).
using MvSketch64 = BasicMvSketch<hash::CwHashFamily>;

// The recovery sweep and the two family instantiations live in
// mv_sketch.cpp; every other member is defined inline above.
extern template class BasicMvSketch<hash::TabulationHashFamily>;
extern template class BasicMvSketch<hash::CwHashFamily>;

}  // namespace scd::sketch
