// Majority-vote invertible sketch — k-ary-compatible change detection with
// single-pass heavy-key recovery (ROADMAP open item 2; per "A Fast and
// Compact Invertible Sketch for Network-Wide Heavy Flow Detection",
// arXiv 1910.10441).
//
// A BasicMvSketch is a BasicKarySketch counter table (counters()) plus a
// per-cell candidate key and vote count maintained by weighted Boyer-Moore
// majority voting:
//
//   UPDATE(S, a, u):  T[i][h_i(a)] += u, then vote with weight |u| —
//                     same candidate: vote += |u|; different candidate:
//                     vote -= |u|, adopting `a` when the vote crosses zero.
//
// Every read of the counters (ESTIMATE, ESTIMATEF2, per-row evidence) goes
// through counters(), so it is the k-ary arithmetic by construction. Any key
// holding a strict majority of a bucket's total absolute update mass is that
// bucket's final candidate regardless of arrival or merge order.
//
// Only observed sketches carry votes. The forecasting models run on the
// counters alone: S_f(t) and S_e(t) = S_o(t) - S_f(t) are plain k-ary
// sketches, and recover_heavy_keys(error, T, sources) sweeps the buckets
// whose |S_e counter| clears T, collects the candidates the observed
// sketches in `sources` hold there (the pipeline passes the current and the
// previous interval's), and verifies each against the median ESTIMATE on
// S_e. The previous interval's votes are what find a key that vanished: it
// holds no votes in the current interval but a large negative error.
//
// Memory: one sketch is 24 B per cell (counter, candidate, vote), 3x the
// k-ary table. The invertible pipeline keeps two of them (the open interval
// and the one before it); forecast state, history and S_e cost the k-ary
// 8 B per cell per signal, as in replay mode.
//
// Linear-space operations extend to the vote state deterministically, which
// is what the sharded front end's COMBINE of W shard sketches needs:
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
  using Counters = BasicKarySketch<Family>;

  /// Widest key (in bits) the hash family evaluates without truncation.
  static constexpr unsigned kKeyBits = Family::kKeyBits;

  /// K must be a power of two in [2, 2^16]; the family supplies H = rows().
  /// Throws std::invalid_argument on a null family or out-of-range shape.
  BasicMvSketch(FamilyPtr family, std::size_t k)
      : counters_(std::move(family), k),
        candidates_(counters_.registers().size(), 0),
        votes_(counters_.registers().size(), 0.0) {}

  [[nodiscard]] std::size_t depth() const noexcept { return counters_.depth(); }
  [[nodiscard]] std::size_t width() const noexcept { return counters_.width(); }
  [[nodiscard]] const FamilyPtr& family() const noexcept {
    return counters_.family();
  }

  /// The k-ary counter table: ESTIMATE, per-row evidence, and the signal the
  /// forecasting models run on.
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// UPDATE — adds u to the key's register in every row and votes on the
  /// bucket's candidate with weight |u|. `key` must fit the family's key
  /// domain (kKeyBits); checked in debug builds.
  void update(std::uint64_t key, double u) noexcept {
    const double w = std::abs(u);
    counters_.update_cells(key, u,
                           [&](std::size_t idx) noexcept { vote(idx, key, w); });
  }

  /// Batched UPDATE, bit-identical to calling update() record by record.
  /// A cell's candidate and vote depend only on the updates that hash into
  /// that cell, in record order, so a BasicKarySketch-style row sweep
  /// (hash the block, then apply it one row at a time, counters and votes
  /// together) would also be bit-identical. A prototype of it added
  /// nothing end to end on the sharded invertible path
  /// (docs/PERFORMANCE.md), so this loop applies each record to all H rows
  /// in turn.
  void update_batch(std::span<const Record> records) noexcept {
    for (const Record& r : records) update(r.key, r.update);
  }

  /// ESTIMATEF2 of the counter table (counters().estimate_f2()); callers
  /// that forecast MvSketch signals directly, such as perfbench's MV
  /// forecast probe, read S_e's F2 through it.
  [[nodiscard]] double estimate_f2() const noexcept {
    return counters_.estimate_f2();
  }

  /// The one-source case of the free recover_heavy_keys below: this sketch's
  /// counters are both the swept table and the verifier, its votes the
  /// candidates.
  [[nodiscard]] std::vector<RecoveredHeavyKey> recover_heavy_keys(
      double threshold_abs, std::size_t* candidates_swept = nullptr) const;

  // ---- Linear-space operations (COMBINE) ------------------------------
  // The counters combine exactly like the k-ary table, and the vote state
  // follows with the weighted-majority merge rule so the combined sketch
  // remains invertible.

  void set_zero() noexcept {
    counters_.set_zero();
    std::fill(candidates_.begin(), candidates_.end(), 0);
    std::fill(votes_.begin(), votes_.end(), 0.0);
  }

  /// Counters scale linearly; votes scale by |c| (a vote is an absolute
  /// mass), candidates are unchanged. scale(0) clears every vote, which
  /// resets each bucket to the "no candidate" state.
  void scale(double c) noexcept {
    counters_.scale(c);
    const double w = std::abs(c);
    for (double& v : votes_) v *= w;
  }

  /// *this += c * other. Counters combine entry-wise; each bucket's
  /// candidate pair merges by majority vote with weight |c| * other.vote.
  /// Throws std::invalid_argument unless the two sketches share the same
  /// family and width.
  void add_scaled(const BasicMvSketch& other, double c) {
    counters_.add_scaled(other.counters_, c);
    const double w = std::abs(c);
    for (std::size_t idx = 0; idx < votes_.size(); ++idx) {
      vote(idx, other.candidates_[idx], w * other.votes_[idx]);
    }
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
    BasicMvSketch out(sketches.front()->family(), sketches.front()->width());
    for (std::size_t l = 0; l < sketches.size(); ++l) {
      out.add_scaled(*sketches[l], coeffs[l]);
    }
    return out;
  }

  /// Replaces the counter table wholesale (deserialization, shard merge).
  /// Throws std::invalid_argument on a wrong-sized span. The vote state is
  /// untouched — pair with load_aux() when restoring a full snapshot.
  void load_registers(std::span<const double> values) {
    counters_.load_registers(values);
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

  /// load_registers / load_aux without the copy: exchange the tables with
  /// the caller's vectors (the shard merge's hand-off to the engine). Each
  /// vector must hold H * K entries; throws std::invalid_argument otherwise
  /// and then leaves both sides untouched.
  void swap_registers(std::vector<double>& values) {
    counters_.swap_registers(values);
  }
  void swap_aux(std::vector<std::uint64_t>& cand,
                std::vector<double>& vote_counts) {
    if (cand.size() != candidates_.size() ||
        vote_counts.size() != votes_.size()) {
      throw std::invalid_argument(
          "BasicMvSketch::swap_aux: vector sizes do not match the table");
    }
    candidates_.swap(cand);
    votes_.swap(vote_counts);
  }

  /// Resets the stale candidate of every zero-vote cell to 0 — the state
  /// add_scaled() leaves such a cell in when it merges into a zero sketch.
  /// Folding shards into shard 0 in place (the sharded front end's merge)
  /// calls this first, so the fold is byte-identical to combine(), which
  /// starts from a zero sketch.
  void clear_stale_candidates() noexcept {
    for (std::size_t idx = 0; idx < votes_.size(); ++idx) {
      if (votes_[idx] == 0.0) candidates_[idx] = 0;
    }
  }

  /// Raw state access for tests and serialization.
  [[nodiscard]] std::span<const double> registers() const noexcept {
    return counters_.registers();
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
    return counters_.table_bytes() +
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

  Counters counters_;
  std::vector<std::uint64_t> candidates_;  // per-bucket majority candidate
  std::vector<double> votes_;              // per-bucket vote count (>= 0)
};

/// Heavy-changer read-out of an error sketch S_e: sweeps every (row,
/// bucket) whose |S_e counter| >= threshold_abs, collects the candidate
/// each sketch in `sources` holds in that bucket (a bucket with no votes
/// contributes nothing), deduplicates, and verifies each candidate's median
/// ESTIMATE on `error` against the same threshold. Results are sorted by
/// |value| descending (ties by key ascending), ready for detect::top_n /
/// detect::above_threshold. With threshold_abs == 0 every voted bucket
/// contributes its candidates — the top-N mode. `candidates_swept`, when
/// non-null, receives the pre-verification candidate count (the
/// scd_recovery_candidates_total increment). Throws std::invalid_argument
/// when a source does not share `error`'s family and width.
template <hash::HashFamily16 Family>
[[nodiscard]] std::vector<RecoveredHeavyKey> recover_heavy_keys(
    const BasicKarySketch<Family>& error, double threshold_abs,
    std::span<const BasicMvSketch<Family>* const> sources,
    std::size_t* candidates_swept = nullptr);

template <hash::HashFamily16 Family>
std::vector<RecoveredHeavyKey> BasicMvSketch<Family>::recover_heavy_keys(
    double threshold_abs, std::size_t* candidates_swept) const {
  const BasicMvSketch* const self[] = {this};
  return sketch::recover_heavy_keys<Family>(counters_, threshold_abs, self,
                                            candidates_swept);
}

/// Invertible sketch over 32-bit keys (tabulation hashing — the paper's
/// destination-IP configuration, now replay-free).
using MvSketch = BasicMvSketch<hash::TabulationHashFamily>;

/// Invertible sketch over arbitrary 64-bit keys (Carter-Wegman family).
using MvSketch64 = BasicMvSketch<hash::CwHashFamily>;

// The free recovery sweep and the two family instantiations live in
// mv_sketch.cpp; everything else is defined inline above.
extern template class BasicMvSketch<hash::TabulationHashFamily>;
extern template class BasicMvSketch<hash::CwHashFamily>;
extern template std::vector<RecoveredHeavyKey> recover_heavy_keys(
    const KarySketch& error, double threshold_abs,
    std::span<const MvSketch* const> sources, std::size_t* candidates_swept);
extern template std::vector<RecoveredHeavyKey> recover_heavy_keys(
    const KarySketch64& error, double threshold_abs,
    std::span<const MvSketch64* const> sources, std::size_t* candidates_swept);

}  // namespace scd::sketch
