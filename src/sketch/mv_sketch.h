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
// A zero vote means "no candidate": the stored candidate is stale and never
// read. update() and update_batch (the k-ary row sweep, voting on each cell
// it adds to) both vote with simd::scalar::mv_vote_cell, the rule mv_fold
// runs on every dispatch leg.
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
// is what COMBINE of sketches from several sources needs: scale(c)
// multiplies votes by |c| (candidates unchanged), and add_scaled(other, c)
// merges each bucket's (candidate, vote) pair with the weighted majority
// rule using weight |c| * other.vote, in the same branch-free kernel pass as
// the counter AXPY (simd::mv_fold). Votes are order-sensitive in general,
// but candidate identity for strict-majority keys is not — see
// docs/KEY_RECOVERY.md. The sharded front end needs no merge: its workers
// own whole rows (update_rows), so its votes are the serial votes.
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
#include <string>
#include <vector>

#include "common/bytes.h"
#include "hash/cw_hash.h"
#include "hash/hash_family.h"
#include "hash/tabulation_hash.h"
#include "simd/kernels.h"
// mv_vote_cell: one cell's vote, which has no ISA to dispatch.
#include "simd/kernels_scalar.h"  // scd-lint: allow(simd-isolation)
#include "sketch/kary_sketch.h"
#include "sketch/serialize_error.h"

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
    counters_.update_cells(key, u, [&](std::size_t idx) noexcept {
      simd::scalar::mv_vote_cell(candidates_[idx], votes_[idx], key, w);
    });
  }

  /// Batched UPDATE: the k-ary row sweep with the vote as its per-cell
  /// hook, bit-identical to update() record by record (a cell's candidate
  /// and vote depend only on the updates that land in it, in record order).
  /// The large-K sweep also prefetches each cell's candidate and vote.
  void update_batch(std::span<const Record> records) noexcept {
    sweep_rows(records, 0, depth());
  }

  /// update_batch restricted to rows [row_begin, row_end), counters and
  /// votes together (BasicKarySketch::update_rows): calls on disjoint
  /// ranges of one sketch may run concurrently. Throws
  /// std::invalid_argument unless row_begin <= row_end <= depth().
  void update_rows(std::span<const Record> records, std::size_t row_begin,
                   std::size_t row_end) {
    counters_.check_row_range(row_begin, row_end);
    sweep_rows(records, row_begin, row_end);
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
  /// candidate pair merges by majority vote with weight |c| * other.vote —
  /// one branch-free simd::mv_fold pass over the six tables, bit-identical
  /// on every dispatch leg to update()'s vote() step applied per cell.
  /// Throws std::invalid_argument unless the two sketches share the same
  /// family and width.
  void add_scaled(const BasicMvSketch& other, double c) {
    check_compatible(other, "add_scaled");
    simd::mv_fold(cells(), other.const_cells(), votes_.size(), c);
  }

  /// COMBINE(c_1, S_1, ..., c_l, S_l). Throws std::invalid_argument when
  /// empty, when coeffs and sketches differ in length, or when any sketch is
  /// incompatible with the first. Applied in argument order.
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

  /// Replaces the counter table wholesale (deserialization).
  /// Throws std::invalid_argument on a wrong-sized span. The vote state is
  /// untouched — pair with load_aux() when restoring a full snapshot.
  void load_registers(std::span<const double> values) {
    counters_.load_registers(values);
  }

  /// Replaces the candidate/vote state wholesale. Both spans must have
  /// H * K entries; throws std::invalid_argument otherwise. Content
  /// validation is the readers' job (check_votes, sketch/serialize_error.h)
  /// — the same division of labour as load_registers.
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

  /// The candidate and vote arrays as one field list (common/bytes.h),
  /// without the counters: the cell count, the candidates, the votes. The
  /// reader's table must have the writer's shape; a candidate outside the
  /// key domain or an invalid vote throws SerializeError(kCorruptRegisters).
  template <class Ar, class Self>
  static void transfer_votes(Ar& ar, Self& self) {
    ar.pinned(self.candidates_.size(), [](std::uint64_t n) {
      throw common::FieldError("vote table of " + std::to_string(n) +
                               " cells has another shape");
    });
    ar.array(std::span(self.candidates_));
    ar.array(std::span(self.votes_));
    if constexpr (Ar::kReads) {
      check_votes(self.candidates_, self.votes_, kKeyBits);
    }
  }

  /// load_registers / load_aux without the copy: exchange the tables with
  /// the caller's vectors (the sharded front end's hand-off to the engine).
  /// Each vector must hold H * K entries; throws std::invalid_argument
  /// otherwise and then leaves both sides untouched.
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
  /// The counters' row sweep over rows [row_begin, row_end) with the vote
  /// as its per-cell hook; the large-K sweep also prefetches each cell's
  /// candidate and vote.
  void sweep_rows(std::span<const Record> records, std::size_t row_begin,
                  std::size_t row_end) noexcept {
    std::uint64_t* const cand = candidates_.data();
    double* const votes = votes_.data();
    counters_.sweep_rows(
        records, row_begin, row_end,
        [cand, votes](std::size_t idx, const Record& r) noexcept {
          simd::scalar::mv_vote_cell(cand[idx], votes[idx], r.key,
                                     std::abs(r.update));
        },
        [cand, votes](std::size_t idx) noexcept {
          __builtin_prefetch(&cand[idx], 1);
          __builtin_prefetch(&votes[idx], 1);
        });
  }

  void check_compatible(const BasicMvSketch& other, const char* op) const {
    if (!counters_.compatible(other.counters_)) {
      throw std::invalid_argument(
          std::string("BasicMvSketch::") + op +
          ": incompatible sketches (family or width mismatch)");
    }
  }

  [[nodiscard]] simd::MvCells cells() noexcept {
    return {counters_.registers_for_write(), candidates_.data(),
            votes_.data()};
  }
  [[nodiscard]] simd::MvConstCells const_cells() const noexcept {
    return {counters_.registers().data(), candidates_.data(), votes_.data()};
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
