// Portable scalar reference kernels — the ground truth the equivalence
// tests compare every other implementation against, and the dispatch target
// on hosts (or under SCD_SIMD=scalar) where AVX2 is unavailable.
//
// Do not include this header outside src/simd and the test tree: callers go
// through simd/kernels.h (scd_lint `simd-isolation`). The one waived
// includer is sketch/mv_sketch.h, whose UPDATE votes with mv_vote_cell, a
// single cell's rule with no ISA to dispatch. The loops are written
// one-element-at-a-time on purpose — sequential order IS the reference
// semantics the reductions are specified against.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"

namespace scd::simd::scalar {

inline void scale(double* x, std::size_t n, double c) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] *= c;
}

inline void axpy(double* y, const double* x, std::size_t n,
                 double c) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += c * x[i];
}

[[nodiscard]] inline double dot(const double* x, const double* y,
                                std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

[[nodiscard]] inline double sum_squares(const double* x,
                                        std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

[[nodiscard]] inline double hsum(const double* x, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

inline void index_shift_mask(const std::uint64_t* packed, std::size_t n,
                             unsigned shift, std::uint64_t mask,
                             std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>((packed[i] >> shift) & mask);
  }
}

/// One cell's vote merge as selects over the rule's four outcomes (the
/// vector backends compute the same lanes with masks): the candidate `cand`
/// with vote `vote` meets evidence of weight `w` for `key`.
inline void mv_vote_cell(std::uint64_t& cand, double& vote, std::uint64_t key,
                         double w) noexcept {
  const bool skip = w == 0.0;
  const bool empty = vote == 0.0;
  const bool same = cand == key;
  const bool holds = vote >= w;
  const double sum = vote + w;
  const double diff = vote - w;
  const double deficit = w - vote;
  double merged = holds ? diff : deficit;
  merged = same ? sum : merged;
  merged = empty ? w : merged;
  const bool adopt = !skip && (empty || !(same || holds));
  vote = skip ? vote : merged;
  cand = adopt ? key : cand;
}

/// mv_fold over cells [begin, end): the reference loop, and the vector
/// backends' tail.
inline void mv_fold_cells(const MvCells& dst, const MvConstCells& src,
                          std::size_t begin, std::size_t end, double c,
                          bool clear_stale, const MvCells* drain) noexcept {
  const double abs_c = std::abs(c);
  for (std::size_t i = begin; i < end; ++i) {
    dst.counts[i] += c * src.counts[i];
    std::uint64_t cand = dst.candidates[i];
    double vote = dst.votes[i];
    if (clear_stale && vote == 0.0) cand = 0;
    mv_vote_cell(cand, vote, src.candidates[i], abs_c * src.votes[i]);
    dst.candidates[i] = cand;
    dst.votes[i] = vote;
    if (drain != nullptr) {
      drain->counts[i] = 0.0;
      drain->candidates[i] = 0;
      drain->votes[i] = 0.0;
    }
  }
}

inline void mv_fold(const MvCells& dst, const MvConstCells& src,
                    std::size_t n, double c, bool clear_stale,
                    const MvCells* drain) noexcept {
  mv_fold_cells(dst, src, 0, n, c, clear_stale, drain);
}

}  // namespace scd::simd::scalar
