// Runtime-dispatched dense-vector kernels for the sketch hot paths.
//
// Every per-interval operation on a sketch is a linear sweep over its H x K
// tables: COMBINE / add_scaled is AXPY (and, for the majority-vote sketch,
// the vote merge fused with it in mv_fold), EWMA rollover is a scale,
// ESTIMATEF2 is a per-row sum of squares, sum(S) is a horizontal sum of row
// 0, and the batched UPDATE's row sweep extracts bucket indices with
// index_shift_mask. This header is the ONLY entry point the rest of the tree
// may use (enforced by the scd_lint `simd-isolation` rule): it exposes the
// seven kernels behind function pointers resolved exactly once, on first
// use, to one of three legs: the portable scalar reference
// (kernels_scalar.h), or one vector body (kernels_body.inc) instantiated
// over the AVX2+FMA lane set (kernels_avx2.cpp) or the AVX-512F one
// (kernels_avx512.cpp).
//
// Dispatch policy (decided once, process-wide):
//   * SCD_SIMD=scalar forces the scalar reference — the knob the equivalence
//     tests and CI use to exercise every implementation on one host;
//   * SCD_SIMD=avx2 / SCD_SIMD=avx512 force that backend, falling back to
//     scalar with a stderr warning if the CPU lacks it (test knob);
//   * otherwise the widest backend the CPU supports wins:
//     avx512 > avx2 > scalar.
//
// Numerical contract:
//   * scale, axpy and mv_fold are element-wise and bit-exact across
//     implementations: every element is a separately rounded multiply then
//     add, never an FMA, and mv_fold's vote merge selects among the same
//     separately rounded sums and differences the scalar rule computes.
//     The simd library is built with -ffp-contract=off so the compiler
//     cannot fuse either path (kernels_test.cpp verifies bit-equality);
//   * dot, sum_squares and hsum reassociate the reduction across vector
//     lanes, so legs agree only to ULP-level tolerance; each leg's order is
//     fixed (kernels_test.cpp pins its output bits), so callers needing the
//     same bits on every host pin the dispatch via SCD_SIMD.
#pragma once

#include <cstddef>
#include <cstdint>

namespace scd::simd {

enum class IsaLevel {
  kScalar,
  kAvx2,
  kAvx512,
};

/// The implementation selected for this process (resolved on first call,
/// constant afterwards).
[[nodiscard]] IsaLevel active_isa() noexcept;

/// Human-readable name for logs and bench output ("scalar", "avx2",
/// "avx512").
[[nodiscard]] const char* isa_name(IsaLevel level) noexcept;

/// True when the CPU can execute the AVX2+FMA kernels (independent of what
/// the dispatch selected).
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// True when the CPU can execute the AVX-512F kernels (independent of what
/// the dispatch selected).
[[nodiscard]] bool cpu_supports_avx512() noexcept;

/// x[i] *= c.
void scale(double* x, std::size_t n, double c) noexcept;

/// y[i] += c * x[i] (AXPY). x and y must not partially overlap.
void axpy(double* y, const double* x, std::size_t n, double c) noexcept;

/// sum_i x[i] * y[i].
[[nodiscard]] double dot(const double* x, const double* y,
                         std::size_t n) noexcept;

/// sum_i x[i]^2 — the ESTIMATEF2 per-row reduction.
[[nodiscard]] double sum_squares(const double* x, std::size_t n) noexcept;

/// sum_i x[i] — the sum(S) reduction.
[[nodiscard]] double hsum(const double* x, std::size_t n) noexcept;

/// out[i] = (packed[i] >> shift) & mask — the batched-UPDATE row sweep's
/// bucket-index extraction over packed 64-bit hash groups. Pure integer
/// lane-wise work, so every implementation is exact; mask must fit 32 bits
/// (it is K-1 <= 65535 in practice). out must not overlap packed.
void index_shift_mask(const std::uint64_t* packed, std::size_t n,
                      unsigned shift, std::uint64_t mask,
                      std::uint32_t* out) noexcept;

/// The n cells of one majority-vote sketch table (sketch::BasicMvSketch):
/// counters, candidate keys and vote counts, row-major H x K each.
struct MvCells {
  double* counts;
  std::uint64_t* candidates;
  double* votes;
};

/// A read-only view of the same three tables.
struct MvConstCells {
  const double* counts;
  const std::uint64_t* candidates;
  const double* votes;
};

/// dst += c * src for a majority-vote table, in one branch-free pass. Per
/// cell i: counts[i] += c * src.counts[i] exactly as axpy computes it, and
/// dst's (candidate, vote) pair takes src's candidate with weight
/// w = |c| * src.votes[i] by the weighted Boyer-Moore rule (w == 0: no
/// change; zero vote: adopt it with vote w; same candidate: vote + w; vote
/// >= w: vote - w; otherwise adopt it with vote w - vote). dst and src
/// must not partially overlap.
void mv_fold(const MvCells& dst, const MvConstCells& src, std::size_t n,
             double c) noexcept;

}  // namespace scd::simd
