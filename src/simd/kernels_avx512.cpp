// AVX-512F kernels. Built into every binary via per-function
// target("avx512f") attributes; only executed after a cpuid check
// (supported(), consulted once by the dispatcher in kernels.cpp).
//
// Numerical notes:
//   * scale, axpy and mv_fold are element-wise: lane i computes exactly what
//     the scalar reference computes for element i — a separately rounded
//     multiply then add, never an FMA; mv_fold's vote merge picks, with
//     mask moves, among the same sums and differences the scalar selects. This TU is built with
//     -ffp-contract=off (see CMakeLists.txt) to stop GCC fusing the mul+add
//     intrinsic pairs and the tail loops inside these target("avx512f")
//     functions. Results are bit-identical across dispatch modes.
//   * The reductions (dot, sum_squares, hsum) keep 4 independent vector
//     accumulators (32 doubles in flight) and collapse each 8-lane register
//     through a fixed halving tree; this reassociates the sum, so they match
//     the scalar reference only to ULP-level tolerance (see
//     tests/simd/kernels_test.cpp).
#include "simd/kernels_avx512.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>

#include "simd/kernels_scalar.h"

// GCC's _mm512_extractf64x4_pd / cast intrinsics expand through an
// intentionally-uninitialized _mm256_undefined_pd() temporary inside
// avx512fintrin.h; at -O2 the uninitialized-use warnings fire on the
// header's own lines when those intrinsics inline here (GCC bug 105593).
// Header-internal false positive, so it is silenced for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define SCD_AVX512_TARGET __attribute__((target("avx512f")))

namespace scd::simd::avx512 {

bool supported() noexcept { return __builtin_cpu_supports("avx512f") != 0; }

namespace {

/// Horizontal sum of one 8-lane register: halve 512→256→128→64 — a fixed
/// tree order, part of the reduction contract the tests pin down.
SCD_AVX512_TARGET inline double reduce_lanes(__m512d v) noexcept {
  const __m256d lo = _mm512_castpd512_pd256(v);
  const __m256d hi = _mm512_extractf64x4_pd(v, 1);
  const __m256d quad = _mm256_add_pd(lo, hi);
  const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(quad),
                                  _mm256_extractf128_pd(quad, 1));
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

}  // namespace

SCD_AVX512_TARGET void scale(double* x, std::size_t n, double c) noexcept {
  const __m512d vc = _mm512_set1_pd(c);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), vc));
    _mm512_storeu_pd(x + i + 8, _mm512_mul_pd(_mm512_loadu_pd(x + i + 8), vc));
    _mm512_storeu_pd(x + i + 16,
                     _mm512_mul_pd(_mm512_loadu_pd(x + i + 16), vc));
    _mm512_storeu_pd(x + i + 24,
                     _mm512_mul_pd(_mm512_loadu_pd(x + i + 24), vc));
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), vc));
  }
  for (; i < n; ++i) x[i] *= c;
}

SCD_AVX512_TARGET void axpy(double* y, const double* x, std::size_t n,
                            double c) noexcept {
  const __m512d vc = _mm512_set1_pd(c);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_mul_pd(vc, _mm512_loadu_pd(x + i))));
    _mm512_storeu_pd(
        y + i + 8, _mm512_add_pd(_mm512_loadu_pd(y + i + 8),
                                 _mm512_mul_pd(vc, _mm512_loadu_pd(x + i + 8))));
    _mm512_storeu_pd(
        y + i + 16,
        _mm512_add_pd(_mm512_loadu_pd(y + i + 16),
                      _mm512_mul_pd(vc, _mm512_loadu_pd(x + i + 16))));
    _mm512_storeu_pd(
        y + i + 24,
        _mm512_add_pd(_mm512_loadu_pd(y + i + 24),
                      _mm512_mul_pd(vc, _mm512_loadu_pd(x + i + 24))));
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_mul_pd(vc, _mm512_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += c * x[i];
}

SCD_AVX512_TARGET double dot(const double* x, const double* y,
                             std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 8),
                           _mm512_loadu_pd(y + i + 8), acc1);
    acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 16),
                           _mm512_loadu_pd(y + i + 16), acc2);
    acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 24),
                           _mm512_loadu_pd(y + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
  }
  const __m512d acc = _mm512_add_pd(_mm512_add_pd(acc0, acc1),
                                    _mm512_add_pd(acc2, acc3));
  double total = reduce_lanes(acc);
  for (; i < n; ++i) total += x[i] * y[i];
  return total;
}

SCD_AVX512_TARGET double sum_squares(const double* x, std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512d v0 = _mm512_loadu_pd(x + i);
    const __m512d v1 = _mm512_loadu_pd(x + i + 8);
    const __m512d v2 = _mm512_loadu_pd(x + i + 16);
    const __m512d v3 = _mm512_loadu_pd(x + i + 24);
    acc0 = _mm512_fmadd_pd(v0, v0, acc0);
    acc1 = _mm512_fmadd_pd(v1, v1, acc1);
    acc2 = _mm512_fmadd_pd(v2, v2, acc2);
    acc3 = _mm512_fmadd_pd(v3, v3, acc3);
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(x + i);
    acc0 = _mm512_fmadd_pd(v, v, acc0);
  }
  const __m512d acc = _mm512_add_pd(_mm512_add_pd(acc0, acc1),
                                    _mm512_add_pd(acc2, acc3));
  double total = reduce_lanes(acc);
  for (; i < n; ++i) total += x[i] * x[i];
  return total;
}

SCD_AVX512_TARGET double hsum(const double* x, std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(x + i));
    acc1 = _mm512_add_pd(acc1, _mm512_loadu_pd(x + i + 8));
    acc2 = _mm512_add_pd(acc2, _mm512_loadu_pd(x + i + 16));
    acc3 = _mm512_add_pd(acc3, _mm512_loadu_pd(x + i + 24));
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(x + i));
  }
  const __m512d acc = _mm512_add_pd(_mm512_add_pd(acc0, acc1),
                                    _mm512_add_pd(acc2, acc3));
  double total = reduce_lanes(acc);
  for (; i < n; ++i) total += x[i];
  return total;
}

SCD_AVX512_TARGET void index_shift_mask(const std::uint64_t* packed,
                                        std::size_t n, unsigned shift,
                                        std::uint64_t mask,
                                        std::uint32_t* out) noexcept {
  // Widened integer path for the batched-UPDATE row sweep: eight packed
  // 64-bit hash groups per register, shift + mask, then a vpmovqd
  // truncating narrow (the indices are < 2^16, so the truncation is exact).
  const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_and_epi64(
        _mm512_srl_epi64(
            _mm512_loadu_si512(reinterpret_cast<const void*>(packed + i)), sh),
        vm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi64_epi32(v));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>((packed[i] >> shift) & mask);
  }
}

SCD_AVX512_TARGET void mv_fold(const MvCells& dst, const MvConstCells& src,
                               std::size_t n, double c, bool clear_stale,
                               const MvCells* drain) noexcept {
  // Eight cells per step. The vote rule's four outcomes are all computed
  // and the lane masks pick one (scalar::mv_vote_cell is the same selection
  // written per cell), so the loop has no data-dependent branch.
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d abs_c = _mm512_set1_pd(std::abs(c));
  const __m512d zero = _mm512_setzero_pd();
  const __m512i zero_key = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        dst.counts + i,
        _mm512_add_pd(_mm512_loadu_pd(dst.counts + i),
                      _mm512_mul_pd(vc, _mm512_loadu_pd(src.counts + i))));
    __m512i cand = _mm512_loadu_si512(dst.candidates + i);
    const __m512d vote = _mm512_loadu_pd(dst.votes + i);
    const __m512i key = _mm512_loadu_si512(src.candidates + i);
    const __m512d w = _mm512_mul_pd(abs_c, _mm512_loadu_pd(src.votes + i));
    const __mmask8 empty = _mm512_cmp_pd_mask(vote, zero, _CMP_EQ_OQ);
    if (clear_stale) cand = _mm512_mask_mov_epi64(cand, empty, zero_key);
    const __mmask8 skip = _mm512_cmp_pd_mask(w, zero, _CMP_EQ_OQ);
    const __mmask8 same = _mm512_cmpeq_epi64_mask(cand, key);
    const __mmask8 holds = _mm512_cmp_pd_mask(vote, w, _CMP_GE_OQ);
    __m512d merged = _mm512_mask_blend_pd(holds, _mm512_sub_pd(w, vote),
                                          _mm512_sub_pd(vote, w));
    merged = _mm512_mask_mov_pd(merged, same, _mm512_add_pd(vote, w));
    merged = _mm512_mask_mov_pd(merged, empty, w);
    merged = _mm512_mask_mov_pd(merged, skip, vote);
    const auto adopt =
        static_cast<__mmask8>(~skip & (empty | ~(same | holds)));
    _mm512_storeu_si512(dst.candidates + i,
                        _mm512_mask_mov_epi64(cand, adopt, key));
    _mm512_storeu_pd(dst.votes + i, merged);
    if (drain != nullptr) {
      _mm512_storeu_pd(drain->counts + i, zero);
      _mm512_storeu_si512(drain->candidates + i, zero_key);
      _mm512_storeu_pd(drain->votes + i, zero);
    }
  }
  scalar::mv_fold_cells(dst, src, i, n, c, clear_stale, drain);
}

}  // namespace scd::simd::avx512

#else  // non-x86: the AVX-512 backend is never selectable.

#include "simd/kernels_scalar.h"

namespace scd::simd::avx512 {

bool supported() noexcept { return false; }

void scale(double* x, std::size_t n, double c) noexcept {
  scalar::scale(x, n, c);
}
void axpy(double* y, const double* x, std::size_t n, double c) noexcept {
  scalar::axpy(y, x, n, c);
}
double dot(const double* x, const double* y, std::size_t n) noexcept {
  return scalar::dot(x, y, n);
}
double sum_squares(const double* x, std::size_t n) noexcept {
  return scalar::sum_squares(x, n);
}
double hsum(const double* x, std::size_t n) noexcept {
  return scalar::hsum(x, n);
}
void index_shift_mask(const std::uint64_t* packed, std::size_t n,
                      unsigned shift, std::uint64_t mask,
                      std::uint32_t* out) noexcept {
  scalar::index_shift_mask(packed, n, shift, mask, out);
}
void mv_fold(const MvCells& dst, const MvConstCells& src, std::size_t n,
             double c, bool clear_stale, const MvCells* drain) noexcept {
  scalar::mv_fold(dst, src, n, c, clear_stale, drain);
}

}  // namespace scd::simd::avx512

#endif
