// AVX2+FMA kernels. Built into every binary via per-function
// target("avx2,fma") attributes; only executed after a cpuid check
// (supported(), consulted once by the dispatcher in kernels.cpp).
//
// Numerical notes:
//   * scale, axpy and mv_fold are element-wise: lane i computes exactly what
//     the scalar reference computes for element i — a separately rounded
//     multiply then add, never an FMA; mv_fold's vote merge picks, with
//     blends, among the same sums and differences the scalar selects. The scalar reference cannot contract
//     (base x86-64 has no FMA instruction), so the vector path must not
//     either; this TU is built with -ffp-contract=off (see CMakeLists.txt)
//     to stop GCC fusing the mul+add intrinsic pairs and the tail loops
//     inside these target("avx2,fma") functions. Results are bit-identical
//     across dispatch modes.
//   * The reductions (dot, sum_squares, hsum) keep 4 independent vector
//     accumulators (16 doubles in flight) to break the add latency chain;
//     this reassociates the sum, so they match the scalar reference only to
//     ULP-level tolerance (see tests/simd/kernels_test.cpp).
#include "simd/kernels_avx2.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>

#include "simd/kernels_scalar.h"

#define SCD_AVX2_TARGET __attribute__((target("avx2,fma")))

namespace scd::simd::avx2 {

bool supported() noexcept {
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
}

namespace {

/// Horizontal sum of one 4-lane register: (v0+v2) + (v1+v3) — a fixed
/// tree order, part of the reduction contract the tests pin down.
SCD_AVX2_TARGET inline double reduce_lanes(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

}  // namespace

SCD_AVX2_TARGET void scale(double* x, std::size_t n, double c) noexcept {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), vc));
    _mm256_storeu_pd(x + i + 4, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4), vc));
    _mm256_storeu_pd(x + i + 8, _mm256_mul_pd(_mm256_loadu_pd(x + i + 8), vc));
    _mm256_storeu_pd(x + i + 12,
                     _mm256_mul_pd(_mm256_loadu_pd(x + i + 12), vc));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), vc));
  }
  for (; i < n; ++i) x[i] *= c;
}

SCD_AVX2_TARGET void axpy(double* y, const double* x, std::size_t n,
                          double c) noexcept {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(vc, _mm256_loadu_pd(x + i))));
    _mm256_storeu_pd(
        y + i + 4, _mm256_add_pd(_mm256_loadu_pd(y + i + 4),
                                 _mm256_mul_pd(vc, _mm256_loadu_pd(x + i + 4))));
    _mm256_storeu_pd(
        y + i + 8, _mm256_add_pd(_mm256_loadu_pd(y + i + 8),
                                 _mm256_mul_pd(vc, _mm256_loadu_pd(x + i + 8))));
    _mm256_storeu_pd(
        y + i + 12,
        _mm256_add_pd(_mm256_loadu_pd(y + i + 12),
                      _mm256_mul_pd(vc, _mm256_loadu_pd(x + i + 12))));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(vc, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += c * x[i];
}

SCD_AVX2_TARGET double dot(const double* x, const double* y,
                           std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8),
                           _mm256_loadu_pd(y + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 12),
                           _mm256_loadu_pd(y + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
  }
  __m256d acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                              _mm256_add_pd(acc2, acc3));
  double total = reduce_lanes(acc);
  for (; i < n; ++i) total += x[i] * y[i];
  return total;
}

SCD_AVX2_TARGET double sum_squares(const double* x, std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    const __m256d v2 = _mm256_loadu_pd(x + i + 8);
    const __m256d v3 = _mm256_loadu_pd(x + i + 12);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
    acc2 = _mm256_fmadd_pd(v2, v2, acc2);
    acc3 = _mm256_fmadd_pd(v3, v3, acc3);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc0 = _mm256_fmadd_pd(v, v, acc0);
  }
  __m256d acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                              _mm256_add_pd(acc2, acc3));
  double total = reduce_lanes(acc);
  for (; i < n; ++i) total += x[i] * x[i];
  return total;
}

SCD_AVX2_TARGET double hsum(const double* x, std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(x + i + 4));
    acc2 = _mm256_add_pd(acc2, _mm256_loadu_pd(x + i + 8));
    acc3 = _mm256_add_pd(acc3, _mm256_loadu_pd(x + i + 12));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
  }
  __m256d acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                              _mm256_add_pd(acc2, acc3));
  double total = reduce_lanes(acc);
  for (; i < n; ++i) total += x[i];
  return total;
}

SCD_AVX2_TARGET void index_shift_mask(const std::uint64_t* packed,
                                      std::size_t n, unsigned shift,
                                      std::uint64_t mask,
                                      std::uint32_t* out) noexcept {
  // Widened integer path for the batched-UPDATE row sweep: four packed
  // 64-bit hash groups are shifted and masked per register. The extracted
  // indices are < 2^16 (mask is K-1, K <= 65536), so each survives in the
  // low dword of its 64-bit lane; the permute gathers those even dwords
  // into the low 128 bits for a narrow store.
  const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_srl_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(packed + i)),
            sh),
        vm);
    const __m256i g = _mm256_permutevar8x32_epi32(v, pick);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(g));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>((packed[i] >> shift) & mask);
  }
}

SCD_AVX2_TARGET void mv_fold(const MvCells& dst, const MvConstCells& src,
                             std::size_t n, double c, bool clear_stale,
                             const MvCells* drain) noexcept {
  // Four cells per step; the same selection as the AVX-512 leg, with
  // compare masks and blends in place of mask registers. A blend only moves
  // bits, so it carries the 64-bit candidate keys through the pd domain
  // unchanged.
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d abs_c = _mm256_set1_pd(std::abs(c));
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        dst.counts + i,
        _mm256_add_pd(_mm256_loadu_pd(dst.counts + i),
                      _mm256_mul_pd(vc, _mm256_loadu_pd(src.counts + i))));
    __m256d cand = _mm256_castsi256_pd(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(dst.candidates + i)));
    const __m256d vote = _mm256_loadu_pd(dst.votes + i);
    const __m256i key = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src.candidates + i));
    const __m256d w = _mm256_mul_pd(abs_c, _mm256_loadu_pd(src.votes + i));
    const __m256d empty = _mm256_cmp_pd(vote, zero, _CMP_EQ_OQ);
    if (clear_stale) cand = _mm256_andnot_pd(empty, cand);
    const __m256d skip = _mm256_cmp_pd(w, zero, _CMP_EQ_OQ);
    const __m256d same = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_castpd_si256(cand), key));
    const __m256d holds = _mm256_cmp_pd(vote, w, _CMP_GE_OQ);
    __m256d merged = _mm256_blendv_pd(_mm256_sub_pd(w, vote),
                                      _mm256_sub_pd(vote, w), holds);
    merged = _mm256_blendv_pd(merged, _mm256_add_pd(vote, w), same);
    merged = _mm256_blendv_pd(merged, w, empty);
    merged = _mm256_blendv_pd(merged, vote, skip);
    // The candidate stays when the weight is zero or a held vote absorbs
    // it (same candidate, or vote >= w); otherwise src's key is adopted.
    const __m256d stays =
        _mm256_or_pd(skip, _mm256_andnot_pd(empty, _mm256_or_pd(same, holds)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst.candidates + i),
        _mm256_castpd_si256(
            _mm256_blendv_pd(_mm256_castsi256_pd(key), cand, stays)));
    _mm256_storeu_pd(dst.votes + i, merged);
    if (drain != nullptr) {
      _mm256_storeu_pd(drain->counts + i, zero);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(drain->candidates + i),
                          _mm256_setzero_si256());
      _mm256_storeu_pd(drain->votes + i, zero);
    }
  }
  scalar::mv_fold_cells(dst, src, i, n, c, clear_stale, drain);
}

}  // namespace scd::simd::avx2

#else  // non-x86: the AVX2 backend is never selectable.

#include "simd/kernels_scalar.h"

namespace scd::simd::avx2 {

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

}  // namespace scd::simd::avx2

#endif
