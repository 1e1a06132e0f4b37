// The AVX-512F leg: its lane set, eight doubles per __m512d with __mmask8
// lane masks, and the seven kernels of kernels_body.inc instantiated over
// it. Built into every binary through per-function target("avx512f")
// attributes; only executed after a cpuid check (supported(), consulted
// once by the dispatcher in kernels.cpp).
#include "simd/kernels_avx512.h"

#include <cmath>

#include "simd/kernels_scalar.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

// GCC's _mm512_extractf64x4_pd and cast intrinsics expand through an
// intentionally uninitialized _mm256_undefined_pd() temporary, so at -O2 the
// uninitialized-use warnings fire inside avx512fintrin.h (GCC bug 105593):
// a header-internal false positive, silenced for this file only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define SCD_SIMD_TARGET __attribute__((target("avx512f")))
#define SCD_LANE SCD_SIMD_TARGET __attribute__((always_inline)) static inline

namespace scd::simd::avx512 {

bool supported() noexcept { return __builtin_cpu_supports("avx512f") != 0; }

struct Lanes {
  using V = __m512d;
  using K = __m512i;
  using M = __mmask8;
  static constexpr std::size_t kWidth = 8;

  SCD_LANE V load(const double* p) { return _mm512_loadu_pd(p); }
  SCD_LANE void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  SCD_LANE V add(V a, V b) { return _mm512_add_pd(a, b); }
  SCD_LANE V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  SCD_LANE V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  SCD_LANE V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  SCD_LANE V set1(double c) { return _mm512_set1_pd(c); }
  SCD_LANE V zero() { return _mm512_setzero_pd(); }
  /// Halves 512 -> 256 -> 128 -> 64 bits.
  SCD_LANE double reduce_lanes(V v) {
    const __m256d quad =
        _mm256_add_pd(_mm512_castpd512_pd256(v), _mm512_extractf64x4_pd(v, 1));
    const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(quad),
                                    _mm256_extractf128_pd(quad, 1));
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }

  SCD_LANE M eq(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  SCD_LANE M ge(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ); }
  SCD_LANE V select(M m, V a, V b) { return _mm512_mask_blend_pd(m, a, b); }
  SCD_LANE M mask_or(M a, M b) { return static_cast<M>(a | b); }
  SCD_LANE M mask_andnot(M a, M b) { return static_cast<M>(~a & b); }

  SCD_LANE K load_keys(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  SCD_LANE void store_keys(std::uint64_t* p, K k) { _mm512_storeu_si512(p, k); }
  SCD_LANE K set1_keys(std::uint64_t v) {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  SCD_LANE M keys_eq(K a, K b) { return _mm512_cmpeq_epi64_mask(a, b); }
  SCD_LANE K select_keys(M m, K a, K b) {
    return _mm512_mask_blend_epi64(m, a, b);
  }
  SCD_LANE K shift_right(K v, unsigned s) {
    return _mm512_srl_epi64(v, _mm_cvtsi32_si128(static_cast<int>(s)));
  }
  SCD_LANE K and_keys(K a, K b) { return _mm512_and_epi64(a, b); }
  /// vpmovqd: the truncating narrow of each 64-bit lane to 32 bits.
  SCD_LANE void store_indices(std::uint32_t* out, K v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm512_cvtepi64_epi32(v));
  }
};

}  // namespace scd::simd::avx512

#endif

namespace scd::simd::avx512 {
#include "simd/kernels_body.inc"
}  // namespace scd::simd::avx512
