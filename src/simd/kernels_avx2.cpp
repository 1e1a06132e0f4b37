// The AVX2+FMA leg: its lane set, four doubles per __m256d, and the seven
// kernels of kernels_body.inc instantiated over it. Built into every binary
// through per-function target("avx2,fma") attributes; only executed after a
// cpuid check (supported(), consulted once by the dispatcher in
// kernels.cpp).
#include "simd/kernels_avx2.h"

#include <cmath>

#include "simd/kernels_scalar.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#define SCD_SIMD_TARGET __attribute__((target("avx2,fma")))
#define SCD_LANE SCD_SIMD_TARGET __attribute__((always_inline)) static inline

namespace scd::simd::avx2 {

bool supported() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

/// Compare masks are all-ones lanes in a __m256d; a blend only moves bits,
/// so it carries the 64-bit keys through the pd domain unchanged.
struct Lanes {
  using V = __m256d;
  using K = __m256i;
  using M = __m256d;
  static constexpr std::size_t kWidth = 4;

  SCD_LANE V load(const double* p) { return _mm256_loadu_pd(p); }
  SCD_LANE void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  SCD_LANE V add(V a, V b) { return _mm256_add_pd(a, b); }
  SCD_LANE V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  SCD_LANE V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  SCD_LANE V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  SCD_LANE V set1(double c) { return _mm256_set1_pd(c); }
  SCD_LANE V zero() { return _mm256_setzero_pd(); }
  /// (v0 + v2) + (v1 + v3).
  SCD_LANE double reduce_lanes(V v) {
    const __m128d pair =
        _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }

  SCD_LANE M eq(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  SCD_LANE M ge(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  SCD_LANE V select(M m, V a, V b) { return _mm256_blendv_pd(a, b, m); }
  SCD_LANE M mask_or(M a, M b) { return _mm256_or_pd(a, b); }
  SCD_LANE M mask_andnot(M a, M b) { return _mm256_andnot_pd(a, b); }

  SCD_LANE K load_keys(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  SCD_LANE void store_keys(std::uint64_t* p, K k) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), k);
  }
  SCD_LANE K set1_keys(std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  SCD_LANE K zero_keys() { return _mm256_setzero_si256(); }
  SCD_LANE M keys_eq(K a, K b) {
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b));
  }
  SCD_LANE K select_keys(M m, K a, K b) {
    return _mm256_castpd_si256(_mm256_blendv_pd(_mm256_castsi256_pd(a),
                                                _mm256_castsi256_pd(b), m));
  }
  SCD_LANE K shift_right(K v, unsigned s) {
    return _mm256_srl_epi64(v, _mm_cvtsi32_si128(static_cast<int>(s)));
  }
  SCD_LANE K and_keys(K a, K b) { return _mm256_and_si256(a, b); }
  /// Gathers the low dword of each 64-bit lane into 128 bits and stores it.
  SCD_LANE void store_indices(std::uint32_t* out, K v) {
    const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out),
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, pick)));
  }
};

}  // namespace scd::simd::avx2

#endif

namespace scd::simd::avx2 {
#include "simd/kernels_body.inc"
}  // namespace scd::simd::avx2
