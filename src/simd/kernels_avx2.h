// AVX2+FMA kernel implementations — per-ISA backend of simd/kernels.h.
//
// Do not include this header outside src/simd and the test tree: callers go
// through simd/kernels.h (scd_lint `simd-isolation`). The functions are
// compiled with GCC/Clang `target("avx2,fma")` attributes in
// kernels_avx2.cpp, so the translation unit needs no global -mavx2 flag and
// the rest of the binary stays runnable on any x86-64. Calling any kernel
// here when supported() is false is undefined (illegal instruction) — only
// the dispatcher in kernels.cpp and the equivalence tests may call them, and
// both check supported() first.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"

namespace scd::simd::avx2 {

/// True when this build has AVX2 implementations and the running CPU
/// executes AVX2+FMA. Always false on non-x86 targets.
[[nodiscard]] bool supported() noexcept;

void scale(double* x, std::size_t n, double c) noexcept;
void axpy(double* y, const double* x, std::size_t n, double c) noexcept;
[[nodiscard]] double dot(const double* x, const double* y,
                         std::size_t n) noexcept;
[[nodiscard]] double sum_squares(const double* x, std::size_t n) noexcept;
[[nodiscard]] double hsum(const double* x, std::size_t n) noexcept;
void index_shift_mask(const std::uint64_t* packed, std::size_t n,
                      unsigned shift, std::uint64_t mask,
                      std::uint32_t* out) noexcept;
void mv_fold(const MvCells& dst, const MvConstCells& src, std::size_t n,
             double c, bool clear_stale, const MvCells* drain) noexcept;

}  // namespace scd::simd::avx2
