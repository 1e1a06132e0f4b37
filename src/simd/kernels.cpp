// Kernel dispatch: resolve scalar-vs-AVX2-vs-AVX-512 exactly once per
// process.
//
// The chosen table is a function-local static, so the cpuid probe and the
// SCD_SIMD environment lookup happen on the first kernel call (thread-safe
// under the C++11 static-init guarantee) and every later call is one indirect
// jump through a resolved pointer — no per-call branching on ISA.
#include "simd/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/kernels_avx2.h"
#include "simd/kernels_avx512.h"
#include "simd/kernels_scalar.h"

namespace scd::simd {

namespace {

struct KernelTable {
  IsaLevel isa;
  void (*scale)(double*, std::size_t, double) noexcept;
  void (*axpy)(double*, const double*, std::size_t, double) noexcept;
  double (*dot)(const double*, const double*, std::size_t) noexcept;
  double (*sum_squares)(const double*, std::size_t) noexcept;
  double (*hsum)(const double*, std::size_t) noexcept;
  void (*index_shift_mask)(const std::uint64_t*, std::size_t, unsigned,
                           std::uint64_t, std::uint32_t*) noexcept;
  void (*mv_fold)(const MvCells&, const MvConstCells&, std::size_t,
                  double) noexcept;
};

constexpr KernelTable kScalarTable{IsaLevel::kScalar,    scalar::scale,
                                   scalar::axpy,         scalar::dot,
                                   scalar::sum_squares,  scalar::hsum,
                                   scalar::index_shift_mask,
                                   scalar::mv_fold};

constexpr KernelTable kAvx2Table{IsaLevel::kAvx2,    avx2::scale,
                                 avx2::axpy,         avx2::dot,
                                 avx2::sum_squares,  avx2::hsum,
                                 avx2::index_shift_mask,
                                 avx2::mv_fold};

constexpr KernelTable kAvx512Table{IsaLevel::kAvx512,    avx512::scale,
                                   avx512::axpy,         avx512::dot,
                                   avx512::sum_squares,  avx512::hsum,
                                   avx512::index_shift_mask,
                                   avx512::mv_fold};

KernelTable select_table() noexcept {
  // Dispatch-init read; nothing in the process calls setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("SCD_SIMD");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return kScalarTable;
    if (std::strcmp(env, "avx2") == 0) {
      if (avx2::supported()) return kAvx2Table;
      std::fputs(
          "scd: SCD_SIMD=avx2 requested but the CPU lacks AVX2+FMA; "
          "falling back to scalar kernels\n",
          stderr);
      return kScalarTable;
    }
    if (std::strcmp(env, "avx512") == 0) {
      if (avx512::supported()) return kAvx512Table;
      std::fputs(
          "scd: SCD_SIMD=avx512 requested but the CPU lacks AVX-512F; "
          "falling back to scalar kernels\n",
          stderr);
      return kScalarTable;
    }
    std::fprintf(stderr,
                 "scd: unknown SCD_SIMD value '%s' (expected 'scalar', "
                 "'avx2' or 'avx512'); using auto-detection\n",
                 env);
  }
  if (avx512::supported()) return kAvx512Table;
  return avx2::supported() ? kAvx2Table : kScalarTable;
}

const KernelTable& table() noexcept {
  static const KernelTable t = select_table();
  return t;
}

}  // namespace

IsaLevel active_isa() noexcept { return table().isa; }

const char* isa_name(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kAvx512:
      return "avx512";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kScalar:
      break;
  }
  return "scalar";
}

bool cpu_supports_avx2() noexcept { return avx2::supported(); }

bool cpu_supports_avx512() noexcept { return avx512::supported(); }

void scale(double* x, std::size_t n, double c) noexcept {
  table().scale(x, n, c);
}

void axpy(double* y, const double* x, std::size_t n, double c) noexcept {
  table().axpy(y, x, n, c);
}

double dot(const double* x, const double* y, std::size_t n) noexcept {
  return table().dot(x, y, n);
}

double sum_squares(const double* x, std::size_t n) noexcept {
  return table().sum_squares(x, n);
}

double hsum(const double* x, std::size_t n) noexcept {
  return table().hsum(x, n);
}

void index_shift_mask(const std::uint64_t* packed, std::size_t n,
                      unsigned shift, std::uint64_t mask,
                      std::uint32_t* out) noexcept {
  table().index_shift_mask(packed, n, shift, mask, out);
}

void mv_fold(const MvCells& dst, const MvConstCells& src, std::size_t n,
             double c) noexcept {
  table().mv_fold(dst, src, n, c);
}

}  // namespace scd::simd
