// Scalar-vs-SIMD equivalence property tests for the kernel layer.
//
// Every kernel is compared against the scalar reference loop over
// randomized sizes (including empty, sub-vector-width, and remainder-tail
// shapes):
//   * scale and axpy are element-wise → results must be BIT-EXACT between
//     implementations (the AVX2 lane computes exactly the scalar
//     expression for its element, FMA included);
//   * mv_fold is element-wise too, and every implementation, the scalar
//     reference included, must match a branchy per-cell rendering of the
//     majority-vote rule bit for bit;
//   * dot / sum_squares / hsum reassociate the reduction across lanes →
//     results must agree within a tolerance scaled to the condition of the
//     sum (ULP-level per accumulated term);
//   * on top of both, KernelPinnedBits pins every leg's exact output bits
//     for fixed seeded inputs, so a reduction whose association order
//     changes fails even while it stays within that tolerance.
//
// ctest runs this binary several times: once with ambient dispatch (the
// widest ISA the CPU has), and once each re-registered with SCD_SIMD=scalar,
// avx2 and avx512 (simd.kernels_{scalar,avx2,avx512}_dispatch) — the forced
// vector legs double as the clean-fallback tests on hosts without that
// ISA. The AVX2 and AVX-512 backends are additionally tested directly
// (bypassing dispatch) whenever the CPU supports them, so coverage does not
// depend on which table the environment selected.
#include "simd/kernels.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "simd/kernels_avx2.h"
#include "simd/kernels_avx512.h"
#include "simd/kernels_scalar.h"

namespace scd::simd {
namespace {

// Shapes chosen to hit: empty, scalar tail only, exactly one vector, the
// 16-wide unrolled body, unroll+vector+tail remainders, and the real table
// sizes (H*K for K=4096 and a full row at K=65536).
const std::vector<std::size_t> kSizes = {0,  1,  2,   3,    4,    5,    7,
                                         8,  15, 16,  17,   31,   32,   33,
                                         63, 100, 255, 4096, 20480, 65536};

std::vector<double> random_values(common::Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  for (double& v : out) v = rng.uniform(-1e3, 1e3);
  return out;
}

/// Tolerance for a reassociated sum: proportional to the magnitude
/// accumulated, with generous slack (64 ULP-equivalents per term bound).
double reduction_tolerance(double magnitude) {
  return 64.0 * std::numeric_limits<double>::epsilon() * (magnitude + 1.0);
}

struct Backend {
  const char* name;
  void (*scale)(double*, std::size_t, double) noexcept;
  void (*axpy)(double*, const double*, std::size_t, double) noexcept;
  double (*dot)(const double*, const double*, std::size_t) noexcept;
  double (*sum_squares)(const double*, std::size_t) noexcept;
  double (*hsum)(const double*, std::size_t) noexcept;
};

/// The implementations under test, always judged against simd::scalar.
/// The dispatched entry points are included so the env-forced ctest rerun
/// also validates the dispatch wiring itself.
std::vector<Backend> backends_under_test() {
  std::vector<Backend> out;
  out.push_back(Backend{"dispatch", &simd::scale, &simd::axpy, &simd::dot,
                        &simd::sum_squares, &simd::hsum});
  if (avx2::supported()) {
    out.push_back(Backend{"avx2", &avx2::scale, &avx2::axpy, &avx2::dot,
                          &avx2::sum_squares, &avx2::hsum});
  }
  if (avx512::supported()) {
    out.push_back(Backend{"avx512", &avx512::scale, &avx512::axpy,
                          &avx512::dot, &avx512::sum_squares, &avx512::hsum});
  }
  return out;
}

TEST(KernelDispatch, HonorsScdSimdEnvironment) {
  const char* env = std::getenv("SCD_SIMD");
  if (env != nullptr && std::string_view(env) == "scalar") {
    EXPECT_EQ(active_isa(), IsaLevel::kScalar);
  } else if (env != nullptr && std::string_view(env) == "avx2") {
    // Forced AVX2 must either run AVX2 or fall back cleanly to scalar.
    EXPECT_EQ(active_isa(),
              cpu_supports_avx2() ? IsaLevel::kAvx2 : IsaLevel::kScalar);
  } else if (env != nullptr && std::string_view(env) == "avx512") {
    // The dispatch-fallback contract: on a host without AVX-512F the forced
    // request degrades to scalar (with a stderr note), never crashes.
    EXPECT_EQ(active_isa(),
              cpu_supports_avx512() ? IsaLevel::kAvx512 : IsaLevel::kScalar);
  } else if (env == nullptr) {
    // Auto-detection: the widest ISA the CPU has wins.
    const IsaLevel expected = cpu_supports_avx512() ? IsaLevel::kAvx512
                              : cpu_supports_avx2() ? IsaLevel::kAvx2
                                                    : IsaLevel::kScalar;
    EXPECT_EQ(active_isa(), expected);
  }
  switch (active_isa()) {
    case IsaLevel::kAvx512:
      EXPECT_STREQ(isa_name(active_isa()), "avx512");
      break;
    case IsaLevel::kAvx2:
      EXPECT_STREQ(isa_name(active_isa()), "avx2");
      break;
    case IsaLevel::kScalar:
      EXPECT_STREQ(isa_name(active_isa()), "scalar");
      break;
  }
}

TEST(KernelDispatch, DispatchedKernelsWorkUnderForcedIsa) {
  // Regardless of which table the environment picked (including the
  // fallback path for SCD_SIMD=avx512 on a non-AVX-512 host), the
  // dispatched entry points must produce correct results — "clean
  // fallback" means computing, not just not crashing.
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  simd::scale(x.data(), x.size(), 2.0);
  EXPECT_EQ(x[0], 2.0);
  EXPECT_EQ(x[4], 10.0);
  EXPECT_EQ(simd::hsum(x.data(), x.size()), 30.0);
}

TEST(KernelEquivalence, ScaleIsBitExact) {
  common::Rng rng(11);
  for (const Backend& backend : backends_under_test()) {
    for (std::size_t n : kSizes) {
      const std::vector<double> base = random_values(rng, n);
      const double c = rng.uniform(-3.0, 3.0);
      std::vector<double> expect = base;
      scalar::scale(expect.data(), n, c);
      std::vector<double> got = base;
      backend.scale(got.data(), n, c);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(expect[i], got[i])
            << backend.name << " scale n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelEquivalence, AxpyIsBitExact) {
  common::Rng rng(12);
  for (const Backend& backend : backends_under_test()) {
    for (std::size_t n : kSizes) {
      const std::vector<double> x = random_values(rng, n);
      const std::vector<double> y = random_values(rng, n);
      const double c = rng.uniform(-3.0, 3.0);
      std::vector<double> expect = y;
      scalar::axpy(expect.data(), x.data(), n, c);
      std::vector<double> got = y;
      backend.axpy(got.data(), x.data(), n, c);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(expect[i], got[i])
            << backend.name << " axpy n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelEquivalence, DotWithinReductionTolerance) {
  common::Rng rng(13);
  for (const Backend& backend : backends_under_test()) {
    for (std::size_t n : kSizes) {
      const std::vector<double> x = random_values(rng, n);
      const std::vector<double> y = random_values(rng, n);
      const double expect = scalar::dot(x.data(), y.data(), n);
      const double got = backend.dot(x.data(), y.data(), n);
      double magnitude = 0.0;
      for (std::size_t i = 0; i < n; ++i) magnitude += std::abs(x[i] * y[i]);
      ASSERT_NEAR(expect, got, reduction_tolerance(magnitude))
          << backend.name << " dot n=" << n;
    }
  }
}

TEST(KernelEquivalence, SumSquaresWithinReductionTolerance) {
  common::Rng rng(14);
  for (const Backend& backend : backends_under_test()) {
    for (std::size_t n : kSizes) {
      const std::vector<double> x = random_values(rng, n);
      const double expect = scalar::sum_squares(x.data(), n);
      const double got = backend.sum_squares(x.data(), n);
      ASSERT_NEAR(expect, got, reduction_tolerance(expect))
          << backend.name << " sum_squares n=" << n;
    }
  }
}

TEST(KernelEquivalence, HsumWithinReductionTolerance) {
  common::Rng rng(15);
  for (const Backend& backend : backends_under_test()) {
    for (std::size_t n : kSizes) {
      const std::vector<double> x = random_values(rng, n);
      const double expect = scalar::hsum(x.data(), n);
      const double got = backend.hsum(x.data(), n);
      double magnitude = 0.0;
      for (double v : x) magnitude += std::abs(v);
      ASSERT_NEAR(expect, got, reduction_tolerance(magnitude))
          << backend.name << " hsum n=" << n;
    }
  }
}

TEST(KernelEquivalence, IndexShiftMaskIsExact) {
  // Pure integer lane work — every backend must agree bit-for-bit with the
  // scalar reference for every lane shift and tail shape.
  using IndexFn = void (*)(const std::uint64_t*, std::size_t, unsigned,
                           std::uint64_t, std::uint32_t*) noexcept;
  std::vector<std::pair<const char*, IndexFn>> impls = {
      {"dispatch", &simd::index_shift_mask}};
  if (avx2::supported()) impls.emplace_back("avx2", &avx2::index_shift_mask);
  if (avx512::supported()) {
    impls.emplace_back("avx512", &avx512::index_shift_mask);
  }
  common::Rng rng(17);
  for (const auto& [name, fn] : impls) {
    for (std::size_t n : kSizes) {
      if (n > 4096) continue;  // block-sized inputs; larger adds nothing
      std::vector<std::uint64_t> packed(n);
      for (auto& v : packed) {
        v = (static_cast<std::uint64_t>(rng.next_in(0, 65535)) << 48) |
            (static_cast<std::uint64_t>(rng.next_in(0, 65535)) << 32) |
            (static_cast<std::uint64_t>(rng.next_in(0, 65535)) << 16) |
            static_cast<std::uint64_t>(rng.next_in(0, 65535));
      }
      for (unsigned lane = 0; lane < 4; ++lane) {
        for (std::uint64_t mask : {0x3FFULL, 0xFFFULL, 0xFFFFULL}) {
          std::vector<std::uint32_t> expect(n), got(n, 0xDEADBEEF);
          scalar::index_shift_mask(packed.data(), n, lane * 16, mask,
                                   expect.data());
          fn(packed.data(), n, lane * 16, mask, got.data());
          ASSERT_EQ(expect, got) << name << " n=" << n << " lane=" << lane
                                 << " mask=" << mask;
        }
      }
    }
  }
}

TEST(KernelEquivalence, ReductionsAreExactOnIntegerValues) {
  // Integer-valued registers (packet/byte counts with c = 1) stay exact
  // under any summation order while the total fits a double exactly — the
  // property the parallel-vs-serial alarm equivalence relies on.
  common::Rng rng(16);
  for (const Backend& backend : backends_under_test()) {
    for (std::size_t n : {31UL, 4096UL, 20480UL}) {
      std::vector<double> x(n);
      for (double& v : x) {
        v = static_cast<double>(rng.next_in(-1000, 1000));
      }
      ASSERT_EQ(scalar::hsum(x.data(), n), backend.hsum(x.data(), n))
          << backend.name << " n=" << n;
      ASSERT_EQ(scalar::sum_squares(x.data(), n),
                backend.sum_squares(x.data(), n))
          << backend.name << " n=" << n;
    }
  }
}

/// One majority-vote table held by value, for mv_fold.
struct MvTable {
  std::vector<double> counts;
  std::vector<std::uint64_t> candidates;
  std::vector<double> votes;

  explicit MvTable(std::size_t n) : counts(n), candidates(n), votes(n) {}
  [[nodiscard]] MvCells cells() {
    return {counts.data(), candidates.data(), votes.data()};
  }
  [[nodiscard]] MvConstCells const_cells() const {
    return {counts.data(), candidates.data(), votes.data()};
  }
  [[nodiscard]] bool same_bytes(const MvTable& other) const {
    const std::size_t n = counts.size();
    if (other.counts.size() != n) return false;
    // memcmp must not see an empty vector's null data().
    return n == 0 || (std::memcmp(counts.data(), other.counts.data(),
                                  n * sizeof(double)) == 0 &&
                      std::memcmp(candidates.data(), other.candidates.data(),
                                  n * sizeof(std::uint64_t)) == 0 &&
                      std::memcmp(votes.data(), other.votes.data(),
                                  n * sizeof(double)) == 0);
  }
};

/// BasicMvSketch's vote() step, branch for branch: the rule mv_fold must
/// reproduce without branches.
void reference_vote(std::uint64_t& cand, double& vote, std::uint64_t key,
                    double w) {
  if (w == 0.0) return;
  if (vote == 0.0) {
    cand = key;
    vote = w;
  } else if (cand == key) {
    vote += w;
  } else if (vote >= w) {
    vote -= w;
  } else {
    vote = w - vote;
    cand = key;
  }
}

/// The merge as BasicMvSketch::add_scaled used to run it: an axpy on the
/// counters, then vote() per cell.
void reference_fold(MvTable& dst, const MvTable& src, double c) {
  const std::size_t n = dst.counts.size();
  for (std::size_t i = 0; i < n; ++i) {
    dst.counts[i] += c * src.counts[i];
    reference_vote(dst.candidates[i], dst.votes[i], src.candidates[i],
                   std::abs(c) * src.votes[i]);
  }
}

/// The cell shapes mv_fold's selection distinguishes.
enum class VoteCase {
  kStaleEmptyDestination,  // dst vote 0, stale nonzero candidate
  kEmptySource,            // src vote 0, nonzero src candidate
  kSameCandidate,
  kDestinationHolds,       // dst vote > w, different candidate
  kExactCancel,            // dst vote == w, different candidate
  kDestinationLoses,       // dst vote < w, different candidate
};
constexpr std::size_t kVoteCases = 6;

/// Cell i of a (dst, src) pair is built to fall in case i % 6 for c != 0,
/// with votes in halves so that w = |c| * vote is exact for c = +-1, 0.5.
std::pair<MvTable, MvTable> vote_case_tables(common::Rng& rng, std::size_t n,
                                             double c) {
  MvTable dst(n);
  MvTable src(n);
  for (std::size_t i = 0; i < n; ++i) {
    dst.counts[i] = rng.uniform(-1e3, 1e3);
    src.counts[i] = rng.uniform(-1e3, 1e3);
    const std::uint64_t key = 1 + rng.next_below(1u << 30);
    const std::uint64_t other = key + 1 + rng.next_below(1000);
    src.candidates[i] = key;
    src.votes[i] = 0.5 * static_cast<double>(1 + rng.next_below(64));
    dst.candidates[i] = other;
    const double w = std::abs(c) * src.votes[i];
    switch (static_cast<VoteCase>(i % kVoteCases)) {
      case VoteCase::kStaleEmptyDestination:
        dst.votes[i] = 0.0;
        break;
      case VoteCase::kEmptySource:
        src.votes[i] = 0.0;
        dst.votes[i] = 0.5 * static_cast<double>(rng.next_below(8));
        break;
      case VoteCase::kSameCandidate:
        dst.candidates[i] = key;
        dst.votes[i] = 0.5 * static_cast<double>(1 + rng.next_below(64));
        break;
      case VoteCase::kDestinationHolds:
        dst.votes[i] = w + 0.5 * static_cast<double>(1 + rng.next_below(8));
        break;
      case VoteCase::kExactCancel:
        dst.votes[i] = w;
        break;
      case VoteCase::kDestinationLoses:
        dst.votes[i] = w / 4.0;
        break;
    }
  }
  return {std::move(dst), std::move(src)};
}

using MvFoldFn = void (*)(const MvCells&, const MvConstCells&, std::size_t,
                          double) noexcept;

std::vector<std::pair<const char*, MvFoldFn>> mv_fold_impls() {
  std::vector<std::pair<const char*, MvFoldFn>> impls = {
      {"dispatch", &simd::mv_fold}, {"scalar", &scalar::mv_fold}};
  if (avx2::supported()) impls.emplace_back("avx2", &avx2::mv_fold);
  if (avx512::supported()) impls.emplace_back("avx512", &avx512::mv_fold);
  return impls;
}

TEST(KernelEquivalence, MvFoldMatchesThePerCellVoteRule) {
  // Bit equality with the branchy per-cell rule, on every implementation,
  // for every vote case, every coefficient shape and every tail length
  // (below, at and just past one AVX-512 vector, and a ragged 33).
  common::Rng rng(18);
  for (const auto& [name, fold] : mv_fold_impls()) {
    for (const std::size_t n : {0UL, 1UL, 7UL, 8UL, 9UL, 33UL, 4099UL}) {
      for (const double c : {1.0, -1.0, 0.5, 0.0}) {
        SCOPED_TRACE(::testing::Message() << name << " n=" << n << " c=" << c);
        auto [dst, src] = vote_case_tables(rng, n, c);
        MvTable expect_dst = dst;
        const MvTable before_src = src;
        reference_fold(expect_dst, src, c);
        fold(dst.cells(), src.const_cells(), n, c);
        ASSERT_TRUE(dst.same_bytes(expect_dst));
        ASSERT_TRUE(src.same_bytes(before_src));
      }
    }
  }
}

TEST(KernelEquivalence, MvFoldVoteCasesReachEveryOutcome) {
  // The case tables above must produce every outcome of the rule, or the
  // bit-equality test could pass without exercising one: per case, the
  // reference's result for c = 1.
  constexpr std::size_t n = 6 * kVoteCases;
  common::Rng rng(19);
  auto [dst, src] = vote_case_tables(rng, n, 1.0);
  const MvTable before = dst;
  reference_fold(dst, src, 1.0);
  std::array<std::size_t, kVoteCases> seen{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = src.candidates[i];
    bool outcome = false;
    switch (static_cast<VoteCase>(i % kVoteCases)) {
      case VoteCase::kStaleEmptyDestination:
        outcome = before.votes[i] == 0.0 && before.candidates[i] != 0 &&
                  dst.candidates[i] == key && dst.votes[i] == src.votes[i];
        break;
      case VoteCase::kEmptySource:
        outcome = src.votes[i] == 0.0 && key != 0 &&
                  dst.votes[i] == before.votes[i] &&
                  dst.candidates[i] == before.candidates[i];
        break;
      case VoteCase::kSameCandidate:
        outcome = dst.candidates[i] == key &&
                  dst.votes[i] == before.votes[i] + src.votes[i];
        break;
      case VoteCase::kDestinationHolds:
        outcome = dst.candidates[i] == before.candidates[i] &&
                  dst.votes[i] > 0.0;
        break;
      case VoteCase::kExactCancel:
        outcome = dst.candidates[i] == before.candidates[i] &&
                  dst.votes[i] == 0.0;
        break;
      case VoteCase::kDestinationLoses:
        outcome = dst.candidates[i] == key &&
                  dst.votes[i] == src.votes[i] - before.votes[i];
        break;
    }
    if (outcome) ++seen[i % kVoteCases];
  }
  for (std::size_t v = 0; v < kVoteCases; ++v) {
    EXPECT_EQ(seen[v], n / kVoteCases) << "vote case " << v;
  }
}


/// All seven kernels of one leg, called directly.
struct Leg {
  const char* name;
  void (*scale)(double*, std::size_t, double) noexcept;
  void (*axpy)(double*, const double*, std::size_t, double) noexcept;
  double (*dot)(const double*, const double*, std::size_t) noexcept;
  double (*sum_squares)(const double*, std::size_t) noexcept;
  double (*hsum)(const double*, std::size_t) noexcept;
  void (*index_shift_mask)(const std::uint64_t*, std::size_t, unsigned,
                           std::uint64_t, std::uint32_t*) noexcept;
  MvFoldFn mv_fold;
};

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a(std::uint64_t h, const std::vector<T>& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(T));
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  return fnv1a(h, &v, sizeof v);
}

/// One digest per kernel: the output bits over every size in kSizes.
struct KernelDigests {
  std::uint64_t scale, axpy, dot, sum_squares, hsum, index_shift_mask,
      mv_fold;
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Runs every kernel of `leg` on fixed seeded inputs and digests the exact
/// output bits. Each kernel draws from its own seed, so a digest depends on
/// that kernel alone.
KernelDigests digest_leg(const Leg& leg) {
  KernelDigests d{kFnvBasis, kFnvBasis, kFnvBasis, kFnvBasis,
                  kFnvBasis, kFnvBasis, kFnvBasis};
  common::Rng rng_scale(101), rng_axpy(102), rng_dot(103), rng_sq(104),
      rng_hsum(105), rng_index(106), rng_fold(107);
  for (const std::size_t n : kSizes) {
    std::vector<double> x = random_values(rng_scale, n);
    leg.scale(x.data(), n, rng_scale.uniform(-3.0, 3.0));
    d.scale = fnv1a(d.scale, x);

    const std::vector<double> ax = random_values(rng_axpy, n);
    std::vector<double> ay = random_values(rng_axpy, n);
    leg.axpy(ay.data(), ax.data(), n, rng_axpy.uniform(-3.0, 3.0));
    d.axpy = fnv1a(d.axpy, ay);

    const std::vector<double> dx = random_values(rng_dot, n);
    const std::vector<double> dy = random_values(rng_dot, n);
    d.dot = fnv1a(d.dot, leg.dot(dx.data(), dy.data(), n));

    const std::vector<double> sq = random_values(rng_sq, n);
    d.sum_squares = fnv1a(d.sum_squares, leg.sum_squares(sq.data(), n));

    const std::vector<double> hs = random_values(rng_hsum, n);
    d.hsum = fnv1a(d.hsum, leg.hsum(hs.data(), n));

    std::vector<std::uint64_t> packed(n);
    for (auto& v : packed) v = rng_index.next_u64();
    std::vector<std::uint32_t> idx(n);
    leg.index_shift_mask(packed.data(), n, 16, 0xFFFFULL, idx.data());
    d.index_shift_mask = fnv1a(d.index_shift_mask, idx);

    // A plain merge, then a scaled one into a table whose zero-vote cells
    // read candidate 0, with the source zeroed after it: the tables the
    // pinned digest was first taken over.
    auto [dst, src] = vote_case_tables(rng_fold, n, 1.0);
    leg.mv_fold(dst.cells(), src.const_cells(), n, 1.0);
    auto [dst2, src2] = vote_case_tables(rng_fold, n, -0.5);
    for (std::size_t i = 0; i < n; ++i) {
      if (dst2.votes[i] == 0.0) dst2.candidates[i] = 0;
    }
    leg.mv_fold(dst2.cells(), src2.const_cells(), n, -0.5);
    src2 = MvTable(n);
    for (const MvTable* t : {&dst, &dst2, &src2}) {
      d.mv_fold = fnv1a(d.mv_fold, t->counts);
      d.mv_fold = fnv1a(d.mv_fold, t->candidates);
      d.mv_fold = fnv1a(d.mv_fold, t->votes);
    }
  }
  return d;
}

/// The pinned digests. scale, axpy, index_shift_mask and mv_fold are
/// element-wise and bit-exact across legs, so one value serves every leg;
/// the reductions (dot, sum_squares, hsum) are pinned per leg, because each
/// leg's lane width and reduction tree fix its own association order.
constexpr std::uint64_t kScaleDigest = 0xcc1f1b4bf4b4565eULL;
constexpr std::uint64_t kAxpyDigest = 0x99dc9ad1864209aeULL;
constexpr std::uint64_t kIndexDigest = 0x278f5139b8a4bfebULL;
constexpr std::uint64_t kMvFoldDigest = 0x5a884fe9e6e3c646ULL;

struct ReductionDigests {
  std::uint64_t dot, sum_squares, hsum;
};
constexpr ReductionDigests kScalarReductions{
    0xa9a2d8ff17431c7fULL, 0xd3c089125c7330caULL, 0x68edd9cb234bbacfULL};
constexpr ReductionDigests kAvx2Reductions{
    0x7f89ddaa2ce79ac1ULL, 0x85b6cf26bb68942fULL, 0x9d3df45defb7d4acULL};
constexpr ReductionDigests kAvx512Reductions{
    0x21cc13b96fb1b823ULL, 0xef780acf07c4bd91ULL, 0xa8bdd07578de3ff2ULL};

void expect_pinned(const Leg& leg, const ReductionDigests& reductions) {
  SCOPED_TRACE(leg.name);
  const KernelDigests got = digest_leg(leg);
  const auto hex = [](std::uint64_t v) {
    return ::testing::Message() << "0x" << std::hex << v << "ULL";
  };
  EXPECT_EQ(got.scale, kScaleDigest) << "scale " << hex(got.scale);
  EXPECT_EQ(got.axpy, kAxpyDigest) << "axpy " << hex(got.axpy);
  EXPECT_EQ(got.index_shift_mask, kIndexDigest)
      << "index_shift_mask " << hex(got.index_shift_mask);
  EXPECT_EQ(got.mv_fold, kMvFoldDigest) << "mv_fold " << hex(got.mv_fold);
  EXPECT_EQ(got.dot, reductions.dot) << "dot " << hex(got.dot);
  EXPECT_EQ(got.sum_squares, reductions.sum_squares)
      << "sum_squares " << hex(got.sum_squares);
  EXPECT_EQ(got.hsum, reductions.hsum) << "hsum " << hex(got.hsum);
}

TEST(KernelPinnedBits, EveryLegReproducesItsPinnedOutputBits) {
  // The equivalence tests above allow reductions a tolerance against the
  // scalar reference; these digests pin each leg's exact output bits, so a
  // change in any leg's association order, tail or vote selection fails
  // here even when it stays within tolerance.
  expect_pinned(Leg{"scalar", scalar::scale, scalar::axpy, scalar::dot,
                    scalar::sum_squares, scalar::hsum,
                    scalar::index_shift_mask, scalar::mv_fold},
                kScalarReductions);
  if (avx2::supported()) {
    expect_pinned(Leg{"avx2", avx2::scale, avx2::axpy, avx2::dot,
                      avx2::sum_squares, avx2::hsum, avx2::index_shift_mask,
                      avx2::mv_fold},
                  kAvx2Reductions);
  }
  if (avx512::supported()) {
    expect_pinned(Leg{"avx512", avx512::scale, avx512::axpy, avx512::dot,
                      avx512::sum_squares, avx512::hsum,
                      avx512::index_shift_mask, avx512::mv_fold},
                  kAvx512Reductions);
  }
  // The dispatched entry points reproduce the selected leg's bits.
  const ReductionDigests& selected =
      active_isa() == IsaLevel::kAvx512 ? kAvx512Reductions
      : active_isa() == IsaLevel::kAvx2 ? kAvx2Reductions
                                         : kScalarReductions;
  expect_pinned(Leg{"dispatch", simd::scale, simd::axpy, simd::dot,
                    simd::sum_squares, simd::hsum, simd::index_shift_mask,
                    simd::mv_fold},
                selected);
}

}  // namespace
}  // namespace scd::simd
