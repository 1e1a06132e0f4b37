// Deterministic, seedable random number generation.
//
// All stochastic components of the library (hash seeds, synthetic traffic,
// Monte-Carlo tests) draw from these generators rather than <random>'s
// distributions, whose outputs are implementation-defined. Every experiment
// in the repository is therefore reproducible bit-for-bit across platforms.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace scd::common {

/// SplitMix64 step; used for seed expansion and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes a single 64-bit value into a well-distributed 64-bit value.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** — fast, high-quality 64-bit PRNG (Blackman & Vigna).
/// Seeded via SplitMix64 so that any 64-bit seed yields a good state.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
  }

  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Raw generator state, for checkpoint/restore: a generator restored via
  /// set_state produces the exact sequence the source would have.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Seedable RNG with the distributions the library needs. Not thread-safe;
/// create one per thread / per component.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) noexcept : gen_(seed) {}

  /// Complete generator state for checkpoint/restore: the xoshiro words plus
  /// the Box–Muller spare deviate, so a restored Rng continues the exact
  /// deviate sequence (normal() included) of the snapshotted one.
  struct Snapshot {
    std::array<std::uint64_t, 4> state{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept {
    return {gen_.state(), cached_normal_, has_cached_normal_};
  }
  void restore(const Snapshot& snap) noexcept {
    gen_.set_state(snap.state);
    cached_normal_ = snap.cached_normal;
    has_cached_normal_ = snap.has_cached_normal;
  }

  /// The snapshot's field list (common/bytes.h).
  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& rng) {
    Snapshot snap = rng.snapshot();
    ar.field(snap.state);
    ar.field(snap.cached_normal);
    ar.field(snap.has_cached_normal);
    if constexpr (Ar::kReads) rng.restore(snap);
  }

  /// Uniform over all 64-bit values.
  [[nodiscard]] std::uint64_t next_u64() noexcept { return gen_.next(); }

  /// Uniform over [0, bound). bound must be > 0. Uses Lemire's method.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform over [lo, hi] inclusive.
  [[nodiscard]] std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>(gen_.next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  [[nodiscard]] bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Exponential with given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Standard normal via Box–Muller (caches the second deviate).
  [[nodiscard]] double normal() noexcept;
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// exp(normal(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Poisson with the given mean; Knuth for small means, rounded normal
  /// approximation for large ones.
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  /// Pareto with scale xm > 0 and shape alpha > 0.
  [[nodiscard]] double pareto(double xm, double alpha) noexcept;

 private:
  Xoshiro256 gen_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Zipf distribution over ranks {0, 1, ..., n-1} with exponent s:
/// P(rank k) proportional to 1/(k+1)^s. Sampling is O(log n) by binary search
/// over a precomputed CDF; construction is O(n).
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double exponent);

  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;

  /// Probability mass of a given rank.
  [[nodiscard]] double pmf(std::size_t rank) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }

 private:
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k)
  double exponent_;
};

}  // namespace scd::common
