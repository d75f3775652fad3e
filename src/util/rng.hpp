// Deterministic pseudo-random number generation.
//
// Every randomized component of the library (network generators, workload
// generators, drifting directories) takes an explicit 64-bit seed and owns
// its own generator — there is no global RNG state, so every experiment is
// reproducible from its printed seed.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded via splitmix64,
// chosen for speed, quality, and a trivially portable implementation that
// produces identical streams on every platform (unlike std::mt19937's
// distributions, whose outputs are implementation-defined).
//
// CounterNormal is the stateless counterpart: a normal variate as a pure
// function of (key, counter), for processes that must be evaluated in any
// order, on any thread, without replaying a stream.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace hcs {

/// splitmix64 step; used to expand a single seed into generator state.
/// Exposed because tests and hashing utilities reuse it.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Weyl increment of wyrand; counter_hash steps keys by multiples of it.
inline constexpr std::uint64_t kCounterStride = 0xA0761D6478BD642FULL;

/// wyrand's output mix: one 64x64 -> 128-bit multiply, high half xor low.
[[nodiscard]] constexpr std::uint64_t wymix(std::uint64_t state) noexcept {
  __extension__ using u128 = unsigned __int128;
  const u128 product =
      static_cast<u128>(state) * (state ^ 0xE7037ED1A0B428DBULL);
  return static_cast<std::uint64_t>(product >> 64) ^
         static_cast<std::uint64_t>(product);
}

/// 64 random bits owned by `counter` in the stream keyed `key`: wyrand's
/// output for a state of key + counter * kCounterStride.
[[nodiscard]] constexpr std::uint64_t counter_hash(std::uint64_t key,
                                                   std::uint64_t counter) noexcept {
  return wymix(key + counter * kCounterStride);
}

/// Inverse standard normal CDF, Φ⁻¹(p) for p in (0, 1), to about 1e-16
/// relative (Wichura's AS 241 rational approximations).
[[nodiscard]] double normal_quantile(double p) noexcept;

/// Standard normal variates from 64 random bits, for counter-based
/// sampling: normal(counter_hash(key, n)) is a pure function of (key, n).
///
/// The top 12 bits pick one of 4096 equal-probability cells of the
/// normal law. Inside the 4094 interior cells the low 52 bits interpolate
/// the quantile linearly between shared table entries; the two outer cells
/// (p < 1/4096 or p > 4095/4096) take normal_quantile exactly, so the
/// tails are exact out to |z| ≈ 8.3. Every cell has probability exactly
/// 1/4096 and complementing the bits negates the result (up to rounding),
/// so the mean is 0; interpolation inflates the variance to 1 + 7e-5.
/// Results are finite for every input.
class CounterNormal {
 public:
  /// Binds the shared quantile table (built once, on first use).
  CounterNormal() noexcept;

  /// The normal deviate of 64 uniformly random bits.
  [[nodiscard]] double operator()(std::uint64_t bits) const noexcept {
    const std::uint64_t cell = bits >> (64 - kCellBits);
    if (cell - 1 < kCells - 2) {
      // The low 52 bits as the mantissa of a double in [1, 2), shifted to
      // the middle of its 2^-52 slot: frac = (low + 0.5) * 2^-52, exactly.
      const double frac =
          std::bit_cast<double>(kOne | (bits & kMantissa)) - kOneLessHalfUlp;
      const double lo = quantiles_[cell];
      return lo + frac * (quantiles_[cell + 1] - lo);
    }
    return tail(bits);
  }

 private:
  static constexpr int kCellBits = 12;
  static constexpr std::uint64_t kCells = std::uint64_t{1} << kCellBits;
  static constexpr std::uint64_t kOne = 0x3FF0000000000000ULL;  // 1.0
  static constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  static constexpr double kOneLessHalfUlp = 1.0 - 0x1.0p-53;

  /// Exact quantile of the two outer cells.
  [[nodiscard]] static double tail(std::uint64_t bits) noexcept;

  const double* quantiles_;  ///< Φ⁻¹(c / 4096), c = 0..4096
};

/// xoshiro256** pseudo-random generator with explicit seeding and
/// portable, implementation-independent distributions.
class Rng {
 public:
  /// Constructs a generator whose stream is fully determined by `seed`.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, bound). Requires bound > 0. Uses rejection
  /// sampling, so the result is exactly uniform.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Standard normal variate (Box–Muller; one value per call, the pair's
  /// second value is cached).
  [[nodiscard]] double normal() noexcept;

  /// Normal variate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Log-normal variate parameterized by the underlying normal's mu/sigma.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Fisher–Yates shuffle of `values`.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Derives an independent child generator; used to give parallel
  /// experiment repetitions decorrelated, reproducible streams.
  [[nodiscard]] Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace hcs
