#include "util/rng.hpp"

#include <array>
#include <cmath>

namespace hcs {
namespace {

[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// Ratio of two degree-7 polynomials in r; den[0] is 1.
[[nodiscard]] double rational7(const double (&num)[8], const double (&den)[8],
                               double r) noexcept {
  double n = num[7];
  double d = den[7];
  for (int i = 6; i >= 0; --i) {
    n = n * r + num[i];
    d = d * r + den[i];
  }
  return n / d;
}

/// Φ⁻¹(c / 4096) for c = 0..4096. The end entries (±∞) are never read:
/// CounterNormal sends the outer cells to normal_quantile.
const std::array<double, 4097>& quantile_table() noexcept {
  static const std::array<double, 4097> table = [] {
    std::array<double, 4097> t{};
    t[0] = -HUGE_VAL;
    t[4096] = HUGE_VAL;
    t[2048] = 0.0;
    // Mirrored so the table is exactly antisymmetric.
    for (int c = 1; c < 2048; ++c) {
      t[c] = normal_quantile(static_cast<double>(c) / 4096.0);
      t[4096 - c] = -t[c];
    }
    return t;
  }();
  return table;
}

}  // namespace

double normal_quantile(double p) noexcept {
  // Algorithm AS 241 (PPND16), Wichura 1988.
  static constexpr double kCentralNum[8] = {
      3.387132872796366608,   133.14166789178437745, 1971.5909503065514427,
      13731.693765509461125,  45921.953931549871457, 67265.770927008700853,
      33430.575583588128105,  2509.0809287301226727};
  static constexpr double kCentralDen[8] = {
      1.0,                   42.313330701600911252, 687.1870074920579083,
      5394.1960214247511077, 21213.794301586595867, 39307.89580009271061,
      28729.085735721942674, 5226.495278852545925};
  static constexpr double kNearNum[8] = {
      1.42343711074968357734,  4.6303378461565452959,
      5.7694972214606914055,   3.64784832476320460504,
      1.27045825245236838258,  0.24178072517745061177,
      0.0227238449892691845833, 7.7454501427834140764e-4};
  static constexpr double kNearDen[8] = {
      1.0,                     2.05319162663775882187,
      1.6763848301838038494,   0.68976733498510000455,
      0.14810397642748007459,  0.0151986665636164571966,
      5.475938084995344946e-4, 1.05075007164441684324e-9};
  static constexpr double kFarNum[8] = {
      6.6579046435011037772,    5.4637849111641143699,
      1.7848265399172913358,    0.29656057182850489123,
      0.026532189526576123093,  0.0012426609473880784386,
      2.71155556874348757815e-5, 2.01033439929228813265e-7};
  static constexpr double kFarDen[8] = {
      1.0,                      0.59983220655588793769,
      0.13692988092273580531,   0.0148753612908506148525,
      7.868691311456132591e-4,  1.8463183175100546818e-5,
      1.4215117583164458887e-7, 2.04426310338993978564e-15};

  const double q = p - 0.5;
  if (std::abs(q) <= 0.425)
    return q * rational7(kCentralNum, kCentralDen, 0.180625 - q * q);
  const double r = std::sqrt(-std::log(q < 0.0 ? p : 1.0 - p));
  const double z = r <= 5.0 ? rational7(kNearNum, kNearDen, r - 1.6)
                            : rational7(kFarNum, kFarDen, r - 5.0);
  return q < 0.0 ? -z : z;
}

CounterNormal::CounterNormal() noexcept
    : quantiles_(quantile_table().data()) {}

double CounterNormal::tail(std::uint64_t bits) noexcept {
  // The cell is 0 or 4095. The upper one is mirrored onto the lower one
  // bit for bit, so both tails invert a small probability exactly and
  // the two are antisymmetric.
  const std::uint64_t u53 = bits >> 11;
  const bool upper = (bits >> 63) != 0;
  const std::uint64_t low = upper ? (std::uint64_t{1} << 53) - 1 - u53 : u53;
  const double z =
      normal_quantile((static_cast<double>(low) + 0.5) * 0x1.0p-53);
  return upper ? -z : z;
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
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

double Rng::next_double() noexcept {
  // 53 high bits -> uniform in [0, 1) with full double resolution.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire-style rejection: reject the biased low range.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t value = next_u64();
    if (value >= threshold) return value % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

bool Rng::bernoulli(double p) noexcept { return next_double() < p; }

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

Rng Rng::split() noexcept { return Rng{next_u64()}; }

}  // namespace hcs
