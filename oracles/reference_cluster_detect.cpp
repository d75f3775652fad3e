#include "oracles/reference_cluster_detect.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace hcs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Shorthand for the public quantizer; see quantize_log_level in the
// header for the contract.
std::int32_t level_of(double x, double quantum) {
  return quantize_log_level(x, quantum);
}

// Band statistics over a set of node pairs: quantized level extrema for
// start-up and bandwidth, plus the largest effective cost across the set
// (the complete-linkage distance). Default-constructed it describes the
// empty set and is the identity for absorb().
struct PairBand {
  double cost_max = -kInf;
  std::int32_t lt_min = std::numeric_limits<std::int32_t>::max();
  std::int32_t lt_max = std::numeric_limits<std::int32_t>::min();
  std::int32_t lb_min = std::numeric_limits<std::int32_t>::max();
  std::int32_t lb_max = std::numeric_limits<std::int32_t>::min();

  void absorb(const PairBand& other) noexcept {
    cost_max = std::max(cost_max, other.cost_max);
    lt_min = std::min(lt_min, other.lt_min);
    lt_max = std::max(lt_max, other.lt_max);
    lb_min = std::min(lb_min, other.lb_min);
    lb_max = std::max(lb_max, other.lb_max);
  }

  /// True when every pair in the set sits within `width` quantized levels
  /// of every other, for both parameters. Empty sets are trivially within
  /// any band.
  [[nodiscard]] bool within(std::int32_t width) const noexcept {
    if (lt_max < lt_min) return true;
    return lt_max - lt_min <= width && lb_max - lb_min <= width;
  }
};

}  // namespace

Clustering reference_detect_clusters(const NetworkModel& network,
                                     const ClusterOptions& options) {
  if (!(options.quantum > 0.0))
    throw InputError("detect_clusters: quantum must be positive");
  if (!(options.tolerance >= 1.0))
    throw InputError("detect_clusters: tolerance must be >= 1");

  const std::size_t n = network.processor_count();
  Clustering result;
  result.cluster_of.assign(n, 0);
  if (n == 0) return result;
  if (n == 1) {
    result.members = {{0}};
    return result;
  }

  // Homogeneity band width in quantized levels. floor() keeps the band
  // conservative: the realized spread never exceeds `tolerance` by more
  // than one bucket of rounding slack.
  const std::int32_t width = static_cast<std::int32_t>(
      std::floor(std::log(options.tolerance) / options.quantum + 1e-9));

  // Cross-pair bands for every unordered cluster pair, triangular storage
  // (a < b).
  std::vector<PairBand> cross(n * (n - 1) / 2);
  const auto idx = [n](std::size_t a, std::size_t b) {
    return a * (2 * n - a - 1) / 2 + (b - a - 1);
  };

  // Build the initial per-pair bands tile by tile: the worse-direction
  // reduction needs both (i, j) and its transpose (j, i), and at wide P a
  // straight column walk would miss cache on every row. Tiles keep the
  // transposed block resident.
  const double ref = static_cast<double>(options.ref_bytes);
  constexpr std::size_t kTile = 64;
  for (std::size_t ib = 0; ib < n; ib += kTile) {
    const std::size_t i_end = std::min(ib + kTile, n);
    for (std::size_t jb = ib; jb < n; jb += kTile) {
      const std::size_t j_end = std::min(jb + kTile, n);
      for (std::size_t i = ib; i < i_end; ++i) {
        for (std::size_t j = std::max(jb, i + 1); j < j_end; ++j) {
          const LinkParams fwd = network.link(i, j);
          const LinkParams rev = network.link(j, i);
          const double t = std::max(fwd.startup_s, rev.startup_s);
          const double b = std::min(fwd.bandwidth_Bps, rev.bandwidth_Bps);
          PairBand band;
          band.cost_max = t + ref / b;
          band.lt_min = band.lt_max = level_of(t, options.quantum);
          band.lb_min = band.lb_max = level_of(b, options.quantum);
          cross[idx(i, j)] = band;
        }
      }
    }
  }

  // Agglomerative state: cluster ids are the initial node ids; a merge
  // keeps the lower id, so a live cluster's id is always its smallest
  // member — which makes ascending id order the canonical output order.
  std::vector<PairBand> internal(n);  // empty: singletons have no pairs
  std::vector<char> active(n, 1);
  std::vector<std::vector<std::size_t>> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = {i};

  // Key of merging clusters a < b: the complete-linkage distance if the
  // merged cluster stays within the homogeneity band, +inf otherwise.
  const auto merge_key = [&](std::size_t a, std::size_t b) {
    const PairBand& link = cross[idx(a, b)];
    PairBand merged = internal[a];
    merged.absorb(internal[b]);
    merged.absorb(link);
    return merged.within(width) ? link.cost_max : kInf;
  };

  // Cached best valid partner per live cluster. Strict < ties each row's
  // best to the lowest partner id, keeping detection deterministic.
  struct Best {
    double key = kInf;
    std::size_t partner = kNone;
  };
  std::vector<Best> best(n);
  const auto recompute_best = [&](std::size_t a) {
    Best b;
    for (std::size_t c = 0; c < n; ++c) {
      if (c == a || !active[c]) continue;
      const double key = merge_key(std::min(a, c), std::max(a, c));
      if (key < b.key) {
        b.key = key;
        b.partner = c;
      }
    }
    best[a] = b;
  };
  for (std::size_t a = 0; a < n; ++a) recompute_best(a);

  std::size_t live = n;
  while (live > 1) {
    // Globally cheapest valid merge; the ascending scan with strict <
    // breaks key ties toward the lowest cluster-id pair.
    std::size_t pick = kNone;
    for (std::size_t a = 0; a < n; ++a) {
      if (!active[a] || best[a].key == kInf) continue;
      if (pick == kNone || best[a].key < best[pick].key) pick = a;
    }
    if (pick == kNone) break;  // no band-respecting merge remains
    const std::size_t a = std::min(pick, best[pick].partner);
    const std::size_t b = std::max(pick, best[pick].partner);

    // Merge b into a: fold the bridging pairs into a's internal band and
    // take elementwise unions of the cross bands (complete linkage).
    internal[a].absorb(internal[b]);
    internal[a].absorb(cross[idx(a, b)]);
    for (std::size_t c = 0; c < n; ++c) {
      if (!active[c] || c == a || c == b) continue;
      cross[idx(std::min(a, c), std::max(a, c))].absorb(
          cross[idx(std::min(b, c), std::max(b, c))]);
    }
    active[b] = 0;
    members[a].insert(members[a].end(), members[b].begin(), members[b].end());
    members[b].clear();
    members[b].shrink_to_fit();
    --live;

    // Row a changed wholesale; any row whose cached best involved a or b
    // must be re-derived (its best pair grew or vanished). Every other
    // cache stays valid because complete-linkage keys only ever increase.
    recompute_best(a);
    for (std::size_t c = 0; c < n; ++c) {
      if (!active[c] || c == a) continue;
      if (best[c].partner == a || best[c].partner == b) recompute_best(c);
    }
  }

  std::size_t next_id = 0;
  for (std::size_t a = 0; a < n; ++a) {
    if (!active[a]) continue;
    auto m = std::move(members[a]);
    std::sort(m.begin(), m.end());
    for (const std::size_t node : m) result.cluster_of[node] = next_id;
    result.members.push_back(std::move(m));
    ++next_id;
  }
  return result;
}

}  // namespace hcs
