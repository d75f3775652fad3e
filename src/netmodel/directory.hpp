// Directory service — the first component of the paper's framework (§3.1).
//
// A directory service answers run-time queries for current network
// performance between any processor pair, in the style of Globus MDS or
// CMU's ReMoS. Schedulers query it once before scheduling; adaptive
// executors (src/adaptive) re-query it at checkpoints, so implementations
// may be time-varying.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

#include "netmodel/network_model.hpp"
#include "util/rng.hpp"

namespace hcs {

/// Abstract run-time source of network performance information.
///
/// `query(src, dst, now)` returns the parameters the directory currently
/// advertises for the ordered pair. `snapshot(now)` materializes the whole
/// P×P view at one instant — what a scheduler consumes.
class DirectoryService {
 public:
  virtual ~DirectoryService() = default;

  /// Number of processors the directory covers.
  [[nodiscard]] virtual std::size_t processor_count() const = 0;

  /// Current advertised parameters for src -> dst at time `now_s`.
  [[nodiscard]] virtual LinkParams query(std::size_t src, std::size_t dst,
                                         double now_s) const = 0;

  /// Full network view at time `now_s`.
  [[nodiscard]] virtual NetworkModel snapshot(double now_s) const;

  /// True if query(src, dst, t) is the same for every t — a promise that
  /// lets clients (e.g. the simulator) cache per-pair answers instead of
  /// re-querying at every event. Conservative default: false.
  [[nodiscard]] virtual bool time_invariant() const { return false; }
};

/// Directory backed by a fixed NetworkModel; performance never changes.
class StaticDirectory final : public DirectoryService {
 public:
  explicit StaticDirectory(NetworkModel model);

  [[nodiscard]] std::size_t processor_count() const override;
  [[nodiscard]] LinkParams query(std::size_t src, std::size_t dst,
                                 double now_s) const override;
  [[nodiscard]] NetworkModel snapshot(double now_s) const override;
  [[nodiscard]] bool time_invariant() const override { return true; }

 private:
  NetworkModel model_;
};

/// Directory whose bandwidths drift over time, modelling shared networks
/// under fluctuating background load (paper §6.3: "variations in network
/// performance [can be] so rapid that significant changes could occur
/// within the duration of the communication schedule").
///
/// Each ordered pair's log-bandwidth factor follows an independent
/// Brownian motion sampled on a fixed update period: after k steps the
/// free value S(k) is normal with mean 0 and variance k·σ², and disjoint
/// stretches of steps have independent increments. The free value is
/// reflected into [-log max_factor, +log max_factor] (folded with period
/// 4·log max_factor), so bandwidth stays within [base/max_factor,
/// base*max_factor] and, over long horizons, spreads evenly across that
/// band in log space. Start-up costs stay fixed — latency in WANs is
/// dominated by distance, not load.
///
/// Factors are pure functions of (seed, pair, step), computed in
/// O(log k): S is a growing-horizon Brownian bridge. S(0) = 0,
/// S(1) = σ·Z(1), S(2^m) = S(2^(m-1)) + σ·√(2^(m-1))·Z(2^m), and inside
/// (2^(m-1), 2^m] the bridge bisects toward k, the midpoint of [lo, hi]
/// being ½(S(lo) + S(hi)) + ½σ·√(hi - lo)·Z(mid). Every integer node owns
/// one normal, Z(node) = CounterNormal of counter_hash(pair key, node), so
/// a query draws about 2·log2 k normals and needs no state: queries and
/// snapshots are lock-free, in any order, on any thread, and always
/// agree with each other bit for bit.
///
/// Reflection, not clamping, keeps the bound: clamping the free path
/// would make the bounds sticky (a path that wanders far past a bound
/// would sit on it for as long as it stays out), and clamping at every
/// step would need the whole walk again.
class DriftingDirectory final : public DirectoryService {
 public:
  struct Options {
    /// Seconds between successive random-walk steps.
    double update_period_s = 1.0;
    /// Standard deviation of the per-step log-bandwidth increment.
    double step_sigma = 0.1;
    /// Bandwidth stays within base / max_factor .. base * max_factor.
    double max_factor = 4.0;
  };

  /// Throws InputError unless the period is finite and positive,
  /// step_sigma finite and >= 0, and max_factor finite and >= 1.
  DriftingDirectory(NetworkModel base, std::uint64_t seed, Options options);

  [[nodiscard]] std::size_t processor_count() const override;
  [[nodiscard]] LinkParams query(std::size_t src, std::size_t dst,
                                 double now_s) const override;
  [[nodiscard]] NetworkModel snapshot(double now_s) const override;

  /// Steps of the walk in effect at `now_s`: floor(now_s / period), 0 for
  /// now_s <= 0 or NaN, saturating at kMaxStep.
  [[nodiscard]] std::uint64_t step_at(double now_s) const noexcept;

  /// Every instant at or past kMaxStep periods sees the walk at kMaxStep.
  static constexpr std::uint64_t kMaxStep = std::uint64_t{1} << 62;

 private:
  /// The bridge's nodes on the way to one step and the weight of each
  /// node's normal in S(step); the same for every pair.
  struct Path;

  [[nodiscard]] Path path_to(std::uint64_t step) const noexcept;
  /// Bandwidth factor of the pair keyed `pair_key` at the path's step.
  [[nodiscard]] double factor(const Path& path,
                              std::uint64_t pair_key) const noexcept;
  /// The pair's stream key: counter_hash of counter_hash(seed, src + 1)
  /// at dst + 1.
  [[nodiscard]] std::uint64_t pair_key(std::size_t src,
                                       std::size_t dst) const noexcept;

  NetworkModel base_;
  std::uint64_t seed_;
  Options options_;
  double max_log_ = 0.0;  ///< log(max_factor), the reflection bound
  /// σ·√(2^(p-1)) (σ for p = 0): the scale of chain node 2^p.
  std::array<double, 64> chain_scale_{};
  /// ½σ·√(2^j): the scale of a bisection midpoint with hi - lo = 2^j.
  std::array<double, 64> bridge_scale_{};
  CounterNormal normal_;
};

/// The live directory of a run or daemon seeded `seed`: static when
/// drift.step_sigma is 0, else drifting with walk seed `seed * 97`. The
/// one place a spec's or the CLI's drift settings become a directory.
[[nodiscard]] std::unique_ptr<DirectoryService> make_live_directory(
    NetworkModel network, std::uint64_t seed,
    const DriftingDirectory::Options& drift);

/// Directory that replays a recorded sequence of network snapshots: the
/// snapshot with the largest timestamp <= now is in effect. Used in tests
/// and to replay measured traces.
class TraceDirectory final : public DirectoryService {
 public:
  /// `trace` maps timestamps (seconds) to network snapshots; all snapshots
  /// must have equal processor counts and the trace must contain an entry
  /// at or before time 0.
  explicit TraceDirectory(std::map<double, NetworkModel> trace);

  [[nodiscard]] std::size_t processor_count() const override;
  [[nodiscard]] LinkParams query(std::size_t src, std::size_t dst,
                                 double now_s) const override;
  [[nodiscard]] NetworkModel snapshot(double now_s) const override;
  /// A one-snapshot trace never changes.
  [[nodiscard]] bool time_invariant() const override;

 private:
  [[nodiscard]] const NetworkModel& active(double now_s) const;

  std::map<double, NetworkModel> trace_;
};

}  // namespace hcs
