// Directory service — the first component of the paper's framework (§3.1).
//
// A directory service answers run-time queries for current network
// performance between any processor pair, in the style of Globus MDS or
// CMU's ReMoS. Schedulers query it once before scheduling; adaptive
// executors (src/adaptive) re-query it at checkpoints, so implementations
// may be time-varying.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

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
/// Each pair's bandwidth follows an independent geometric random walk
/// sampled on a fixed update period, clamped to
/// [base/max_factor, base*max_factor]. Start-up costs stay fixed — latency
/// in WANs is dominated by distance, not load. Queries are deterministic
/// functions of (pair, time, seed): each pair's walk is drawn from its own
/// seeded generator, so a DriftingDirectory can be queried out of order
/// and still give reproducible answers.
///
/// Each ordered pair keeps a walk cursor — its generator (state and
/// cached Box–Muller normal), the step it has reached and the clamped log
/// factor there. A query at a later step advances the cursor; one at an
/// earlier step reseeds the pair and walks forward again. Either way the
/// same floating-point operations run as a walk replayed from t = 0, so
/// factors are bit-identical to replay under any query order, while a
/// clock that only moves forward costs O(steps advanced) per pair rather
/// than O(steps since t = 0). snapshot() advances all P² cursors under
/// one lock in one pass.
///
/// The cursor table is 64 bytes per ordered pair, allocated on the first
/// query (≈0.6 MB at P = 96, ≈64 MB at P = 1024), and guarded by one
/// mutex: concurrent queries and snapshots from several threads are safe
/// and each returns what replay would.
class DriftingDirectory final : public DirectoryService {
 public:
  struct Options {
    /// Seconds between successive random-walk steps.
    double update_period_s = 1.0;
    /// Standard deviation of the per-step log-bandwidth increment.
    double step_sigma = 0.1;
    /// Bandwidth is clamped to base / max_factor .. base * max_factor.
    double max_factor = 4.0;
  };

  DriftingDirectory(NetworkModel base, std::uint64_t seed, Options options);

  [[nodiscard]] std::size_t processor_count() const override;
  [[nodiscard]] LinkParams query(std::size_t src, std::size_t dst,
                                 double now_s) const override;
  [[nodiscard]] NetworkModel snapshot(double now_s) const override;

 private:
  /// One pair's walk, paused after `step` steps.
  struct WalkCursor {
    Rng rng;
    std::uint64_t step = 0;
    double log_factor = 0.0;
  };

  [[nodiscard]] std::uint64_t step_at(double now_s) const;
  /// exp(log factor) of the src -> dst walk after `step` steps; moves that
  /// pair's cursor there. Caller holds mutex_.
  [[nodiscard]] double factor_locked(std::size_t src, std::size_t dst,
                                     std::uint64_t step) const;

  NetworkModel base_;
  std::uint64_t seed_;
  Options options_;
  double max_log_ = 0.0;  ///< log(max_factor), the clamp bound
  mutable std::mutex mutex_;
  mutable std::vector<WalkCursor> walks_;  ///< P*P, row-major; guarded
};

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
