// Health feedback: observed-vs-advertised tracking and pair quarantine.
//
// Directories advertise performance; execution reveals it. A
// HealthMonitor accumulates per-pair evidence from the resilient
// executor — delivered transfers compared against the estimate they were
// planned with, and outright failures (timeouts, losses). A pair that
// misbehaves `strike_limit` times in a row is quarantined: the
// QuarantineDirectory decorator then advertises it as (near-)unreachable,
// so the matching/greedy schedulers plan around the sick link at the
// next checkpoint, and the resilient executor routes its traffic through
// relays instead of retrying a link that keeps lying.
#pragma once

#include <cstddef>
#include <vector>

#include "netmodel/directory.hpp"
#include "util/error.hpp"

namespace hcs {

/// Quarantine policy knobs.
struct HealthOptions {
  /// Consecutive strikes on a pair before it is quarantined.
  std::size_t strike_limit = 3;
  /// A delivered transfer counts as a strike when it took more than this
  /// factor times its planned estimate (observed-vs-advertised deviation).
  double deviation_factor = 3.0;
  /// Bandwidth multiplier QuarantineDirectory advertises for quarantined
  /// pairs, in (0, 1].
  double quarantine_bandwidth_factor = 1e-6;

  /// Throws InputError on malformed values.
  void validate() const;
};

/// Per-pair health ledger. Quarantine is sticky: once a pair is
/// blacklisted it stays blacklisted for the monitor's lifetime.
class HealthMonitor {
 public:
  /// A degenerate empty monitor (no pairs); usable only after assignment.
  HealthMonitor() = default;

  HealthMonitor(std::size_t processor_count, HealthOptions options = {});

  [[nodiscard]] std::size_t processor_count() const noexcept { return n_; }
  [[nodiscard]] const HealthOptions& options() const noexcept { return options_; }

  /// A transfer of (src, dst) completed in `observed_s` against a planned
  /// estimate of `estimated_s`: a deviation strike when observed exceeds
  /// deviation_factor * estimated, otherwise the pair's strikes reset.
  /// Inline: the resilient executor calls this once per committed event.
  void record_transfer(std::size_t src, std::size_t dst, double observed_s,
                       double estimated_s) {
    if (observed_s > options_.deviation_factor * estimated_s) {
      strike(src, dst);
    } else {
      at(src, dst).consecutive_strikes = 0;
    }
  }

  /// A transmission attempt of (src, dst) timed out or was lost.
  void record_failure(std::size_t src, std::size_t dst) { strike(src, dst); }

  /// Current consecutive strike count of (src, dst).
  [[nodiscard]] std::size_t strikes(std::size_t src, std::size_t dst) const {
    check(src < n_ && dst < n_, "HealthMonitor: pair out of range");
    return pairs_[src * n_ + dst].consecutive_strikes;
  }

  /// True once (src, dst) has accumulated strike_limit consecutive strikes.
  [[nodiscard]] bool quarantined(std::size_t src, std::size_t dst) const {
    check(src < n_ && dst < n_, "HealthMonitor: pair out of range");
    return pairs_[src * n_ + dst].quarantined;
  }

  /// Number of ordered pairs currently quarantined. O(1): the resilient
  /// executor polls this every checkpoint round to skip quarantine
  /// bookkeeping on healthy runs.
  [[nodiscard]] std::size_t quarantined_pair_count() const noexcept {
    return quarantined_.size();
  }

  /// Flat indices src * P + dst of the quarantined pairs, in the order
  /// they were quarantined.
  [[nodiscard]] const std::vector<std::size_t>& quarantined_pairs()
      const noexcept {
    return quarantined_;
  }

 private:
  struct PairHealth {
    std::size_t consecutive_strikes = 0;
    bool quarantined = false;
  };

  [[nodiscard]] PairHealth& at(std::size_t src, std::size_t dst) {
    check(src < n_ && dst < n_, "HealthMonitor: pair out of range");
    return pairs_[src * n_ + dst];
  }

  void strike(std::size_t src, std::size_t dst) {
    PairHealth& pair = at(src, dst);
    ++pair.consecutive_strikes;
    if (pair.consecutive_strikes >= options_.strike_limit && !pair.quarantined) {
      pair.quarantined = true;
      quarantined_.push_back(src * n_ + dst);
    }
  }

  std::size_t n_ = 0;
  HealthOptions options_;
  std::vector<PairHealth> pairs_;
  std::vector<std::size_t> quarantined_;
};

/// Directory decorator advertising quarantined pairs as near-unreachable,
/// so schedulers plan around them. The monitor is borrowed and may keep
/// evolving between queries — that is the point: each checkpoint's
/// snapshot reflects the latest observed health.
class QuarantineDirectory final : public DirectoryService {
 public:
  QuarantineDirectory(const DirectoryService& base, const HealthMonitor& health);

  [[nodiscard]] std::size_t processor_count() const override;
  [[nodiscard]] LinkParams query(std::size_t src, std::size_t dst,
                                 double now_s) const override;

  /// Bit for bit the per-pair DirectoryService::snapshot: one base
  /// snapshot with the quarantined pairs patched. Requires the base's
  /// snapshot to agree with its query off the diagonal.
  [[nodiscard]] NetworkModel snapshot(double now_s) const override;

 private:
  const DirectoryService& base_;
  const HealthMonitor& health_;
};

}  // namespace hcs
