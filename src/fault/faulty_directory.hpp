// The two faces of a FaultPlan: what planning sees, what execution feels.
//
// Planning (schedulers querying a directory) sees faults as advertised
// performance: FaultyDirectory collapses the bandwidth of cut or
// crashed-endpoint pairs to a vanishing fraction, so cost-driven
// schedulers push those transfers to the end of the plan — exactly how
// they already react to degradation. Execution (the simulator running a
// program) feels faults as failed transmission attempts: FaultPlanModel
// implements the simulator's send-failure hook (sim/fault_hook.hpp) with
// watchdog-timeout semantics — an attempt to a dead or cut peer consumes
// timeout_slack times its advertised transfer time before the sender
// gives up, and transient losses are detected after a fraction of the
// transfer. Both views are deterministic functions of the same plan.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/fault_plan.hpp"
#include "netmodel/directory.hpp"
#include "sim/fault_hook.hpp"

namespace hcs {

/// Directory decorator advertising a FaultPlan's hard faults as
/// (near-)unreachable performance and its brownouts as the degraded
/// bandwidth they leave. With only brownouts in the plan it is the
/// windowed-outage directory: a live network that crawls, never fails.
class FaultyDirectory final : public DirectoryService {
 public:
  /// `base` is borrowed; the caller keeps it alive. `plan` is copied.
  /// Pairs that are cut, or touch a dead node, advertise
  /// `unreachable_factor` times their base bandwidth.
  FaultyDirectory(const DirectoryService& base, FaultPlan plan,
                  double unreachable_factor = 1e-6);

  [[nodiscard]] std::size_t processor_count() const override;
  [[nodiscard]] LinkParams query(std::size_t src, std::size_t dst,
                                 double now_s) const override;

  /// Bit for bit the per-pair DirectoryService::snapshot, at the cost of
  /// one base snapshot plus O(|plan| · P) patches: only the rows and
  /// columns of nodes dead at `now_s` and the pairs the plan names are
  /// recomputed, each from the base snapshot's own entry with query's
  /// arithmetic. Requires the base's snapshot to agree with its query
  /// off the diagonal (every directory in hcs does).
  [[nodiscard]] NetworkModel snapshot(double now_s) const override;

  /// False when (src, dst) is cut at `now_s` or either endpoint is dead.
  [[nodiscard]] bool reachable(std::size_t src, std::size_t dst,
                               double now_s) const;

  /// Flat indices src * P + dst, ascending, of the pairs cut at `now_s`:
  /// plan().link_cut asked only of the pairs the plan names.
  [[nodiscard]] std::vector<std::size_t> cut_pairs(double now_s) const;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  const DirectoryService& base_;
  FaultPlan plan_;
  double unreachable_factor_;
  std::vector<std::size_t> named_pairs_;  ///< plan_.named_pairs(P)
};

/// Execution-side semantics of a FaultPlan, as the simulator's
/// send-failure hook.
class FaultPlanModel final : public TransferFaultModel {
 public:
  /// `plan` is borrowed; the caller keeps it alive.
  /// - An attempt whose peer is dead, or whose link is cut anywhere in
  ///   the attempt's nominal interval, fails after `timeout_slack` times
  ///   its advertised transfer time (the watchdog); a dead endpoint makes
  ///   the failure permanent.
  /// - Otherwise the attempt is lost with the plan's per-pair
  ///   probability, detected after `transient_detect_factor` times the
  ///   nominal transfer time (a reset connection fails fast).
  FaultPlanModel(const FaultPlan& plan, double timeout_slack = 3.0,
                 double transient_detect_factor = 0.5);

  [[nodiscard]] SendVerdict judge(const SendAttempt& attempt) const override;

 private:
  const FaultPlan& plan_;
  double timeout_slack_;
  double transient_detect_factor_;
};

}  // namespace hcs
