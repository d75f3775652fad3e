// Greedy scheduler (§4.4) — an O(P^3) approximation to the matching
// scheduler.
//
// Each sender's destinations are rank-ordered by decreasing communication
// time. Steps are composed by traversing the processors in a rotating
// order: a processor picks the first destination in its ranked list that
// it has not sent to in an earlier step and that no earlier processor has
// claimed in this step; failing that, it idles for the step. Fairness
// rule: processors that idled in a step pick first in the next step; if
// nobody idled, the processor that picked last picks first next.
//
// The implementation runs the step composition over a SchedulerWorkspace
// (per-sender rank lists + pending-destination bitsets, cleared never
// shrunk): scans skip already-sent destinations in O(1) per word instead
// of rescanning ranked lists, and a warmed call allocates nothing beyond
// the returned schedule. Output is bit-identical to the textbook loop
// kept in oracles/reference_schedulers.hpp.
#pragma once

#include "core/scheduler.hpp"
#include "core/scheduler_workspace.hpp"
#include "core/step_schedule.hpp"

namespace hcs {

/// The greedy step composition. The number of steps can exceed P when
/// steps are incomplete. Exposed for tests and the dependence-graph
/// analysis.
[[nodiscard]] StepSchedule greedy_steps(const CommMatrix& comm);

/// As above with a caller-owned workspace, for hot paths that re-schedule
/// repeatedly; a warmed workspace makes the composition allocation-free
/// apart from the returned steps.
[[nodiscard]] StepSchedule greedy_steps(const CommMatrix& comm,
                                        SchedulerWorkspace& workspace);

/// Scheduler wrapping greedy_steps under asynchronous execution. The
/// instance owns a workspace reused across schedule() calls, making
/// repeated re-scheduling (the §6.2 adaptivity loop) allocation-free in
/// the composition; consequently a single instance is not thread-safe.
class GreedyScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "greedy"; }
  [[nodiscard]] Schedule schedule(const CommMatrix& comm) const override;

 private:
  mutable SchedulerWorkspace workspace_;  // scratch, not logical state
};

}  // namespace hcs
