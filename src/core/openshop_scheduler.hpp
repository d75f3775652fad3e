// Open-shop list scheduler (§4.5).
//
// Total-exchange scheduling is an open shop problem: senders are jobs,
// receivers are machines, and every (sender, receiver) operation exists.
// The heuristic treats each processor as an independent sender and
// receiver; whenever a sender becomes available it greedily claims the
// earliest-available receiver remaining in its receiver set. Senders are
// processed strictly in order of availability time.
//
// The implementation reduces both selections — earliest available
// sender, earliest available unserved receiver — to masked argmins over
// flat availability arrays held in a SchedulerWorkspace. On AVX-512
// hardware the argmins run branch-free (util/simd_argmin.hpp) and are
// speculated off the per-event critical path: the next sender is chosen
// against a precomputed runner-up, and the next event's receiver argmin
// issues one iteration early with the just-updated lane resolved by a
// single compare. Elsewhere a scalar bit-walk computes the same argmins.
// Either way the loop does no steady-state allocation and its output is
// bit-identical to the textbook O(P^3) loop kept in
// oracles/reference_schedulers.hpp.
//
// Theorem 3: the resulting completion time is within twice the lower
// bound — the idle time of the last-finishing sender is covered by its
// final receiver's busy time, so the makespan is at most one column sum
// plus one row sum of C.
#pragma once

#include "core/scheduler.hpp"
#include "core/scheduler_workspace.hpp"

namespace hcs {

/// Open-shop list scheduler. Produces a timed schedule directly (it is
/// not step-structured); the output passes Schedule::validate.
///
/// Also availability-aware: the greedy sender-availability loop extends
/// naturally to ports that free at different times, which is what
/// checkpoint-based rescheduling needs (§6.3).
class OpenShopScheduler final : public Scheduler,
                                public AvailabilityAwareScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "openshop"; }
  [[nodiscard]] Schedule schedule(const CommMatrix& comm) const override;
  [[nodiscard]] Schedule schedule_with_availability(
      const CommMatrix& comm, const std::vector<double>& send_avail,
      const std::vector<double>& recv_avail) const override;

 private:
  mutable SchedulerWorkspace workspace_;  // scratch, not logical state
};

}  // namespace hcs
