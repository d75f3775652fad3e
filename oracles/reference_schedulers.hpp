// Retained textbook implementations of the greedy (§4.4) and open-shop
// (§4.5) schedulers — the pre-workspace rescan loops, kept verbatim as
// executable specifications. The production schedulers in
// src/core/greedy_scheduler.cpp / openshop_scheduler.cpp restructure
// these loops around a SchedulerWorkspace (bitset scans, lazy receiver
// heaps) for speed; property tests pin the optimized output bit-identical
// to these references across seeds, the same discipline
// oracles/reference_simulator applies to the simulator core.
//
// Reference code optimizes for obviousness, not speed: per-call
// allocations and O(P) rescans are deliberate.
#pragma once

#include <vector>

#include "core/schedule.hpp"
#include "core/step_schedule.hpp"

namespace hcs {

/// The §4.4 greedy step composition, as originally written: per-sender
/// ranked destination lists rescanned from the front every step.
[[nodiscard]] StepSchedule reference_greedy_steps(const CommMatrix& comm);

/// The §4.5 open-shop list schedule, as originally written: a
/// priority-queue of senders and a linear earliest-available-receiver
/// scan with erase-from-vector bookkeeping.
[[nodiscard]] Schedule reference_openshop_schedule(
    const CommMatrix& comm, const std::vector<double>& initial_send,
    const std::vector<double>& initial_recv);

}  // namespace hcs
