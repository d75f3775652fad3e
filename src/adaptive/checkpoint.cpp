#include "adaptive/checkpoint.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hcs {

void AdaptiveOptions::validate() const {
  if (!(reschedule_threshold >= 0.0) || !std::isfinite(reschedule_threshold))
    throw InputError(
        "AdaptiveOptions: reschedule_threshold must be finite and >= 0");
}

std::string_view checkpoint_policy_name(CheckpointPolicy policy) {
  switch (policy) {
    case CheckpointPolicy::kNever: return "never";
    case CheckpointPolicy::kEveryEvent: return "every-event";
    case CheckpointPolicy::kHalveRemaining: return "halve-remaining";
  }
  throw InputError("checkpoint_policy_name: unknown policy");
}

namespace {

/// Shared implementation; `trace` is null for the untraced entry point.
AdaptiveResult run_adaptive_impl(const Scheduler& scheduler,
                                 const DirectoryService& directory,
                                 const MessageMatrix& messages,
                                 const AdaptiveOptions& options,
                                 EventTrace* trace) {
  const std::size_t n = directory.processor_count();
  if (messages.rows() != n || !messages.square())
    throw InputError("run_adaptive: directory and messages disagree on size");
  options.validate();

  Matrix<unsigned char> remaining(n, n, 0);
  std::size_t remaining_count = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) {
        // Even a zero-byte message costs its start-up time in the model,
        // so every off-diagonal pair participates.
        remaining(i, j) = 1;
        ++remaining_count;
      }

  const NetworkSimulator simulator{directory, messages};
  std::vector<double> send_avail(n, 0.0);
  std::vector<double> recv_avail(n, 0.0);
  double now = 0.0;

  AdaptiveResult result;
  result.events.reserve(remaining_count);

  // Per-round simulation state, hoisted so the simulator's warm workspace
  // and these buffers are reused across every checkpoint round.
  SimOptions sim_options;
  SimResult executed;
  std::size_t round = 0;

  while (remaining_count > 0) {
    ++round;
    // Plan from the current directory snapshot: estimated event times for
    // the remaining pairs only (finished pairs cost zero and are dropped
    // from the program afterwards).
    const NetworkModel snapshot = directory.snapshot(now);
    const CommMatrix comm{snapshot.cost_matrix(messages, remaining)};
    // Availability-aware schedulers plan against the current port skew
    // (ports that are still busy with committed transfers); others plan
    // for an idle system and contribute orders only.
    Schedule planned = [&] {
      const auto* avail_aware =
          dynamic_cast<const AvailabilityAwareScheduler*>(&scheduler);
      if (avail_aware == nullptr) return scheduler.schedule(comm);
      std::vector<double> send_offset(n, 0.0);
      std::vector<double> recv_offset(n, 0.0);
      for (std::size_t p = 0; p < n; ++p) {
        send_offset[p] = std::max(send_avail[p] - now, 0.0);
        recv_offset[p] = std::max(recv_avail[p] - now, 0.0);
      }
      return avail_aware->schedule_with_availability(comm, send_offset,
                                                     recv_offset);
    }();
    // Pairs already sent, and the zero-cost padding the round's plan
    // covers them with, drop out of the program.
    const SendProgram program = SendProgram::from_schedule(planned, remaining);

    // Execute the plan against the live directory.
    sim_options.initial_send_avail.assign(n, 0.0);
    sim_options.initial_recv_avail.assign(n, 0.0);
    for (std::size_t p = 0; p < n; ++p) {
      sim_options.initial_send_avail[p] = std::max(send_avail[p], now);
      sim_options.initial_recv_avail[p] = std::max(recv_avail[p], now);
    }
    simulator.run_into(program, sim_options, executed);
    std::sort(executed.events.begin(), executed.events.end(),
              [](const ScheduledEvent& a, const ScheduledEvent& b) {
                return a.finish_s < b.finish_s;
              });

    // How many events to commit before the checkpoint.
    std::size_t commit_target = remaining_count;
    switch (options.policy) {
      case CheckpointPolicy::kNever: break;
      case CheckpointPolicy::kEveryEvent: commit_target = 1; break;
      case CheckpointPolicy::kHalveRemaining:
        commit_target = (remaining_count + 1) / 2;
        break;
    }

    // Optional threshold: if the committed prefix ran close to its
    // estimate, keep executing the same plan through further checkpoints.
    if (commit_target < executed.events.size() &&
        options.reschedule_threshold > 0.0) {
      while (commit_target < executed.events.size()) {
        double worst = 0.0;
        for (std::size_t k = 0; k < commit_target; ++k) {
          const ScheduledEvent& event = executed.events[k];
          const double estimated = comm.time(event.src, event.dst);
          if (estimated <= 0.0) continue;
          worst = std::max(worst,
                           std::abs(event.duration() - estimated) / estimated);
        }
        if (worst > options.reschedule_threshold) break;
        commit_target = std::min(executed.events.size(),
                                 commit_target + (remaining_count + 1) / 2);
      }
    }

    // Commit events up to the checkpoint, plus any event already in
    // flight at the checkpoint time (a started transfer cannot be
    // recalled).
    double cut_time = executed.completion_time;
    if (commit_target < executed.events.size())
      cut_time = executed.events[commit_target - 1].finish_s;
    std::size_t committed = 0;
    for (const ScheduledEvent& event : executed.events) {
      const bool before_cut = event.finish_s <= cut_time;
      const bool in_flight = event.start_s < cut_time;
      if (!before_cut && !in_flight) continue;
      if (trace != nullptr) {
        const auto src32 = static_cast<std::uint32_t>(event.src);
        const auto dst32 = static_cast<std::uint32_t>(event.dst);
        const auto round32 = static_cast<std::uint32_t>(round);
        trace->record({event.start_s, event.start_s,
                       messages(event.src, event.dst), src32, dst32, round32,
                       TraceEventKind::kSendStart});
        trace->record({event.start_s, event.finish_s,
                       messages(event.src, event.dst), src32, dst32, round32,
                       TraceEventKind::kSendEnd});
      }
      result.events.push_back(event);
      remaining(event.src, event.dst) = 0;
      send_avail[event.src] = std::max(send_avail[event.src], event.finish_s);
      recv_avail[event.dst] = std::max(recv_avail[event.dst], event.finish_s);
      result.completion_time = std::max(result.completion_time, event.finish_s);
      ++committed;
    }
    check(committed > 0, "run_adaptive: no progress");
    remaining_count -= committed;
    now = cut_time;
    if (remaining_count > 0) {
      ++result.reschedule_count;
      if (trace != nullptr) {
        const auto round32 = static_cast<std::uint32_t>(round);
        trace->record({cut_time, cut_time, 0, 0, 0, round32,
                       TraceEventKind::kCheckpoint});
        trace->record({cut_time, cut_time, 0, 0, 0, round32,
                       TraceEventKind::kReschedule});
      }
    }
  }
  return result;
}

}  // namespace

AdaptiveResult run_adaptive(const Scheduler& scheduler,
                            const DirectoryService& directory,
                            const MessageMatrix& messages,
                            const AdaptiveOptions& options) {
  return run_adaptive_impl(scheduler, directory, messages, options, nullptr);
}

AdaptiveResult run_adaptive_traced(const Scheduler& scheduler,
                                   const DirectoryService& directory,
                                   const MessageMatrix& messages,
                                   const AdaptiveOptions& options,
                                   EventTrace& trace) {
  return run_adaptive_impl(scheduler, directory, messages, options, &trace);
}

}  // namespace hcs
