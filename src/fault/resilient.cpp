#include "fault/resilient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "fault/faulty_directory.hpp"
#include "staging/link_graph.hpp"
#include "trace/metrics.hpp"
#include "util/error.hpp"

namespace hcs {

void ResilientOptions::validate() const {
  adaptive.validate();
  if (!(timeout_slack >= 1.0) || !std::isfinite(timeout_slack))
    throw InputError("ResilientOptions: timeout_slack must be finite and >= 1");
  if (max_attempts < 1)
    throw InputError("ResilientOptions: max_attempts must be >= 1");
  if (!(backoff_base_s >= 0.0) || !std::isfinite(backoff_base_s))
    throw InputError("ResilientOptions: backoff_base_s must be finite and >= 0");
  if (!(backoff_factor >= 1.0) || !std::isfinite(backoff_factor))
    throw InputError("ResilientOptions: backoff_factor must be finite and >= 1");
  if (!(transient_detect_factor > 0.0) ||
      !(transient_detect_factor <= timeout_slack) ||
      !std::isfinite(transient_detect_factor))
    throw InputError(
        "ResilientOptions: transient_detect_factor must be in (0, timeout_slack]");
  health.validate();
  if (!(unreachable_bandwidth_factor > 0.0) ||
      !(unreachable_bandwidth_factor <= 1.0) ||
      !std::isfinite(unreachable_bandwidth_factor))
    throw InputError(
        "ResilientOptions: unreachable_bandwidth_factor must be in (0, 1]");
  replan.validate();
}

void ResilientOptions::ReplanOptions::validate() const {
  if (trigger_failures < 1)
    throw InputError("ReplanOptions: trigger_failures must be >= 1");
  if (!(backoff_base_s >= 0.0) || !std::isfinite(backoff_base_s))
    throw InputError("ReplanOptions: backoff_base_s must be finite and >= 0");
  if (!(backoff_factor >= 1.0) || !std::isfinite(backoff_factor))
    throw InputError("ReplanOptions: backoff_factor must be finite and >= 1");
}

std::string_view delivery_status_name(DeliveryStatus status) {
  switch (status) {
    case DeliveryStatus::kDirect: return "direct";
    case DeliveryStatus::kRelayed: return "relayed";
    case DeliveryStatus::kUndeliverable: return "undeliverable";
  }
  throw InputError("delivery_status_name: unknown status");
}

std::string_view failure_reason_name(FailureReason reason) {
  switch (reason) {
    case FailureReason::kNone: return "none";
    case FailureReason::kEndpointCrashed: return "endpoint-crashed";
    case FailureReason::kNoRoute: return "no-route";
    case FailureReason::kRetriesExhausted: return "retries-exhausted";
  }
  throw InputError("failure_reason_name: unknown reason");
}

namespace {

/// One round's commit stream: delivered events and give-ups, merged so a
/// round where every attempt failed still advances the checkpoint clock.
struct Candidate {
  ScheduledEvent event;  ///< give-ups span first attempt .. give-up time
  bool delivered = false;
  std::size_t attempts = 1;
  bool permanent = false;
};

/// Store-and-forward relay of one (src, dst) message through healthy
/// intermediates. The route comes from the staging machinery's
/// time-dependent Dijkstra over the currently reachable ordered pairs;
/// hops execute under the executor's port discipline with hop-level
/// retries, and a hop failure triggers a bounded re-route from the
/// intermediate that holds the data.
MessageOutcome relay_message(std::size_t src, std::size_t dst,
                             const DirectoryService& directory,
                             const MessageMatrix& messages,
                             const FaultyDirectory& faulty,
                             const FaultPlanModel& fault_model,
                             HealthMonitor& health,
                             const ResilientOptions& options, double now,
                             std::vector<double>& send_avail,
                             std::vector<double>& recv_avail,
                             std::vector<ScheduledEvent>& events,
                             std::size_t& failed_attempts,
                             EventTrace* trace) {
  const std::size_t n = directory.processor_count();
  const std::uint64_t bytes = messages(src, dst);

  std::size_t holder = src;
  double ready = now;  ///< data available at `holder` from here on
  std::vector<std::size_t> via;
  // Ordered pairs a route must avoid: the failed direct link, plus every
  // hop that fails underway.
  std::vector<unsigned char> banned(n * n, 0);
  banned[src * n + dst] = 1;

  MessageOutcome outcome;
  outcome.src = src;
  outcome.dst = dst;

  for (std::size_t reroute = 0;; ++reroute) {
    const double depart_earliest = std::max(ready, send_avail[holder]);
    // The graph holds every live, uncut, unquarantined and unbanned pair,
    // added i-major at its live cost, so Dijkstra's ties break as ever.
    const std::vector<char> dead =
        faulty.plan().dead_nodes(n, depart_earliest);
    std::vector<unsigned char> skip = banned;
    for (const std::size_t pair : faulty.cut_pairs(depart_earliest))
      skip[pair] = 1;
    for (const std::size_t pair : health.quarantined_pairs()) skip[pair] = 1;
    const NetworkModel live = directory.snapshot(depart_earliest);
    LinkGraph graph(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (dead[i] != 0) continue;
      for (std::size_t j = 0; j < n; ++j)
        if (i != j && skip[i * n + j] == 0 && dead[j] == 0)
          graph.add_link(i, j, live.link(i, j));
    }
    const Route route =
        graph.earliest_arrival({holder}, {depart_earliest}, dst, bytes);
    if (!route.reachable()) {
      outcome.status = DeliveryStatus::kUndeliverable;
      outcome.reason = FailureReason::kNoRoute;
      outcome.via = std::move(via);
      outcome.finish_s = depart_earliest;
      if (trace != nullptr)
        trace->record({outcome.finish_s, outcome.finish_s, bytes,
                       static_cast<std::uint32_t>(src),
                       static_cast<std::uint32_t>(dst), 1,
                       TraceEventKind::kGiveUp});
      return outcome;
    }
    std::vector<std::size_t> path{holder};
    for (const Route::Hop& hop : route.hops)
      path.push_back(graph.link(hop.link_index).to);

    bool stranded = false;
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      const std::size_t i = path[k];
      const std::size_t j = path[k + 1];
      bool hop_done = false;
      // Exponential backoff carried forward across this hop's attempts:
      // delay k is backoff_base_s * backoff_factor^(k-1) with the same
      // left-to-right rounding as recomputing the product each time.
      double retry_delay = options.backoff_base_s;
      for (std::size_t attempt = 1; attempt <= options.max_attempts; ++attempt) {
        const double depart = std::max({ready, send_avail[i], recv_avail[j]});
        const double nominal = directory.query(i, j, depart).transfer_time(bytes);
        const SendVerdict verdict =
            fault_model.judge({i, j, depart, attempt, nominal});
        const auto i32 = static_cast<std::uint32_t>(i);
        const auto j32 = static_cast<std::uint32_t>(j);
        const auto attempt32 = static_cast<std::uint32_t>(attempt);
        if (trace != nullptr)
          trace->record({depart, depart, bytes, i32, j32, attempt32,
                         TraceEventKind::kSendStart});
        if (verdict.delivered) {
          const double finish = depart + nominal;
          if (trace != nullptr)
            trace->record({depart, finish, bytes, i32, j32, attempt32,
                           TraceEventKind::kRelayHop});
          events.push_back({i, j, depart, finish});
          send_avail[i] = std::max(send_avail[i], finish);
          recv_avail[j] = std::max(recv_avail[j], finish);
          health.record_transfer(i, j, nominal, nominal);
          ready = finish;
          hop_done = true;
          break;
        }
        ++failed_attempts;
        const double freed = depart + verdict.elapsed_s;
        if (trace != nullptr)
          trace->record({depart, freed, bytes, i32, j32, attempt32,
                         TraceEventKind::kAttemptFailed});
        send_avail[i] = std::max(send_avail[i], freed);
        recv_avail[j] = std::max(recv_avail[j], freed);
        health.record_failure(i, j);
        if (verdict.permanent) break;
        ready = std::max(ready, freed + retry_delay);
        if (trace != nullptr && attempt < options.max_attempts)
          trace->record({freed + retry_delay, freed + retry_delay, bytes, i32,
                         j32, attempt32, TraceEventKind::kRetryScheduled});
        retry_delay *= options.backoff_factor;
      }
      if (!hop_done) {
        banned[i * n + j] = 1;
        holder = i;
        stranded = true;
        break;
      }
      if (j != dst) via.push_back(j);
      holder = j;
    }
    if (!stranded) {
      outcome.status = DeliveryStatus::kRelayed;
      outcome.via = std::move(via);
      outcome.finish_s = ready;
      return outcome;
    }
    if (reroute >= options.max_reroutes) {
      outcome.status = DeliveryStatus::kUndeliverable;
      outcome.reason = FailureReason::kRetriesExhausted;
      outcome.via = std::move(via);
      outcome.finish_s = std::max(ready, send_avail[holder]);
      if (trace != nullptr)
        trace->record({outcome.finish_s, outcome.finish_s, bytes,
                       static_cast<std::uint32_t>(src),
                       static_cast<std::uint32_t>(dst), 1,
                       TraceEventKind::kGiveUp});
      return outcome;
    }
  }
}

/// Shared implementation; `trace` is null for the untraced entry point.
ResilientResult run_resilient_impl(const Scheduler& scheduler,
                                   const DirectoryService& directory,
                                   const MessageMatrix& messages,
                                   const FaultPlan& plan,
                                   const ResilientOptions& options,
                                   EventTrace* trace) {
  const std::size_t n = directory.processor_count();
  if (messages.rows() != n || !messages.square())
    throw InputError("run_resilient: directory and messages disagree on size");
  options.validate();
  plan.validate(n);

  // Planning sees the plan's hard faults and the evolving health ledger;
  // execution runs against the live directory with the plan as the
  // simulator's send-failure hook.
  HealthMonitor health(n, options.health);
  const FaultyDirectory faulty(directory, plan,
                               options.unreachable_bandwidth_factor);
  const QuarantineDirectory planning(faulty, health);
  const FaultPlanModel fault_model(plan, options.timeout_slack,
                                   options.transient_detect_factor);
  const NetworkSimulator simulator{directory, messages};

  Matrix<unsigned char> remaining(n, n, 0);
  std::size_t remaining_count = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) {
        remaining(i, j) = 1;
        ++remaining_count;
      }

  std::vector<double> send_avail(n, 0.0);
  std::vector<double> recv_avail(n, 0.0);
  double now = 0.0;

  ResilientResult result;
  result.events.reserve(remaining_count);
  result.outcomes.reserve(remaining_count);
  std::vector<std::pair<std::size_t, std::size_t>> relay_queue;

  // Per-round simulation state, hoisted so the simulator's warm workspace
  // and these buffers are reused across every checkpoint round.
  SimOptions sim_options;
  SimResult executed;
  std::size_t round = 0;

  // Online re-planning state. `deferred` marks pairs that failed, were
  // requeued, and are awaiting their shot on a degraded schedule — the
  // quarantine sweep must not steal them for the relay path in the
  // meantime. `failure_events` accumulates give-ups and quarantine
  // strikes toward the replan trigger.
  const auto* fault_aware = dynamic_cast<const FaultAwareScheduler*>(&scheduler);
  Matrix<unsigned char> deferred(options.replan.enabled ? n : 0,
                                 options.replan.enabled ? n : 0, 0);
  std::size_t failure_events = 0;
  std::size_t replans_used = 0;
  bool replan_round_pending = false;
  double replan_delay = options.replan.backoff_base_s;
  const auto replan_engaged = [&] {
    return options.replan.enabled &&
           replans_used < options.replan.max_replans &&
           failure_events >= options.replan.trigger_failures;
  };

  const auto relay_now = [&](std::size_t src, std::size_t dst) {
    if (plan.node_dead(src, now) || plan.node_dead(dst, now)) {
      if (trace != nullptr)
        trace->record({now, now, messages(src, dst),
                       static_cast<std::uint32_t>(src),
                       static_cast<std::uint32_t>(dst), 1,
                       TraceEventKind::kGiveUp});
      result.outcomes.push_back({src, dst, DeliveryStatus::kUndeliverable,
                                 FailureReason::kEndpointCrashed, {}, now});
      ++result.undelivered_count;
      return;
    }
    MessageOutcome outcome = relay_message(
        src, dst, directory, messages, faulty, fault_model, health, options, now,
        send_avail, recv_avail, result.events, result.failed_attempts, trace);
    if (outcome.status == DeliveryStatus::kRelayed)
      ++result.relayed_count;
    else
      ++result.undelivered_count;
    result.completion_time = std::max(result.completion_time, outcome.finish_s);
    result.outcomes.push_back(std::move(outcome));
  };

  while (remaining_count > 0 || !relay_queue.empty()) {
    // Quarantined pairs leave the direct plan for the relay path: the
    // planning view would advertise them near-unreachable anyway, and a
    // relay through healthy links beats retrying a link that keeps lying.
    // Pairs go in i-major order, as a sweep of the whole matrix would.
    if (options.relay && health.quarantined_pair_count() > 0) {
      std::vector<std::size_t> quarantined = health.quarantined_pairs();
      std::sort(quarantined.begin(), quarantined.end());
      for (const std::size_t pair : quarantined) {
        const std::size_t i = pair / n;
        const std::size_t j = pair % n;
        if (remaining(i, j) == 0) continue;
        // Replan-deferred pairs stay in the direct plan: they are
        // awaiting a degraded schedule, and the strike that quarantined
        // them already counted toward the trigger.
        if (options.replan.enabled && deferred(i, j) != 0) continue;
        ++failure_events;
        if (replan_engaged()) {
          deferred(i, j) = 1;
          replan_round_pending = true;
          continue;
        }
        remaining(i, j) = 0;
        --remaining_count;
        relay_queue.emplace_back(i, j);
      }
    }
    for (const auto& [src, dst] : relay_queue) relay_now(src, dst);
    relay_queue.clear();
    if (remaining_count == 0) break;
    ++round;

    // A round that re-plans freshly requeued traffic consumes replan
    // budget and concedes the configured backoff first, so recovery
    // windows (crash restarts, flap up-phases) have a chance to pass
    // before the retry. Deferred traffic whose events simply landed past
    // a checkpoint cut re-rides later rounds for free.
    if (replan_round_pending) {
      replan_round_pending = false;
      ++replans_used;
      ++result.replan_count;
      now += replan_delay;
      replan_delay *= options.replan.backoff_factor;
      if (trace != nullptr)
        trace->record({now, now, 0, 0, 0,
                       static_cast<std::uint32_t>(replans_used),
                       TraceEventKind::kReplan});
    }

    // Plan the remaining pairs from the fault- and health-aware view: one
    // base snapshot plus patches for what the plan and the monitor name,
    // so a healthy run pays O(P) over the base's own snapshot.
    // Availability-aware schedulers plan against the current port skew
    // (ports still busy with committed transfers).
    const CommMatrix comm{
        planning.snapshot(now).cost_matrix(messages, remaining)};
    Schedule planned = [&] {
      // Degraded-mode dispatch: a fault-aware scheduler is told which
      // nodes are down and which pairs are unusable so it can restructure
      // (re-elect representatives, split clusters, go flat) instead of
      // merely re-pricing the degraded directory.
      if (options.replan.enabled && fault_aware != nullptr) {
        const std::vector<char> node_down = plan.dead_nodes(n, now);
        const std::vector<std::size_t> cut = faulty.cut_pairs(now);
        if (std::ranges::find(node_down, 1) != node_down.end() ||
            !cut.empty() || health.quarantined_pair_count() > 0) {
          std::vector<char> pair_blocked(n * n, 0);
          for (const std::size_t pair : cut) pair_blocked[pair] = 1;
          for (const std::size_t pair : health.quarantined_pairs())
            pair_blocked[pair] = 1;
          DegradeInfo degrade;
          Schedule degraded = fault_aware->schedule_degraded(
              comm, node_down, pair_blocked, &degrade);
          result.reelected_count += degrade.reelected.size();
          if (trace != nullptr)
            for (const auto& [old_rep, new_rep] : degrade.reelected)
              trace->record({now, now, 0,
                             static_cast<std::uint32_t>(old_rep),
                             static_cast<std::uint32_t>(new_rep), 1,
                             TraceEventKind::kReelect});
          return degraded;
        }
      }
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
    const SendProgram program = SendProgram::from_schedule(planned, remaining);

    sim_options.initial_send_avail.assign(n, 0.0);
    sim_options.initial_recv_avail.assign(n, 0.0);
    for (std::size_t p = 0; p < n; ++p) {
      sim_options.initial_send_avail[p] = std::max(send_avail[p], now);
      sim_options.initial_recv_avail[p] = std::max(recv_avail[p], now);
    }
    // An empty plan never fails an attempt, so the hook would only slow
    // the simulator's hot loop down; executing without it is identical.
    sim_options.fault_model = plan.empty() ? nullptr : &fault_model;
    sim_options.max_attempts = options.max_attempts;
    sim_options.backoff_base_s = options.backoff_base_s;
    sim_options.backoff_factor = options.backoff_factor;
    simulator.run_into(program, sim_options, executed);
    result.failed_attempts += executed.failed_attempts;

    // Merge deliveries and give-ups into one commit stream so an
    // all-failed round still advances the checkpoint clock. Rounds where
    // everything delivered (every round of a healthy run) skip the merge
    // and sort the simulator's event array in place.
    std::vector<Candidate> merged;
    if (!executed.undelivered.empty()) {
      merged.reserve(executed.events.size() + executed.undelivered.size());
      for (const ScheduledEvent& event : executed.events)
        merged.push_back({event, true, 1, false});
      for (const UndeliveredSend& failed : executed.undelivered)
        merged.push_back(
            {{failed.src, failed.dst, failed.first_attempt_s, failed.gave_up_s},
             false, failed.attempts, failed.permanent});
      std::sort(merged.begin(), merged.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.event.finish_s < b.event.finish_s;
                });
    } else {
      std::sort(executed.events.begin(), executed.events.end(),
                [](const ScheduledEvent& a, const ScheduledEvent& b) {
                  return a.finish_s < b.finish_s;
                });
    }
    const bool all_delivered = executed.undelivered.empty();
    const std::size_t candidate_count =
        all_delivered ? executed.events.size() : merged.size();
    const auto candidate_event = [&](std::size_t k) -> const ScheduledEvent& {
      return all_delivered ? executed.events[k] : merged[k].event;
    };
    double round_completion = std::max(now, executed.completion_time);
    for (const Candidate& candidate : merged)
      round_completion = std::max(round_completion, candidate.event.finish_s);

    std::size_t commit_target = remaining_count;
    switch (options.adaptive.policy) {
      case CheckpointPolicy::kNever: break;
      case CheckpointPolicy::kEveryEvent: commit_target = 1; break;
      case CheckpointPolicy::kHalveRemaining:
        commit_target = (remaining_count + 1) / 2;
        break;
    }

    // Threshold: keep executing the same plan while the committed prefix
    // tracked its estimate. A give-up in the prefix is an unbounded
    // deviation — always reschedule past it.
    if (commit_target < candidate_count &&
        options.adaptive.reschedule_threshold > 0.0) {
      while (commit_target < candidate_count) {
        double worst = 0.0;
        for (std::size_t k = 0; k < commit_target; ++k) {
          if (!all_delivered && !merged[k].delivered) {
            worst = std::numeric_limits<double>::infinity();
            break;
          }
          const ScheduledEvent& event = candidate_event(k);
          const double estimated = comm.time(event.src, event.dst);
          if (estimated <= 0.0) continue;
          worst = std::max(worst,
                           std::abs(event.duration() - estimated) / estimated);
        }
        if (worst > options.adaptive.reschedule_threshold) break;
        commit_target = std::min(candidate_count,
                                 commit_target + (remaining_count + 1) / 2);
      }
    }

    double cut_time = round_completion;
    if (commit_target < candidate_count)
      cut_time = candidate_event(commit_target - 1).finish_s;
    std::size_t committed = 0;
    std::size_t requeued = 0;
    for (std::size_t k = 0; k < candidate_count; ++k) {
      const ScheduledEvent& event = candidate_event(k);
      const bool before_cut = event.finish_s <= cut_time;
      const bool in_flight = event.start_s < cut_time;
      if (!before_cut && !in_flight) continue;
      remaining(event.src, event.dst) = 0;
      send_avail[event.src] = std::max(send_avail[event.src], event.finish_s);
      recv_avail[event.dst] = std::max(recv_avail[event.dst], event.finish_s);
      if (all_delivered || merged[k].delivered) {
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
        result.completion_time =
            std::max(result.completion_time, event.finish_s);
        MessageOutcome outcome{event.src, event.dst, DeliveryStatus::kDirect,
                               FailureReason::kNone, {}, event.finish_s};
        if (options.replan.enabled && deferred(event.src, event.dst) != 0) {
          deferred(event.src, event.dst) = 0;
          outcome.rescued = true;
          ++result.rescued_count;
        }
        result.outcomes.push_back(std::move(outcome));
        health.record_transfer(event.src, event.dst, event.duration(),
                               comm.time(event.src, event.dst));
      } else {
        const Candidate& candidate = merged[k];
        for (std::size_t a = 0; a < candidate.attempts; ++a)
          health.record_failure(event.src, event.dst);
        ++failure_events;
        if (!candidate.permanent && replan_engaged()) {
          // Requeue instead of relaying: the pair goes back into the
          // direct plan and the next round re-schedules it on the
          // degraded view. Its ports stay engaged until the give-up time
          // (already applied above).
          remaining(event.src, event.dst) = 1;
          deferred(event.src, event.dst) = 1;
          replan_round_pending = true;
          ++requeued;
          continue;
        }
        if (options.replan.enabled) deferred(event.src, event.dst) = 0;
        if (candidate.permanent || !options.relay) {
          // The give-up is an instant, not a port-occupying span: the
          // failed attempts' engagements happened inside the (discarded)
          // simulator round, interleaved with other traffic.
          if (trace != nullptr)
            trace->record({event.finish_s, event.finish_s,
                           messages(event.src, event.dst),
                           static_cast<std::uint32_t>(event.src),
                           static_cast<std::uint32_t>(event.dst),
                           static_cast<std::uint32_t>(candidate.attempts),
                           TraceEventKind::kGiveUp});
          result.outcomes.push_back(
              {event.src, event.dst, DeliveryStatus::kUndeliverable,
               candidate.permanent ? FailureReason::kEndpointCrashed
                                   : FailureReason::kRetriesExhausted,
               {}, event.finish_s});
          ++result.undelivered_count;
          result.completion_time =
              std::max(result.completion_time, event.finish_s);
        } else {
          relay_queue.emplace_back(event.src, event.dst);
        }
      }
      ++committed;
    }
    check(committed > 0 || requeued > 0, "run_resilient: no progress");
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

  check(result.outcomes.size() == (n == 0 ? 0 : n * (n - 1)),
        "run_resilient: outcome accounting is off");
  result.health = std::move(health);
  return result;
}

}  // namespace

ResilientResult run_resilient(const Scheduler& scheduler,
                              const DirectoryService& directory,
                              const MessageMatrix& messages,
                              const FaultPlan& plan,
                              const ResilientOptions& options) {
  return run_resilient_impl(scheduler, directory, messages, plan, options,
                            nullptr);
}

ResilientResult run_resilient_traced(const Scheduler& scheduler,
                                     const DirectoryService& directory,
                                     const MessageMatrix& messages,
                                     const FaultPlan& plan,
                                     const ResilientOptions& options,
                                     EventTrace& trace) {
  return run_resilient_impl(scheduler, directory, messages, plan, options,
                            &trace);
}

void record_metrics(const ResilientTotals& totals,
                    double fault_free_completion_s,
                    MetricsRegistry& registry) {
  registry.counter("resilient.replan_count").add(totals.replan_count);
  registry.counter("resilient.messages_rescued").add(totals.rescued_count);
  registry.counter("resilient.reelected_count").add(totals.reelected_count);
  registry.counter("resilient.relayed_count").add(totals.relayed_count);
  registry.counter("resilient.undelivered_count").add(totals.undelivered_count);
  registry.counter("resilient.failed_attempts").add(totals.failed_attempts);
  if (fault_free_completion_s > 0.0)
    registry.gauge("resilient.degraded_makespan_ratio")
        .set_max(totals.completion_time / fault_free_completion_s);
}

}  // namespace hcs
