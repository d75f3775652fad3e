// The adaptive exchange executor (§6.3), fault-tolerant.
//
// run_resilient is the checkpoint loop — plan from a directory snapshot,
// execute, commit a prefix, reschedule the rest — and it survives a
// FaultPlan:
//
//  - Planning sees faults and observed health: schedulers query
//    QuarantineDirectory(FaultyDirectory(live, plan)), so cut, dead and
//    quarantined pairs advertise vanishing bandwidth and get planned
//    around.
//  - Execution runs against the live directory with the FaultPlanModel
//    hook: attempts to dead or cut peers burn a watchdog timeout
//    (timeout_slack times the advertised transfer time), transient losses
//    are retried with exponential backoff, and exhausted messages come
//    back as undelivered rather than hanging the exchange.
//  - Undelivered messages with a live destination are rerouted: a
//    store-and-forward relay path through healthy intermediates is found
//    with the staging machinery's time-dependent Dijkstra
//    (staging/link_graph.hpp) and executed hop by hop under the same
//    port discipline, with hop-level retries and bounded re-routing when
//    an intermediate link fails underway.
//  - Messages to (or from) crashed nodes are reported undeliverable; the
//    exchange completes partially instead of hanging.
//  - A HealthMonitor accumulates observed-vs-advertised evidence;
//    repeatedly misbehaving pairs are quarantined and their remaining
//    traffic shifts to relays at the next checkpoint.
//
// With an empty FaultPlan it is the paper's plain checkpointed exchange:
// no attempt fails, the fault hook and planning overlays are skipped, and
// every pair commits once, so no pair collects enough health strikes to
// be quarantined. tests/fault_test.cpp pins that case event for event to
// the standalone checkpoint loop this executor replaced.
#pragma once

#include <cstddef>
#include <vector>

#include "adaptive/checkpoint.hpp"
#include "core/scheduler.hpp"
#include "fault/fault_plan.hpp"
#include "fault/health.hpp"
#include "netmodel/directory.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace hcs {

/// Options for the resilient executor.
struct ResilientOptions {
  /// Checkpoint policy and reschedule threshold.
  AdaptiveOptions adaptive;

  /// Watchdog: an attempt to a dead or cut peer is abandoned after this
  /// factor times its advertised transfer time. Must be >= 1.
  double timeout_slack = 3.0;
  /// Transmission attempts per message (direct or per relay hop) before
  /// giving up. Must be >= 1.
  std::size_t max_attempts = 3;
  /// Retry delay after failed attempt k: backoff_base_s * backoff_factor^(k-1).
  double backoff_base_s = 0.0;
  double backoff_factor = 2.0;
  /// Fraction of the nominal transfer time after which a transient loss
  /// is detected (see FaultPlanModel).
  double transient_detect_factor = 0.5;

  /// Reroute undeliverable-but-recoverable messages through healthy
  /// intermediates. Off = such messages are reported undeliverable.
  bool relay = true;
  /// How many times one message may be re-routed after a relay hop fails
  /// (the data re-plans from the intermediate currently holding it).
  std::size_t max_reroutes = 3;

  /// Online re-planning: instead of shunting failed-but-recoverable
  /// traffic straight to the relay path, requeue it and compute a fresh
  /// schedule on the degraded view (quarantine over fault view). A
  /// FaultAwareScheduler additionally restructures — re-elects crashed
  /// cluster representatives, splits disconnected clusters, falls back to
  /// flat. Off by default: the executed events of a replan-disabled run
  /// are bit-identical to the previous behavior.
  struct ReplanOptions {
    bool enabled = false;
    /// Cumulative failure events (give-ups committed plus quarantine
    /// strikes) before the first replan round fires. Must be >= 1.
    std::size_t trigger_failures = 1;
    /// Budget of replan rounds; once spent, failures take the relay path.
    std::size_t max_replans = 4;
    /// Wall-clock the executor concedes before re-attempting requeued
    /// traffic (lets recovery windows pass): replan round r waits
    /// backoff_base_s * backoff_factor^(r-1).
    double backoff_base_s = 0.0;
    double backoff_factor = 2.0;

    /// Throws InputError on malformed values.
    void validate() const;
  };
  ReplanOptions replan;

  /// Quarantine policy for the embedded HealthMonitor.
  HealthOptions health;
  /// Bandwidth multiplier FaultyDirectory advertises for cut or
  /// crashed-endpoint pairs, in (0, 1].
  double unreachable_bandwidth_factor = 1e-6;

  /// Throws InputError on malformed values.
  void validate() const;
};

/// How one (src, dst) message ended up.
enum class DeliveryStatus {
  kDirect,         ///< delivered over the planned direct link
  kRelayed,        ///< delivered store-and-forward via intermediates
  kUndeliverable,  ///< given up on; see reason
};

/// Why an undeliverable message could not be saved.
enum class FailureReason {
  kNone,              ///< delivered
  kEndpointCrashed,   ///< source or destination is crash-stopped
  kNoRoute,           ///< no healthy relay path exists
  kRetriesExhausted,  ///< attempts and reroutes ran out
};

/// Human-readable names.
[[nodiscard]] std::string_view delivery_status_name(DeliveryStatus status);
[[nodiscard]] std::string_view failure_reason_name(FailureReason reason);

/// Final fate of one message, in resolution order.
struct MessageOutcome {
  std::size_t src = 0;
  std::size_t dst = 0;
  DeliveryStatus status = DeliveryStatus::kDirect;
  FailureReason reason = FailureReason::kNone;
  /// Intermediate nodes the data traversed (kRelayed; traversal order).
  std::vector<std::size_t> via;
  /// Delivery time, or the time the executor gave up.
  double finish_s = 0.0;
  /// The message failed at least once, was requeued by online re-planning
  /// and then resolved on a degraded schedule (any status).
  bool rescued = false;
};

/// The counts and completion of a resilient run — what its callers
/// report, without the per-event and per-message history.
struct ResilientTotals {
  /// Time the exchange finished (last delivery or give-up).
  double completion_time = 0.0;
  /// Rescheduling rounds performed.
  std::size_t reschedule_count = 0;
  /// Transmission attempts that failed (direct and relay hops).
  std::size_t failed_attempts = 0;
  /// Messages delivered via relay.
  std::size_t relayed_count = 0;
  /// Messages given up on.
  std::size_t undelivered_count = 0;
  /// Replan rounds executed (requeued traffic re-planned on the degraded
  /// view).
  std::size_t replan_count = 0;
  /// Messages that failed, were requeued by a replan and then delivered.
  std::size_t rescued_count = 0;
  /// Cluster representatives replaced by degraded-mode scheduling.
  std::size_t reelected_count = 0;

  /// True when every message was delivered (directly or relayed).
  [[nodiscard]] bool complete() const { return undelivered_count == 0; }
};

/// Outcome of a resilient run: its totals plus the full history.
struct ResilientResult : ResilientTotals {
  /// All executed transfers with their actual times — direct deliveries
  /// and relay hops (a relay hop's src/dst are the hop's endpoints).
  std::vector<ScheduledEvent> events;
  /// One entry per ordered pair of distinct processors.
  std::vector<MessageOutcome> outcomes;
  /// Final health ledger (quarantined pairs survive the run for
  /// inspection).
  HealthMonitor health;
};

/// Runs one total exchange adaptively under `plan`, tolerating crash-stop
/// nodes, link cuts and transient losses. `directory` is the live (fault
/// free) performance view; the executor layers the plan and observed
/// health on top of it for planning.
[[nodiscard]] ResilientResult run_resilient(const Scheduler& scheduler,
                                            const DirectoryService& directory,
                                            const MessageMatrix& messages,
                                            const FaultPlan& plan,
                                            const ResilientOptions& options = {});

/// Traced variant: identical result, and appends the committed history to
/// `trace` — send-start/send pairs for direct deliveries (attempt carries
/// the 1-based round), send-start plus relay-hop/attempt-failed per relay
/// hop attempt, retry-scheduled and give-up instants, and a
/// checkpoint/reschedule pair at every cut.
[[nodiscard]] ResilientResult run_resilient_traced(
    const Scheduler& scheduler, const DirectoryService& directory,
    const MessageMatrix& messages, const FaultPlan& plan,
    const ResilientOptions& options, EventTrace& trace);

class MetricsRegistry;

/// Folds a run's self-healing totals into `registry`: counters
/// resilient.replan_count, resilient.messages_rescued,
/// resilient.reelected_count, resilient.relayed_count,
/// resilient.undelivered_count, resilient.failed_attempts, and gauge
/// resilient.degraded_makespan_ratio (completion over
/// `fault_free_completion_s`; skipped when the reference is not positive).
void record_metrics(const ResilientTotals& totals,
                    double fault_free_completion_s, MetricsRegistry& registry);

}  // namespace hcs
