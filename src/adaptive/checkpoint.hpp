// Checkpoint policy for adaptive execution (§6.3).
//
// When the network drifts faster than a schedule executes, the initial
// schedule — computed from directory estimates — goes stale mid-flight.
// The paper proposes re-evaluating at checkpoints: "processors decide
// whether the difference between the estimated time and actual time is
// large enough to require rescheduling", with checkpoints placed after
// each event (O(P) checkpoints per processor) or after half the remaining
// events (O(log P) checkpoints).
//
// The executor is run_resilient (fault/resilient.hpp): schedule from the
// current directory snapshot, execute under the simulator until the
// checkpoint, commit the events that ran (including in-flight ones), and
// reschedule the remaining pairs from a fresh snapshot. With an empty
// FaultPlan that loop is exactly the paper's checkpointed exchange; these
// options choose where its checkpoints fall.
#pragma once

#include <string_view>

namespace hcs {

/// When to stop, re-query the directory, and reschedule.
enum class CheckpointPolicy {
  kNever,           ///< schedule once, run to completion
  kEveryEvent,      ///< checkpoint after every completed event
  kHalveRemaining,  ///< checkpoint after half the remaining events finish
};

/// Human-readable policy name.
[[nodiscard]] std::string_view checkpoint_policy_name(CheckpointPolicy policy);

/// Checkpoint options of the adaptive executor.
struct AdaptiveOptions {
  CheckpointPolicy policy = CheckpointPolicy::kHalveRemaining;
  /// Reschedule only if the executed prefix deviated from its estimate by
  /// more than this relative amount (0 = always reschedule at a
  /// checkpoint). Mirrors the paper's "difference ... large enough".
  double reschedule_threshold = 0.0;

  /// Throws InputError on malformed values (negative or non-finite
  /// threshold). Called by run_resilient.
  void validate() const;
};

}  // namespace hcs
