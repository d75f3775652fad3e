// Tests for src/adaptive: checkpoint-based adaptive execution (§6.3), run
// by run_resilient with no faults injected, and incremental schedule
// refinement (§6.2).
#include <gtest/gtest.h>

#include <set>

#include "adaptive/checkpoint.hpp"
#include "adaptive/incremental.hpp"
#include "core/baseline.hpp"
#include "core/matching_scheduler.hpp"
#include "core/openshop_scheduler.hpp"
#include "fault/resilient.hpp"
#include "netmodel/generator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace hcs {
namespace {

/// Checks that an adaptive result is a complete, port-consistent total
/// exchange: every pair exactly once, no sender or receiver overlap.
void check_complete_exchange(const ResilientResult& result, std::size_t n) {
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (const ScheduledEvent& event : result.events) {
    EXPECT_NE(event.src, event.dst);
    EXPECT_TRUE(pairs.emplace(event.src, event.dst).second)
        << "duplicate pair " << event.src << "->" << event.dst;
  }
  EXPECT_EQ(pairs.size(), n * (n - 1));

  // Port-exclusivity: rebuild per-port sorted intervals.
  for (std::size_t p = 0; p < n; ++p) {
    for (const bool sender_side : {true, false}) {
      std::vector<ScheduledEvent> mine;
      for (const ScheduledEvent& event : result.events)
        if ((sender_side ? event.src : event.dst) == p) mine.push_back(event);
      std::sort(mine.begin(), mine.end(),
                [](const ScheduledEvent& a, const ScheduledEvent& b) {
                  return a.start_s < b.start_s;
                });
      for (std::size_t k = 0; k + 1 < mine.size(); ++k)
        EXPECT_LE(mine[k].finish_s, mine[k + 1].start_s + 1e-9);
    }
  }
}

TEST(Adaptive, PolicyNamesAreStable) {
  EXPECT_EQ(checkpoint_policy_name(CheckpointPolicy::kNever), "never");
  EXPECT_EQ(checkpoint_policy_name(CheckpointPolicy::kEveryEvent), "every-event");
  EXPECT_EQ(checkpoint_policy_name(CheckpointPolicy::kHalveRemaining),
            "halve-remaining");
}

TEST(Adaptive, StaticNetworkNeverPolicyMatchesPlainSchedule) {
  // On a static network with kNever, the adaptive run is exactly one
  // scheduled execution.
  const std::size_t n = 5;
  const NetworkModel network = generate_network(n, 3);
  const StaticDirectory directory{network};
  const MessageMatrix messages = uniform_messages(n, kMiB);
  const OpenShopScheduler scheduler;

  ResilientOptions options;
  options.adaptive.policy = CheckpointPolicy::kNever;
  const ResilientResult result =
      run_resilient(scheduler, directory, messages, {}, options);
  EXPECT_EQ(result.reschedule_count, 0u);

  const CommMatrix comm{network, messages};
  EXPECT_NEAR(result.completion_time, scheduler.schedule(comm).completion_time(),
              1e-9);
  check_complete_exchange(result, n);
}

TEST(Adaptive, StaticNetworkRescheduleIsHarmless) {
  // Rescheduling from identical information must not produce an invalid
  // or wildly different exchange.
  const std::size_t n = 5;
  const StaticDirectory directory{generate_network(n, 4)};
  const MessageMatrix messages = uniform_messages(n, kMiB);
  const OpenShopScheduler scheduler;

  ResilientOptions options;
  options.adaptive.policy = CheckpointPolicy::kHalveRemaining;
  const ResilientResult result =
      run_resilient(scheduler, directory, messages, {}, options);
  check_complete_exchange(result, n);
  EXPECT_GT(result.reschedule_count, 0u);
}

TEST(Adaptive, EveryEventPolicyReschedulesMostOften) {
  // In-flight events commit alongside the checkpointed one (a started
  // transfer cannot be recalled), so the per-event policy reschedules
  // roughly once per "wave" of concurrent events — still strictly more
  // often than the halving policy on the same instance.
  const std::size_t n = 6;
  const StaticDirectory directory{generate_network(n, 5)};
  const MessageMatrix messages = uniform_messages(n, kKiB);
  const OpenShopScheduler scheduler;

  ResilientOptions every;
  every.adaptive.policy = CheckpointPolicy::kEveryEvent;
  const ResilientResult per_event =
      run_resilient(scheduler, directory, messages, {}, every);
  check_complete_exchange(per_event, n);

  ResilientOptions halving;
  halving.adaptive.policy = CheckpointPolicy::kHalveRemaining;
  const ResilientResult halved =
      run_resilient(scheduler, directory, messages, {}, halving);

  EXPECT_GE(per_event.reschedule_count, 2u);
  EXPECT_LE(per_event.reschedule_count, n * (n - 1) - 1);
  EXPECT_GE(per_event.reschedule_count, halved.reschedule_count);
}

TEST(Adaptive, HalvingPolicyUsesLogarithmicRounds) {
  const std::size_t n = 8;  // 56 events -> ~6 halvings
  const StaticDirectory directory{generate_network(n, 6)};
  const MessageMatrix messages = uniform_messages(n, kKiB);
  const OpenShopScheduler scheduler;

  ResilientOptions options;
  options.adaptive.policy = CheckpointPolicy::kHalveRemaining;
  const ResilientResult result =
      run_resilient(scheduler, directory, messages, {}, options);
  check_complete_exchange(result, n);
  EXPECT_GE(result.reschedule_count, 2u);
  EXPECT_LE(result.reschedule_count, 10u);
}

TEST(Adaptive, DriftingNetworkStillCompletesValidExchange) {
  const std::size_t n = 6;
  DriftingDirectory::Options drift;
  drift.update_period_s = 0.5;
  drift.step_sigma = 0.4;
  const DriftingDirectory directory{generate_network(n, 7), 11, drift};
  const MessageMatrix messages = uniform_messages(n, kMiB);
  const OpenShopScheduler scheduler;

  for (const CheckpointPolicy policy :
       {CheckpointPolicy::kNever, CheckpointPolicy::kEveryEvent,
        CheckpointPolicy::kHalveRemaining}) {
    ResilientOptions options;
    options.adaptive.policy = policy;
    const ResilientResult result =
        run_resilient(scheduler, directory, messages, {}, options);
    check_complete_exchange(result, n);
    EXPECT_GT(result.completion_time, 0.0);
  }
}

TEST(Adaptive, ThresholdSuppressesReschedulingOnStaticNetwork) {
  // On a static network estimates are exact, so any positive threshold
  // suppresses every reschedule.
  const std::size_t n = 6;
  const StaticDirectory directory{generate_network(n, 8)};
  const MessageMatrix messages = uniform_messages(n, kMiB);
  const OpenShopScheduler scheduler;

  ResilientOptions options;
  options.adaptive.policy = CheckpointPolicy::kHalveRemaining;
  options.adaptive.reschedule_threshold = 0.05;
  const ResilientResult result =
      run_resilient(scheduler, directory, messages, {}, options);
  EXPECT_EQ(result.reschedule_count, 0u);
  check_complete_exchange(result, n);
}

TEST(Adaptive, NegativeThresholdThrows) {
  const StaticDirectory directory{generate_network(3, 9)};
  const MessageMatrix messages = uniform_messages(3, kKiB);
  const OpenShopScheduler scheduler;
  ResilientOptions options;
  options.adaptive.reschedule_threshold = -1.0;
  EXPECT_THROW(
      (void)run_resilient(scheduler, directory, messages, {}, options),
      InputError);
}

TEST(Adaptive, SizeMismatchThrows) {
  const StaticDirectory directory{generate_network(3, 9)};
  const MessageMatrix messages = uniform_messages(4, kKiB);
  const OpenShopScheduler scheduler;
  EXPECT_THROW((void)run_resilient(scheduler, directory, messages, {}),
               InputError);
}

// ---------------------------------------------------------------------------
// Incremental refinement (§6.2)
// ---------------------------------------------------------------------------

TEST(Incremental, NeverWorseThanInput) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CommMatrix comm = testing::random_comm(7, seed);
    const StepSchedule steps = baseline_steps(7);
    const double before = execute_async(steps, comm).completion_time();
    const RefineResult refined = refine_schedule(steps, comm);
    EXPECT_LE(refined.completion_time, before + 1e-9);
    EXPECT_NEAR(refined.completion_time,
                execute_async(refined.steps, comm).completion_time(), 1e-9);
  }
}

TEST(Incremental, OutputStillCoversTotalExchange) {
  const CommMatrix comm = testing::random_comm(6, 12);
  const RefineResult refined = refine_schedule(baseline_steps(6), comm);
  EXPECT_TRUE(refined.steps.covers_total_exchange());
  EXPECT_NO_THROW(execute_async(refined.steps, comm).validate(comm));
}

TEST(Incremental, ImprovesBaselineOnHeterogeneousInstances) {
  // The baseline is far from optimal on heterogeneous instances; a few
  // refinement passes must find at least one improving move on most
  // seeds. Require improvement on a clear majority.
  int improved = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CommMatrix comm = testing::random_comm(8, seed, 0.1, 10.0);
    const StepSchedule steps = baseline_steps(8);
    const double before = execute_async(steps, comm).completion_time();
    const RefineResult refined = refine_schedule(steps, comm);
    if (refined.completion_time < before - 1e-9) ++improved;
  }
  EXPECT_GE(improved, 6);
}

TEST(Incremental, RefinedStaleScheduleAdaptsToNewCosts) {
  // §6.2's scenario: a schedule computed for yesterday's network is
  // refined — not recomputed — for today's costs, and must improve
  // against the *new* matrix.
  const CommMatrix old_comm = testing::random_comm(7, 100, 0.1, 10.0);
  const CommMatrix new_comm = testing::random_comm(7, 200, 0.1, 10.0);
  const StepSchedule stale =
      matching_steps(old_comm, MatchingObjective::kMaxWeight);
  const double stale_on_new = execute_async(stale, new_comm).completion_time();
  const RefineResult refined = refine_schedule(stale, new_comm);
  EXPECT_LE(refined.completion_time, stale_on_new + 1e-9);
  EXPECT_TRUE(refined.steps.covers_total_exchange());
}

TEST(Incremental, MoveBudgetIsRespected) {
  const CommMatrix comm = testing::random_comm(8, 3, 0.1, 10.0);
  RefineOptions options;
  options.max_moves = 2;
  const RefineResult refined = refine_schedule(baseline_steps(8), comm, options);
  EXPECT_LE(refined.moves_applied, 2u);
}

TEST(Incremental, ZeroPassesIsIdentity) {
  const CommMatrix comm = testing::random_comm(5, 4);
  RefineOptions options;
  options.max_passes = 0;
  const RefineResult refined = refine_schedule(baseline_steps(5), comm, options);
  EXPECT_EQ(refined.moves_applied, 0u);
  EXPECT_NEAR(refined.completion_time,
              execute_async(baseline_steps(5), comm).completion_time(), 1e-9);
}

TEST(Incremental, SizeMismatchThrows) {
  const CommMatrix comm = testing::random_comm(5, 4);
  EXPECT_THROW((void)refine_schedule(baseline_steps(6), comm),
               std::logic_error);
}

}  // namespace
}  // namespace hcs
