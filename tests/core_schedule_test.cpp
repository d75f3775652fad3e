// Tests for the core schedule machinery: CommMatrix, the lower bound,
// Schedule validation, step schedules and the two executors, the timing
// diagram rendering, and the dependence graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "core/baseline.hpp"
#include "core/comm_matrix.hpp"
#include "core/depgraph.hpp"
#include "core/paper_example.hpp"
#include "core/schedule.hpp"
#include "core/step_schedule.hpp"
#include "netmodel/gusto.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace hcs {
namespace {

// ---------------------------------------------------------------------------
// CommMatrix
// ---------------------------------------------------------------------------

TEST(CommMatrix, FromNetworkAndMessages) {
  const NetworkModel net = gusto::network();
  const MessageMatrix messages = uniform_messages(gusto::kSiteCount, kMiB);
  const CommMatrix comm{net, messages};
  EXPECT_DOUBLE_EQ(comm.time(0, 1), net.cost(0, 1, kMiB));
  EXPECT_DOUBLE_EQ(comm.time(2, 2), 0.0);
}

TEST(CommMatrix, RowAndColumnTotals) {
  const CommMatrix comm{Matrix<double>{{0, 1, 2}, {3, 0, 4}, {5, 6, 0}}};
  EXPECT_DOUBLE_EQ(comm.send_total(0), 3.0);
  EXPECT_DOUBLE_EQ(comm.send_total(2), 11.0);
  EXPECT_DOUBLE_EQ(comm.recv_totals()[0], 8.0);
  EXPECT_DOUBLE_EQ(comm.recv_totals()[1], 7.0);
}

TEST(CommMatrix, LowerBoundIsMaxOfSendAndReceiveTotals) {
  const CommMatrix comm{Matrix<double>{{0, 1, 2}, {3, 0, 4}, {5, 6, 0}}};
  // Send totals: 3, 7, 11. Receive totals: 8, 7, 6. Max = 11.
  EXPECT_DOUBLE_EQ(comm.lower_bound(), 11.0);
}

// One row-major pass yields each column's sum with the same additions,
// in the same order, as a strided per-column walk: bit for bit, and so
// the lower bound too. Entries span many magnitudes so any reordering
// would round differently.
TEST(CommMatrix, ColumnSumsInOnePassMatchPerColumnWalks) {
  Rng rng(41);
  for (const std::size_t n : {1u, 2u, 7u, 64u, 513u, 1024u}) {
    Matrix<double> times(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i != j) times(i, j) = std::exp(rng.uniform(-20.0, 20.0));
    const CommMatrix comm{times};
    const std::vector<double> totals = comm.recv_totals();
    ASSERT_EQ(totals.size(), n);
    double bound = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      const double walked = times.col_sum(p);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(totals[p]),
                std::bit_cast<std::uint64_t>(walked))
          << "P=" << n << " column " << p;
      bound = std::max({bound, comm.send_total(p), walked});
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(comm.lower_bound()),
              std::bit_cast<std::uint64_t>(bound))
        << "P=" << n;
  }
}

TEST(CommMatrix, PaperExampleLowerBound) {
  // Sender P2's send total (8 + 8 + 5 + 1) ties receiver P3's receive
  // total (7 + 1 + 5 + 9) at 22.
  EXPECT_DOUBLE_EQ(paper_example_comm().lower_bound(), 22.0);
}

TEST(CommMatrix, RejectsNonZeroDiagonal) {
  EXPECT_THROW(CommMatrix{Matrix<double>{{1.0}}}, InputError);
}

TEST(CommMatrix, RejectsNegativeTimes) {
  EXPECT_THROW(CommMatrix(Matrix<double>{{0, -1}, {1, 0}}), InputError);
}

TEST(CommMatrix, RejectsSizeMismatch) {
  const NetworkModel net = gusto::network();  // 5 processors
  EXPECT_THROW(CommMatrix(net, uniform_messages(4, kKiB)), InputError);
}

// ---------------------------------------------------------------------------
// Schedule + validation
// ---------------------------------------------------------------------------

CommMatrix two_proc_comm() {
  return CommMatrix{Matrix<double>{{0, 2}, {3, 0}}};
}

TEST(Schedule, CompletionTimeIsLastFinish) {
  const Schedule schedule{2, {{0, 1, 0.0, 2.0}, {1, 0, 0.0, 3.0}}};
  EXPECT_DOUBLE_EQ(schedule.completion_time(), 3.0);
}

TEST(Schedule, EmptyScheduleCompletesAtZero) {
  const Schedule schedule{1, {}};
  EXPECT_DOUBLE_EQ(schedule.completion_time(), 0.0);
}

TEST(Schedule, ValidExchangePasses) {
  const Schedule schedule{2, {{0, 1, 0.0, 2.0}, {1, 0, 0.0, 3.0}}};
  EXPECT_NO_THROW(schedule.validate(two_proc_comm()));
  EXPECT_TRUE(schedule.is_valid(two_proc_comm()));
}

TEST(Schedule, MissingEventFails) {
  const Schedule schedule{2, {{0, 1, 0.0, 2.0}}};
  EXPECT_THROW(schedule.validate(two_proc_comm()), ScheduleError);
}

TEST(Schedule, DuplicatePairFails) {
  // Splitting the 0->1 message into two events is forbidden (§3.4).
  const Schedule schedule{
      2, {{0, 1, 0.0, 2.0}, {0, 1, 2.0, 4.0}, {1, 0, 0.0, 3.0}}};
  EXPECT_THROW(schedule.validate(two_proc_comm()), ScheduleError);
}

TEST(Schedule, WrongDurationFails) {
  const Schedule schedule{2, {{0, 1, 0.0, 5.0}, {1, 0, 0.0, 3.0}}};
  EXPECT_THROW(schedule.validate(two_proc_comm()), ScheduleError);
}

TEST(Schedule, SenderOverlapFails) {
  const CommMatrix comm{Matrix<double>{{0, 2, 2}, {3, 0, 3}, {1, 1, 0}}};
  // Sender 0 sends both messages simultaneously.
  const Schedule schedule{3,
                          {{0, 1, 0.0, 2.0},
                           {0, 2, 1.0, 3.0},
                           {1, 0, 0.0, 3.0},
                           {1, 2, 3.0, 6.0},
                           {2, 0, 3.0, 4.0},
                           {2, 1, 2.0, 3.0}}};
  EXPECT_THROW(schedule.validate(comm), ScheduleError);
}

TEST(Schedule, ReceiverOverlapFails) {
  const CommMatrix comm{Matrix<double>{{0, 2, 2}, {3, 0, 3}, {1, 1, 0}}};
  // Receiver 2 hears from senders 0 and 1 at once.
  const Schedule schedule{3,
                          {{0, 1, 2.0, 4.0},
                           {0, 2, 0.0, 2.0},
                           {1, 0, 3.0, 6.0},
                           {1, 2, 0.0, 3.0},
                           {2, 0, 0.0, 1.0},
                           {2, 1, 0.0, 1.0}}};
  EXPECT_THROW(schedule.validate(comm), ScheduleError);
}

TEST(Schedule, SelfMessageFails) {
  const Schedule schedule{2, {{0, 0, 0.0, 0.0}, {0, 1, 0.0, 2.0}, {1, 0, 0.0, 3.0}}};
  EXPECT_THROW(schedule.validate(two_proc_comm()), ScheduleError);
}

TEST(Schedule, NegativeStartFails) {
  const Schedule schedule{2, {{0, 1, -1.0, 1.0}, {1, 0, 0.0, 3.0}}};
  EXPECT_THROW(schedule.validate(two_proc_comm()), ScheduleError);
}

TEST(Schedule, ValidatePathsAgreeOnToleranceHandling) {
  // Regression for the validate / is_valid unification (ISSUE 4): both
  // wrappers delegate to first_violation(), so a duration slip that is
  // within tolerance for one must be within tolerance for the other — at
  // every tolerance, including non-default ones.
  // The slip of 1e-4 on the 2 s event straddles the tolerances below
  // (the duration rule scales tolerance by the expected duration).
  const Schedule slipped{2, {{0, 1, 0.0, 2.0 + 1e-4}, {1, 0, 0.0, 3.0}}};
  const CommMatrix comm = two_proc_comm();
  for (const double tolerance : {1e-9, 1e-7, 1e-5, 1e-3}) {
    const bool throws = [&] {
      try {
        slipped.validate(comm, tolerance);
        return false;
      } catch (const ScheduleError&) {
        return true;
      }
    }();
    EXPECT_EQ(throws, !slipped.is_valid(comm, tolerance))
        << "paths disagree at tolerance " << tolerance;
    EXPECT_EQ(throws, slipped.first_violation(comm, tolerance).has_value())
        << "first_violation disagrees at tolerance " << tolerance;
  }
  EXPECT_FALSE(slipped.is_valid(comm, 1e-5));  // slip > tolerance: invalid
  EXPECT_TRUE(slipped.is_valid(comm, 1e-3));   // slip < tolerance: valid
}

TEST(Schedule, FirstViolationCarriesTheDiagnostic) {
  const Schedule overlap{2, {{0, 1, 0.0, 2.0}, {1, 0, 0.0, 3.0}}};
  EXPECT_EQ(overlap.first_violation(two_proc_comm()), std::nullopt);

  const Schedule missing{2, {{0, 1, 0.0, 2.0}}};
  const auto violation = missing.first_violation(two_proc_comm());
  ASSERT_TRUE(violation.has_value());
  // validate() throws exactly that diagnostic.
  try {
    missing.validate(two_proc_comm());
    FAIL() << "validate accepted an incomplete schedule";
  } catch (const ScheduleError& error) {
    EXPECT_EQ(*violation, error.what());
  }
}

TEST(Schedule, EventIndexOutOfRangeThrowsAtConstruction) {
  EXPECT_THROW(Schedule(2, {{0, 2, 0.0, 1.0}}), InputError);
}

TEST(Schedule, FinishBeforeStartThrowsAtConstruction) {
  EXPECT_THROW(Schedule(2, {{0, 1, 2.0, 1.0}}), InputError);
}

// Every check on an event time is a comparison that NaN fails, so a
// non-finite time has to be rejected on its own.
TEST(Schedule, NonFiniteTimesThrowAtConstruction) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Schedule(2, {{0, 1, nan, 1.0}, {1, 0, 0.0, 1.0}}), InputError);
  EXPECT_THROW(Schedule(2, {{0, 1, 0.0, nan}, {1, 0, 0.0, 1.0}}), InputError);
  EXPECT_THROW(Schedule(2, {{0, 1, 0.0, inf}, {1, 0, 0.0, 1.0}}), InputError);
}

TEST(Schedule, SenderAndReceiverEventsAreSorted) {
  const Schedule schedule{3,
                          {{0, 2, 5.0, 6.0},
                           {0, 1, 0.0, 1.0},
                           {1, 0, 0.0, 2.0},
                           {1, 2, 2.0, 3.0},
                           {2, 0, 2.5, 3.0},
                           {2, 1, 1.0, 2.0}}};
  const auto sends = schedule.sender_events(0);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].dst, 1u);
  EXPECT_EQ(sends[1].dst, 2u);
  const auto receives = schedule.receiver_events(0);
  ASSERT_EQ(receives.size(), 2u);
  EXPECT_EQ(receives[0].src, 1u);
  EXPECT_EQ(receives[1].src, 2u);
}

TEST(Schedule, IdleProfileAccountsGaps) {
  const Schedule schedule{2, {{0, 1, 1.0, 3.0}, {1, 0, 0.0, 2.0}}};
  const auto profile = schedule.idle_profile();
  EXPECT_DOUBLE_EQ(profile[0].send_busy_s, 2.0);
  EXPECT_DOUBLE_EQ(profile[0].send_idle_s, 1.0);  // waited 0..1
  EXPECT_DOUBLE_EQ(profile[1].recv_busy_s, 2.0);
  EXPECT_DOUBLE_EQ(profile[1].recv_idle_s, 1.0);
}

TEST(Schedule, ZeroDurationEventsExemptFromOverlap) {
  const CommMatrix comm{Matrix<double>{{0, 0, 2}, {3, 0, 3}, {1, 1, 0}}};
  // The free 0->1 message coincides with 0's other send; allowed.
  const Schedule schedule{3,
                          {{0, 1, 0.5, 0.5},
                           {0, 2, 0.0, 2.0},
                           {1, 0, 0.0, 3.0},
                           {1, 2, 3.0, 6.0},
                           {2, 0, 3.0, 4.0},
                           {2, 1, 0.0, 1.0}}};
  EXPECT_NO_THROW(schedule.validate(comm));
}

TEST(TimingDiagram, MentionsEveryProcessorColumn) {
  const Schedule schedule{2, {{0, 1, 0.0, 2.0}, {1, 0, 0.0, 3.0}}};
  const std::string text = render_timing_diagram(schedule, 8);
  EXPECT_NE(text.find("P0"), std::string::npos);
  EXPECT_NE(text.find("P1"), std::string::npos);
  EXPECT_NE(text.find(">1"), std::string::npos);
  EXPECT_NE(text.find(">0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// StepSchedule + executors
// ---------------------------------------------------------------------------

TEST(StepSchedule, RejectsDuplicateSenderInStep) {
  EXPECT_THROW(StepSchedule(3, {{{0, 1}, {0, 2}}}), InputError);
}

TEST(StepSchedule, RejectsDuplicateReceiverInStep) {
  EXPECT_THROW(StepSchedule(3, {{{0, 2}, {1, 2}}}), InputError);
}

TEST(StepSchedule, RejectsSelfMessage) {
  EXPECT_THROW(StepSchedule(3, {{{1, 1}}}), InputError);
}

TEST(StepSchedule, CoverageDetection) {
  const StepSchedule full{2, {{{0, 1}, {1, 0}}}};
  EXPECT_TRUE(full.covers_total_exchange());
  const StepSchedule partial{2, {{{0, 1}}}};
  EXPECT_FALSE(partial.covers_total_exchange());
}

TEST(ExecuteAsync, EventStartsWhenBothPortsFree) {
  // Two steps: step 1 = {0->1 (dur 5), 2->3 (dur 1)}; step 2 = {2->1 (dur 1)}.
  // 2->1 must wait for receiver 1 until t=5 even though sender 2 frees at 1.
  Matrix<double> times(4, 4, 0.0);
  times(0, 1) = 5.0;
  times(2, 3) = 1.0;
  times(2, 1) = 1.0;
  const CommMatrix comm{std::move(times)};
  const StepSchedule steps{4, {{{0, 1}, {2, 3}}, {{2, 1}}}};
  const Schedule schedule = execute_async(steps, comm);
  const auto events = schedule.sender_events(2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].start_s, 0.0);  // 2->3
  EXPECT_DOUBLE_EQ(events[1].start_s, 5.0);  // 2->1 waits for receiver 1
  EXPECT_DOUBLE_EQ(schedule.completion_time(), 6.0);
}

TEST(ExecuteBarrier, StepsSynchronize) {
  Matrix<double> times(4, 4, 0.0);
  times(0, 1) = 5.0;
  times(2, 3) = 1.0;
  times(2, 0) = 1.0;
  const CommMatrix comm{std::move(times)};
  // Step 2's event involves neither busy port, but the barrier still
  // holds it until step 1 fully finishes at t=5.
  const StepSchedule steps{4, {{{0, 1}, {2, 3}}, {{2, 0}}}};
  const Schedule barrier = execute_barrier(steps, comm);
  EXPECT_DOUBLE_EQ(barrier.sender_events(2)[1].start_s, 5.0);
  const Schedule async = execute_async(steps, comm);
  EXPECT_DOUBLE_EQ(async.sender_events(2)[1].start_s, 1.0);
}

TEST(ExecuteAsync, NeverSlowerThanBarrierNeverFasterThanBound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const CommMatrix comm = testing::random_comm(6, seed);
    const StepSchedule steps = baseline_steps(6);
    const double async_time = execute_async(steps, comm).completion_time();
    const double barrier_time = execute_barrier(steps, comm).completion_time();
    EXPECT_LE(async_time, barrier_time + 1e-9);
    EXPECT_GE(async_time, comm.lower_bound() - 1e-9);
  }
}

TEST(ExecuteAsync, ProducesValidSchedules) {
  const CommMatrix comm = testing::random_comm(7, 11);
  const Schedule schedule = execute_async(baseline_steps(7), comm);
  EXPECT_NO_THROW(schedule.validate(comm));
}

TEST(ExecuteAsync, HomogeneousCaterpillarHasNoIdle) {
  // Uniform durations: the caterpillar completes in exactly (P-1) * t.
  const std::size_t n = 6;
  Matrix<double> times(n, n, 2.0);
  for (std::size_t i = 0; i < n; ++i) times(i, i) = 0.0;
  const CommMatrix comm{std::move(times)};
  const Schedule schedule = execute_async(baseline_steps(n), comm);
  EXPECT_DOUBLE_EQ(schedule.completion_time(), 10.0);
  EXPECT_DOUBLE_EQ(schedule.completion_time(), comm.lower_bound());
}

// ---------------------------------------------------------------------------
// Dependence graph
// ---------------------------------------------------------------------------

TEST(DependenceGraph, NodeCountMatchesEvents) {
  const CommMatrix comm = testing::random_comm(5, 3);
  const StepSchedule steps = baseline_steps(5);
  const DependenceGraph graph{steps, comm};
  EXPECT_EQ(graph.node_count(), 20u);
}

TEST(DependenceGraph, LongestPathEqualsAsyncCompletion) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const CommMatrix comm = testing::random_comm(6, seed);
    const StepSchedule steps = baseline_steps(6);
    const DependenceGraph graph{steps, comm};
    EXPECT_NEAR(graph.longest_path_weight(),
                execute_async(steps, comm).completion_time(), 1e-9);
  }
}

TEST(DependenceGraph, CriticalPathWeightsSumToLongestPath) {
  const CommMatrix comm = testing::random_comm(5, 9);
  const StepSchedule steps = baseline_steps(5);
  const DependenceGraph graph{steps, comm};
  double total = 0.0;
  for (const std::size_t node : graph.critical_path())
    total += graph.weight(node);
  EXPECT_NEAR(total, graph.longest_path_weight(), 1e-9);
}

TEST(DependenceGraph, CriticalPathIsChainOfDependencies) {
  const CommMatrix comm = testing::random_comm(5, 10);
  const StepSchedule steps = baseline_steps(5);
  const DependenceGraph graph{steps, comm};
  const auto path = graph.critical_path();
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const auto& successors = graph.successors(path[k]);
    EXPECT_NE(std::find(successors.begin(), successors.end(), path[k + 1]),
              successors.end());
  }
}

TEST(DependenceGraph, BaselinePathsAlternateRowsAndColumns) {
  // Theorem 2's proof structure: every edge connects events sharing a
  // sender (same column of the diagram) or a receiver (same row of C).
  const CommMatrix comm = testing::random_comm(5, 12);
  const StepSchedule steps = baseline_steps(5);
  const DependenceGraph graph{steps, comm};
  for (std::size_t v = 0; v < graph.node_count(); ++v)
    for (const std::size_t succ : graph.successors(v)) {
      const CommEvent a = graph.event(v);
      const CommEvent b = graph.event(succ);
      EXPECT_TRUE(a.src == b.src || a.dst == b.dst);
    }
}

}  // namespace
}  // namespace hcs
