// Metamorphic and analysis tests: invariances every scheduler must obey
// under input transformations, and the schedule-analysis utilities.
#include <gtest/gtest.h>

#include <sstream>

#include "core/schedule_stats.hpp"
#include "core/scheduler.hpp"
#include "test_helpers.hpp"
#include "util/csv.hpp"

namespace hcs {
namespace {

const std::vector<SchedulerKind> kAllKinds = {
    SchedulerKind::kBaseline, SchedulerKind::kBaselineBarrier,
    SchedulerKind::kMaxMatching, SchedulerKind::kMinMatching,
    SchedulerKind::kGreedy, SchedulerKind::kOpenShop};

/// Scaling: multiplying all event times by c scales every schedule time
/// by c — every algorithm decides by comparisons, never absolute values.
class ScalingInvariance : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(ScalingInvariance, CompletionScalesLinearly) {
  const SchedulerKind kind = GetParam();
  const double factor = 3.75;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const CommMatrix comm = testing::random_comm(7, seed);
    const CommMatrix scaled{
        comm.times().map([&](double t) { return t * factor; })};
    const auto scheduler = make_scheduler(kind, seed);
    const double base = scheduler->schedule(comm).completion_time();
    const double scaled_completion =
        scheduler->schedule(scaled).completion_time();
    EXPECT_NEAR(scaled_completion, base * factor, 1e-9 * base * factor)
        << scheduler_name(kind) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, ScalingInvariance,
                         ::testing::ValuesIn(kAllKinds));

/// Order-equivalence: scaling must also preserve the *orders*, not just
/// the makespan.
TEST(ScalingInvariance2, EventOrdersPreserved) {
  const CommMatrix comm = testing::random_comm(6, 9);
  const CommMatrix scaled{comm.times().map([](double t) { return t * 10.0; })};
  for (const SchedulerKind kind : kAllKinds) {
    const auto scheduler = make_scheduler(kind, 1);
    const Schedule a = scheduler->schedule(comm);
    const Schedule b = scheduler->schedule(scaled);
    for (std::size_t src = 0; src < 6; ++src) {
      const auto order_a = a.sender_events(src);
      const auto order_b = b.sender_events(src);
      ASSERT_EQ(order_a.size(), order_b.size());
      for (std::size_t k = 0; k < order_a.size(); ++k)
        EXPECT_EQ(order_a[k].dst, order_b[k].dst)
            << scheduler_name(kind) << " sender " << src;
    }
  }
}

/// Two processors: every algorithm is optimal (both events in parallel).
TEST(TwoProcessors, EveryAlgorithmIsOptimal) {
  const CommMatrix comm{Matrix<double>{{0, 3.5}, {1.25, 0}}};
  for (const SchedulerKind kind : kAllKinds) {
    const auto scheduler = make_scheduler(kind, 1);
    EXPECT_DOUBLE_EQ(scheduler->schedule(comm).completion_time(), 3.5)
        << scheduler_name(kind);
  }
}

/// All-zero matrix (e.g., all messages local copies): completion zero.
TEST(DegenerateMatrix, AllZeroCompletesInstantly) {
  const CommMatrix comm{Matrix<double>(5, 5, 0.0)};
  for (const SchedulerKind kind : kAllKinds) {
    const auto scheduler = make_scheduler(kind, 1);
    const Schedule schedule = scheduler->schedule(comm);
    EXPECT_DOUBLE_EQ(schedule.completion_time(), 0.0) << scheduler_name(kind);
    EXPECT_NO_THROW(schedule.validate(comm));
  }
}

/// One dominant event: completion equals that event (plus nothing), for
/// the adaptive algorithms.
TEST(DegenerateMatrix, SingleHeavyEventDominates) {
  Matrix<double> times(5, 5, 0.001);
  for (std::size_t p = 0; p < 5; ++p) times(p, p) = 0.0;
  times(1, 3) = 100.0;
  const CommMatrix comm{std::move(times)};
  for (const SchedulerKind kind :
       {SchedulerKind::kMaxMatching, SchedulerKind::kOpenShop}) {
    const auto scheduler = make_scheduler(kind);
    EXPECT_NEAR(scheduler->schedule(comm).completion_time(), 100.0, 0.1)
        << scheduler_name(kind);
  }
}

/// Widening heterogeneity (spreading the same total) must not help the
/// fixed baseline relative to the lower bound, on average.
TEST(Heterogeneity, BaselineDegradesAsSpreadGrows) {
  double narrow_ratio = 0.0, wide_ratio = 0.0;
  const auto baseline = make_scheduler(SchedulerKind::kBaseline);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const CommMatrix narrow = testing::random_comm(10, seed, 4.5, 5.5);
    const CommMatrix wide = testing::random_comm(10, seed, 0.5, 9.5);
    narrow_ratio += baseline->schedule(narrow).completion_time() /
                    narrow.lower_bound();
    wide_ratio += baseline->schedule(wide).completion_time() /
                  wide.lower_bound();
  }
  EXPECT_LT(narrow_ratio, wide_ratio);
}

// ---------------------------------------------------------------------------
// Schedule analysis
// ---------------------------------------------------------------------------

TEST(ScheduleStats, IdentifiesBottleneckAndRatio) {
  const CommMatrix comm = testing::random_comm(6, 4);
  const auto scheduler = make_scheduler(SchedulerKind::kOpenShop);
  const Schedule schedule = scheduler->schedule(comm);
  const ScheduleStats stats = analyze_schedule(schedule, comm);

  EXPECT_DOUBLE_EQ(stats.completion_s, schedule.completion_time());
  EXPECT_DOUBLE_EQ(stats.lower_bound_s, comm.lower_bound());
  EXPECT_GE(stats.ratio_to_lower_bound, 1.0 - 1e-12);
  // The bottleneck's port total equals the lower bound.
  const std::size_t b = stats.bottleneck_processor;
  EXPECT_DOUBLE_EQ(std::max(comm.send_total(b), comm.recv_totals()[b]),
                   comm.lower_bound());
}

TEST(ScheduleStats, BusyTimesMatchMatrixTotals) {
  const CommMatrix comm = testing::random_comm(5, 8);
  const auto scheduler = make_scheduler(SchedulerKind::kMaxMatching);
  const ScheduleStats stats = analyze_schedule(scheduler->schedule(comm), comm);
  for (const ProcessorStats& row : stats.processors) {
    EXPECT_NEAR(row.send_busy_s, comm.send_total(row.processor), 1e-9);
    EXPECT_NEAR(row.recv_busy_s, comm.recv_totals()[row.processor], 1e-9);
    EXPECT_LE(row.send_utilization, 1.0 + 1e-12);
    EXPECT_LE(row.last_active_s, stats.completion_s + 1e-12);
  }
}

TEST(ScheduleStats, UtilizationIsPerfectAtTheLowerBound) {
  // If a schedule meets the lower bound, the bottleneck port has
  // utilization 1.
  Matrix<double> times(4, 4, 1.0);
  for (std::size_t p = 0; p < 4; ++p) times(p, p) = 0.0;
  const CommMatrix comm{std::move(times)};
  const auto scheduler = make_scheduler(SchedulerKind::kMaxMatching);
  const Schedule schedule = scheduler->schedule(comm);
  if (schedule.completion_time() <= comm.lower_bound() + 1e-9) {
    const ScheduleStats stats = analyze_schedule(schedule, comm);
    const auto& bottleneck = stats.processors[stats.bottleneck_processor];
    EXPECT_NEAR(
        std::max(bottleneck.send_utilization, bottleneck.recv_utilization), 1.0,
        1e-9);
  }
}

TEST(ScheduleStats, TableHasARowPerProcessor) {
  const CommMatrix comm = testing::random_comm(4, 2);
  const auto scheduler = make_scheduler(SchedulerKind::kGreedy);
  const ScheduleStats stats = analyze_schedule(scheduler->schedule(comm), comm);
  EXPECT_EQ(stats_table(stats).row_count(), 4u);
}

TEST(GanttCsv, SortedByStartAndParseable) {
  const CommMatrix comm = testing::random_comm(5, 6);
  const auto scheduler = make_scheduler(SchedulerKind::kOpenShop);
  const Schedule schedule = scheduler->schedule(comm);
  std::ostringstream out;
  write_gantt_csv(out, schedule);
  std::istringstream in{out.str()};
  const auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 1 + schedule.events().size());
  EXPECT_EQ(rows[0][0], "src");
  double previous = -1.0;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const double start = std::stod(rows[r][2]);
    EXPECT_GE(start, previous - 1e-12);
    previous = start;
    EXPECT_NEAR(std::stod(rows[r][4]),
                std::stod(rows[r][3]) - std::stod(rows[r][2]), 2e-6);  // 6-digit rounding
  }
}

}  // namespace
}  // namespace hcs
