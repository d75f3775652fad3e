// Tests for src/qos: QoS metrics, the EDF/priority open-shop variants,
// and the critical-resource scheduler (§6.4).
#include <gtest/gtest.h>

#include <limits>

#include "core/openshop_scheduler.hpp"
#include "qos/critical_resource.hpp"
#include "qos/qos_scheduler.hpp"
#include "qos/qos_types.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hcs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(QosMetrics, UnconstrainedSpecNeverMisses) {
  const CommMatrix comm = testing::random_comm(5, 1);
  const OpenShopScheduler scheduler;
  const Schedule schedule = scheduler.schedule(comm);
  const QosMetrics metrics = evaluate_qos(schedule, QosSpec::unconstrained(5));
  EXPECT_EQ(metrics.missed_deadlines, 0u);
  EXPECT_DOUBLE_EQ(metrics.weighted_tardiness_s, 0.0);
}

TEST(QosMetrics, CountsLateEventsAndWeighsByPriority) {
  const Schedule schedule{2, {{0, 1, 0.0, 4.0}, {1, 0, 0.0, 2.0}}};
  QosSpec spec = QosSpec::unconstrained(2);
  spec.deadline_s(0, 1) = 3.0;   // misses by 1
  spec.priority(0, 1) = 5.0;
  spec.deadline_s(1, 0) = 2.0;   // exactly on time
  const QosMetrics metrics = evaluate_qos(schedule, spec);
  EXPECT_EQ(metrics.missed_deadlines, 1u);
  EXPECT_DOUBLE_EQ(metrics.max_tardiness_s, 1.0);
  EXPECT_DOUBLE_EQ(metrics.weighted_tardiness_s, 5.0);
}

// ---------------------------------------------------------------------------
// QoS scheduler
// ---------------------------------------------------------------------------

TEST(QosScheduler, ProducesValidSchedules) {
  const CommMatrix comm = testing::random_comm(7, 2);
  const QosScheduler scheduler{QosSpec::unconstrained(7)};
  EXPECT_NO_THROW(scheduler.schedule(comm).validate(comm));
}

TEST(QosScheduler, NamesFollowOrdering) {
  EXPECT_EQ(QosScheduler(QosSpec::unconstrained(3), QosOrdering::kEdf).name(),
            "qos-edf");
  EXPECT_EQ(
      QosScheduler(QosSpec::unconstrained(3), QosOrdering::kPriorityFirst).name(),
      "qos-priority");
}

TEST(QosScheduler, UrgentMessageGoesFirst) {
  // Sender 0 has two messages; the one to receiver 2 has a tight
  // deadline, so EDF sends it before the one to receiver 1 even though
  // receiver 1 is listed first.
  Matrix<double> times(3, 3, 0.0);
  times(0, 1) = 2.0;
  times(0, 2) = 2.0;
  times(1, 0) = 1.0;
  times(1, 2) = 1.0;
  times(2, 0) = 1.0;
  times(2, 1) = 1.0;
  const CommMatrix comm{std::move(times)};
  QosSpec spec = QosSpec::unconstrained(3);
  spec.deadline_s(0, 2) = 2.0;
  const QosScheduler scheduler{spec};
  const Schedule schedule = scheduler.schedule(comm);
  const auto sends = schedule.sender_events(0);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends.front().dst, 2u);
  const QosMetrics metrics = evaluate_qos(schedule, spec);
  EXPECT_EQ(metrics.missed_deadlines, 0u);
}

TEST(QosScheduler, EdfMissesFewerTightDeadlinesThanPlainOpenShop) {
  // A quarter of the messages carry tight deadlines (just enough time to
  // run near the front of the schedule); the rest are unconstrained. The
  // deadline-blind open shop scatters the tight messages arbitrarily; EDF
  // front-loads them and must miss strictly fewer in aggregate.
  std::size_t edf_total = 0, openshop_total = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const std::size_t n = 8;
    const CommMatrix comm = testing::random_comm(n, seed, 0.5, 3.0);
    QosSpec spec = QosSpec::unconstrained(n);
    Rng rng{seed * 7919};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i != j && rng.bernoulli(0.25))
          spec.deadline_s(i, j) = comm.time(i, j) + 0.15 * comm.lower_bound();
    const QosScheduler edf{spec};
    const OpenShopScheduler openshop;
    edf_total += evaluate_qos(edf.schedule(comm), spec).missed_deadlines;
    openshop_total +=
        evaluate_qos(openshop.schedule(comm), spec).missed_deadlines;
  }
  EXPECT_LT(edf_total, openshop_total);
}

TEST(QosScheduler, PriorityOrderingFavoursHighPriority) {
  // Two messages from sender 0; the higher-priority one (to receiver 2)
  // is sent first under kPriorityFirst regardless of deadlines.
  Matrix<double> times(3, 3, 0.0);
  times(0, 1) = 1.0;
  times(0, 2) = 1.0;
  times(1, 0) = 1.0;
  times(1, 2) = 1.0;
  times(2, 0) = 1.0;
  times(2, 1) = 1.0;
  const CommMatrix comm{std::move(times)};
  QosSpec spec = QosSpec::unconstrained(3);
  spec.priority(0, 2) = 10.0;
  spec.deadline_s(0, 1) = 0.5;  // earlier deadline, but lower priority
  const QosScheduler scheduler{spec, QosOrdering::kPriorityFirst};
  const auto sends = scheduler.schedule(comm).sender_events(0);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends.front().dst, 2u);
}

TEST(QosScheduler, MalformedSpecThrows) {
  QosSpec spec;
  spec.deadline_s = Matrix<double>(3, 3, kInf);
  spec.priority = Matrix<double>(2, 2, 1.0);
  EXPECT_THROW(QosScheduler{spec}, InputError);
}

TEST(QosScheduler, SpecSizeMismatchWithCommThrows) {
  const QosScheduler scheduler{QosSpec::unconstrained(4)};
  const CommMatrix comm = testing::random_comm(5, 3);
  EXPECT_THROW((void)scheduler.schedule(comm), std::logic_error);
}

// ---------------------------------------------------------------------------
// Critical-resource scheduler
// ---------------------------------------------------------------------------

TEST(CriticalResource, ProducesValidSchedules) {
  const CommMatrix comm = testing::random_comm(7, 5);
  const CriticalResourceScheduler scheduler{3};
  EXPECT_NO_THROW(scheduler.schedule(comm).validate(comm));
}

TEST(CriticalResource, CriticalProcessorFinishesNoLaterThanPlainOpenShop) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t n = 6;
    const CommMatrix comm = testing::random_comm(n, seed, 0.5, 5.0);
    const std::size_t critical = seed % n;
    const CriticalResourceScheduler scheduler{critical};
    const OpenShopScheduler openshop;
    const double dedicated =
        involvement_finish_time(scheduler.schedule(comm), critical);
    const double plain =
        involvement_finish_time(openshop.schedule(comm), critical);
    EXPECT_LE(dedicated, plain + 1e-9) << "seed " << seed;
  }
}

TEST(CriticalResource, CriticalFinishMatchesItsOwnTrafficBound) {
  // In phase 1 only the critical node's row and column are scheduled, so
  // its involvement time is bounded by its send total + receive total.
  const CommMatrix comm = testing::random_comm(6, 9, 0.5, 5.0);
  const std::size_t critical = 2;
  const CriticalResourceScheduler scheduler{critical};
  const Schedule schedule = scheduler.schedule(comm);
  const double finish = involvement_finish_time(schedule, critical);
  EXPECT_LE(finish,
            comm.send_total(critical) + comm.recv_totals()[critical] + 1e-9);
}

TEST(CriticalResource, OutOfRangeProcessorThrows) {
  const CommMatrix comm = testing::random_comm(4, 1);
  const CriticalResourceScheduler scheduler{9};
  EXPECT_THROW((void)scheduler.schedule(comm), std::logic_error);
}

TEST(InvolvementFinishTime, MeasuresBothDirections) {
  const Schedule schedule{3,
                          {{0, 1, 0.0, 1.0},
                           {0, 2, 1.0, 2.0},
                           {1, 0, 0.0, 2.0},
                           {1, 2, 2.0, 3.0},
                           {2, 0, 2.0, 5.0},
                           {2, 1, 1.0, 2.0}}};
  EXPECT_DOUBLE_EQ(involvement_finish_time(schedule, 0), 5.0);  // receives last
  EXPECT_DOUBLE_EQ(involvement_finish_time(schedule, 1), 3.0);
}

}  // namespace
}  // namespace hcs
