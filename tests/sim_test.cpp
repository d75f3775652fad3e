// Tests for src/sim: send programs, the serialized-receive simulator (it
// must reproduce the analytic order executor on a static network), the
// interleaved-receive model's (1+alpha)(t1+t2) semantics, and the finite
// buffer model.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/baseline.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "core/openshop_scheduler.hpp"
#include "core/scheduler.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace hcs {
namespace {

using Orders = std::vector<std::vector<std::size_t>>;

NetworkModel simple_network(std::size_t n, double startup_s, double bw) {
  return NetworkModel{n, LinkParams{startup_s, bw}};
}

// ---------------------------------------------------------------------------
// SendProgram
// ---------------------------------------------------------------------------

TEST(SendProgram, FromScheduleOrdersByStartTime) {
  const Schedule schedule{3,
                          {{0, 2, 4.0, 5.0},
                           {0, 1, 0.0, 1.0},
                           {1, 0, 0.0, 1.0},
                           {1, 2, 1.0, 2.0},
                           {2, 0, 1.0, 2.0},
                           {2, 1, 2.0, 3.0}}};
  const SendProgram program = SendProgram::from_schedule(schedule);
  EXPECT_EQ(program.order_of(0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(program.event_count(), 6u);
}

// Reference for SendProgram::from_schedule: one global sort per port side
// by (port, start, finish, schedule index), as the program was built
// before port orders. `keep`, when given, filters pairs afterwards.
std::pair<Orders, Orders> global_sort_orders(
    const Schedule& schedule, const Matrix<unsigned char>* keep = nullptr) {
  const std::vector<ScheduledEvent>& events = schedule.events();
  const auto sorted = [&events](bool by_sender) {
    std::vector<std::size_t> index(events.size());
    for (std::size_t e = 0; e < events.size(); ++e) index[e] = e;
    std::sort(index.begin(), index.end(), [&](std::size_t a, std::size_t b) {
      const ScheduledEvent& x = events[a];
      const ScheduledEvent& y = events[b];
      const std::size_t px = by_sender ? x.src : x.dst;
      const std::size_t py = by_sender ? y.src : y.dst;
      if (px != py) return px < py;
      if (x.start_s != y.start_s) return x.start_s < y.start_s;
      if (x.finish_s != y.finish_s) return x.finish_s < y.finish_s;
      return a < b;
    });
    return index;
  };
  Orders orders(schedule.processor_count());
  Orders recv_orders(schedule.processor_count());
  const auto kept = [keep](const ScheduledEvent& event) {
    return keep == nullptr || (*keep)(event.src, event.dst) != 0;
  };
  for (const std::size_t e : sorted(true))
    if (kept(events[e])) orders[events[e].src].push_back(events[e].dst);
  for (const std::size_t e : sorted(false))
    if (kept(events[e])) recv_orders[events[e].dst].push_back(events[e].src);
  return {std::move(orders), std::move(recv_orders)};
}

void expect_same_orders(const SendProgram& program,
                        const std::pair<Orders, Orders>& reference) {
  ASSERT_EQ(program.processor_count(), reference.first.size());
  ASSERT_TRUE(program.has_receiver_orders());
  for (std::size_t p = 0; p < program.processor_count(); ++p) {
    EXPECT_EQ(program.order_of(p), reference.first[p]) << "sender " << p;
    EXPECT_EQ(program.receiver_order_of(p), reference.second[p])
        << "receiver " << p;
  }
}

TEST(SendProgram, FromScheduleMatchesGlobalSortOnShuffledEvents) {
  const std::size_t n = 12;
  const NetworkModel network = generate_network(n, 4);
  const CommMatrix comm{network, mixed_messages(n, 4, {1024, kMiB})};
  const Schedule planned = OpenShopScheduler{}.schedule(comm);
  Rng rng{17};
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<ScheduledEvent> events = planned.events();
    rng.shuffle(events);
    const Schedule shuffled{n, std::move(events)};
    expect_same_orders(SendProgram::from_schedule(shuffled),
                       global_sort_orders(shuffled));
  }
}

TEST(SendProgram, FromScheduleMatchesGlobalSortOnTiesAndZeroDurations) {
  // Equal starts with different finishes, exact (start, finish) ties that
  // only schedule position breaks, and zero-duration events at the same
  // instant as real ones — listed out of time order.
  const Schedule schedule{4,
                          {{0, 3, 2.0, 2.0},
                           {0, 1, 2.0, 5.0},
                           {0, 2, 2.0, 3.0},
                           {1, 0, 1.0, 1.0},
                           {1, 3, 1.0, 1.0},
                           {1, 2, 0.0, 1.0},
                           {2, 0, 4.0, 4.0},
                           {2, 3, 4.0, 4.0},
                           {2, 1, 4.0, 4.0},
                           {3, 1, 3.0, 6.0},
                           {3, 0, 0.0, 0.0},
                           {3, 2, 3.0, 6.0}}};
  const SendProgram program = SendProgram::from_schedule(schedule);
  expect_same_orders(program, global_sort_orders(schedule));
  EXPECT_EQ(program.order_of(0), (std::vector<std::size_t>{3, 2, 1}));
  EXPECT_EQ(program.order_of(2), (std::vector<std::size_t>{0, 3, 1}));
}

TEST(SendProgram, FromScheduleMatchesGlobalSortOnWideHierarchicalPlan) {
  const std::size_t n = 256;
  ClusteredNetworkOptions family;
  family.cluster_count = 8;
  const NetworkModel network = generate_clustered_network(n, 6, family);
  const CommMatrix comm{network, mixed_messages(n, 6, {1024, kMiB})};
  HierarchicalScheduler::Options options;
  options.inner = SchedulerKind::kGreedy;
  const Schedule planned =
      HierarchicalScheduler{detect_clusters(network), options}.schedule(comm);
  expect_same_orders(SendProgram::from_schedule(planned),
                     global_sort_orders(planned));
}

TEST(SendProgram, MaskedFromScheduleKeepsOnlyRemainingPairsInOrder) {
  const std::size_t n = 10;
  const NetworkModel network = generate_network(n, 8);
  const Schedule planned =
      OpenShopScheduler{}.schedule(CommMatrix{network, uniform_messages(n, kMiB)});
  Rng rng{5};
  Matrix<unsigned char> remaining(n, n, 0);
  remaining.for_each([&rng](std::size_t, std::size_t, unsigned char& keep) {
    keep = rng.bernoulli(0.5) ? 1 : 0;
  });
  expect_same_orders(SendProgram::from_schedule(planned, remaining),
                     global_sort_orders(planned, &remaining));
  EXPECT_THROW((void)SendProgram::from_schedule(
                   planned, Matrix<unsigned char>(n - 1, n - 1, 1)),
               InputError);
}

TEST(SendProgram, FromStepsFollowsStepOrder) {
  const StepSchedule steps{3, {{{0, 1}, {1, 2}}, {{0, 2}, {1, 0}}}};
  const SendProgram program = SendProgram::from_steps(steps);
  EXPECT_EQ(program.order_of(0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(program.order_of(1), (std::vector<std::size_t>{2, 0}));
  EXPECT_TRUE(program.order_of(2).empty());
}

TEST(SendProgram, RejectsSelfAndOutOfRange) {
  using Orders = std::vector<std::vector<std::size_t>>;
  EXPECT_THROW(SendProgram(Orders{{0}}), InputError);      // self-message
  EXPECT_THROW(SendProgram(Orders{{5}, {}}), InputError);  // out of range
  EXPECT_THROW(SendProgram(Orders{}), InputError);         // zero processors
}

// ---------------------------------------------------------------------------
// Serialized model — must agree with the analytic executor
// ---------------------------------------------------------------------------

TEST(SerializedSim, ReproducesOrderExecutorOnStaticNetwork) {
  // For any step schedule run on a static network, the simulator's actual
  // times must equal the analytic executor's, because both implement the
  // same model (§3.2).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 6;
    const NetworkModel network = generate_network(n, seed);
    const MessageMatrix messages = mixed_messages(n, seed, {kKiB, kMiB});
    const CommMatrix comm{network, messages};
    const StepSchedule steps = baseline_steps(n);

    const Schedule analytic = execute_async(steps, comm);

    const StaticDirectory directory{network};
    const NetworkSimulator simulator{directory, messages};
    const SimResult simulated = simulator.run(SendProgram::from_steps(steps));

    EXPECT_NEAR(simulated.completion_time, analytic.completion_time(), 1e-9)
        << "seed " << seed;
  }
}

TEST(SerializedSim, ReproducesOpenShopTimesExactly) {
  const std::size_t n = 5;
  const NetworkModel network = generate_network(n, 77);
  const MessageMatrix messages = uniform_messages(n, kMiB);
  const CommMatrix comm{network, messages};
  const OpenShopScheduler scheduler;
  const Schedule planned = scheduler.schedule(comm);

  const StaticDirectory directory{network};
  const NetworkSimulator simulator{directory, messages};
  const SimResult simulated = simulator.run(SendProgram::from_schedule(planned));
  // The open-shop schedule is produced by the same greedy availability
  // rule the simulator implements, so the completion must match.
  EXPECT_NEAR(simulated.completion_time, planned.completion_time(), 1e-9);
  EXPECT_EQ(simulated.events.size(), planned.events().size());
}

TEST(SerializedSim, ContendingReceivesSerializeFifo) {
  // Senders 0 and 1 both target receiver 2 at t = 0; the tie resolves to
  // the lower sender id and the other waits out the first transfer.
  const StaticDirectory directory{simple_network(3, 0.0, 1000.0)};
  MessageMatrix messages(3, 3, 0);
  messages(0, 2) = 1000;  // 1 s
  messages(1, 2) = 2000;  // 2 s
  const NetworkSimulator simulator{directory, messages};
  const SendProgram program({{2}, {2}, {}});
  const SimResult result = simulator.run(program);
  ASSERT_EQ(result.events.size(), 2u);
  const auto& first = result.events[0];
  const auto& second = result.events[1];
  EXPECT_EQ(first.src, 0u);
  EXPECT_DOUBLE_EQ(first.start_s, 0.0);
  EXPECT_DOUBLE_EQ(first.finish_s, 1.0);
  EXPECT_EQ(second.src, 1u);
  EXPECT_DOUBLE_EQ(second.start_s, 1.0);
  EXPECT_DOUBLE_EQ(second.finish_s, 3.0);
  EXPECT_DOUBLE_EQ(result.total_sender_wait_s, 1.0);
}

TEST(SerializedSim, InitialAvailabilityDelaysPorts) {
  const StaticDirectory directory{simple_network(2, 0.0, 1000.0)};
  MessageMatrix messages(2, 2, 0);
  messages(0, 1) = 1000;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.initial_send_avail = {2.0, 0.0};
  options.initial_recv_avail = {0.0, 5.0};
  const SimResult result = simulator.run(SendProgram(Orders{{1}, {}}), options);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_DOUBLE_EQ(result.events[0].start_s, 5.0);  // receiver reserved
  EXPECT_DOUBLE_EQ(result.events[0].finish_s, 6.0);
}

TEST(SerializedSim, StaticNetworkDurationMatchesModel) {
  const StaticDirectory directory{simple_network(2, 0.5, 1000.0)};
  MessageMatrix messages(2, 2, 0);
  messages(0, 1) = 4000;
  messages(1, 0) = 2000;
  const NetworkSimulator simulator{directory, messages};
  const SimResult result = simulator.run(SendProgram(Orders{{1}, {0}}));
  ASSERT_EQ(result.events.size(), 2u);
  for (const ScheduledEvent& event : result.events) {
    const double expected = 0.5 + (event.src == 0 ? 4.0 : 2.0);
    EXPECT_NEAR(event.finish_s - event.start_s, expected, 1e-12);
  }
}

TEST(SerializedSim, BadOptionVectorsThrow) {
  const StaticDirectory directory{simple_network(2, 0.0, 1.0)};
  const MessageMatrix messages(2, 2, 0);
  const NetworkSimulator simulator{directory, messages};
  SimOptions wrong_size;
  wrong_size.initial_send_avail = {0.0};
  EXPECT_THROW((void)simulator.run(SendProgram(Orders{{1}, {}}), wrong_size),
               InputError);
  SimOptions negative;
  negative.initial_recv_avail = {0.0, -1.0};
  EXPECT_THROW((void)simulator.run(SendProgram(Orders{{1}, {}}), negative),
               InputError);
}

TEST(SerializedSim, SizeMismatchThrows) {
  const StaticDirectory directory{simple_network(3, 0.0, 1.0)};
  const MessageMatrix messages(2, 2, 0);
  EXPECT_THROW(NetworkSimulator(directory, messages), InputError);
}

TEST(SerializedSim, ProgramSizeMismatchThrows) {
  const StaticDirectory directory{simple_network(3, 0.0, 1.0)};
  const MessageMatrix messages(3, 3, 0);
  const NetworkSimulator simulator{directory, messages};
  EXPECT_THROW((void)simulator.run(SendProgram(Orders{{1}, {}})), std::logic_error);
}

// ---------------------------------------------------------------------------
// Interleaved model (§6.1)
// ---------------------------------------------------------------------------

TEST(InterleavedSim, SingleReceiveRunsAtFullRate) {
  const StaticDirectory directory{simple_network(2, 0.0, 1000.0)};
  MessageMatrix messages(2, 2, 0);
  messages(0, 1) = 3000;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kInterleaved;
  options.alpha = 0.5;
  const SimResult result = simulator.run(SendProgram(Orders{{1}, {}}), options);
  EXPECT_NEAR(result.completion_time, 3.0, 1e-9);
}

TEST(InterleavedSim, TwoSimultaneousEqualReceivesTakeOnePlusAlphaTimesSum) {
  // Two equal messages (t1 = t2 = 1.5 s) arriving together at receiver 2
  // with alpha = 0.25: both stay multiplexed until the end, so the pair
  // completes at exactly (1 + 0.25) * (1.5 + 1.5) = 3.75 s — §6.1's
  // formula.
  const StaticDirectory directory{simple_network(3, 0.0, 1000.0)};
  MessageMatrix messages(3, 3, 0);
  messages(0, 2) = 1500;
  messages(1, 2) = 1500;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kInterleaved;
  options.alpha = 0.25;
  const SimResult result = simulator.run(SendProgram(Orders{{2}, {2}, {}}), options);
  EXPECT_NEAR(result.completion_time, 1.25 * 3.0, 1e-9);
}

TEST(InterleavedSim, UnequalReceivesPayOverheadOnlyWhileMultiplexed) {
  // t1 = 1 s, t2 = 2 s with alpha = 0.25. The context-switch overhead
  // applies only while both receives are in flight: shared phase at rate
  // 1/(2 * 1.25) each ends when message 1 completes at t = 2.5; message 2
  // finishes its remaining 1 s of work alone at full rate, at t = 3.5 —
  // slightly better than the formula's (1+alpha)(t1+t2) = 3.75, which is
  // exact only when the messages stay multiplexed to the end.
  const StaticDirectory directory{simple_network(3, 0.0, 1000.0)};
  MessageMatrix messages(3, 3, 0);
  messages(0, 2) = 1000;
  messages(1, 2) = 2000;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kInterleaved;
  options.alpha = 0.25;
  const SimResult result = simulator.run(SendProgram(Orders{{2}, {2}, {}}), options);
  EXPECT_NEAR(result.completion_time, 3.5, 1e-9);
  EXPECT_LE(result.completion_time, 1.25 * 3.0 + 1e-9);  // formula bounds it
}

TEST(InterleavedSim, AlphaZeroTwoReceivesTakeSumExactly) {
  const StaticDirectory directory{simple_network(3, 0.0, 1000.0)};
  MessageMatrix messages(3, 3, 0);
  messages(0, 2) = 1000;
  messages(1, 2) = 2000;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kInterleaved;
  options.alpha = 0.0;
  const SimResult result = simulator.run(SendProgram(Orders{{2}, {2}, {}}), options);
  EXPECT_NEAR(result.completion_time, 3.0, 1e-9);
}

TEST(InterleavedSim, ShorterMessageFinishesFirst) {
  const StaticDirectory directory{simple_network(3, 0.0, 1000.0)};
  MessageMatrix messages(3, 3, 0);
  messages(0, 2) = 1000;  // t1 = 1
  messages(1, 2) = 2000;  // t2 = 2
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kInterleaved;
  options.alpha = 0.25;
  const SimResult result = simulator.run(SendProgram(Orders{{2}, {2}, {}}), options);
  ASSERT_EQ(result.events.size(), 2u);
  // Shared phase: each progresses at 1/(2 * 1.25) = 0.4/s; message 1
  // (1 s of work) completes at t = 2.5; message 2 then finishes its
  // remaining 1 s of work alone at full rate, at t = 3.5.
  EXPECT_EQ(result.events[0].src, 0u);
  EXPECT_NEAR(result.events[0].finish_s, 2.5, 1e-9);
  EXPECT_EQ(result.events[1].src, 1u);
  EXPECT_NEAR(result.events[1].finish_s, 3.5, 1e-9);
}

TEST(InterleavedSim, SendersStillSerializeTheirOwnSends) {
  const StaticDirectory directory{simple_network(3, 0.0, 1000.0)};
  MessageMatrix messages(3, 3, 0);
  messages(0, 1) = 1000;
  messages(0, 2) = 1000;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kInterleaved;
  const SimResult result = simulator.run(SendProgram(Orders{{1, 2}, {}, {}}), options);
  ASSERT_EQ(result.events.size(), 2u);
  EXPECT_NEAR(result.events[1].start_s, 1.0, 1e-9);
  EXPECT_NEAR(result.completion_time, 2.0, 1e-9);
}

TEST(InterleavedSim, AlphaZeroFanInMatchesSerializedTotal) {
  // Pure fan-in (every sender sends once, to the same receiver): with
  // alpha = 0 processor sharing conserves the receiver's total service,
  // so the last completion equals the serialized total. (For general
  // exchanges interleaving can be slower overall: sharing delays each
  // sender's release and the delay cascades into its next send.)
  const std::size_t n = 5;
  const StaticDirectory directory{simple_network(n, 0.0, 1000.0)};
  MessageMatrix messages(n, n, 0);
  for (std::size_t s = 1; s < n; ++s) messages(s, 0) = 1000 * s;
  const NetworkSimulator simulator{directory, messages};
  std::vector<std::vector<std::size_t>> orders(n);
  for (std::size_t s = 1; s < n; ++s) orders[s] = {0};
  const SendProgram program{std::move(orders)};
  const SimResult serialized = simulator.run(program);
  SimOptions options;
  options.model = ReceiveModel::kInterleaved;
  options.alpha = 0.0;
  const SimResult interleaved = simulator.run(program, options);
  EXPECT_NEAR(interleaved.completion_time, serialized.completion_time, 1e-9);
}

TEST(InterleavedSim, NegativeAlphaThrows) {
  const StaticDirectory directory{simple_network(2, 0.0, 1.0)};
  const MessageMatrix messages(2, 2, 0);
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kInterleaved;
  options.alpha = -0.1;
  EXPECT_THROW((void)simulator.run(SendProgram(Orders{{1}, {}}), options), InputError);
}

// ---------------------------------------------------------------------------
// Buffered model (§6.1)
// ---------------------------------------------------------------------------

TEST(BufferedSim, SenderReleasedAfterTransferNotAfterDrain) {
  // Sender 0 sends 1 s messages to receiver 2, then to receiver 1. With
  // buffering the second send starts at t = 1 even though receiver 2
  // still drains until t = 2.
  const StaticDirectory directory{simple_network(3, 0.0, 1000.0)};
  MessageMatrix messages(3, 3, 0);
  messages(0, 2) = 1000;
  messages(0, 1) = 1000;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kBuffered;
  options.drain_factor = 1.0;
  const SimResult result = simulator.run(SendProgram(Orders{{2, 1}, {}, {}}), options);
  ASSERT_EQ(result.events.size(), 2u);
  EXPECT_NEAR(result.events[1].start_s, 1.0, 1e-9);
  // Completion includes the receivers' drains: the second message arrives
  // at receiver 1 at t = 2 and is processed until t = 3.
  EXPECT_NEAR(result.completion_time, 3.0, 1e-9);
}

TEST(BufferedSim, FullBufferBlocksSender) {
  // Capacity 1 at receiver 2: sender 1 must wait until the slot frees
  // (when processing of the first message starts).
  const StaticDirectory directory{simple_network(3, 0.0, 1000.0)};
  MessageMatrix messages(3, 3, 0);
  messages(0, 2) = 1000;
  messages(1, 2) = 1000;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kBuffered;
  options.buffer_capacity = 1;
  const SimResult result = simulator.run(SendProgram(Orders{{2}, {2}, {}}), options);
  ASSERT_EQ(result.events.size(), 2u);
  EXPECT_NEAR(result.events[1].start_s, 1.0, 1e-9);
  EXPECT_GT(result.total_sender_wait_s, 0.9);
}

TEST(BufferedSim, LargeBufferNeverBlocks) {
  const StaticDirectory directory{simple_network(4, 0.0, 1000.0)};
  MessageMatrix messages(4, 4, 0);
  for (std::size_t s = 0; s < 3; ++s) messages(s, 3) = 1000;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kBuffered;
  options.buffer_capacity = 16;
  const SimResult result =
      simulator.run(SendProgram(Orders{{3}, {3}, {3}, {}}), options);
  EXPECT_NEAR(result.total_sender_wait_s, 0.0, 1e-9);
  // All arrive at t = 1; the receiver drains 3 x 1 s serially.
  EXPECT_NEAR(result.completion_time, 4.0, 1e-9);
}

TEST(BufferedSim, DrainFactorScalesProcessing) {
  const StaticDirectory directory{simple_network(2, 0.0, 1000.0)};
  MessageMatrix messages(2, 2, 0);
  messages(0, 1) = 2000;
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kBuffered;
  options.drain_factor = 0.5;
  const SimResult result = simulator.run(SendProgram(Orders{{1}, {}}), options);
  // 2 s flight + 1 s processing.
  EXPECT_NEAR(result.completion_time, 3.0, 1e-9);
}

TEST(BufferedSim, ZeroCapacityThrows) {
  const StaticDirectory directory{simple_network(2, 0.0, 1.0)};
  const MessageMatrix messages(2, 2, 0);
  const NetworkSimulator simulator{directory, messages};
  SimOptions options;
  options.model = ReceiveModel::kBuffered;
  options.buffer_capacity = 0;
  EXPECT_THROW((void)simulator.run(SendProgram(Orders{{1}, {}}), options), InputError);
}

TEST(BufferedSim, NeverSlowerThanSerializedWithFreeDrain) {
  // With drain_factor 0 (pure store-and-release) and ample buffer,
  // buffering strictly removes blocking.
  const std::size_t n = 6;
  const NetworkModel network = generate_network(n, 5);
  const StaticDirectory directory{network};
  const MessageMatrix messages = uniform_messages(n, 64 * kKiB);
  const NetworkSimulator simulator{directory, messages};
  const SendProgram program = SendProgram::from_steps(baseline_steps(n));

  const SimResult serialized = simulator.run(program);
  SimOptions buffered;
  buffered.model = ReceiveModel::kBuffered;
  buffered.buffer_capacity = n;
  buffered.drain_factor = 0.0;
  const SimResult result = simulator.run(program, buffered);
  EXPECT_LE(result.completion_time, serialized.completion_time + 1e-9);
}

}  // namespace
}  // namespace hcs
