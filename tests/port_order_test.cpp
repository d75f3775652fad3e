// Port order: the streaming pass behind Schedule::first_violation(),
// SendProgram::from_schedule(), idle_profile(), sender_events() and
// analyze_schedule() must agree exactly with the sort-every-port
// implementation it replaced, kept here as the reference. And every
// scheduler must emit its ports in time order: that is what keeps the
// streaming pass at one pass over the events.
//
// 3000 deterministic seeds by default; HCS_FUZZ_SEEDS overrides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "core/schedule.hpp"
#include "core/schedule_stats.hpp"
#include "core/scheduler.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/generator.hpp"
#include "qos/qos_scheduler.hpp"
#include "sim/send_program.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace hcs {
namespace {

using Orders = std::vector<std::vector<std::size_t>>;

// ---------------------------------------------------------------------------
// Reference: the sort-every-port implementation, verbatim but for being
// free functions over a Schedule.
// ---------------------------------------------------------------------------

PortOrder reference_port_order(const Schedule& schedule, PortSide side) {
  const std::vector<ScheduledEvent>& events_ = schedule.events();
  const std::size_t processor_count_ = schedule.processor_count();
  const auto port_of = [side](const ScheduledEvent& event) {
    return side == PortSide::kSend ? event.src : event.dst;
  };
  PortOrder order;
  order.offsets.assign(processor_count_ + 1, 0);
  for (const ScheduledEvent& event : events_) ++order.offsets[port_of(event) + 1];
  for (std::size_t p = 0; p < processor_count_; ++p)
    order.offsets[p + 1] += order.offsets[p];
  order.events.resize(events_.size());
  std::vector<std::size_t> next(order.offsets.begin(), order.offsets.end() - 1);
  for (std::size_t e = 0; e < events_.size(); ++e)
    order.events[next[port_of(events_[e])]++] = e;
  // The scatter keeps schedule order within a port, so the index
  // tiebreak makes this a stable sort by (start, finish). Schedulers emit
  // most ports already in order; those skip the sort.
  const auto earlier = [&events_](std::size_t a, std::size_t b) {
    const ScheduledEvent& x = events_[a];
    const ScheduledEvent& y = events_[b];
    if (x.start_s != y.start_s) return x.start_s < y.start_s;
    if (x.finish_s != y.finish_s) return x.finish_s < y.finish_s;
    return a < b;
  };
  for (std::size_t p = 0; p < processor_count_; ++p) {
    const auto first = order.events.begin() +
                       static_cast<std::ptrdiff_t>(order.offsets[p]);
    const auto last = order.events.begin() +
                      static_cast<std::ptrdiff_t>(order.offsets[p + 1]);
    if (!std::is_sorted(first, last, earlier)) std::sort(first, last, earlier);
  }
  return order;
}

std::optional<std::string> reference_find_overlap(
    const std::vector<ScheduledEvent>& events,
    std::span<const std::size_t> sorted, double tolerance, const char* port,
    std::size_t processor) {
  // Zero-duration events occupy no port time; skip them.
  const ScheduledEvent* previous = nullptr;
  for (const std::size_t e : sorted) {
    const ScheduledEvent* event = &events[e];
    if (event->duration() <= tolerance) continue;
    if (previous != nullptr &&
        event->start_s < previous->finish_s - tolerance) {
      std::ostringstream message;
      message << "overlapping " << port << " events at processor " << processor
              << ": [" << previous->start_s << ", " << previous->finish_s
              << ") and [" << event->start_s << ", " << event->finish_s << ")";
      return message.str();
    }
    previous = event;
  }
  return std::nullopt;
}

std::optional<std::string> reference_first_violation(const Schedule& schedule,
                                                     const CommMatrix& comm,
                                                     double tolerance) {
  const std::vector<ScheduledEvent>& events_ = schedule.events();
  const std::size_t n = schedule.processor_count();
  if (comm.processor_count() != n)
    return "schedule and communication matrix sizes differ";

  // Coverage: exactly one event per ordered pair of distinct processors.
  Matrix<int> covered(n, n, 0);
  for (const ScheduledEvent& event : events_) {
    if (event.src == event.dst) return "self-message scheduled";
    if (event.start_s < -tolerance) return "event starts before time zero";
    if (covered(event.src, event.dst) != 0)
      return "duplicate event for a processor pair (message splitting?)";
    covered(event.src, event.dst) = 1;
    const double expected = comm.time(event.src, event.dst);
    if (std::abs(event.duration() - expected) >
        tolerance * std::max(1.0, expected))
      return "event duration does not match the communication matrix";
  }
  std::size_t expected_events = n * (n - 1);
  if (events_.size() != expected_events)
    return "schedule does not cover every processor pair exactly once";

  const PortOrder by_sender = reference_port_order(schedule, PortSide::kSend);
  const PortOrder by_receiver =
      reference_port_order(schedule, PortSide::kReceive);
  for (std::size_t p = 0; p < n; ++p) {
    if (auto overlap = reference_find_overlap(events_, by_sender.of(p),
                                              tolerance, "send", p))
      return overlap;
    if (auto overlap = reference_find_overlap(events_, by_receiver.of(p),
                                              tolerance, "receive", p))
      return overlap;
  }
  return std::nullopt;
}

// One side's orders: for each port, the far ends of its events in port
// order, keeping only the events whose pair `keep` marks (all of them
// when `keep` is null).
Orders reference_port_orders(const Schedule& schedule, PortSide side,
                             const Matrix<unsigned char>* keep) {
  const std::vector<ScheduledEvent>& events = schedule.events();
  const PortOrder order = reference_port_order(schedule, side);
  Orders orders(schedule.processor_count());
  for (std::size_t p = 0; p < orders.size(); ++p) {
    const auto port = order.of(p);
    orders[p].reserve(port.size());
    for (const std::size_t e : port) {
      const ScheduledEvent& event = events[e];
      if (keep != nullptr && (*keep)(event.src, event.dst) == 0) continue;
      orders[p].push_back(side == PortSide::kSend ? event.dst : event.src);
    }
  }
  return orders;
}

std::vector<ProcessorIdle> reference_idle_profile(const Schedule& schedule) {
  std::vector<ProcessorIdle> profile(schedule.processor_count());
  const auto accumulate = [&schedule](std::span<const std::size_t> port,
                                      double& busy, double& idle) {
    double cursor = 0.0;
    for (const std::size_t e : port) {
      const ScheduledEvent& event = schedule.events()[e];
      busy += event.duration();
      if (event.start_s > cursor) idle += event.start_s - cursor;
      cursor = std::max(cursor, event.finish_s);
    }
  };
  const PortOrder by_sender = reference_port_order(schedule, PortSide::kSend);
  const PortOrder by_receiver =
      reference_port_order(schedule, PortSide::kReceive);
  for (std::size_t p = 0; p < schedule.processor_count(); ++p) {
    accumulate(by_sender.of(p), profile[p].send_busy_s, profile[p].send_idle_s);
    accumulate(by_receiver.of(p), profile[p].recv_busy_s,
               profile[p].recv_idle_s);
  }
  return profile;
}

// ---------------------------------------------------------------------------
// Seeded schedules
// ---------------------------------------------------------------------------

std::size_t seed_count() {
  std::size_t seeds = 3000;
  if (const char* env = std::getenv("HCS_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) seeds = static_cast<std::size_t>(parsed);
  }
  return seeds;
}

struct Case {
  CommMatrix comm;
  Schedule schedule;
  double tolerance;
  bool self_message;
};

// Event `moved` now starts where `anchor`, on the same port, ends: exactly
// at the overlap tolerance's edge, one ulp past it, or well inside.
void place_against(ScheduledEvent& moved, const ScheduledEvent& anchor,
                   double tolerance, Rng& rng) {
  const double duration = moved.duration();
  const double edge = anchor.finish_s - tolerance;
  switch (rng.next_below(3)) {
    case 0: moved.start_s = edge; break;
    case 1:
      moved.start_s =
          std::nextafter(edge, -std::numeric_limits<double>::infinity());
      break;
    default: moved.start_s = anchor.start_s + 0.5 * (edge - anchor.start_s);
  }
  moved.start_s = std::max(moved.start_s, 0.0);
  moved.finish_s = moved.start_s + duration;
}

// A schedule on P = 2..10 with comm times on a coarse grid (zeros
// included), so zero-duration events and exact (start, finish) ties are
// common. Either a valid list schedule or random grid placements (mostly
// overlapping), then corrupted: moves to the tolerance edge, copied
// spans, duplicated, dropped and self pairs, and shuffled event order.
Case make_case(std::uint64_t seed) {
  Rng rng{seed};
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 10));
  Matrix<double> times(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j)
        times(i, j) = rng.bernoulli(0.15)
                          ? 0.0
                          : 0.5 * static_cast<double>(rng.uniform_int(1, 4));
  const double tolerances[] = {1e-9, 0.0, 0.25};
  const double tolerance = tolerances[rng.next_below(3)];

  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) pairs.emplace_back(i, j);
  rng.shuffle(pairs);
  std::vector<ScheduledEvent> events;
  const bool list_schedule = rng.bernoulli(0.5);
  std::vector<double> send_free(n, 0.0);
  std::vector<double> recv_free(n, 0.0);
  for (const auto& [i, j] : pairs) {
    const double start =
        list_schedule ? std::max(send_free[i], recv_free[j])
                      : 0.5 * static_cast<double>(rng.uniform_int(0, 8));
    events.push_back({i, j, start, start + times(i, j)});
    send_free[i] = recv_free[j] = start + times(i, j);
  }

  const auto pick = [&rng](const std::vector<ScheduledEvent>& list) {
    return static_cast<std::size_t>(rng.next_below(list.size()));
  };
  const auto same_port = [](const ScheduledEvent& a, const ScheduledEvent& b) {
    return a.src == b.src || a.dst == b.dst;
  };
  const auto corruptions = rng.next_below(4);
  for (std::uint64_t c = 0; c < corruptions && !events.empty(); ++c) {
    const std::size_t k = pick(events);
    const std::size_t m = pick(events);
    switch (rng.next_below(6)) {
      case 0:
      case 1:
        if (k != m && same_port(events[k], events[m]))
          place_against(events[k], events[m], tolerance, rng);
        break;
      case 2:  // an exact (start, finish) tie when the durations agree
        if (k != m && same_port(events[k], events[m]) &&
            events[k].duration() == events[m].duration()) {
          events[k].start_s = events[m].start_s;
          events[k].finish_s = events[m].finish_s;
        }
        break;
      case 3: events.push_back(events[k]); break;
      case 4:
        events.erase(events.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      default:
        if (rng.bernoulli(0.2)) events[k].start_s = -1.0;
    }
  }
  bool self_message = false;
  if (rng.bernoulli(0.02)) {
    const auto p = static_cast<std::size_t>(rng.next_below(n));
    events.push_back({p, p, 0.0, 0.0});
    self_message = true;
  }
  if (rng.bernoulli(0.5)) rng.shuffle(events);
  return {CommMatrix{std::move(times)}, Schedule{n, std::move(events)},
          tolerance, self_message};
}

Matrix<unsigned char> random_mask(std::size_t n, Rng& rng) {
  const double density = 0.25 * static_cast<double>(rng.next_below(5));
  Matrix<unsigned char> mask(n, n, 0);
  mask.for_each([&](std::size_t, std::size_t, unsigned char& keep) {
    keep = rng.bernoulli(density) ? 1 : 0;
  });
  return mask;
}

void expect_orders(const SendProgram& program, const Orders& sends,
                   const Orders& receives) {
  ASSERT_EQ(program.processor_count(), sends.size());
  ASSERT_TRUE(program.has_receiver_orders());
  for (std::size_t p = 0; p < sends.size(); ++p) {
    EXPECT_EQ(program.order_of(p), sends[p]) << "sender " << p;
    EXPECT_EQ(program.receiver_order_of(p), receives[p]) << "receiver " << p;
  }
}

TEST(PortOrderEquivalence, FirstViolationMatchesSortEveryPort) {
  std::size_t valid = 0;
  std::size_t send_overlaps = 0;
  std::size_t receive_overlaps = 0;
  std::size_t coverage = 0;
  for (std::uint64_t seed = 1; seed <= seed_count(); ++seed) {
    const Case c = make_case(seed);
    const auto expected =
        reference_first_violation(c.schedule, c.comm, c.tolerance);
    ASSERT_EQ(c.schedule.first_violation(c.comm, c.tolerance), expected)
        << "seed " << seed;
    if (!expected) {
      ++valid;
    } else if (expected->starts_with("overlapping send")) {
      ++send_overlaps;
    } else if (expected->starts_with("overlapping receive")) {
      ++receive_overlaps;
    } else if (expected->starts_with("duplicate") ||
               expected->starts_with("schedule does not cover")) {
      ++coverage;
    }
  }
  // The corpus reaches every branch of the port checks.
  EXPECT_GT(valid, 0u);
  EXPECT_GT(send_overlaps, 0u);
  EXPECT_GT(receive_overlaps, 0u);
  EXPECT_GT(coverage, 0u);
}

TEST(PortOrderEquivalence, SendProgramsMatchSortEveryPort) {
  for (std::uint64_t seed = 1; seed <= seed_count(); ++seed) {
    SCOPED_TRACE(seed);
    const Case c = make_case(seed);
    if (c.self_message) {
      EXPECT_THROW((void)SendProgram::from_schedule(c.schedule), InputError);
      continue;
    }
    expect_orders(
        SendProgram::from_schedule(c.schedule),
        reference_port_orders(c.schedule, PortSide::kSend, nullptr),
        reference_port_orders(c.schedule, PortSide::kReceive, nullptr));
    Rng rng{seed ^ 0x5eedULL};
    const Matrix<unsigned char> mask =
        random_mask(c.schedule.processor_count(), rng);
    expect_orders(SendProgram::from_schedule(c.schedule, mask),
                  reference_port_orders(c.schedule, PortSide::kSend, &mask),
                  reference_port_orders(c.schedule, PortSide::kReceive, &mask));
    if (HasFailure()) return;
  }
}

TEST(PortOrderEquivalence, PortViewsMatchSortEveryPort) {
  for (std::uint64_t seed = 1; seed <= seed_count(); ++seed) {
    SCOPED_TRACE(seed);
    const Case c = make_case(seed);
    const Schedule& schedule = c.schedule;
    const std::size_t n = schedule.processor_count();
    const PortOrder by_sender = reference_port_order(schedule, PortSide::kSend);
    const PortOrder by_receiver =
        reference_port_order(schedule, PortSide::kReceive);
    const std::vector<ProcessorIdle> idle = schedule.idle_profile();
    const std::vector<ProcessorIdle> expected_idle =
        reference_idle_profile(schedule);
    const ScheduleStats stats = analyze_schedule(schedule, c.comm);
    for (std::size_t p = 0; p < n; ++p) {
      std::vector<ScheduledEvent> sends;
      std::vector<ScheduledEvent> receives;
      double send_busy = 0.0;
      double recv_busy = 0.0;
      double last_active = 0.0;
      for (const std::size_t e : by_sender.of(p)) {
        sends.push_back(schedule.events()[e]);
        send_busy += sends.back().duration();
        last_active = std::max(last_active, sends.back().finish_s);
      }
      for (const std::size_t e : by_receiver.of(p)) {
        receives.push_back(schedule.events()[e]);
        recv_busy += receives.back().duration();
        last_active = std::max(last_active, receives.back().finish_s);
      }
      EXPECT_EQ(schedule.sender_events(p), sends) << "sender " << p;
      EXPECT_EQ(schedule.receiver_events(p), receives) << "receiver " << p;
      EXPECT_EQ(idle[p].send_busy_s, expected_idle[p].send_busy_s);
      EXPECT_EQ(idle[p].send_idle_s, expected_idle[p].send_idle_s);
      EXPECT_EQ(idle[p].recv_busy_s, expected_idle[p].recv_busy_s);
      EXPECT_EQ(idle[p].recv_idle_s, expected_idle[p].recv_idle_s);
      EXPECT_EQ(stats.processors[p].send_busy_s, send_busy);
      EXPECT_EQ(stats.processors[p].recv_busy_s, recv_busy);
      EXPECT_EQ(stats.processors[p].last_active_s, last_active);
    }
    if (HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// The traffic the fast path is built for
// ---------------------------------------------------------------------------

// Ports of `schedule` whose events, in schedule order, ever step back in
// (start, finish) order.
std::size_t ports_out_of_order(const Schedule& schedule, PortSide side) {
  struct Last {
    double start_s = -std::numeric_limits<double>::infinity();
    double finish_s = -std::numeric_limits<double>::infinity();
    bool out_of_order = false;
  };
  std::vector<Last> last(schedule.processor_count());
  for (const ScheduledEvent& event : schedule.events()) {
    Last& port = last[side == PortSide::kSend ? event.src : event.dst];
    if (event.start_s < port.start_s ||
        (event.start_s == port.start_s && event.finish_s < port.finish_s))
      port.out_of_order = true;
    port.start_s = event.start_s;
    port.finish_s = event.finish_s;
  }
  return static_cast<std::size_t>(
      std::count_if(last.begin(), last.end(),
                    [](const Last& port) { return port.out_of_order; }));
}

void expect_ports_in_time_order(const Schedule& schedule,
                                const std::string& label) {
  EXPECT_EQ(ports_out_of_order(schedule, PortSide::kSend), 0u)
      << label << ": send ports out of order";
  EXPECT_EQ(ports_out_of_order(schedule, PortSide::kReceive), 0u)
      << label << ": receive ports out of order";
}

// Every scheduler — each SchedulerKind flat and hierarchical, and the QoS
// scheduler under each ordering — emits every send and receive port in
// time order, on flat and clustered instances. The streaming port order
// relies on this to stay one pass: should a scheduler stop, this fails
// rather than the fast path silently giving way to sorting.
TEST(PortOrderTraffic, EverySchedulerEmitsPortsInTimeOrder) {
  const std::size_t n = 128;
  ClusteredNetworkOptions family;
  family.cluster_count = 8;
  const std::pair<const char*, NetworkModel> instances[] = {
      {"flat", generate_network(n, 7)},
      {"clustered", generate_clustered_network(n, 7, family)},
  };
  const SchedulerKind kinds[] = {
      SchedulerKind::kBaseline,    SchedulerKind::kBaselineBarrier,
      SchedulerKind::kMaxMatching, SchedulerKind::kMinMatching,
      SchedulerKind::kGreedy,      SchedulerKind::kOpenShop,
      SchedulerKind::kRandom,
  };
  for (const auto& [instance, network] : instances) {
    const CommMatrix comm{network, mixed_messages(n, 7, {1024, kMiB})};
    const Clustering clusters = detect_clusters(network);
    for (const SchedulerKind kind : kinds) {
      const std::string name{scheduler_name(kind)};
      expect_ports_in_time_order(make_scheduler(kind, 7)->schedule(comm),
                                 std::string(instance) + " " + name);
      HierarchicalScheduler::Options options;
      options.inner = kind;
      options.seed = 7;
      expect_ports_in_time_order(
          HierarchicalScheduler{clusters, options}.schedule(comm),
          std::string(instance) + " hierarchical(" + name + ")");
    }
    QosSpec spec = QosSpec::unconstrained(n);
    Rng rng{7};
    spec.deadline_s.for_each(
        [&](std::size_t i, std::size_t j, double& deadline) {
          if (i != j && rng.bernoulli(0.25))
            deadline = comm.time(i, j) + 0.15 * comm.lower_bound();
        });
    for (const QosOrdering ordering :
         {QosOrdering::kEdf, QosOrdering::kPriorityFirst,
          QosOrdering::kLeastLaxity}) {
      const QosScheduler scheduler{spec, ordering};
      expect_ports_in_time_order(
          scheduler.schedule(comm),
          std::string(instance) + " " + std::string(scheduler.name()));
    }
  }
}

}  // namespace
}  // namespace hcs
