// Observability-layer unit and property tests (ISSUE 4): the EventTrace
// ring buffer, the MetricsRegistry, the exporters, and — the heart of the
// file — ScheduleAuditor property tests that feed hand-corrupted traces
// through the auditor and assert each corruption is rejected with its own
// distinct, stable diagnostic category.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "sim/simulator.hpp"
#include "trace/auditor.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace hcs {
namespace {

TraceEvent make_event(TraceEventKind kind, std::uint32_t src,
                      std::uint32_t dst, double t_s, double t_end_s,
                      std::uint64_t bytes = 1024, std::uint32_t attempt = 1) {
  return TraceEvent{t_s, t_end_s, bytes, src, dst, attempt, kind};
}

/// Records a well-formed delivered transfer: send-start + send span.
void add_transfer(EventTrace& trace, std::uint32_t src, std::uint32_t dst,
                  double t_s, double t_end_s) {
  trace.record(make_event(TraceEventKind::kSendStart, src, dst, t_s, t_s));
  trace.record(make_event(TraceEventKind::kSendEnd, src, dst, t_s, t_end_s));
}

/// The retained events, oldest first, as a vector.
std::vector<TraceEvent> collect(const EventTrace& trace) {
  std::vector<TraceEvent> events;
  trace.for_each([&](const TraceEvent& event) { events.push_back(event); });
  return events;
}

/// Expects the report to contain at least one violation and that every
/// violation starts with `category` — i.e. the corruption was detected
/// and attributed to exactly the right rule.
void expect_only_category(const AuditReport& report,
                          const std::string& category) {
  ASSERT_FALSE(report.ok()) << "expected a " << category << " violation";
  for (const std::string& violation : report.violations)
    EXPECT_EQ(violation.substr(0, category.size()), category)
        << "unexpected violation: " << violation;
}

// ---------------------------------------------------------------------------
// EventTrace ring buffer
// ---------------------------------------------------------------------------

TEST(EventTrace, RecordsInOrderAndClears) {
  EventTrace trace{8};
  add_transfer(trace, 0, 1, 0.0, 1.0);
  add_transfer(trace, 1, 2, 1.0, 2.5);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.recorded(), 4u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.processor_count(), 3u);

  const std::vector<TraceEvent> events = collect(trace);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kSendStart);
  EXPECT_EQ(events[1].kind, TraceEventKind::kSendEnd);
  EXPECT_EQ(events[3].t_end_s, 2.5);

  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.recorded(), 0u);
  EXPECT_EQ(collect(trace).size(), 0u);
  EXPECT_EQ(trace.capacity(), 8u);
}

TEST(EventTrace, RingOverwritesOldestAndCountsDropped) {
  EventTrace trace{4};
  for (std::uint32_t k = 0; k < 10; ++k)
    trace.record(make_event(TraceEventKind::kSendStart, k, k + 1,
                            static_cast<double>(k), static_cast<double>(k)));
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.recorded(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);

  // The survivors are the newest four, oldest first.
  const std::vector<TraceEvent> events = collect(trace);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(events[k].src, 6u + k);
}

TEST(EventTrace, ForEachVisitsOldestFirstAcrossWrapAround) {
  for (const std::size_t capacity : {1u, 2u, 3u, 5u, 8u}) {
    for (std::size_t count = 0; count <= 3 * capacity + 1; ++count) {
      EventTrace trace{capacity};
      for (std::uint32_t k = 0; k < count; ++k)
        trace.record(make_event(TraceEventKind::kCheckpoint, k, 0,
                                static_cast<double>(k),
                                static_cast<double>(k)));
      const std::size_t kept = std::min(count, capacity);
      ASSERT_EQ(trace.size(), kept);
      EXPECT_EQ(trace.dropped(), count - kept);
      const std::vector<TraceEvent> events = collect(trace);
      ASSERT_EQ(events.size(), kept) << capacity << "/" << count;
      for (std::size_t k = 0; k < kept; ++k)
        EXPECT_EQ(events[k].src, count - kept + k)
            << "capacity " << capacity << ", " << count << " recorded";
    }
  }
}

TEST(EventTrace, CapacityIsValidatedAtConstruction) {
  EXPECT_THROW(EventTrace{0}, InputError);
  EXPECT_THROW(EventTrace{std::numeric_limits<std::size_t>::max()},
               InputError);
  // One past the largest vector, where reserve alone would throw
  // std::length_error.
  EXPECT_THROW(EventTrace{std::vector<TraceEvent>{}.max_size() + 1},
               InputError);
}

// ---------------------------------------------------------------------------
// ScheduleAuditor: clean traces pass
// ---------------------------------------------------------------------------

TEST(ScheduleAuditor, CleanSerializedTraceIsAccepted) {
  EventTrace trace;
  add_transfer(trace, 0, 1, 0.0, 1.0);
  add_transfer(trace, 2, 1, 1.0, 2.0);  // back-to-back at receiver 1
  add_transfer(trace, 0, 2, 1.0, 3.0);  // sender 0's next engagement
  const AuditReport report = ScheduleAuditor{}.audit(trace, 3.0);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.transfers, 3u);
  EXPECT_EQ(report.completion_s, 3.0);
}

TEST(ScheduleAuditor, InterleavedReceiverOverlapAllowedWhenRelaxed) {
  EventTrace trace;
  add_transfer(trace, 0, 2, 0.0, 2.0);
  add_transfer(trace, 1, 2, 0.5, 2.5);  // concurrent receives at node 2
  AuditOptions relaxed;
  relaxed.serialized_receives = false;
  EXPECT_TRUE(ScheduleAuditor{relaxed}.audit(trace).ok());
  // The same trace violates the base model.
  expect_only_category(ScheduleAuditor{}.audit(trace),
                       "overlapping-receive");
}

// ---------------------------------------------------------------------------
// ScheduleAuditor: each hand-made corruption gets its own diagnostic
// ---------------------------------------------------------------------------

TEST(ScheduleAuditor, RejectsOverlappingSends) {
  // One sender transmitting two messages at once (the §3.2 single
  // send-port rule).
  EventTrace trace;
  add_transfer(trace, 0, 1, 0.0, 2.0);
  add_transfer(trace, 0, 2, 1.0, 3.0);
  expect_only_category(ScheduleAuditor{}.audit(trace), "overlapping-send");
}

TEST(ScheduleAuditor, RejectsReceiveBeforeSend) {
  // A completion with no matching send-start — the "receive before send"
  // corruption.
  EventTrace trace;
  trace.record(make_event(TraceEventKind::kSendEnd, 0, 1, 0.0, 1.0));
  expect_only_category(ScheduleAuditor{}.audit(trace),
                       "completion-before-start");
}

TEST(ScheduleAuditor, RejectsMismatchedCompletionPair) {
  // The completion names a different destination than the outstanding
  // start: still no *matching* start. (The dangling start is the same
  // defect seen from the other side; both diagnostics may appear.)
  EventTrace trace;
  trace.record(make_event(TraceEventKind::kSendStart, 0, 1, 0.0, 0.0));
  trace.record(make_event(TraceEventKind::kSendEnd, 0, 2, 0.0, 1.0));
  const AuditReport report = ScheduleAuditor{}.audit(trace);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("completion-before-start"),
            std::string::npos);
}

TEST(ScheduleAuditor, RejectsTimeTravel) {
  // A span that ends before it starts.
  EventTrace trace;
  trace.record(make_event(TraceEventKind::kSendStart, 0, 1, 2.0, 2.0));
  trace.record(make_event(TraceEventKind::kSendEnd, 0, 1, 2.0, 1.0));
  expect_only_category(ScheduleAuditor{}.audit(trace), "time-travel");
}

TEST(ScheduleAuditor, RejectsNegativeTime) {
  EventTrace trace;
  add_transfer(trace, 0, 1, -1.0, 1.0);
  expect_only_category(ScheduleAuditor{}.audit(trace), "negative-time");
}

TEST(ScheduleAuditor, RejectsConcurrentSendStarts) {
  EventTrace trace;
  trace.record(make_event(TraceEventKind::kSendStart, 0, 1, 0.0, 0.0));
  trace.record(make_event(TraceEventKind::kSendStart, 0, 2, 0.5, 0.5));
  const AuditReport report = ScheduleAuditor{}.audit(trace);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("concurrent-send-start"),
            std::string::npos);
}

TEST(ScheduleAuditor, RejectsDanglingSendStart) {
  EventTrace trace;
  add_transfer(trace, 0, 1, 0.0, 1.0);
  trace.record(make_event(TraceEventKind::kSendStart, 2, 1, 1.0, 1.0));
  expect_only_category(ScheduleAuditor{}.audit(trace), "dangling-send-start");
}

TEST(ScheduleAuditor, RejectsUnhonouredGrant) {
  // Receiver 2 grants its port to sender 0, but sender 1 transmits next.
  EventTrace trace;
  trace.record(make_event(TraceEventKind::kReceiveGrant, 0, 2, 1.0, 1.0));
  add_transfer(trace, 1, 2, 1.0, 2.0);
  expect_only_category(ScheduleAuditor{}.audit(trace), "unhonoured-grant");
}

TEST(ScheduleAuditor, RejectsGrantWithNoTransfer) {
  EventTrace trace;
  trace.record(make_event(TraceEventKind::kReceiveGrant, 0, 2, 1.0, 1.0));
  expect_only_category(ScheduleAuditor{}.audit(trace), "unhonoured-grant");
}

TEST(ScheduleAuditor, RejectsOverlappingDrains) {
  // Buffered drains are serial at every receiver in every model, so this
  // is rejected even with serialized receives off.
  EventTrace trace;
  trace.record(make_event(TraceEventKind::kBufferDrain, 0, 2, 0.0, 2.0));
  trace.record(make_event(TraceEventKind::kBufferDrain, 1, 2, 1.0, 3.0));
  AuditOptions relaxed;
  relaxed.serialized_receives = false;
  expect_only_category(ScheduleAuditor{relaxed}.audit(trace),
                       "overlapping-drain");
}

TEST(ScheduleAuditor, RejectsWrappedTraceAsIncomplete) {
  EventTrace trace{2};
  add_transfer(trace, 0, 1, 0.0, 1.0);
  add_transfer(trace, 0, 2, 1.0, 2.0);  // overwrites the first transfer
  const AuditReport report = ScheduleAuditor{}.audit(trace);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("incomplete-trace"), std::string::npos);
}

TEST(ScheduleAuditor, RejectsCompletionMismatch) {
  EventTrace trace;
  add_transfer(trace, 0, 1, 0.0, 1.0);
  expect_only_category(ScheduleAuditor{}.audit(trace, 2.0),
                       "completion-mismatch");
  EXPECT_TRUE(ScheduleAuditor{}.audit(trace, 1.0).ok());
}

TEST(ScheduleAuditor, ToleranceForgivesSmallSlips) {
  // A 1e-7 receiver overlap: rejected at exact tolerance, accepted with
  // slack — the same knob validate()/is_valid() expose.
  EventTrace trace;
  add_transfer(trace, 0, 2, 0.0, 1.0);
  add_transfer(trace, 1, 2, 1.0 - 1e-7, 2.0);
  EXPECT_FALSE(ScheduleAuditor{}.audit(trace).ok());
  AuditOptions slack;
  slack.tolerance = 1e-6;
  EXPECT_TRUE(ScheduleAuditor{slack}.audit(trace).ok());
}

// ---------------------------------------------------------------------------
// ScheduleAuditor: the streaming port check against the sort-based one
// ---------------------------------------------------------------------------

/// The auditor as it was before its port check streamed: every span of
/// every port collected, sorted and scanned. Kept verbatim as the
/// reference the streaming audit must reproduce exactly.
namespace reference {

struct Span {
  double start = 0.0;
  double end = 0.0;
  std::size_t src = 0;
  std::size_t dst = 0;
};

std::string format_span(const Span& span) {
  std::ostringstream out;
  out << span.src << "->" << span.dst << " [" << span.start << ", "
      << span.end << ")";
  return out.str();
}

bool occupies_ports(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSendEnd:
    case TraceEventKind::kAttemptFailed:
    case TraceEventKind::kRelayHop:
      return true;
    default:
      return false;
  }
}

void check_port_overlaps(std::vector<Span>& spans, const char* tag,
                         const char* port, double tolerance,
                         std::vector<std::string>& violations) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start < b.start || (a.start == b.start && a.end < b.end);
  });
  const Span* previous = nullptr;
  for (const Span& span : spans) {
    if (span.end - span.start <= tolerance) continue;  // zero-duration
    if (previous != nullptr && span.start < previous->end - tolerance) {
      const std::size_t node = port[0] == 's' ? span.src : span.dst;
      violations.push_back(std::string(tag) + ": node " +
                           std::to_string(node) + "'s " + port +
                           " port runs " + format_span(*previous) + " and " +
                           format_span(span) + " simultaneously");
    }
    previous = &span;
  }
}

AuditReport audit(const EventTrace& trace, const AuditOptions& options) {
  AuditReport report;
  const double tol = options.tolerance;

  if (trace.dropped() > 0)
    report.violations.push_back(
        "incomplete-trace: ring buffer dropped " +
        std::to_string(trace.dropped()) +
        " events; the audit window does not cover the run");

  const std::vector<TraceEvent> events = collect(trace);
  const std::size_t n = trace.processor_count();

  std::vector<std::optional<TraceEvent>> outstanding(n);
  std::vector<std::optional<TraceEvent>> pending_grant(n);
  std::vector<std::vector<Span>> send_spans(n);
  std::vector<std::vector<Span>> recv_spans(n);
  std::vector<std::vector<Span>> drain_spans(n);

  for (const TraceEvent& event : events) {
    const bool is_span = occupies_ports(event.kind) ||
                         event.kind == TraceEventKind::kBufferDrain;
    if (event.t_s < -tol)
      report.violations.push_back(
          "negative-time: " + std::string(trace_event_kind_name(event.kind)) +
          " " + std::to_string(event.src) + "->" + std::to_string(event.dst) +
          " at t = " + std::to_string(event.t_s) + " precedes time zero");
    if (is_span && event.t_end_s < event.t_s - tol)
      report.violations.push_back(
          "time-travel: " + std::string(trace_event_kind_name(event.kind)) +
          " " + std::to_string(event.src) + "->" + std::to_string(event.dst) +
          " ends at " + std::to_string(event.t_end_s) +
          ", before it starts at " + std::to_string(event.t_s));

    switch (event.kind) {
      case TraceEventKind::kSendStart: {
        if (outstanding[event.src].has_value())
          report.violations.push_back(
              "concurrent-send-start: node " + std::to_string(event.src) +
              " starts a send to " + std::to_string(event.dst) + " at t = " +
              std::to_string(event.t_s) + " while its send to " +
              std::to_string(outstanding[event.src]->dst) +
              " is still unresolved");
        outstanding[event.src] = event;
        break;
      }
      case TraceEventKind::kSendEnd:
      case TraceEventKind::kAttemptFailed:
      case TraceEventKind::kRelayHop: {
        const std::optional<TraceEvent>& start = outstanding[event.src];
        if (!start.has_value() || start->dst != event.dst ||
            std::abs(start->t_s - event.t_s) > tol) {
          report.violations.push_back(
              "completion-before-start: " +
              std::string(trace_event_kind_name(event.kind)) + " " +
              std::to_string(event.src) + "->" + std::to_string(event.dst) +
              " at t = " + std::to_string(event.t_s) +
              " has no matching send-start");
        } else {
          outstanding[event.src].reset();
        }
        break;
      }
      case TraceEventKind::kReceiveGrant: {
        pending_grant[event.dst] = event;
        break;
      }
      default:
        break;
    }

    if (occupies_ports(event.kind) && pending_grant[event.dst].has_value()) {
      const TraceEvent& grant = *pending_grant[event.dst];
      if (grant.src != event.src || std::abs(grant.t_s - event.t_s) > tol)
        report.violations.push_back(
            "unhonoured-grant: node " + std::to_string(grant.dst) +
            " granted its receive port to " + std::to_string(grant.src) +
            " at t = " + std::to_string(grant.t_s) +
            " but the next engagement is " + std::to_string(event.src) +
            "->" + std::to_string(event.dst) + " at t = " +
            std::to_string(event.t_s));
      pending_grant[event.dst].reset();
    }

    if (occupies_ports(event.kind)) {
      send_spans[event.src].push_back(
          {event.t_s, event.t_end_s, event.src, event.dst});
      recv_spans[event.dst].push_back(
          {event.t_s, event.t_end_s, event.src, event.dst});
    } else if (event.kind == TraceEventKind::kBufferDrain) {
      drain_spans[event.dst].push_back(
          {event.t_s, event.t_end_s, event.src, event.dst});
    }

    if (event.kind == TraceEventKind::kSendEnd ||
        event.kind == TraceEventKind::kRelayHop) {
      ++report.transfers;
      report.completion_s = std::max(report.completion_s, event.t_end_s);
    }
    if (event.kind == TraceEventKind::kBufferDrain)
      report.completion_s = std::max(report.completion_s, event.t_end_s);
  }

  for (std::size_t p = 0; p < n; ++p) {
    if (outstanding[p].has_value())
      report.violations.push_back(
          "dangling-send-start: node " + std::to_string(p) + "'s send to " +
          std::to_string(outstanding[p]->dst) + " at t = " +
          std::to_string(outstanding[p]->t_s) + " never resolves");
    if (pending_grant[p].has_value())
      report.violations.push_back(
          "unhonoured-grant: node " + std::to_string(p) +
          " granted its receive port to " +
          std::to_string(pending_grant[p]->src) + " at t = " +
          std::to_string(pending_grant[p]->t_s) +
          " but no transfer followed");
    check_port_overlaps(send_spans[p], "overlapping-send", "send", tol,
                        report.violations);
    if (options.serialized_receives)
      check_port_overlaps(recv_spans[p], "overlapping-receive", "receive",
                          tol, report.violations);
    check_port_overlaps(drain_spans[p], "overlapping-drain", "receive", tol,
                        report.violations);
  }
  return report;
}

}  // namespace reference

/// Asserts the streaming audit and the sort-based reference agree on
/// everything they report, violation text and order included.
void expect_same_audit(const EventTrace& trace, const AuditOptions& options,
                       const std::string& label) {
  const AuditReport got = ScheduleAuditor{options}.audit(trace);
  const AuditReport want = reference::audit(trace, options);
  EXPECT_EQ(got.violations, want.violations) << label;
  EXPECT_EQ(got.transfers, want.transfers) << label;
  EXPECT_EQ(got.completion_s, want.completion_s) << label;
}

/// A seeded random trace mixing what a simulator emits with what it must
/// never emit: transfers on quarter-second ticks (so back-to-back spans
/// and exact (start, end) ties are common), failed attempts and relay
/// hops, receive grants, buffer drains, zero-duration and time-travelling
/// spans, injected overlaps, and transfer groups swapped out of emission
/// order. Some traces are recorded into a ring too small to hold them.
struct RandomTrace {
  std::vector<TraceEvent> events;
  std::size_t capacity = 1;
  AuditOptions options;
};

RandomTrace random_trace(std::uint64_t seed) {
  Rng rng{seed};
  RandomTrace out;
  const auto n = static_cast<std::uint32_t>(2 + rng.next_below(7));
  const std::size_t transfers = rng.next_below(48);
  // Half the traces are overlap-free by construction; out-of-order
  // emission and ties are drawn independently of that.
  const double overlap_p = rng.bernoulli(0.5) ? 0.0 : 0.15;
  const double swap_p = rng.bernoulli(0.5) ? 0.0 : 0.2;
  const double tie_p = rng.bernoulli(0.5) ? 0.0 : 0.1;
  const auto ticks = [&](std::uint64_t bound) {
    return 0.25 * static_cast<double>(rng.next_below(bound));
  };

  std::vector<double> send_free(n, 0.0), recv_free(n, 0.0);
  std::vector<double> drain_free(n, 0.0);
  std::vector<std::vector<TraceEvent>> groups;
  for (std::size_t k = 0; k < transfers; ++k) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(n));
    const auto dst =
        static_cast<std::uint32_t>((src + 1 + rng.next_below(n - 1)) % n);
    double start = std::max(send_free[src], recv_free[dst]) + ticks(3);
    if (rng.bernoulli(overlap_p))
      start = std::max(0.0, start - 0.25 - ticks(4));
    double end = start + (rng.bernoulli(0.15) ? 0.0 : 0.25 + ticks(8));
    if (rng.bernoulli(0.03)) end = start - 0.25;  // time travel
    const std::uint64_t pick = rng.next_below(10);
    const TraceEventKind kind = pick < 7   ? TraceEventKind::kSendEnd
                                : pick < 9 ? TraceEventKind::kAttemptFailed
                                           : TraceEventKind::kRelayHop;
    std::vector<TraceEvent> group;
    if (rng.bernoulli(0.1))
      group.push_back(make_event(TraceEventKind::kReceiveGrant,
                                 rng.bernoulli(0.8) ? src : (src + 1) % n,
                                 dst, start, start));
    group.push_back(
        make_event(TraceEventKind::kSendStart, src, dst, start, start));
    group.push_back(make_event(kind, src, dst, start, end));
    if (rng.bernoulli(tie_p)) {
      // An equal-key twin on one of the two ports: same times, other peer.
      const auto peer = static_cast<std::uint32_t>(rng.next_below(n));
      const bool on_send = rng.bernoulli(0.5);
      const std::uint32_t s = on_send ? src : peer;
      const std::uint32_t d = on_send ? peer : dst;
      if (s != d) {
        group.push_back(
            make_event(TraceEventKind::kSendStart, s, d, start, start));
        group.push_back(
            make_event(TraceEventKind::kSendEnd, s, d, start, end));
      }
    }
    if (rng.bernoulli(0.2)) {
      double drain = std::max(drain_free[dst], end) + ticks(2);
      if (rng.bernoulli(overlap_p)) drain = std::max(0.0, drain - 0.5);
      const double drain_end = drain + (rng.bernoulli(0.2) ? 0.0 : ticks(6));
      group.push_back(make_event(TraceEventKind::kBufferDrain, src, dst, drain,
                                 drain_end));
      drain_free[dst] = std::max(drain_free[dst], drain_end);
    }
    if (rng.bernoulli(0.05))
      group.push_back(make_event(rng.bernoulli(0.5)
                                     ? TraceEventKind::kRetryScheduled
                                     : TraceEventKind::kCheckpoint,
                                 src, dst, end, end));
    send_free[src] = std::max(send_free[src], end);
    recv_free[dst] = std::max(recv_free[dst], end);
    groups.push_back(std::move(group));
  }
  for (std::size_t k = 0; k + 1 < groups.size(); ++k)
    if (rng.bernoulli(swap_p)) std::swap(groups[k], groups[k + 1]);
  for (const std::vector<TraceEvent>& group : groups)
    out.events.insert(out.events.end(), group.begin(), group.end());

  // A third of the rings are too small and wrap, some back to head 0.
  out.capacity = out.events.size() + 1 + rng.next_below(4);
  if (!out.events.empty() && rng.bernoulli(0.33))
    out.capacity = 1 + rng.next_below(out.events.size());
  out.options.serialized_receives = rng.bernoulli(0.7);
  const std::uint64_t tol = rng.next_below(4);
  out.options.tolerance = tol == 0 ? 0.0 : tol == 1 ? 1e-9 : 0.25;
  return out;
}

TEST(ScheduleAuditor, StreamingPortCheckMatchesSortedReference) {
  std::size_t overlapping = 0, clean = 0, wrapped = 0, wrapped_at_zero = 0,
              relaxed = 0;
  for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
    const RandomTrace random = random_trace(seed);
    EventTrace trace{random.capacity};
    for (const TraceEvent& event : random.events) trace.record(event);
    expect_same_audit(trace, random.options, "seed " + std::to_string(seed));

    const AuditReport report = ScheduleAuditor{random.options}.audit(trace);
    const bool overlaps =
        std::any_of(report.violations.begin(), report.violations.end(),
                    [](const std::string& v) {
                      return v.rfind("overlapping-", 0) == 0;
                    });
    overlapping += overlaps ? 1 : 0;
    clean += report.ok() ? 1 : 0;
    if (trace.dropped() > 0) {
      ++wrapped;
      // The oldest retained event sits at slot dropped % capacity.
      if (trace.dropped() % trace.capacity() == 0) ++wrapped_at_zero;
    }
    relaxed += random.options.serialized_receives ? 0 : 1;
  }
  // The corpus reaches both sides of the stream's proof and every ring
  // shape.
  EXPECT_GT(overlapping, 400u);
  EXPECT_GT(clean, 400u);
  EXPECT_GT(wrapped, 400u);
  EXPECT_GT(wrapped_at_zero, 20u);
  EXPECT_GT(relaxed, 400u);
}

TEST(ScheduleAuditor, StreamingPortCheckMatchesReferenceOnSimulatorTraces) {
  // Real simulator traces: serialized runs prove every port clean in one
  // pass; interleaved receives overlap, so auditing them under the
  // serialized rule exercises the fallback on whole ports.
  const std::size_t n = 12;
  const StaticDirectory directory{generate_network(n, 5)};
  const MessageMatrix messages = mixed_messages(n, 5, {kKiB, kMiB});
  std::vector<std::vector<std::size_t>> orders(n);
  for (std::size_t src = 0; src < n; ++src)
    for (std::size_t k = 1; k < n; ++k) orders[src].push_back((src + k) % n);
  const SendProgram program{std::move(orders)};
  const NetworkSimulator simulator{directory, messages};
  for (const ReceiveModel model :
       {ReceiveModel::kSerialized, ReceiveModel::kInterleaved,
        ReceiveModel::kBuffered}) {
    SimOptions options;
    options.model = model;
    EventTrace trace;
    const SimResult result = simulator.run_traced(program, options, trace);
    for (const bool serialized : {true, false}) {
      AuditOptions audit_options;
      audit_options.serialized_receives = serialized;
      expect_same_audit(trace, audit_options,
                        "model " + std::to_string(static_cast<int>(model)));
    }
    if (model == ReceiveModel::kSerialized) {
      EXPECT_TRUE(ScheduleAuditor{}.audit(trace, result.completion_time).ok());
    }
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter& events = registry.counter("events");
  events.add();
  events.add(41);
  EXPECT_EQ(registry.counter("events").value(), 42u);

  Gauge& high_water = registry.gauge("high-water");
  high_water.set_max(3.0);
  high_water.set_max(1.0);  // lower: ignored
  EXPECT_EQ(registry.gauge("high-water").value(), 3.0);

  Histogram& spans = registry.histogram("spans");
  spans.observe(0.5);
  spans.observe(2.0);
  spans.observe(0.0);  // zeros land in bucket 0
  EXPECT_EQ(spans.count(), 3u);
  EXPECT_EQ(spans.sum(), 2.5);
  EXPECT_EQ(spans.min(), 0.0);
  EXPECT_EQ(spans.max(), 2.0);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(Metrics, NameHoldsExactlyOneKind) {
  MetricsRegistry registry;
  (void)registry.counter("x");
  EXPECT_THROW((void)registry.gauge("x"), InputError);
  EXPECT_THROW((void)registry.histogram("x"), InputError);
}

TEST(Metrics, HistogramBucketGeometry) {
  // Bucket k's bound doubles each step; observations land in the first
  // bucket whose (inclusive) bound covers them.
  EXPECT_EQ(Histogram::bucket_bound(1), 2.0 * Histogram::bucket_bound(0));
  Histogram histogram;
  histogram.observe(Histogram::bucket_bound(5));        // exactly on a bound
  histogram.observe(Histogram::bucket_bound(5) * 1.01);  // just above
  EXPECT_EQ(histogram.bucket(5), 1u);
  EXPECT_EQ(histogram.bucket(6), 1u);
}

TEST(Metrics, MergeFollowsPerKindSemantics) {
  MetricsRegistry a, b;
  a.counter("n").add(2);
  b.counter("n").add(3);
  a.gauge("peak").set(5.0);
  b.gauge("peak").set(2.0);
  b.gauge("only-b").set(7.0);
  a.histogram("h").observe(1.0);
  b.histogram("h").observe(4.0);

  a.merge(b);
  EXPECT_EQ(a.counter("n").value(), 5u);      // counters add
  EXPECT_EQ(a.gauge("peak").value(), 5.0);    // gauges keep the max
  EXPECT_EQ(a.gauge("only-b").value(), 7.0);  // absent names are adopted
  EXPECT_EQ(a.histogram("h").count(), 2u);    // histograms pool samples
  EXPECT_EQ(a.histogram("h").sum(), 5.0);
}

TEST(Metrics, JsonIsDeterministicAndSorted) {
  MetricsRegistry a, b;
  // Insert in different orders; serialization must not care.
  a.counter("zeta").add(1);
  a.counter("alpha").add(2);
  b.counter("alpha").add(2);
  b.counter("zeta").add(1);
  std::ostringstream out_a, out_b;
  a.write_json(out_a);
  b.write_json(out_b);
  EXPECT_EQ(out_a.str(), out_b.str());
  EXPECT_LT(out_a.str().find("alpha"), out_a.str().find("zeta"));
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Export, ChromeTraceShapesSpansAndInstants) {
  EventTrace trace;
  add_transfer(trace, 0, 1, 0.0, 1.5);
  trace.record(make_event(TraceEventKind::kGiveUp, 1, 0, 2.0, 2.0));
  std::ostringstream out;
  write_chrome_trace(out, trace);
  const std::string json = out.str();

  // Track labels for both processors, a complete event for the span with
  // microsecond timestamps, an instant for the give-up — and no event for
  // the send-start (it duplicates the span's left edge).
  EXPECT_NE(json.find("\"name\": \"P0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"P1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\", \"ts\": 0.000, \"dur\": 1500000.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"give-up 1->0\", \"cat\": \"give-up\", "
                      "\"ph\": \"i\""),
            std::string::npos);
  EXPECT_EQ(json.find("send-start"), std::string::npos);
}

TEST(Export, DiagramMarksTransfersFailuresAndFooter) {
  EventTrace trace;
  add_transfer(trace, 0, 1, 0.0, 4.0);
  trace.record(make_event(TraceEventKind::kSendStart, 1, 0, 0.0, 0.0));
  trace.record(make_event(TraceEventKind::kAttemptFailed, 1, 0, 0.0, 2.0));
  trace.record(
      make_event(TraceEventKind::kRetryScheduled, 1, 0, 3.0, 3.0, 0, 2));
  const std::string diagram = render_trace_diagram(trace, 8);

  EXPECT_NE(diagram.find("time  P0  P1"), std::string::npos);
  EXPECT_NE(diagram.find(">1"), std::string::npos);  // delivered, labelled dst
  EXPECT_NE(diagram.find("!0"), std::string::npos);  // failed attempt
  EXPECT_NE(diagram.find('|'), std::string::npos);   // span continuation
  EXPECT_NE(diagram.find("retries: 1"), std::string::npos);
  // 8 rows + header + footer.
  EXPECT_EQ(std::count(diagram.begin(), diagram.end(), '\n'), 10);
}

TEST(Export, EmptyTraceProducesEmptyShells) {
  EventTrace trace;
  std::ostringstream out;
  write_chrome_trace(out, trace);
  EXPECT_NE(out.str().find("\"traceEvents\": [\n]"), std::string::npos);
  const std::string diagram = render_trace_diagram(trace, 4);
  EXPECT_NE(diagram.find("time"), std::string::npos);
  EXPECT_EQ(diagram.find("retries"), std::string::npos);
}

}  // namespace
}  // namespace hcs
