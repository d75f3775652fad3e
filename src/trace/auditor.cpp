#include "trace/auditor.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

namespace hcs {
namespace {

/// A port engagement extracted from the trace.
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

/// True when the event kind engages both ports for [t_s, t_end_s].
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

/// One (port, side)'s overlap check, streamed in trace order. It keeps
/// only the last span with nonzero duration. While every later such span
/// sorts at or after it in (start, end) order and starts no earlier than
/// its end (within tolerance), the spans arrive already sorted and
/// back-to-back, so check_port_overlaps would report nothing and no span
/// need be kept. (In exact arithmetic the second condition implies the
/// first; the order test keeps rounding in `end - tolerance` from ever
/// passing an unsorted port.) Anything else (an overlap, an equal-key
/// tie, out-of-order emission, a NaN) flags the port; its spans are then
/// gathered from the trace and run through check_port_overlaps itself.
struct PortStream {
  double start = 0.0;
  double end = 0.0;
  bool seen = false;
  bool flagged = false;
  std::vector<Span> spans;  ///< filled only for flagged ports

  void add(double t_s, double t_end_s, double tolerance) {
    if (flagged || t_end_s - t_s <= tolerance) return;  // zero-duration
    const bool in_order = t_s > start || (t_s == start && t_end_s >= end);
    if (seen && !(in_order && t_s >= end - tolerance)) {
      flagged = true;
      return;
    }
    start = t_s;
    end = t_end_s;
    seen = true;
  }
};

}  // namespace

std::string AuditReport::summary() const {
  std::string out;
  for (const std::string& violation : violations) {
    if (!out.empty()) out += '\n';
    out += violation;
  }
  return out;
}

ScheduleAuditor::ScheduleAuditor(AuditOptions options) : options_(options) {}

AuditReport ScheduleAuditor::audit(const EventTrace& trace) const {
  AuditReport report;
  const double tol = options_.tolerance;

  if (trace.dropped() > 0)
    report.violations.push_back(
        "incomplete-trace: ring buffer dropped " +
        std::to_string(trace.dropped()) +
        " events; the audit window does not cover the run");

  const std::size_t n = trace.processor_count();
  const bool serialized = options_.serialized_receives;

  // Per-sender outstanding send start, for start/completion pairing.
  std::vector<std::optional<TraceEvent>> outstanding(n);
  // Receive grants awaiting their transfer, per receiver.
  std::vector<std::optional<TraceEvent>> pending_grant(n);
  std::vector<PortStream> send_ports(n);
  std::vector<PortStream> recv_ports(n);
  std::vector<PortStream> drain_ports(n);

  trace.for_each([&](const TraceEvent& event) {
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

    // A grant must be honoured by the very next engagement of that
    // receiver, at the grant's time and pair.
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
      send_ports[event.src].add(event.t_s, event.t_end_s, tol);
      if (serialized) recv_ports[event.dst].add(event.t_s, event.t_end_s, tol);
    } else if (event.kind == TraceEventKind::kBufferDrain) {
      drain_ports[event.dst].add(event.t_s, event.t_end_s, tol);
    }

    if (event.kind == TraceEventKind::kSendEnd ||
        event.kind == TraceEventKind::kRelayHop) {
      ++report.transfers;
      report.completion_s = std::max(report.completion_s, event.t_end_s);
    }
    if (event.kind == TraceEventKind::kBufferDrain)
      report.completion_s = std::max(report.completion_s, event.t_end_s);
  });

  // Ports the stream could not prove clean get the exact check, on the
  // same spans in the same (trace) order as a full collection would give.
  const auto flagged = [](const PortStream& port) { return port.flagged; };
  if (std::any_of(send_ports.begin(), send_ports.end(), flagged) ||
      std::any_of(recv_ports.begin(), recv_ports.end(), flagged) ||
      std::any_of(drain_ports.begin(), drain_ports.end(), flagged)) {
    trace.for_each([&](const TraceEvent& event) {
      const Span span{event.t_s, event.t_end_s, event.src, event.dst};
      if (occupies_ports(event.kind)) {
        if (send_ports[event.src].flagged)
          send_ports[event.src].spans.push_back(span);
        if (recv_ports[event.dst].flagged)
          recv_ports[event.dst].spans.push_back(span);
      } else if (event.kind == TraceEventKind::kBufferDrain &&
                 drain_ports[event.dst].flagged) {
        drain_ports[event.dst].spans.push_back(span);
      }
    });
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
    check_port_overlaps(send_ports[p].spans, "overlapping-send", "send", tol,
                        report.violations);
    if (serialized)
      check_port_overlaps(recv_ports[p].spans, "overlapping-receive",
                          "receive", tol, report.violations);
    // Buffered drains are serial at every receiver, in every model.
    check_port_overlaps(drain_ports[p].spans, "overlapping-drain", "receive",
                        tol, report.violations);
  }
  return report;
}

AuditReport ScheduleAuditor::audit(const EventTrace& trace,
                                   double expected_completion_s) const {
  AuditReport report = audit(trace);
  if (std::abs(report.completion_s - expected_completion_s) >
      options_.tolerance)
    report.violations.push_back(
        "completion-mismatch: trace implies completion at " +
        std::to_string(report.completion_s) +
        " but the simulator reported " +
        std::to_string(expected_completion_s));
  return report;
}

}  // namespace hcs
