#include "trace/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <vector>

namespace hcs {
namespace {

/// Microseconds with fixed precision — deterministic across platforms for
/// the golden-file tests.
std::string microseconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", seconds * 1e6);
  return buffer;
}

/// The track a Chrome event is drawn on: the sender's port for
/// transmissions, the receiver's for receive-side activity.
std::uint32_t track_of(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kBufferDrain:
    case TraceEventKind::kReceiveGrant:
      return event.dst;
    default:
      return event.src;
  }
}

bool is_span(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSendEnd:
    case TraceEventKind::kBufferDrain:
    case TraceEventKind::kAttemptFailed:
    case TraceEventKind::kRelayHop:
      return true;
    default:
      return false;
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const EventTrace& trace) {
  out << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  bool first = true;
  const auto separator = [&] {
    out << (first ? "\n" : ",\n");
    first = false;
  };

  // Thread-name metadata so Perfetto labels the tracks P0, P1, ...
  for (std::size_t p = 0; p < trace.processor_count(); ++p) {
    separator();
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": "
        << p << ", \"args\": {\"name\": \"P" << p << "\"}}";
  }

  trace.for_each([&](const TraceEvent& event) {
    // send-start instants duplicate the matching span's left edge; they
    // exist for the auditor, not for the picture.
    if (event.kind == TraceEventKind::kSendStart) return;
    separator();
    const std::string_view kind = trace_event_kind_name(event.kind);
    out << "{\"name\": \"" << kind << ' ' << event.src << "->" << event.dst
        << "\", \"cat\": \"" << kind << "\", \"ph\": \"";
    if (is_span(event.kind)) {
      out << "X\", \"ts\": " << microseconds(event.t_s)
          << ", \"dur\": " << microseconds(event.t_end_s - event.t_s);
    } else {
      out << "i\", \"s\": \"t\", \"ts\": " << microseconds(event.t_s);
    }
    out << ", \"pid\": 0, \"tid\": " << track_of(event)
        << ", \"args\": {\"src\": " << event.src << ", \"dst\": " << event.dst
        << ", \"bytes\": " << event.bytes
        << ", \"attempt\": " << event.attempt << "}}";
  });
  out << "\n]\n}\n";
}

std::string render_trace_diagram(const EventTrace& trace, std::size_t rows) {
  const std::size_t n = trace.processor_count();
  if (rows == 0) rows = 1;

  double makespan = 0.0;
  trace.for_each([&](const TraceEvent& event) {
    makespan = std::max(makespan, event.t_end_s);
  });

  // Same geometry as render_timing_diagram in core/schedule.cpp: one
  // column per sender, wide enough for ">dd|".
  const std::size_t label_width = n > 10 ? 5 : 4;
  std::vector<std::string> grid(rows, std::string(n * label_width, ' '));

  std::uint64_t retries = 0, give_ups = 0, checkpoints = 0, drains = 0;
  // With a zero makespan the first port engagement ends the scan; later
  // events are not counted in the footer either.
  bool stopped = false;
  trace.for_each([&](const TraceEvent& event) {
    if (stopped) return;
    switch (event.kind) {
      case TraceEventKind::kRetryScheduled: ++retries; return;
      case TraceEventKind::kGiveUp: ++give_ups; return;
      case TraceEventKind::kCheckpoint: ++checkpoints; return;
      case TraceEventKind::kBufferDrain: ++drains; return;
      default: break;
    }
    // Grid cells mark sender-port engagements: '>' a delivered transfer,
    // '~' a relay hop, '!' a failed attempt.
    char mark;
    switch (event.kind) {
      case TraceEventKind::kSendEnd: mark = '>'; break;
      case TraceEventKind::kRelayHop: mark = '~'; break;
      case TraceEventKind::kAttemptFailed: mark = '!'; break;
      default: return;
    }
    if (makespan <= 0.0) {
      stopped = true;
      return;
    }
    auto row_of = [&](double t) {
      const double fraction = t / makespan;
      return std::min(
          rows - 1, static_cast<std::size_t>(fraction * static_cast<double>(rows)));
    };
    const std::size_t first = row_of(event.t_s);
    std::size_t last = row_of(std::nexttoward(event.t_end_s, 0.0));
    last = std::max(last, first);
    const std::size_t col =
        static_cast<std::size_t>(event.src) * label_width;
    for (std::size_t r = first; r <= last; ++r) {
      std::string cell = r == first ? std::to_string(event.dst) : "";
      cell.insert(cell.begin(), r == first ? mark : '|');
      if (cell.size() > label_width - 1) cell.resize(label_width - 1);
      for (std::size_t k = 0; k < cell.size(); ++k) grid[r][col + k] = cell[k];
    }
  });

  std::ostringstream out;
  out << "time";
  for (std::size_t p = 0; p < n; ++p) {
    std::string header = "P" + std::to_string(p);
    header.resize(label_width, ' ');
    out << (p == 0 ? "  " : "") << header;
  }
  out << '\n';
  for (std::size_t r = 0; r < rows; ++r) {
    const double t =
        makespan * static_cast<double>(r) / static_cast<double>(rows);
    char time_label[16];
    std::snprintf(time_label, sizeof time_label, "%5.1f ", t);
    out << time_label << grid[r] << '\n';
  }

  // Fault and adaptive activity, when any: fault-free traces keep the
  // plain Figure-5 shape.
  std::ostringstream footer;
  if (retries > 0) footer << "retries: " << retries << "  ";
  if (give_ups > 0) footer << "give-ups: " << give_ups << "  ";
  if (checkpoints > 0) footer << "checkpoints: " << checkpoints << "  ";
  if (drains > 0) footer << "drains: " << drains << "  ";
  std::string footer_text = footer.str();
  if (!footer_text.empty()) {
    footer_text.pop_back();
    footer_text.pop_back();
    out << footer_text << '\n';
  }
  return out.str();
}

}  // namespace hcs
