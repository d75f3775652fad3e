#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <tuple>

#include "util/error.hpp"

namespace hcs {

Schedule::Schedule(std::size_t processor_count,
                   std::vector<ScheduledEvent> events)
    : processor_count_(processor_count), events_(std::move(events)) {
  if (processor_count_ == 0) throw InputError("Schedule: zero processors");
  for (const ScheduledEvent& event : events_) {
    if (event.src >= processor_count_ || event.dst >= processor_count_)
      throw InputError("Schedule: event processor index out of range");
    if (!std::isfinite(event.start_s) || !std::isfinite(event.finish_s))
      throw InputError("Schedule: event time is not finite");
    if (event.finish_s < event.start_s)
      throw InputError("Schedule: event finishes before it starts");
    completion_s_ = std::max(completion_s_, event.finish_s);
  }
}

PortStream::PortStream(const Schedule& schedule, PortSide side)
    : schedule_(&schedule),
      side_(side),
      last_(schedule.processor_count(),
            ScheduledEvent{0, 0, -std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}),
      flagged_(schedule.processor_count(), 0) {}

PortOrder PortStream::flagged_order() const {
  return schedule_->port_order(side_, flagged_);
}

PortOrder Schedule::port_order(PortSide side,
                               std::span<const unsigned char> ports) const {
  check(ports.size() == processor_count_, "Schedule: port mask size mismatch");
  const auto port_of = [side](const ScheduledEvent& event) {
    return side == PortSide::kSend ? event.src : event.dst;
  };
  PortOrder order;
  order.offsets.assign(processor_count_ + 1, 0);
  if (std::all_of(ports.begin(), ports.end(),
                  [](unsigned char wanted) { return wanted == 0; }))
    return order;
  for (const ScheduledEvent& event : events_)
    if (ports[port_of(event)] != 0) ++order.offsets[port_of(event) + 1];
  for (std::size_t p = 0; p < processor_count_; ++p)
    order.offsets[p + 1] += order.offsets[p];
  order.events.resize(order.offsets.back());
  std::vector<std::size_t> next(order.offsets.begin(), order.offsets.end() - 1);
  for (std::size_t e = 0; e < events_.size(); ++e) {
    const std::size_t port = port_of(events_[e]);
    if (ports[port] != 0) order.events[next[port]++] = e;
  }
  const auto earlier = [this](std::size_t a, std::size_t b) {
    if (earlier_on_port(events_[a], events_[b])) return true;
    return !earlier_on_port(events_[b], events_[a]) && a < b;
  };
  for (std::size_t p = 0; p < processor_count_; ++p) {
    const auto first = order.events.begin() +
                       static_cast<std::ptrdiff_t>(order.offsets[p]);
    const auto last = order.events.begin() +
                      static_cast<std::ptrdiff_t>(order.offsets[p + 1]);
    std::sort(first, last, earlier);
  }
  return order;
}

namespace {

std::vector<ScheduledEvent> port_events(const Schedule& schedule,
                                        PortSide side, std::size_t port) {
  std::vector<unsigned char> wanted(schedule.processor_count(), 0);
  wanted[port] = 1;
  const PortOrder order = schedule.port_order(side, wanted);
  std::vector<ScheduledEvent> result;
  for (const std::size_t e : order.of(port))
    result.push_back(schedule.events()[e]);
  return result;
}

}  // namespace

std::vector<ScheduledEvent> Schedule::sender_events(std::size_t src) const {
  check(src < processor_count_, "Schedule: sender out of range");
  return port_events(*this, PortSide::kSend, src);
}

std::vector<ScheduledEvent> Schedule::receiver_events(std::size_t dst) const {
  check(dst < processor_count_, "Schedule: receiver out of range");
  return port_events(*this, PortSide::kReceive, dst);
}

std::vector<ProcessorIdle> Schedule::idle_profile() const {
  std::vector<ProcessorIdle> profile(processor_count_);
  // Each port's time cursor: the latest finish it has seen.
  std::vector<double> send_cursor(processor_count_, 0.0);
  std::vector<double> recv_cursor(processor_count_, 0.0);
  const auto port_state = [&](PortSide side, std::size_t port) {
    ProcessorIdle& row = profile[port];
    return side == PortSide::kSend
               ? std::tie(row.send_busy_s, row.send_idle_s, send_cursor[port])
               : std::tie(row.recv_busy_s, row.recv_idle_s, recv_cursor[port]);
  };
  for_each_in_port_order(
      [&](PortSide side, std::size_t port, const ScheduledEvent& event) {
        auto [busy, idle, cursor] = port_state(side, port);
        busy += event.duration();
        if (event.start_s > cursor) idle += event.start_s - cursor;
        cursor = std::max(cursor, event.finish_s);
      },
      [&](PortSide side, std::size_t port) {
        auto [busy, idle, cursor] = port_state(side, port);
        busy = idle = cursor = 0.0;
      });
  return profile;
}

namespace {

std::optional<std::string> find_overlap(
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

}  // namespace

std::optional<std::string> Schedule::first_violation(const CommMatrix& comm,
                                                     double tolerance) const {
  const std::size_t n = processor_count_;
  if (comm.processor_count() != n)
    return "schedule and communication matrix sizes differ";

  // One pass checks coverage (exactly one event per ordered pair of
  // distinct processors), start times and durations, and streams every
  // port-occupying event past its two ports. A port the streams leave
  // unflagged is in port order with no overlap, so only flagged ports are
  // sorted and scanned below — in the order a scan of every port would
  // reach them, so the first diagnostic is the same.
  std::vector<unsigned char> covered(n * n, 0);
  PortStream sends(*this, PortSide::kSend);
  PortStream receives(*this, PortSide::kReceive);
  for (const ScheduledEvent& event : events_) {
    if (event.src == event.dst) return "self-message scheduled";
    if (!std::isfinite(event.start_s) || !std::isfinite(event.finish_s))
      return "event time is not finite";
    if (event.start_s < -tolerance) return "event starts before time zero";
    unsigned char& seen = covered[event.src * n + event.dst];
    if (seen != 0)
      return "duplicate event for a processor pair (message splitting?)";
    seen = 1;
    const double expected = comm.time(event.src, event.dst);
    if (std::abs(event.duration() - expected) >
        tolerance * std::max(1.0, expected))
      return "event duration does not match the communication matrix";
    // Zero-duration events occupy no port time; they cannot overlap.
    if (event.duration() > tolerance) {
      sends.feed_checking_overlap(event, tolerance);
      receives.feed_checking_overlap(event, tolerance);
    }
  }
  std::size_t expected_events = n * (n - 1);
  if (events_.size() != expected_events)
    return "schedule does not cover every processor pair exactly once";

  const PortOrder by_sender = sends.flagged_order();
  const PortOrder by_receiver = receives.flagged_order();
  for (std::size_t p = 0; p < n; ++p) {
    if (auto overlap =
            find_overlap(events_, by_sender.of(p), tolerance, "send", p))
      return overlap;
    if (auto overlap = find_overlap(events_, by_receiver.of(p), tolerance,
                                    "receive", p))
      return overlap;
  }
  return std::nullopt;
}

void Schedule::validate(const CommMatrix& comm, double tolerance) const {
  if (auto violation = first_violation(comm, tolerance))
    throw ScheduleError(*violation);
}

bool Schedule::is_valid(const CommMatrix& comm, double tolerance) const noexcept {
  return !first_violation(comm, tolerance).has_value();
}

std::string render_timing_diagram(const Schedule& schedule, std::size_t rows) {
  const std::size_t n = schedule.processor_count();
  const double makespan = schedule.completion_time();
  if (rows == 0) rows = 1;

  // Column width: enough for "->dd|".
  const std::size_t label_width = n > 10 ? 5 : 4;
  std::vector<std::string> grid(rows, std::string(n * label_width, ' '));

  for (const ScheduledEvent& event : schedule.events()) {
    if (makespan <= 0.0) break;
    auto row_of = [&](double t) {
      const double fraction = t / makespan;
      return std::min(rows - 1,
                      static_cast<std::size_t>(fraction * static_cast<double>(rows)));
    };
    const std::size_t first = row_of(event.start_s);
    // Half-open interval: the finish row is exclusive unless the event
    // would be invisible.
    std::size_t last = row_of(std::nexttoward(event.finish_s, 0.0));
    last = std::max(last, first);
    const std::size_t col = event.src * label_width;
    for (std::size_t r = first; r <= last; ++r) {
      std::string cell = (r == first)
                             ? ">" + std::to_string(event.dst)
                             : std::string("|");
      if (cell.size() > label_width - 1) cell.resize(label_width - 1);
      for (std::size_t k = 0; k < cell.size(); ++k) grid[r][col + k] = cell[k];
    }
  }

  std::ostringstream out;
  out << "time";
  for (std::size_t p = 0; p < n; ++p) {
    std::string header = "P" + std::to_string(p);
    header.resize(label_width, ' ');
    out << (p == 0 ? "  " : "") << header;
  }
  out << '\n';
  for (std::size_t r = 0; r < rows; ++r) {
    const double t = makespan * static_cast<double>(r) / static_cast<double>(rows);
    char time_label[16];
    std::snprintf(time_label, sizeof time_label, "%5.1f ", t);
    out << time_label << grid[r] << '\n';
  }
  return out.str();
}

}  // namespace hcs
