// Timed communication schedules and their validity rules.
//
// A Schedule is the materialized form of the paper's timing diagram
// (§3.3): one rectangle per communication event, positioned in time. The
// validity rules (§3.4) are: events of the same sender must not overlap
// (one send port), events of the same receiver must not overlap (one
// receive port), every ordered pair of distinct processors is covered by
// exactly one event (no splitting, no combine-and-forward), and each
// event's duration equals its communication-matrix entry.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/comm_matrix.hpp"

namespace hcs {

/// One communication event placed in time.
struct ScheduledEvent {
  std::size_t src = 0;
  std::size_t dst = 0;
  double start_s = 0.0;
  double finish_s = 0.0;

  [[nodiscard]] double duration() const noexcept { return finish_s - start_s; }
  [[nodiscard]] bool operator==(const ScheduledEvent&) const = default;
};

/// Idle-time accounting for one processor within a schedule.
struct ProcessorIdle {
  double send_busy_s = 0.0;   ///< total time spent sending
  double send_idle_s = 0.0;   ///< gaps between sends, up to the last send
  double recv_busy_s = 0.0;   ///< total time spent receiving
  double recv_idle_s = 0.0;   ///< gaps between receives, up to the last receive
};

/// Which port of a processor an event occupies: the sender's send port or
/// the receiver's receive port.
enum class PortSide { kSend, kReceive };

/// Port order, the order in which a port serves its events: by start
/// time, then finish time, then position in Schedule::events(). True when
/// `a` comes before `b` by time alone; events equal in both keep their
/// positions' order.
[[nodiscard]] inline bool earlier_on_port(const ScheduledEvent& a,
                                          const ScheduledEvent& b) noexcept {
  return a.start_s < b.start_s ||
         (a.start_s == b.start_s && a.finish_s < b.finish_s);
}

/// Some ports' events in compressed-sparse-row form: port p's events are
/// `events[offsets[p] .. offsets[p + 1])`, in port order — by (start,
/// finish, position in the schedule). Ports not asked for are empty.
struct PortOrder {
  std::vector<std::size_t> offsets;  ///< processor_count + 1 entries
  std::vector<std::size_t> events;   ///< indices into Schedule::events()

  [[nodiscard]] std::span<const std::size_t> of(std::size_t port) const {
    return {events.data() + offsets[port], offsets[port + 1] - offsets[port]};
  }
};

class Schedule;

/// Follows one side's ports while Schedule::events() streams past in
/// schedule order, and flags each port whose events arrive out of port
/// order. Schedulers emit nearly every port in time order, so one pass
/// with a stream per side and a sort of only the flagged ports
/// (flagged_order()) yields every port in port order. Keeps each port's
/// last event: memory is O(P) whatever the event count.
class PortStream {
 public:
  PortStream(const Schedule& schedule, PortSide side);

  /// Feeds `event`, which must come later in the schedule than every event
  /// fed before it. Flags its port when `event` precedes the port's
  /// previously fed event in port order.
  void feed(const ScheduledEvent& event) noexcept {
    const std::size_t port = port_of(event);
    if (earlier_on_port(event, last_[port])) flag(port);
    last_[port] = event;
  }

  /// Like feed(), and also flags the port when `event` starts more than
  /// `tolerance` before the previously fed event finishes — so a port
  /// left unflagged holds no overlap in port order.
  void feed_checking_overlap(const ScheduledEvent& event,
                             double tolerance) noexcept {
    const std::size_t port = port_of(event);
    if (event.start_s < last_[port].finish_s - tolerance) flag(port);
    feed(event);
  }

  [[nodiscard]] PortSide side() const noexcept { return side_; }
  [[nodiscard]] bool any_flagged() const noexcept { return any_flagged_; }
  /// One byte per port, nonzero when the port arrived out of order (or
  /// overlapping, under feed_checking_overlap()).
  [[nodiscard]] const std::vector<unsigned char>& flagged() const noexcept {
    return flagged_;
  }

  /// The flagged ports' events in port order — all of each port's events,
  /// fed or not; the other ports empty.
  [[nodiscard]] PortOrder flagged_order() const;

 private:
  [[nodiscard]] std::size_t port_of(
      const ScheduledEvent& event) const noexcept {
    return side_ == PortSide::kSend ? event.src : event.dst;
  }

  void flag(std::size_t port) noexcept {
    flagged_[port] = 1;
    any_flagged_ = true;
  }

  const Schedule* schedule_;
  PortSide side_;
  std::vector<ScheduledEvent> last_;  ///< each port's last fed event
  std::vector<unsigned char> flagged_;
  bool any_flagged_ = false;
};

/// A complete timed schedule for one total exchange.
class Schedule {
 public:
  /// Throws InputError for zero processors, an event processor out of
  /// range, a non-finite start or finish, or a finish before its start.
  Schedule(std::size_t processor_count, std::vector<ScheduledEvent> events);

  [[nodiscard]] std::size_t processor_count() const noexcept {
    return processor_count_;
  }
  [[nodiscard]] const std::vector<ScheduledEvent>& events() const noexcept {
    return events_;
  }

  /// Time at which the last event completes (0 with no events); folded
  /// once by the constructor.
  [[nodiscard]] double completion_time() const noexcept {
    return completion_s_;
  }

  /// Events sent by `src`, in port order.
  [[nodiscard]] std::vector<ScheduledEvent> sender_events(std::size_t src) const;

  /// Events received by `dst`, in port order.
  [[nodiscard]] std::vector<ScheduledEvent> receiver_events(std::size_t dst) const;

  /// The events of each port that `ports` flags (one byte per port,
  /// nonzero = wanted), in port order; the other ports come back empty.
  /// One pass over events() when any port is flagged, none otherwise, plus
  /// a sort of each flagged port. The single sort behind every port order
  /// in hcs: first_violation(), idle_profile(), send programs and schedule
  /// statistics stream events() once with a PortStream per side and call
  /// this only for the ports that arrived out of order — none, for what
  /// the schedulers emit.
  [[nodiscard]] PortOrder port_order(
      PortSide side, std::span<const unsigned char> ports) const;

  /// Visits every event on both of its ports so that each port sees its
  /// events in port order: visit(side, port, event) in one pass over
  /// events(), then, for each port that arrived out of order,
  /// restart(side, port) and visit() again over that port's events in
  /// port order. Visits to different ports interleave.
  template <typename Visit, typename Restart>
  void for_each_in_port_order(Visit&& visit, Restart&& restart) const;

  /// Per-processor busy/idle breakdown.
  [[nodiscard]] std::vector<ProcessorIdle> idle_profile() const;

  /// Checks this schedule against all validity rules with respect to
  /// `comm`:
  ///  - exactly one event per ordered pair of distinct processors,
  ///  - no overlapping events per sender or per receiver,
  ///  - non-negative start times,
  ///  - every duration equal to comm.time(src, dst) within tolerance.
  /// Zero-duration events (zero-size or free messages) are exempt from the
  /// overlap rules — they occupy no port time. Returns a diagnostic for
  /// the first violation found, or nullopt when the schedule is valid.
  /// This is the single implementation of the rules: validate() and
  /// is_valid() are thin wrappers over it, so the throwing and
  /// non-throwing paths can never disagree on tolerance handling.
  [[nodiscard]] std::optional<std::string> first_violation(
      const CommMatrix& comm, double tolerance = 1e-9) const;

  /// Throws ScheduleError with first_violation()'s diagnostic, if any.
  void validate(const CommMatrix& comm, double tolerance = 1e-9) const;

  /// Like validate() but returns false instead of throwing.
  [[nodiscard]] bool is_valid(const CommMatrix& comm,
                              double tolerance = 1e-9) const noexcept;

 private:
  std::size_t processor_count_ = 0;
  std::vector<ScheduledEvent> events_;
  double completion_s_ = 0.0;
};

template <typename Visit, typename Restart>
void Schedule::for_each_in_port_order(Visit&& visit, Restart&& restart) const {
  PortStream sends(*this, PortSide::kSend);
  PortStream receives(*this, PortSide::kReceive);
  for (const ScheduledEvent& event : events_) {
    sends.feed(event);
    receives.feed(event);
    visit(PortSide::kSend, event.src, event);
    visit(PortSide::kReceive, event.dst, event);
  }
  for (const PortStream* stream : {&sends, &receives}) {
    if (!stream->any_flagged()) continue;
    const PortOrder order = stream->flagged_order();
    for (std::size_t port = 0; port < processor_count_; ++port) {
      if (stream->flagged()[port] == 0) continue;
      restart(stream->side(), port);
      for (const std::size_t e : order.of(port))
        visit(stream->side(), port, events_[e]);
    }
  }
}

/// Renders a schedule as an ASCII timing diagram in the paper's §3.3
/// style: one column per sender, time flowing downward, each event's cell
/// run labelled with its destination processor. Intended for small P
/// (columns get one label each); `rows` controls the vertical resolution.
[[nodiscard]] std::string render_timing_diagram(const Schedule& schedule,
                                                std::size_t rows = 24);

}  // namespace hcs
