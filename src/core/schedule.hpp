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

/// A schedule's events grouped by port, in compressed-sparse-row form:
/// port p's events are `events[offsets[p] .. offsets[p + 1])`, ordered by
/// (start, finish, position in the schedule).
struct PortOrder {
  std::vector<std::size_t> offsets;  ///< processor_count + 1 entries
  std::vector<std::size_t> events;   ///< indices into Schedule::events()

  [[nodiscard]] std::span<const std::size_t> of(std::size_t port) const {
    return {events.data() + offsets[port], offsets[port + 1] - offsets[port]};
  }
};

/// A complete timed schedule for one total exchange.
class Schedule {
 public:
  Schedule(std::size_t processor_count, std::vector<ScheduledEvent> events);

  [[nodiscard]] std::size_t processor_count() const noexcept {
    return processor_count_;
  }
  [[nodiscard]] const std::vector<ScheduledEvent>& events() const noexcept {
    return events_;
  }

  /// Time at which the last event completes.
  [[nodiscard]] double completion_time() const;

  /// Events sent by `src`, ordered by start time.
  [[nodiscard]] std::vector<ScheduledEvent> sender_events(std::size_t src) const;

  /// Events received by `dst`, ordered by start time.
  [[nodiscard]] std::vector<ScheduledEvent> receiver_events(std::size_t dst) const;

  /// Every port's events in time order, built in O(E + P): a stable
  /// counting scatter by port, then a sort of only those ports whose
  /// events are not already in order. The single port-order routine
  /// behind idle_profile(), first_violation() and send programs.
  [[nodiscard]] PortOrder port_order(PortSide side) const;

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
};

/// Renders a schedule as an ASCII timing diagram in the paper's §3.3
/// style: one column per sender, time flowing downward, each event's cell
/// run labelled with its destination processor. Intended for small P
/// (columns get one label each); `rows` controls the vertical resolution.
[[nodiscard]] std::string render_timing_diagram(const Schedule& schedule,
                                                std::size_t rows = 24);

}  // namespace hcs
