// Send programs: the per-sender orders a simulator executes.
//
// Schedulers fix *orders*; actual times emerge from network conditions at
// execution. A SendProgram captures just the orders — for each sender, the
// sequence of destinations it will send to — extracted from a timed
// Schedule or a StepSchedule.
#pragma once

#include <cstddef>
#include <vector>

#include "core/schedule.hpp"
#include "core/step_schedule.hpp"
#include "util/matrix.hpp"

namespace hcs {

/// Per-sender destination orders, optionally with per-receiver source
/// orders.
///
/// A schedule fixes both sides' orders: each sender works through its
/// destination list, and each receiver *posts its receives* in the
/// planned order, granting the handshake only to the expected next
/// sender. Programs built from schedules carry both; hand-built programs
/// may carry only send orders, in which case receivers grant
/// first-come-first-served.
class SendProgram {
 public:
  /// `orders[i]` is the ordered list of destinations sender i sends to.
  /// No receiver orders: receivers arbitrate FIFO.
  explicit SendProgram(std::vector<std::vector<std::size_t>> orders);

  /// Send and receive orders together. `recv_orders[j]` lists the sources
  /// receiver j grants, in order; it must be consistent with `orders`
  /// (same multiset of events).
  SendProgram(std::vector<std::vector<std::size_t>> orders,
              std::vector<std::vector<std::size_t>> recv_orders);

  /// Orders from a timed schedule: per-sender and per-receiver events in
  /// port order (Schedule::port_order).
  [[nodiscard]] static SendProgram from_schedule(const Schedule& schedule);

  /// Orders of only the events whose pair is nonzero in `remaining` (a
  /// P×P mask), in the same per-port order — the still-outstanding part
  /// of a plan, which the checkpoint and fault-tolerant executors run
  /// round by round.
  [[nodiscard]] static SendProgram from_schedule(
      const Schedule& schedule, const Matrix<unsigned char>& remaining);

  /// Orders from a step schedule: step order on both sides.
  [[nodiscard]] static SendProgram from_steps(const StepSchedule& steps);

  [[nodiscard]] std::size_t processor_count() const noexcept {
    return orders_.size();
  }
  [[nodiscard]] const std::vector<std::size_t>& order_of(std::size_t src) const {
    return orders_.at(src);
  }
  /// All send orders at once — lets per-event loops index senders without
  /// the bounds check order_of() performs.
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& orders()
      const noexcept {
    return orders_;
  }
  /// True when the program fixes each receiver's grant order.
  [[nodiscard]] bool has_receiver_orders() const noexcept {
    return !recv_orders_.empty();
  }
  /// Receiver j's grant order; only meaningful when has_receiver_orders().
  [[nodiscard]] const std::vector<std::size_t>& receiver_order_of(
      std::size_t dst) const {
    return recv_orders_.at(dst);
  }
  [[nodiscard]] std::size_t event_count() const;

 private:
  struct Mirrored {};
  /// Send and receive orders listed from the same events, so they hold
  /// the same multiset by construction: checked like the one-list
  /// constructor, without the two-list constructor's P×P recount.
  SendProgram(Mirrored, std::vector<std::vector<std::size_t>> orders,
              std::vector<std::vector<std::size_t>> recv_orders);

  /// Both overloads of from_schedule(): one pass over the schedule's
  /// events, keeping those whose pair `keep` marks (all when null).
  [[nodiscard]] static SendProgram from_events(
      const Schedule& schedule, const Matrix<unsigned char>* keep);

  std::vector<std::vector<std::size_t>> orders_;
  std::vector<std::vector<std::size_t>> recv_orders_;  ///< empty = FIFO
};

}  // namespace hcs
