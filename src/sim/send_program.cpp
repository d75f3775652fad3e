#include "sim/send_program.hpp"

#include "util/error.hpp"

namespace hcs {

SendProgram::SendProgram(std::vector<std::vector<std::size_t>> orders)
    : orders_(std::move(orders)) {
  const std::size_t n = orders_.size();
  if (n == 0) throw InputError("SendProgram: zero processors");
  for (std::size_t src = 0; src < n; ++src)
    for (const std::size_t dst : orders_[src]) {
      if (dst >= n) throw InputError("SendProgram: destination out of range");
      if (dst == src) throw InputError("SendProgram: self-message");
    }
}

SendProgram::SendProgram(std::vector<std::vector<std::size_t>> orders,
                         std::vector<std::vector<std::size_t>> recv_orders)
    : SendProgram(std::move(orders)) {
  recv_orders_ = std::move(recv_orders);
  const std::size_t n = orders_.size();
  if (recv_orders_.size() != n)
    throw InputError("SendProgram: receiver order count mismatch");
  // Consistency: the same multiset of events on both sides.
  Matrix<int> count(n, n, 0);
  for (std::size_t src = 0; src < n; ++src)
    for (const std::size_t dst : orders_[src]) ++count(src, dst);
  for (std::size_t dst = 0; dst < n; ++dst)
    for (const std::size_t src : recv_orders_[dst]) {
      if (src >= n) throw InputError("SendProgram: source out of range");
      if (--count(src, dst) < 0)
        throw InputError("SendProgram: receive order names an unsent message");
    }
  count.for_each([](std::size_t, std::size_t, const int& c) {
    if (c != 0) throw InputError("SendProgram: sent message missing a receive slot");
  });
}

namespace {

// One side's orders: for each port, the far ends of its events in port
// order, keeping only the events whose pair `keep` marks (all of them
// when `keep` is null).
std::vector<std::vector<std::size_t>> port_orders(
    const Schedule& schedule, PortSide side,
    const Matrix<unsigned char>* keep) {
  const std::vector<ScheduledEvent>& events = schedule.events();
  const PortOrder order = schedule.port_order(side);
  std::vector<std::vector<std::size_t>> orders(schedule.processor_count());
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

}  // namespace

SendProgram SendProgram::from_schedule(const Schedule& schedule) {
  return SendProgram{port_orders(schedule, PortSide::kSend, nullptr),
                     port_orders(schedule, PortSide::kReceive, nullptr)};
}

SendProgram SendProgram::from_schedule(const Schedule& schedule,
                                       const Matrix<unsigned char>& remaining) {
  const std::size_t n = schedule.processor_count();
  if (remaining.rows() != n || remaining.cols() != n)
    throw InputError("SendProgram: remaining mask does not match schedule");
  return SendProgram{port_orders(schedule, PortSide::kSend, &remaining),
                     port_orders(schedule, PortSide::kReceive, &remaining)};
}

SendProgram SendProgram::from_steps(const StepSchedule& steps) {
  const std::size_t n = steps.processor_count();
  std::vector<std::vector<std::size_t>> orders(n);
  std::vector<std::vector<std::size_t>> recv_orders(n);
  for (const auto& step : steps.steps())
    for (const CommEvent& event : step) {
      orders[event.src].push_back(event.dst);
      recv_orders[event.dst].push_back(event.src);
    }
  return SendProgram{std::move(orders), std::move(recv_orders)};
}

std::size_t SendProgram::event_count() const {
  std::size_t count = 0;
  for (const auto& order : orders_) count += order.size();
  return count;
}

}  // namespace hcs
