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

SendProgram::SendProgram(Mirrored,
                         std::vector<std::vector<std::size_t>> orders,
                         std::vector<std::vector<std::size_t>> recv_orders)
    : SendProgram(std::move(orders)) {
  // The receive side lists the same events, so the send side's range and
  // self-message checks cover it.
  recv_orders_ = std::move(recv_orders);
}

SendProgram SendProgram::from_events(const Schedule& schedule,
                                     const Matrix<unsigned char>* keep) {
  const std::size_t n = schedule.processor_count();
  const auto kept = [keep](const ScheduledEvent& event) {
    return keep == nullptr || (*keep)(event.src, event.dst) != 0;
  };
  // A counting pass sizes every list exactly.
  std::vector<std::size_t> send_count(n, 0);
  std::vector<std::size_t> recv_count(n, 0);
  for (const ScheduledEvent& event : schedule.events()) {
    if (!kept(event)) continue;
    ++send_count[event.src];
    ++recv_count[event.dst];
  }
  std::vector<std::vector<std::size_t>> orders(n);
  std::vector<std::vector<std::size_t>> recv_orders(n);
  for (std::size_t p = 0; p < n; ++p) {
    orders[p].reserve(send_count[p]);
    recv_orders[p].reserve(recv_count[p]);
  }
  schedule.for_each_in_port_order(
      [&](PortSide side, std::size_t port, const ScheduledEvent& event) {
        if (!kept(event)) return;
        if (side == PortSide::kSend)
          orders[port].push_back(event.dst);
        else
          recv_orders[port].push_back(event.src);
      },
      [&](PortSide side, std::size_t port) {
        (side == PortSide::kSend ? orders : recv_orders)[port].clear();
      });
  return SendProgram{Mirrored{}, std::move(orders), std::move(recv_orders)};
}

SendProgram SendProgram::from_schedule(const Schedule& schedule) {
  return from_events(schedule, nullptr);
}

SendProgram SendProgram::from_schedule(const Schedule& schedule,
                                       const Matrix<unsigned char>& remaining) {
  const std::size_t n = schedule.processor_count();
  if (remaining.rows() != n || remaining.cols() != n)
    throw InputError("SendProgram: remaining mask does not match schedule");
  return from_events(schedule, &remaining);
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
