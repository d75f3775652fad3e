#include "oracles/reference_schedulers.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "core/comm_matrix.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"

namespace hcs {

StepSchedule reference_greedy_steps(const CommMatrix& comm) {
  const std::size_t n = comm.processor_count();

  // Per-sender destination lists, longest event first. Ties break toward
  // the lower destination index for determinism.
  std::vector<std::vector<std::size_t>> ranked(n);
  for (std::size_t src = 0; src < n; ++src) {
    auto& list = ranked[src];
    for (std::size_t dst = 0; dst < n; ++dst)
      if (dst != src) list.push_back(dst);
    std::stable_sort(list.begin(), list.end(),
                     [&](std::size_t a, std::size_t b) {
                       return comm.time(src, a) > comm.time(src, b);
                     });
  }

  // sent(src, dst) marks pairs already scheduled in earlier steps.
  // (Matrix<bool> would hit vector<bool>'s proxy references.)
  Matrix<unsigned char> sent(n, n, 0);
  std::vector<std::size_t> remaining(n, n - 1);
  std::size_t total_remaining = n * (n - 1);

  // Traversal order for the next step, updated by the fairness rule.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  std::vector<std::vector<CommEvent>> steps;
  while (total_remaining > 0) {
    std::vector<CommEvent> step;
    std::vector<bool> claimed(n, false);  // destinations taken this step
    std::vector<std::size_t> idled;
    std::size_t last_picker = order.front();

    for (const std::size_t src : order) {
      if (remaining[src] == 0) continue;  // finished senders never idle
      bool found = false;
      for (const std::size_t dst : ranked[src]) {
        if (sent(src, dst) != 0 || claimed[dst]) continue;
        step.push_back({src, dst});
        sent(src, dst) = 1;
        claimed[dst] = true;
        --remaining[src];
        --total_remaining;
        last_picker = src;
        found = true;
        break;
      }
      if (!found) idled.push_back(src);
    }
    check(!step.empty(), "reference_greedy_steps: no progress in a step");
    steps.push_back(std::move(step));

    // Fairness: idle processors pick first next step; otherwise the last
    // picker goes first. Relative order of the others is preserved.
    std::vector<std::size_t> next_order;
    next_order.reserve(n);
    if (!idled.empty()) {
      std::vector<bool> is_idle(n, false);
      for (const std::size_t p : idled) is_idle[p] = true;
      next_order = idled;
      for (const std::size_t p : order)
        if (!is_idle[p]) next_order.push_back(p);
    } else {
      next_order.push_back(last_picker);
      for (const std::size_t p : order)
        if (p != last_picker) next_order.push_back(p);
    }
    order = std::move(next_order);
  }
  return StepSchedule{n, std::move(steps)};
}

Schedule reference_openshop_schedule(const CommMatrix& comm,
                                     const std::vector<double>& initial_send,
                                     const std::vector<double>& initial_recv) {
  const std::size_t n = comm.processor_count();
  check(initial_send.size() == n && initial_recv.size() == n,
        "reference_openshop_schedule: availability vector size mismatch");

  // Receiver sets R_i: receivers sender i still has to serve.
  std::vector<std::vector<std::size_t>> receiver_set(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) receiver_set[i].push_back(j);

  std::vector<double> recv_avail = initial_recv;

  // Senders ordered by availability time; ties resolve toward the lower
  // index ("processed in an arbitrary order" — fixed for determinism).
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> senders;
  for (std::size_t i = 0; i < n; ++i)
    if (!receiver_set[i].empty()) senders.push({initial_send[i], i});

  std::vector<ScheduledEvent> events;
  events.reserve(n * (n - 1));

  while (!senders.empty()) {
    const auto [avail, sender] = senders.top();
    senders.pop();

    // Earliest available receiver in R_sender; ties toward lower index.
    auto& candidates = receiver_set[sender];
    std::size_t best_pos = 0;
    for (std::size_t pos = 1; pos < candidates.size(); ++pos)
      if (recv_avail[candidates[pos]] < recv_avail[candidates[best_pos]])
        best_pos = pos;
    const std::size_t receiver = candidates[best_pos];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(best_pos));

    const double start = std::max(avail, recv_avail[receiver]);
    const double finish = start + comm.time(sender, receiver);
    events.push_back({sender, receiver, start, finish});
    recv_avail[receiver] = finish;
    if (!candidates.empty()) senders.push({finish, sender});
  }
  return Schedule{n, std::move(events)};
}

}  // namespace hcs
