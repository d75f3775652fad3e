#include "oracles/reference_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <tuple>

#include "util/error.hpp"

namespace hcs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sender-side delay before retrying after failed attempt `attempt`.
/// Recomputed from scratch each call — the production simulator carries
/// the delay forward instead; both produce base, base*factor,
/// (base*factor)*factor, ... with identical rounding.
double backoff_delay(const SimOptions& options, std::size_t attempt) {
  double delay = options.backoff_base_s;
  for (std::size_t k = 1; k < attempt; ++k) delay *= options.backoff_factor;
  return delay;
}

/// Port availability vector from options or zeros.
std::vector<double> initial_avail(const std::vector<double>& provided,
                                  std::size_t n, const char* which) {
  if (provided.empty()) return std::vector<double>(n, 0.0);
  if (provided.size() != n)
    throw InputError(std::string("SimOptions: bad size for ") + which);
  for (const double t : provided)
    if (t < 0.0)
      throw InputError(std::string("SimOptions: negative avail in ") + which);
  return provided;
}

/// Context one reference run executes against.
struct Net {
  const DirectoryService& directory;
  const MessageMatrix& messages;
  [[nodiscard]] double transfer_time(std::size_t src, std::size_t dst,
                                     double now_s) const {
    return directory.query(src, dst, now_s).transfer_time(messages(src, dst));
  }
};

// ---------------------------------------------------------------------------
// Programmed arbitration.
// ---------------------------------------------------------------------------

SimResult reference_programmed(const Net& net, const SendProgram& program,
                               const SimOptions& options) {
  const std::size_t n = program.processor_count();
  std::vector<double> send_avail =
      initial_avail(options.initial_send_avail, n, "initial_send_avail");
  std::vector<double> recv_avail =
      initial_avail(options.initial_recv_avail, n, "initial_recv_avail");
  std::vector<std::size_t> next_send(n, 0);
  std::vector<std::size_t> next_recv(n, 0);

  SimResult result;
  std::size_t remaining = program.event_count();
  result.events.reserve(remaining);

  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t src = 0; src < n; ++src) {
      while (next_send[src] < program.order_of(src).size()) {
        const std::size_t dst = program.order_of(src)[next_send[src]];
        const auto& expected = program.receiver_order_of(dst);
        if (expected[next_recv[dst]] != src) break;  // receiver not ready for us
        const double request = send_avail[src];
        double start = std::max(request, recv_avail[dst]);
        if (options.fault_model == nullptr) {
          const double duration = net.transfer_time(src, dst, start);
          result.events.push_back({src, dst, start, start + duration});
          result.total_sender_wait_s += start - request;
          send_avail[src] = start + duration;
          recv_avail[dst] = start + duration;
        } else {
          const double first_start = start;
          for (std::size_t attempt = 1;; ++attempt) {
            const double duration = net.transfer_time(src, dst, start);
            const SendVerdict verdict = options.fault_model->judge(
                {src, dst, start, attempt, duration});
            if (verdict.delivered) {
              const double actual = duration * verdict.slowdown;
              result.events.push_back({src, dst, start, start + actual});
              result.total_sender_wait_s += start - request;
              send_avail[src] = start + actual;
              recv_avail[dst] = start + actual;
              break;
            }
            ++result.failed_attempts;
            const double freed = start + verdict.elapsed_s;
            send_avail[src] = freed;
            recv_avail[dst] = freed;
            if (verdict.permanent || attempt >= options.max_attempts) {
              result.undelivered.push_back(
                  {src, dst, first_start, freed, attempt, verdict.permanent});
              break;
            }
            start = freed + backoff_delay(options, attempt);
          }
        }
        ++next_send[src];
        ++next_recv[dst];
        --remaining;
        progressed = true;
      }
    }
    check(progressed,
          "run_programmed: deadlock — send and receive orders are inconsistent");
  }

  for (const ScheduledEvent& event : result.events)
    result.completion_time = std::max(result.completion_time, event.finish_s);
  return result;
}

// ---------------------------------------------------------------------------
// Serialized receives, FIFO arbitration.
// ---------------------------------------------------------------------------

SimResult reference_serialized(const Net& net, const SendProgram& program,
                               const SimOptions& options) {
  if (program.has_receiver_orders() &&
      options.arbitration == ReceiverArbitration::kProgrammed)
    return reference_programmed(net, program, options);
  const std::size_t n = program.processor_count();
  std::vector<double> recv_avail =
      initial_avail(options.initial_recv_avail, n, "initial_recv_avail");
  std::vector<double> send_avail =
      initial_avail(options.initial_send_avail, n, "initial_send_avail");

  enum Kind : int { kSenderReady = 0, kReceiverFree = 1 };
  using Event = std::tuple<double, int, std::size_t>;  // time, kind, id
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;

  using Request = std::pair<double, std::size_t>;
  std::vector<std::priority_queue<Request, std::vector<Request>, std::greater<>>>
      waiting(n);
  std::vector<bool> receiver_busy(n, false);
  std::vector<std::size_t> next_index(n, 0);
  std::vector<std::size_t> attempt_no(n, 1);
  std::vector<double> first_attempt(n, 0.0);

  SimResult result;
  result.events.reserve(program.event_count());

  const auto start_transfer = [&](std::size_t src, std::size_t dst,
                                  double request_time, double start) {
    double duration = net.transfer_time(src, dst, start);
    if (options.fault_model != nullptr) {
      const SendVerdict verdict = options.fault_model->judge(
          {src, dst, start, attempt_no[src], duration});
      if (!verdict.delivered) {
        ++result.failed_attempts;
        if (attempt_no[src] == 1) first_attempt[src] = start;
        const double freed = start + verdict.elapsed_s;
        receiver_busy[dst] = true;
        recv_avail[dst] = freed;
        send_avail[src] = freed;
        queue.push({freed, kReceiverFree, dst});
        if (verdict.permanent || attempt_no[src] >= options.max_attempts) {
          result.undelivered.push_back({src, dst, first_attempt[src], freed,
                                        attempt_no[src], verdict.permanent});
          attempt_no[src] = 1;
          ++next_index[src];
          queue.push({freed, kSenderReady, src});
        } else {
          queue.push({freed + backoff_delay(options, attempt_no[src]),
                      kSenderReady, src});
          ++attempt_no[src];
        }
        return;
      }
      attempt_no[src] = 1;
      duration *= verdict.slowdown;
    }
    result.events.push_back({src, dst, start, start + duration});
    result.total_sender_wait_s += start - request_time;
    receiver_busy[dst] = true;
    recv_avail[dst] = start + duration;
    send_avail[src] = start + duration;
    ++next_index[src];
    queue.push({start + duration, kReceiverFree, dst});
    queue.push({start + duration, kSenderReady, src});
  };

  for (std::size_t src = 0; src < n; ++src)
    if (!program.order_of(src).empty())
      queue.push({send_avail[src], kSenderReady, src});

  while (!queue.empty()) {
    const auto [now, kind, id] = queue.top();
    queue.pop();
    if (kind == kSenderReady) {
      const std::size_t src = id;
      const auto& order = program.order_of(src);
      if (next_index[src] >= order.size()) continue;
      if (send_avail[src] > now) continue;  // stale wakeup
      const std::size_t dst = order[next_index[src]];
      if (!receiver_busy[dst] && waiting[dst].empty() && recv_avail[dst] <= now) {
        start_transfer(src, dst, now, now);
      } else if (!receiver_busy[dst] && waiting[dst].empty()) {
        waiting[dst].push({now, src});
        queue.push({recv_avail[dst], kReceiverFree, dst});
      } else {
        waiting[dst].push({now, src});
      }
    } else {  // kReceiverFree
      const std::size_t dst = id;
      if (receiver_busy[dst] && recv_avail[dst] > now) continue;  // stale
      receiver_busy[dst] = false;
      if (!waiting[dst].empty() && recv_avail[dst] <= now) {
        const auto [request_time, src] = waiting[dst].top();
        waiting[dst].pop();
        start_transfer(src, dst, request_time, now);
      }
    }
  }

  for (std::size_t p = 0; p < n; ++p)
    check(next_index[p] == program.order_of(p).size(),
          "run_serialized: deadlock — unsent messages remain");
  for (const ScheduledEvent& event : result.events)
    result.completion_time = std::max(result.completion_time, event.finish_s);
  return result;
}

// ---------------------------------------------------------------------------
// Interleaved receives: naive scans. Per event this re-derives the next
// sender with a scan over every receiver's active list per sender (the
// O(P^2) in-flight check) and the next completion with a scan over every
// active message. The per-message arithmetic — a per-receiver
// virtual-work clock advanced only when the active set changes — is
// shared with the event-driven implementation so traces match exactly.
// ---------------------------------------------------------------------------

SimResult reference_interleaved(const Net& net, const SendProgram& program,
                                const SimOptions& options) {
  if (!(options.alpha >= 0.0) || !std::isfinite(options.alpha))
    throw InputError("run_interleaved: alpha must be finite and non-negative");
  const std::size_t n = program.processor_count();
  std::vector<double> send_avail =
      initial_avail(options.initial_send_avail, n, "initial_send_avail");

  struct Active {
    std::size_t src;
    double target;  // receiver virtual-work level at which this completes
    double start;
  };
  std::vector<std::vector<Active>> active(n);  // per receiver
  std::vector<double> virtual_work(n, 0.0);
  std::vector<double> last_update(n, 0.0);
  std::vector<std::size_t> next_index(n, 0);

  SimResult result;
  result.events.reserve(program.event_count());
  double now = 0.0;
  std::size_t outstanding = program.event_count();

  while (outstanding > 0 || [&] {
    for (std::size_t d = 0; d < n; ++d)
      if (!active[d].empty()) return true;
    return false;
  }()) {
    // Next sender start: the earliest sender with work left whose port is
    // free (checked by scanning every receiver's active list).
    double next_send = kInf;
    std::size_t next_src = 0;
    for (std::size_t src = 0; src < n; ++src) {
      if (next_index[src] >= program.order_of(src).size()) continue;
      bool in_flight = false;
      for (std::size_t d = 0; d < n && !in_flight; ++d)
        for (const Active& a : active[d])
          if (a.src == src) { in_flight = true; break; }
      if (in_flight) continue;
      if (send_avail[src] < next_send) {
        next_send = send_avail[src];
        next_src = src;
      }
    }

    // Next completion among active receives.
    double next_completion = kInf;
    std::size_t completion_dst = 0;
    for (std::size_t dst = 0; dst < n; ++dst) {
      const double rate = interleaved_rate(active[dst].size(), options.alpha);
      if (rate <= 0.0) continue;
      for (const Active& a : active[dst]) {
        const double t =
            last_update[dst] + (a.target - virtual_work[dst]) / rate;
        if (t < next_completion) {
          next_completion = t;
          completion_dst = dst;
        }
      }
    }

    check(next_send < kInf || next_completion < kInf,
          "run_interleaved: no progress");
    now = std::min(std::max(next_send, now), next_completion);

    if (completion_wins(next_completion, next_send, now)) {
      // Complete the earliest-finishing (lowest-target) message at
      // completion_dst.
      auto& list = active[completion_dst];
      virtual_work[completion_dst] +=
          (now - last_update[completion_dst]) *
          interleaved_rate(list.size(), options.alpha);
      last_update[completion_dst] = now;
      auto it = std::min_element(list.begin(), list.end(),
                                 [](const Active& a, const Active& b) {
                                   return a.target < b.target;
                                 });
      result.events.push_back({it->src, completion_dst, it->start, now});
      send_avail[it->src] = now;
      list.erase(it);
    } else {
      // Start next_src's next message.
      const std::size_t dst = program.order_of(next_src)[next_index[next_src]];
      ++next_index[next_src];
      --outstanding;
      virtual_work[dst] += (now - last_update[dst]) *
                           interleaved_rate(active[dst].size(), options.alpha);
      last_update[dst] = now;
      active[dst].push_back(
          {next_src, virtual_work[dst] + net.transfer_time(next_src, dst, now),
           now});
    }
  }

  for (const ScheduledEvent& event : result.events)
    result.completion_time = std::max(result.completion_time, event.finish_s);
  return result;
}

// ---------------------------------------------------------------------------
// Finite receive buffers.
// ---------------------------------------------------------------------------

SimResult reference_buffered(const Net& net, const SendProgram& program,
                             const SimOptions& options) {
  if (options.buffer_capacity < 1)
    throw InputError("run_buffered: buffer capacity must be >= 1");
  if (!(options.drain_factor >= 0.0) || !std::isfinite(options.drain_factor))
    throw InputError("run_buffered: drain_factor must be finite and non-negative");
  const std::size_t n = program.processor_count();
  std::vector<double> send_avail =
      initial_avail(options.initial_send_avail, n, "initial_send_avail");
  std::vector<double> recv_port_avail =
      initial_avail(options.initial_recv_avail, n, "initial_recv_avail");

  struct Arrival {
    double arrive_time;
    std::size_t src;
    double process_cost;
    [[nodiscard]] bool operator>(const Arrival& other) const {
      return std::tie(arrive_time, src) > std::tie(other.arrive_time, other.src);
    }
  };

  enum Kind : int { kSenderReady = 0, kArrival = 1 };
  using Event = std::tuple<double, int, std::size_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;

  std::vector<std::size_t> slots_used(n, 0);
  using Blocked = std::pair<double, std::size_t>;
  std::vector<std::priority_queue<Blocked, std::vector<Blocked>, std::greater<>>>
      blocked(n);
  std::vector<std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>>>
      inbox(n);
  std::vector<std::size_t> next_index(n, 0);

  SimResult result;
  result.events.reserve(program.event_count());
  double drain_finish = 0.0;

  const auto begin_transmit = [&](std::size_t src, std::size_t dst,
                                  double request_time, double start) {
    const double duration = net.transfer_time(src, dst, start);
    result.events.push_back({src, dst, start, start + duration});
    result.total_sender_wait_s += start - request_time;
    ++slots_used[dst];
    send_avail[src] = start + duration;
    ++next_index[src];
    queue.push({start + duration, kArrival, dst});
    inbox[dst].push({start + duration, src, duration * options.drain_factor});
    queue.push({start + duration, kSenderReady, src});
  };

  const auto try_drain = [&](std::size_t dst, double now) {
    while (!inbox[dst].empty() && inbox[dst].top().arrive_time <= now &&
           recv_port_avail[dst] <= now) {
      const Arrival arrival = inbox[dst].top();
      inbox[dst].pop();
      const double start = std::max(recv_port_avail[dst], arrival.arrive_time);
      recv_port_avail[dst] = start + arrival.process_cost;
      drain_finish = std::max(drain_finish, recv_port_avail[dst]);
      --slots_used[dst];
      if (!blocked[dst].empty() && slots_used[dst] < options.buffer_capacity) {
        const auto [request_time, src] = blocked[dst].top();
        blocked[dst].pop();
        begin_transmit(src, dst, request_time, std::max(now, send_avail[src]));
      }
      queue.push({recv_port_avail[dst], kArrival, dst});
    }
  };

  for (std::size_t src = 0; src < n; ++src)
    if (!program.order_of(src).empty())
      queue.push({send_avail[src], kSenderReady, src});

  while (!queue.empty()) {
    const auto [now, kind, id] = queue.top();
    queue.pop();
    if (kind == kSenderReady) {
      const std::size_t src = id;
      const auto& order = program.order_of(src);
      if (next_index[src] >= order.size()) continue;
      if (send_avail[src] > now) continue;  // stale wakeup
      const std::size_t dst = order[next_index[src]];
      if (slots_used[dst] < options.buffer_capacity) {
        begin_transmit(src, dst, now, now);
      } else {
        blocked[dst].push({now, src});
      }
    } else {  // kArrival / port wake-up at receiver id
      try_drain(id, now);
    }
  }

  for (std::size_t p = 0; p < n; ++p) {
    check(next_index[p] == program.order_of(p).size(),
          "run_buffered: deadlock — unsent messages remain");
    check(inbox[p].empty(), "run_buffered: undrained inbox");
  }
  for (const ScheduledEvent& event : result.events)
    result.completion_time = std::max(result.completion_time, event.finish_s);
  result.completion_time = std::max(result.completion_time, drain_finish);
  return result;
}

}  // namespace

SimResult run_reference(const DirectoryService& directory,
                        const MessageMatrix& messages,
                        const SendProgram& program,
                        const SimOptions& options) {
  if (directory.processor_count() != messages.rows() || !messages.square())
    throw InputError("run_reference: directory and messages disagree on size");
  check(program.processor_count() == directory.processor_count(),
        "NetworkSimulator: program size mismatch");
  if (options.fault_model != nullptr) {
    if (options.model != ReceiveModel::kSerialized)
      throw InputError(
          "NetworkSimulator: fault injection requires the serialized model");
    if (options.max_attempts < 1)
      throw InputError("SimOptions: max_attempts must be >= 1");
    if (!(options.backoff_base_s >= 0.0) ||
        !std::isfinite(options.backoff_base_s))
      throw InputError("SimOptions: backoff_base_s must be finite and >= 0");
    if (!(options.backoff_factor >= 1.0) ||
        !std::isfinite(options.backoff_factor))
      throw InputError("SimOptions: backoff_factor must be finite and >= 1");
  }
  const Net net{directory, messages};
  switch (options.model) {
    case ReceiveModel::kSerialized:
      return reference_serialized(net, program, options);
    case ReceiveModel::kInterleaved:
      return reference_interleaved(net, program, options);
    case ReceiveModel::kBuffered:
      return reference_buffered(net, program, options);
  }
  throw InputError("NetworkSimulator: unknown receive model");
}

}  // namespace hcs
