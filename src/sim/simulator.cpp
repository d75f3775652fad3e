#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

// Implementation notes.
//
// All four execution paths draw their scratch storage from a SimWorkspace
// (sim_workspace.hpp): flat index-based binary heaps and per-port arrays
// that are cleared — never shrunk — between runs, so a warmed workspace
// makes every run allocation-free inside the simulator. The semantics are
// pinned by tests/sim_golden_test.cpp, which asserts event-for-event
// bit-identical traces against the retained naive implementation in
// oracles/reference_simulator.cpp across all receive models, arbitration
// modes, and fault hooks.
//
// The interleaved model is event-driven rather than scan-driven. All
// active receives at one receiver progress at the same per-message rate
// (interleaved_rate), so each receiver carries a virtual-work clock
// V(t) = seconds of service every active message has accumulated; a
// message inserted at level V with w seconds of work completes when the
// clock reaches target = V + w. V is advanced lazily — only when the
// receiver's active set changes, because that is the only time its rate
// changes — which keeps per-event cost at O(log P): a per-receiver
// min-heap on (target, seq) yields the earliest completion at that
// receiver, an indexed heap across receivers yields the earliest
// completion overall, and a ready-sender heap replaces the old O(P^2)
// "is this sender in flight" rescan (membership itself encodes the
// in-flight bit). Total: O((E + P) log P) per run instead of O(E * P^2).

// Templating the run loops on the trace sink moves them into COMDAT
// sections, where GCC's unit-growth budget (now paying for two
// instantiations per loop) stops inlining the per-event helper lambdas it
// inlined when the loops were plain members — an out-of-line call per
// simulated event. The hint below pins those lambdas inline so the
// NullTraceSink instantiation keeps the pre-tracing code shape.
#if defined(__GNUC__) || defined(__clang__)
#define HCS_HOT_LAMBDA __attribute__((always_inline))
#else
#define HCS_HOT_LAMBDA
#endif

namespace hcs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fills `avail` from the provided initial-port-availability vector, or
/// zeros. Validates like the original per-run copy but reuses storage.
void init_avail(std::vector<double>& avail, const std::vector<double>& provided,
                std::size_t n, const char* which) {
  if (provided.empty()) {
    avail.assign(n, 0.0);
    return;
  }
  if (provided.size() != n)
    throw InputError(std::string("SimOptions: bad size for ") + which);
  for (const double t : provided)
    if (t < 0.0)
      throw InputError(std::string("SimOptions: negative avail in ") + which);
  avail.assign(provided.begin(), provided.end());
}

/// Builds a TraceEvent from the simulator's native index types.
TraceEvent make_trace(TraceEventKind kind, double t_s, double t_end_s,
                      std::uint64_t bytes, std::size_t src, std::size_t dst,
                      std::size_t attempt = 1) {
  return {t_s,
          t_end_s,
          bytes,
          static_cast<std::uint32_t>(src),
          static_cast<std::uint32_t>(dst),
          static_cast<std::uint32_t>(attempt),
          kind};
}

}  // namespace

NetworkSimulator::NetworkSimulator(const DirectoryService& directory,
                                   const MessageMatrix& messages)
    : directory_(directory), messages_(messages) {
  if (directory_.processor_count() != messages_.rows() ||
      !messages_.square())
    throw InputError("NetworkSimulator: directory and messages disagree on size");
}

double NetworkSimulator::transfer_time(std::size_t src, std::size_t dst,
                                       double now_s) const {
  return directory_.query(src, dst, now_s).transfer_time(messages_(src, dst));
}

const double* NetworkSimulator::pair_times() const {
  if (!directory_.time_invariant()) return nullptr;
  std::call_once(pair_time_once_, [&] {
    const std::size_t n = directory_.processor_count();
    pair_time_.resize(n * n);
    for (std::size_t src = 0; src < n; ++src)
      for (std::size_t dst = 0; dst < n; ++dst)
        pair_time_[src * n + dst] = transfer_time(src, dst, 0.0);
  });
  return pair_time_.data();
}

SimResult NetworkSimulator::run(const SendProgram& program,
                                const SimOptions& options) const {
  SimResult result;
  run_into(program, options, workspace_, result);
  return result;
}

SimResult NetworkSimulator::run(const SendProgram& program,
                                const SimOptions& options,
                                SimWorkspace& workspace) const {
  SimResult result;
  run_into(program, options, workspace, result);
  return result;
}

void NetworkSimulator::run_into(const SendProgram& program,
                                const SimOptions& options,
                                SimResult& result) const {
  run_into(program, options, workspace_, result);
}

void NetworkSimulator::run_into(const SendProgram& program,
                                const SimOptions& options,
                                SimWorkspace& workspace,
                                SimResult& result) const {
  NullTraceSink sink;
  run_into_sink(program, options, workspace, result, sink);
}

SimResult NetworkSimulator::run_traced(const SendProgram& program,
                                       const SimOptions& options,
                                       EventTrace& trace) const {
  SimResult result;
  run_into_traced(program, options, workspace_, result, trace);
  return result;
}

void NetworkSimulator::run_into_traced(const SendProgram& program,
                                       const SimOptions& options,
                                       SimWorkspace& workspace,
                                       SimResult& result,
                                       EventTrace& trace) const {
  run_into_sink(program, options, workspace, result, trace);
}

template <TraceSink Sink>
void NetworkSimulator::run_into_sink(const SendProgram& program,
                                     const SimOptions& options,
                                     SimWorkspace& workspace,
                                     SimResult& result, Sink& sink) const {
  check(program.processor_count() == directory_.processor_count(),
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
  result.events.clear();
  result.undelivered.clear();
  result.completion_time = 0.0;
  result.total_sender_wait_s = 0.0;
  result.failed_attempts = 0;
  switch (options.model) {
    case ReceiveModel::kSerialized:
      return run_serialized(program, options, workspace, result, sink);
    case ReceiveModel::kInterleaved:
      return run_interleaved(program, options, workspace, result, sink);
    case ReceiveModel::kBuffered:
      return run_buffered(program, options, workspace, result, sink);
  }
  throw InputError("NetworkSimulator: unknown receive model");
}

// ---------------------------------------------------------------------------
// Serialized receives (base model).
// ---------------------------------------------------------------------------

namespace {

// Event kinds for the serialized model, ordered so that at equal times
// new requests join a receiver's wait queue before that receiver's grant
// decision runs.
enum SerializedKind : std::uint32_t { kSenderReady = 0, kReceiverFree = 1 };

}  // namespace

template <TraceSink Sink>
void NetworkSimulator::run_serialized(const SendProgram& program,
                                      const SimOptions& options,
                                      SimWorkspace& ws, SimResult& result,
                                      Sink& sink) const {
  if (program.has_receiver_orders() &&
      options.arbitration == ReceiverArbitration::kProgrammed)
    return run_programmed(program, options, ws, result, sink);
  if (options.fault_model != nullptr)
    return run_serialized_faulty(program, options, ws, result, sink);
  const std::size_t n = program.processor_count();
  init_avail(ws.recv_avail, options.initial_recv_avail, n, "initial_recv_avail");
  init_avail(ws.send_avail, options.initial_send_avail, n, "initial_send_avail");

  using Event = SimWorkspace::Event;
  auto& queue = ws.events;
  queue.clear();

  // Per-receiver FIFO of blocked requests: (request time, sender).
  SimWorkspace::reset_per_port(ws.parked, n);
  ws.receiver_busy.assign(n, 0);
  ws.next_index.assign(n, 0);

  result.events.reserve(program.event_count());

  // Receiver-free wake-ups are scheduled lazily: a transfer does not
  // announce its own finish; instead the first sender to park at an
  // engaged receiver schedules the wake-up (at recv_avail, exactly when
  // the engagement ends), and a grant that leaves the queue non-empty
  // schedules the next one. An uncontended transfer therefore costs one
  // event push instead of two. Grant times, winners, and even the order
  // transfers are recorded in are unchanged from eager scheduling: a
  // wake-up, when it exists, carries the same (recv_avail, kReceiverFree,
  // dst) key the eager push used, and the busy flag below keeps the
  // eager tie semantics — a sender finding the port freed exactly at
  // `now` still parks and is granted in the receiver-free phase, because
  // with eager wake-ups the (now, kReceiverFree) event that frees the
  // port sorts after every (now, kSenderReady). A flag left stale (its
  // wake-up was elided) is ignored once recv_avail < now: the engagement
  // provably ended in the past, which is exactly when the eager wake-up
  // would have cleared it. tests/sim_golden_test.cpp pins this loop
  // event-for-event to the eagerly-scheduled reference implementation.
  const double* const times = pair_times();
  const std::vector<std::size_t>* const orders = program.orders().data();
  // Raw views of the per-port state. None of these vectors is resized
  // inside the loop (only the heaps' internal storage grows), so hoisting
  // the data pointers once spares the loop re-deriving them after every
  // call the compiler cannot see through.
  double* const send_avail = ws.send_avail.data();
  double* const recv_avail = ws.recv_avail.data();
  std::size_t* const next_index = ws.next_index.data();
  std::uint8_t* const receiver_busy = ws.receiver_busy.data();
  auto* const parked = ws.parked.data();
  double sender_wait = 0.0;

  // Events an event handler schedules (at most two: a continuation for the
  // sender plus a wake-up for the receiver). They are buffered so the loop
  // tail can fuse the pop of the handled event with the push of the first
  // follow-up into a single replace_top sift. Pop order — and therefore
  // the simulation — is unchanged: events are totally ordered except for
  // exact duplicates, so heap layout never influences what pops next.
  Event pending[2];
  std::size_t n_pending = 0;
  const auto start_transfer = [&](std::size_t src, std::size_t dst,
                                  double request_time,
                                  double start) HCS_HOT_LAMBDA {
    const double duration = times != nullptr ? times[src * n + dst]
                                             : transfer_time(src, dst, start);
    const double finish = start + duration;
    if constexpr (Sink::kEnabled) {
      const std::uint64_t bytes = messages_(src, dst);
      sink.record(make_trace(TraceEventKind::kSendStart, start, start, bytes,
                             src, dst));
      sink.record(make_trace(TraceEventKind::kSendEnd, start, finish, bytes,
                             src, dst));
    }
    result.events.push_back({src, dst, start, finish});
    sender_wait += start - request_time;
    receiver_busy[dst] = 1;
    recv_avail[dst] = finish;
    send_avail[src] = finish;
    ++next_index[src];
    if (!parked[dst].empty())
      pending[n_pending++] = Event::make(finish, kReceiverFree, dst);
    if (next_index[src] < orders[src].size())
      pending[n_pending++] = Event::make(finish, kSenderReady, src);
  };

  for (std::size_t src = 0; src < n; ++src)
    if (!orders[src].empty())
      queue.push(Event::make(send_avail[src], kSenderReady, src));

  while (!queue.empty()) {
    const Event event = queue.top();
    const double now = event.time;
    if (event.kind() == kSenderReady) {
      const std::size_t src = event.id();
      const auto& order = orders[src];
      if (next_index[src] < order.size() && send_avail[src] <= now) {
        const std::size_t dst = order[next_index[src]];
        if (parked[dst].empty() &&
            (recv_avail[dst] < now ||
             (receiver_busy[dst] == 0 && recv_avail[dst] <= now))) {
          start_transfer(src, dst, now, now);
        } else {
          // Engaged (or reserved) receiver: the first parker schedules the
          // wake-up for when the port frees. recv_avail >= now here.
          if (parked[dst].empty())
            pending[n_pending++] =
                Event::make(recv_avail[dst], kReceiverFree, dst);
          parked[dst].push({now, src});
        }
      }
    } else {  // kReceiverFree
      const std::size_t dst = event.id();
      if (recv_avail[dst] <= now) {  // else stale: re-engaged meanwhile
        receiver_busy[dst] = 0;
        if (!parked[dst].empty()) {
          const auto [request_time, src] = parked[dst].top();
          parked[dst].pop();
          if constexpr (Sink::kEnabled)
            sink.record(make_trace(TraceEventKind::kReceiveGrant, now, now,
                                   messages_(src, dst), src, dst));
          start_transfer(src, dst, request_time, now);
        }
      }
    }
    if (n_pending == 0) {
      queue.pop();
    } else {
      queue.replace_top(pending[0]);
      if (n_pending == 2) queue.push(pending[1]);
      n_pending = 0;
    }
  }
  result.total_sender_wait_s += sender_wait;

  for (std::size_t p = 0; p < n; ++p)
    check(ws.next_index[p] == program.order_of(p).size(),
          "run_serialized: deadlock — unsent messages remain");
  for (const ScheduledEvent& event : result.events)
    result.completion_time = std::max(result.completion_time, event.finish_s);
}

// Serialized model with fault injection. Same event structure as the
// no-fault loop above; kept separate so the retry machinery stays out of
// the no-fault hot path. Golden tests pin both loops to the reference.
template <TraceSink Sink>
void NetworkSimulator::run_serialized_faulty(const SendProgram& program,
                                             const SimOptions& options,
                                             SimWorkspace& ws,
                                             SimResult& result,
                                             Sink& sink) const {
  const std::size_t n = program.processor_count();
  init_avail(ws.recv_avail, options.initial_recv_avail, n, "initial_recv_avail");
  init_avail(ws.send_avail, options.initial_send_avail, n, "initial_send_avail");

  using Event = SimWorkspace::Event;
  auto& queue = ws.events;
  queue.clear();

  SimWorkspace::reset_per_port(ws.parked, n);
  ws.receiver_busy.assign(n, 0);
  ws.next_index.assign(n, 0);
  // Attempt number for each sender's current message, the start of its
  // first attempt (for the undelivered report), and the backoff delay its
  // next retry will wait — carried forward through the attempt sequence
  // instead of being recomputed from scratch.
  ws.attempt_no.assign(n, 1);
  ws.first_attempt.assign(n, 0.0);
  ws.retry_delay.assign(n, 0.0);

  result.events.reserve(program.event_count());

  const double* const times = pair_times();
  const auto start_transfer = [&](std::size_t src, std::size_t dst,
                                  double request_time, double start) {
    const double duration = times != nullptr ? times[src * n + dst]
                                             : transfer_time(src, dst, start);
    const SendVerdict verdict = options.fault_model->judge(
        {src, dst, start, ws.attempt_no[src], duration});
    if constexpr (Sink::kEnabled)
      sink.record(make_trace(TraceEventKind::kSendStart, start, start,
                             messages_(src, dst), src, dst,
                             ws.attempt_no[src]));
    if (!verdict.delivered) {
      ++result.failed_attempts;
      if (ws.attempt_no[src] == 1) {
        ws.first_attempt[src] = start;
        ws.retry_delay[src] = options.backoff_base_s;
      }
      // Both ports were engaged for the failed attempt's duration.
      const double freed = start + verdict.elapsed_s;
      if constexpr (Sink::kEnabled)
        sink.record(make_trace(TraceEventKind::kAttemptFailed, start, freed,
                               messages_(src, dst), src, dst,
                               ws.attempt_no[src]));
      ws.receiver_busy[dst] = 1;
      ws.recv_avail[dst] = freed;
      ws.send_avail[src] = freed;
      if (!ws.parked[dst].empty())
        queue.push(Event::make(freed, kReceiverFree, dst));
      if (verdict.permanent || ws.attempt_no[src] >= options.max_attempts) {
        if constexpr (Sink::kEnabled)
          sink.record(make_trace(TraceEventKind::kGiveUp, freed, freed,
                                 messages_(src, dst), src, dst,
                                 ws.attempt_no[src]));
        result.undelivered.push_back({src, dst, ws.first_attempt[src], freed,
                                      ws.attempt_no[src], verdict.permanent});
        ws.attempt_no[src] = 1;
        ++ws.next_index[src];
        if (ws.next_index[src] < program.order_of(src).size())
          queue.push(Event::make(freed, kSenderReady, src));
      } else {
        if constexpr (Sink::kEnabled)
          sink.record(make_trace(TraceEventKind::kRetryScheduled,
                                 freed + ws.retry_delay[src],
                                 freed + ws.retry_delay[src],
                                 messages_(src, dst), src, dst,
                                 ws.attempt_no[src]));
        queue.push(Event::make(freed + ws.retry_delay[src], kSenderReady, src));
        ws.retry_delay[src] *= options.backoff_factor;
        ++ws.attempt_no[src];
      }
      return;
    }
    // A brownout verdict delivers at a fraction of the advertised rate.
    const double actual = duration * verdict.slowdown;
    if constexpr (Sink::kEnabled)
      sink.record(make_trace(TraceEventKind::kSendEnd, start, start + actual,
                             messages_(src, dst), src, dst,
                             ws.attempt_no[src]));
    ws.attempt_no[src] = 1;
    result.events.push_back({src, dst, start, start + actual});
    result.total_sender_wait_s += start - request_time;
    ws.receiver_busy[dst] = 1;
    ws.recv_avail[dst] = start + actual;
    ws.send_avail[src] = start + actual;
    ++ws.next_index[src];
    if (!ws.parked[dst].empty())
      queue.push(Event::make(start + actual, kReceiverFree, dst));
    if (ws.next_index[src] < program.order_of(src).size())
      queue.push(Event::make(start + actual, kSenderReady, src));
  };

  for (std::size_t src = 0; src < n; ++src)
    if (!program.order_of(src).empty())
      queue.push(Event::make(ws.send_avail[src], kSenderReady, src));

  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    const double now = event.time;
    if (event.kind() == kSenderReady) {
      const std::size_t src = event.id();
      const auto& order = program.order_of(src);
      if (ws.next_index[src] >= order.size()) continue;
      if (ws.send_avail[src] > now) continue;  // stale wakeup
      const std::size_t dst = order[ws.next_index[src]];
      if (ws.parked[dst].empty() &&
          (ws.recv_avail[dst] < now ||
           (ws.receiver_busy[dst] == 0 && ws.recv_avail[dst] <= now))) {
        start_transfer(src, dst, now, now);
      } else {
        // Engaged (or reserved) receiver: lazy wake-up, as in the
        // no-fault loop. recv_avail >= now here.
        if (ws.parked[dst].empty())
          queue.push(Event::make(ws.recv_avail[dst], kReceiverFree, dst));
        ws.parked[dst].push({now, src});
      }
    } else {  // kReceiverFree
      const std::size_t dst = event.id();
      if (ws.recv_avail[dst] > now) continue;  // stale: re-engaged meanwhile
      ws.receiver_busy[dst] = 0;
      if (!ws.parked[dst].empty()) {
        const auto [request_time, src] = ws.parked[dst].top();
        ws.parked[dst].pop();
        if constexpr (Sink::kEnabled)
          sink.record(make_trace(TraceEventKind::kReceiveGrant, now, now,
                                 messages_(src, dst), src, dst));
        start_transfer(src, dst, request_time, now);
      }
    }
  }

  for (std::size_t p = 0; p < n; ++p)
    check(ws.next_index[p] == program.order_of(p).size(),
          "run_serialized: deadlock — unsent messages remain");
  for (const ScheduledEvent& event : result.events)
    result.completion_time = std::max(result.completion_time, event.finish_s);
}

// ---------------------------------------------------------------------------
// Programmed arbitration: both sides follow the planned orders, so an
// event starts exactly when its sender's previous send and its receiver's
// previous receive have finished. Start times depend only on per-port
// predecessors, so a round-robin relaxation over senders computes them in
// O(E * P) regardless of processing order.
// ---------------------------------------------------------------------------

template <TraceSink Sink>
void NetworkSimulator::run_programmed(const SendProgram& program,
                                      const SimOptions& options,
                                      SimWorkspace& ws, SimResult& result,
                                      Sink& sink) const {
  const std::size_t n = program.processor_count();
  init_avail(ws.send_avail, options.initial_send_avail, n, "initial_send_avail");
  init_avail(ws.recv_avail, options.initial_recv_avail, n, "initial_recv_avail");
  ws.next_index.assign(n, 0);
  ws.next_recv.assign(n, 0);

  std::size_t remaining = program.event_count();
  result.events.reserve(remaining);
  const double* const times = pair_times();

  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t src = 0; src < n; ++src) {
      while (ws.next_index[src] < program.order_of(src).size()) {
        const std::size_t dst = program.order_of(src)[ws.next_index[src]];
        const auto& expected = program.receiver_order_of(dst);
        if (expected[ws.next_recv[dst]] != src) break;  // receiver not ready for us
        const double request = ws.send_avail[src];
        double start = std::max(request, ws.recv_avail[dst]);
        if (options.fault_model == nullptr) {
          const double duration = times != nullptr
                                      ? times[src * n + dst]
                                      : transfer_time(src, dst, start);
          if constexpr (Sink::kEnabled) {
            const std::uint64_t bytes = messages_(src, dst);
            sink.record(make_trace(TraceEventKind::kSendStart, start, start,
                                   bytes, src, dst));
            sink.record(make_trace(TraceEventKind::kSendEnd, start,
                                   start + duration, bytes, src, dst));
          }
          result.events.push_back({src, dst, start, start + duration});
          result.total_sender_wait_s += start - request;
          ws.send_avail[src] = start + duration;
          ws.recv_avail[dst] = start + duration;
        } else {
          // Attempt loop: each failed attempt engages both ports for its
          // elapsed time, then the sender backs off and retries. The
          // backoff delay is carried forward through the loop.
          const double first_start = start;
          double retry_delay = options.backoff_base_s;
          for (std::size_t attempt = 1;; ++attempt) {
            const double duration = transfer_time(src, dst, start);
            const SendVerdict verdict = options.fault_model->judge(
                {src, dst, start, attempt, duration});
            if constexpr (Sink::kEnabled)
              sink.record(make_trace(TraceEventKind::kSendStart, start, start,
                                     messages_(src, dst), src, dst, attempt));
            if (verdict.delivered) {
              const double actual = duration * verdict.slowdown;
              if constexpr (Sink::kEnabled)
                sink.record(make_trace(TraceEventKind::kSendEnd, start,
                                       start + actual, messages_(src, dst),
                                       src, dst, attempt));
              result.events.push_back({src, dst, start, start + actual});
              result.total_sender_wait_s += start - request;
              ws.send_avail[src] = start + actual;
              ws.recv_avail[dst] = start + actual;
              break;
            }
            ++result.failed_attempts;
            const double freed = start + verdict.elapsed_s;
            if constexpr (Sink::kEnabled)
              sink.record(make_trace(TraceEventKind::kAttemptFailed, start,
                                     freed, messages_(src, dst), src, dst,
                                     attempt));
            ws.send_avail[src] = freed;
            ws.recv_avail[dst] = freed;
            if (verdict.permanent || attempt >= options.max_attempts) {
              if constexpr (Sink::kEnabled)
                sink.record(make_trace(TraceEventKind::kGiveUp, freed, freed,
                                       messages_(src, dst), src, dst,
                                       attempt));
              result.undelivered.push_back(
                  {src, dst, first_start, freed, attempt, verdict.permanent});
              break;
            }
            start = freed + retry_delay;
            if constexpr (Sink::kEnabled)
              sink.record(make_trace(TraceEventKind::kRetryScheduled, start,
                                     start, messages_(src, dst), src, dst,
                                     attempt));
            retry_delay *= options.backoff_factor;
          }
        }
        ++ws.next_index[src];
        ++ws.next_recv[dst];
        --remaining;
        progressed = true;
      }
    }
    check(progressed,
          "run_programmed: deadlock — send and receive orders are inconsistent");
  }

  for (const ScheduledEvent& event : result.events)
    result.completion_time = std::max(result.completion_time, event.finish_s);
}

// ---------------------------------------------------------------------------
// Interleaved receives with context-switch overhead alpha (§6.1).
//
// All receives arriving at a node progress simultaneously. With k > 1
// active receives the node's combined service rate drops to 1/(1+alpha),
// shared equally, so a pair of messages started together completes in
// (1+alpha)(t1+t2). Senders are never blocked by receivers — only by
// their own serial send port. Event-driven: see the implementation notes
// at the top of this file.
// ---------------------------------------------------------------------------

template <TraceSink Sink>
void NetworkSimulator::run_interleaved(const SendProgram& program,
                                       const SimOptions& options,
                                       SimWorkspace& ws, SimResult& result,
                                       Sink& sink) const {
  if (!(options.alpha >= 0.0) || !std::isfinite(options.alpha))
    throw InputError("run_interleaved: alpha must be finite and non-negative");
  const std::size_t n = program.processor_count();
  init_avail(ws.send_avail, options.initial_send_avail, n, "initial_send_avail");
  ws.next_index.assign(n, 0);
  ws.virtual_work.assign(n, 0.0);
  ws.last_update.assign(n, 0.0);
  SimWorkspace::reset_per_port(ws.active, n);
  ws.completions.reset(n);
  ws.ready.clear();

  // Re-projects receiver `dst`'s earliest completion after its active set
  // changed. Called with virtual_work/last_update already advanced to the
  // change point.
  const auto refresh_completion = [&](std::size_t dst) HCS_HOT_LAMBDA {
    auto& heap = ws.active[dst];
    if (heap.empty()) {
      ws.completions.remove(dst);
      return;
    }
    const double rate = interleaved_rate(heap.size(), options.alpha);
    ws.completions.update(
        dst, ws.last_update[dst] +
                 (heap.top().target - ws.virtual_work[dst]) / rate);
  };

  result.events.reserve(program.event_count());
  const double* const times = pair_times();
  const std::vector<std::size_t>* const orders = program.orders().data();
  double now = 0.0;
  std::size_t outstanding = program.event_count();
  std::size_t active_total = 0;
  std::uint64_t seq = 0;

  for (std::size_t src = 0; src < n; ++src)
    if (!orders[src].empty())
      ws.ready.push({ws.send_avail[src], src});

  while (outstanding > 0 || active_total > 0) {
    // Next sender start: the earliest ready sender (free port, work left;
    // a started sender leaves the heap until its message completes, so
    // membership is the in-flight test). Next completion: the earliest
    // projected completion across receivers.
    const double next_send = ws.ready.empty() ? kInf : ws.ready.top().avail;
    const double next_completion =
        ws.completions.empty() ? kInf : ws.completions.top_time();

    check(next_send < kInf || next_completion < kInf,
          "run_interleaved: no progress");
    now = std::min(std::max(next_send, now), next_completion);

    if (completion_wins(next_completion, next_send, now)) {
      // Complete the earliest-finishing message at the top receiver.
      const std::size_t dst = ws.completions.top_id();
      auto& heap = ws.active[dst];
      ws.virtual_work[dst] +=
          (now - ws.last_update[dst]) *
          interleaved_rate(heap.size(), options.alpha);
      ws.last_update[dst] = now;
      const SimWorkspace::ActiveRecv done = heap.top();
      heap.pop();
      --active_total;
      if constexpr (Sink::kEnabled)
        sink.record(make_trace(TraceEventKind::kSendEnd, done.start, now,
                               messages_(done.src, dst), done.src, dst));
      result.events.push_back({done.src, dst, done.start, now});
      ws.send_avail[done.src] = now;
      if (ws.next_index[done.src] < orders[done.src].size())
        ws.ready.push({now, done.src});
      refresh_completion(dst);
    } else {
      // Start the ready sender's next message.
      const std::size_t src = ws.ready.top().src;
      ws.ready.pop();
      const std::size_t dst = orders[src][ws.next_index[src]];
      ++ws.next_index[src];
      --outstanding;
      auto& heap = ws.active[dst];
      ws.virtual_work[dst] +=
          (now - ws.last_update[dst]) *
          interleaved_rate(heap.size(), options.alpha);
      ws.last_update[dst] = now;
      const double work = times != nullptr ? times[src * n + dst]
                                           : transfer_time(src, dst, now);
      if constexpr (Sink::kEnabled)
        sink.record(make_trace(TraceEventKind::kSendStart, now, now,
                               messages_(src, dst), src, dst));
      heap.push({ws.virtual_work[dst] + work, seq++,
                 static_cast<std::uint32_t>(src), now});
      ++active_total;
      refresh_completion(dst);
    }
  }

  for (const ScheduledEvent& event : result.events)
    result.completion_time = std::max(result.completion_time, event.finish_s);
}

// ---------------------------------------------------------------------------
// Finite receive buffers (§6.1).
//
// A sender transmits when the receiver has a free buffer slot (slots are
// reserved for the whole flight and released when receiver-side
// processing starts). The sender's port is busy for the network transfer
// time only; the receiver drains arrivals FIFO, each costing
// drain_factor * transfer time of receiver port time.
// ---------------------------------------------------------------------------

template <TraceSink Sink>
void NetworkSimulator::run_buffered(const SendProgram& program,
                                    const SimOptions& options,
                                    SimWorkspace& ws, SimResult& result,
                                    Sink& sink) const {
  if (options.buffer_capacity < 1)
    throw InputError("run_buffered: buffer capacity must be >= 1");
  if (!(options.drain_factor >= 0.0) || !std::isfinite(options.drain_factor))
    throw InputError("run_buffered: drain_factor must be finite and non-negative");
  const std::size_t n = program.processor_count();
  init_avail(ws.send_avail, options.initial_send_avail, n, "initial_send_avail");
  init_avail(ws.recv_avail, options.initial_recv_avail, n, "initial_recv_avail");

  enum BufferedKind : std::uint32_t { kBufSenderReady = 0, kArrival = 1 };
  using Event = SimWorkspace::Event;
  auto& queue = ws.events;
  queue.clear();

  ws.slots_used.assign(n, 0);
  // Senders blocked on a full buffer, FIFO per receiver; arrived,
  // not-yet-processed messages, FIFO per receiver.
  SimWorkspace::reset_per_port(ws.parked, n);
  SimWorkspace::reset_per_port(ws.inbox, n);
  ws.next_index.assign(n, 0);

  result.events.reserve(program.event_count());
  const double* const times = pair_times();
  double drain_finish = 0.0;

  const auto begin_transmit = [&](std::size_t src, std::size_t dst,
                                  double request_time, double start) {
    const double duration = times != nullptr ? times[src * n + dst]
                                             : transfer_time(src, dst, start);
    if constexpr (Sink::kEnabled) {
      const std::uint64_t bytes = messages_(src, dst);
      sink.record(make_trace(TraceEventKind::kSendStart, start, start, bytes,
                             src, dst));
      sink.record(make_trace(TraceEventKind::kSendEnd, start, start + duration,
                             bytes, src, dst));
    }
    result.events.push_back({src, dst, start, start + duration});
    result.total_sender_wait_s += start - request_time;
    ++ws.slots_used[dst];
    ws.send_avail[src] = start + duration;
    ++ws.next_index[src];
    queue.push(Event::make(start + duration, kArrival, dst));
    ws.inbox[dst].push({start + duration, src, duration * options.drain_factor});
    if (ws.next_index[src] < program.order_of(src).size())
      queue.push(Event::make(start + duration, kBufSenderReady, src));
  };

  // Receiver processing: drain the earliest arrival whose time has come.
  const auto try_drain = [&](std::size_t dst, double now) {
    while (!ws.inbox[dst].empty() && ws.inbox[dst].top().arrive_time <= now &&
           ws.recv_avail[dst] <= now) {
      const SimWorkspace::Arrival arrival = ws.inbox[dst].top();
      ws.inbox[dst].pop();
      const double start = std::max(ws.recv_avail[dst], arrival.arrive_time);
      ws.recv_avail[dst] = start + arrival.process_cost;
      if constexpr (Sink::kEnabled)
        sink.record(make_trace(TraceEventKind::kBufferDrain, start,
                               ws.recv_avail[dst],
                               messages_(arrival.src, dst), arrival.src, dst));
      drain_finish = std::max(drain_finish, ws.recv_avail[dst]);
      --ws.slots_used[dst];
      // A slot freed: release the earliest blocked sender, if any.
      if (!ws.parked[dst].empty() &&
          ws.slots_used[dst] < options.buffer_capacity) {
        const auto [request_time, src] = ws.parked[dst].top();
        ws.parked[dst].pop();
        begin_transmit(src, dst, request_time,
                       std::max(now, ws.send_avail[src]));
      }
      // Port busy until recv_avail; schedule a wake-up to continue.
      queue.push(Event::make(ws.recv_avail[dst], kArrival, dst));
    }
  };

  for (std::size_t src = 0; src < n; ++src)
    if (!program.order_of(src).empty())
      queue.push(Event::make(ws.send_avail[src], kBufSenderReady, src));

  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    const double now = event.time;
    if (event.kind() == kBufSenderReady) {
      const std::size_t src = event.id();
      const auto& order = program.order_of(src);
      if (ws.next_index[src] >= order.size()) continue;
      if (ws.send_avail[src] > now) continue;  // stale wakeup
      const std::size_t dst = order[ws.next_index[src]];
      if (ws.slots_used[dst] < options.buffer_capacity) {
        begin_transmit(src, dst, now, now);
      } else {
        ws.parked[dst].push({now, src});
      }
    } else {  // kArrival / port wake-up at receiver id
      try_drain(event.id(), now);
    }
  }

  for (std::size_t p = 0; p < n; ++p) {
    check(ws.next_index[p] == program.order_of(p).size(),
          "run_buffered: deadlock — unsent messages remain");
    check(ws.inbox[p].empty(), "run_buffered: undrained inbox");
  }
  for (const ScheduledEvent& event : result.events)
    result.completion_time = std::max(result.completion_time, event.finish_s);
  result.completion_time = std::max(result.completion_time, drain_finish);
}

}  // namespace hcs
