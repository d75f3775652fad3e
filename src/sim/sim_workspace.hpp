// Reusable simulator workspace.
//
// NetworkSimulator::run is called in tight loops — every checkpoint round
// of run_resilient and every repetition of the experiment sweeps
// re-executes a send program — yet each run used to rebuild a
// forest of std::priority_queues and per-port vectors from scratch. A
// SimWorkspace owns all of that scratch storage as flat, index-based
// structures that are cleared (never shrunk) between runs, so after the
// first run at a given processor count a simulation performs zero heap
// allocation inside the simulator. This is the same warm-workspace
// pattern LapSolver applies to the matching schedulers' LAP hot path.
//
// The workspace is pure scratch: it carries no results and no semantics,
// and any run may be handed a freshly constructed workspace with
// bit-identical output. Not thread-safe: one workspace per thread.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/flat_heap.hpp"

namespace hcs {

class NetworkSimulator;

// The heap primitives moved to util/flat_heap.hpp when the scheduler
// workspace (src/core/scheduler_workspace.hpp) became their second
// client; the sim_detail names remain for the simulator internals.
namespace sim_detail {
using ::hcs::detail::FlatMinHeap;
using ::hcs::detail::IndexedTimeHeap;
}  // namespace sim_detail

/// All scratch storage one simulation run needs, reusable across runs and
/// across receive models. Pass one to NetworkSimulator::run (or rely on
/// the simulator's internal workspace) and repeated simulations stop
/// allocating. See the file comment for the contract.
class SimWorkspace {
 public:
  SimWorkspace() = default;

  /// High-water marks of the warmed scratch storage, for observability
  /// (MetricsRegistry gauges). Capacities, not sizes: they record the
  /// largest run this workspace has served since construction. Reading
  /// them costs nothing on the simulation hot path.
  struct Footprint {
    /// Global event queue capacity (entries).
    std::size_t event_heap_entries = 0;
    /// Summed capacity of all per-port heaps (parked, inbox, active,
    /// ready, completions).
    std::size_t port_heap_entries = 0;
    /// Summed capacity of the per-port scalar arrays.
    std::size_t port_array_entries = 0;
  };

  [[nodiscard]] Footprint footprint() const noexcept {
    Footprint f;
    f.event_heap_entries = events.capacity();
    f.port_heap_entries = ready.capacity() + completions.capacity();
    for (const auto& heap : parked) f.port_heap_entries += heap.capacity();
    for (const auto& heap : inbox) f.port_heap_entries += heap.capacity();
    for (const auto& heap : active) f.port_heap_entries += heap.capacity();
    f.port_array_entries =
        send_avail.capacity() + recv_avail.capacity() +
        virtual_work.capacity() + last_update.capacity() +
        first_attempt.capacity() + retry_delay.capacity() +
        next_index.capacity() + next_recv.capacity() +
        attempt_no.capacity() + slots_used.capacity() +
        receiver_busy.capacity();
    return f;
  }

 private:
  friend class NetworkSimulator;

  /// Global event-queue entry: (time, kind, id), ordered so that at equal
  /// times lower kinds run first and ties break on the lower id. Kind and
  /// id are packed into one word so the tie-break is a single integer
  /// compare.
  struct Event {
    double time;
    std::uint64_t key;  ///< kind << 32 | id

    [[nodiscard]] static Event make(double time, std::uint32_t kind,
                                    std::size_t id) {
      // `+ 0.0` canonicalizes -0.0 to +0.0 (a caller-supplied initial
      // availability may carry the sign bit), which operator< requires.
      return {time + 0.0, (static_cast<std::uint64_t>(kind) << 32) |
                              static_cast<std::uint32_t>(id)};
    }
    [[nodiscard]] std::uint32_t kind() const {
      return static_cast<std::uint32_t>(key >> 32);
    }
    [[nodiscard]] std::size_t id() const {
      return static_cast<std::uint32_t>(key);
    }
    [[nodiscard]] bool operator<(const Event& other) const {
      // Simulation times are finite, nonnegative, and never -0.0 (see
      // make), so their IEEE-754 bit patterns order exactly like their
      // values and (time, key) compares as one unsigned 128-bit integer —
      // branch-free, which matters inside heap sifts whose compare
      // outcomes are data-dependent.
      const auto hi = [](double t) {
        return static_cast<unsigned __int128>(std::bit_cast<std::uint64_t>(t))
               << 64;
      };
      return (hi(time) | key) < (hi(other.time) | other.key);
    }
  };

  /// A sender parked at a port: (request time, sender id).
  struct Request {
    double time;
    std::size_t src;
    [[nodiscard]] bool operator<(const Request& other) const {
      return time < other.time || (time == other.time && src < other.src);
    }
  };

  /// A buffered-model arrival awaiting receiver-side processing.
  struct Arrival {
    double arrive_time;
    std::size_t src;
    double process_cost;
    [[nodiscard]] bool operator<(const Arrival& other) const {
      return arrive_time < other.arrive_time ||
             (arrive_time == other.arrive_time && src < other.src);
    }
  };

  /// An in-flight receive under the interleaved model. `target` is the
  /// receiver's virtual-work level at which this message completes;
  /// `seq` breaks target ties in favour of the earlier-started message.
  struct ActiveRecv {
    double target;
    std::uint64_t seq;
    std::uint32_t src;
    double start;
    [[nodiscard]] bool operator<(const ActiveRecv& other) const {
      return target < other.target ||
             (target == other.target && seq < other.seq);
    }
  };

  /// A sender whose port is free and who has messages left to send.
  struct ReadySender {
    double avail;
    std::size_t src;
    [[nodiscard]] bool operator<(const ReadySender& other) const {
      return avail < other.avail || (avail == other.avail && src < other.src);
    }
  };

  /// Grows the per-receiver heap arrays to at least n entries without
  /// discarding warmed capacity, and clears the first n.
  template <class T>
  static void reset_per_port(std::vector<sim_detail::FlatMinHeap<T>>& heaps,
                             std::size_t n) {
    if (heaps.size() < n) heaps.resize(n);
    for (std::size_t p = 0; p < n; ++p) heaps[p].clear();
  }

  // Global event queue (serialized + buffered models).
  sim_detail::FlatMinHeap<Event> events;
  // Per-receiver parked senders: `waiting` under serialized receives,
  // blocked-on-full-buffer under the buffered model.
  std::vector<sim_detail::FlatMinHeap<Request>> parked;
  // Buffered model: arrived, not-yet-processed messages per receiver.
  std::vector<sim_detail::FlatMinHeap<Arrival>> inbox;
  // Interleaved model: in-flight receives per receiver, ready senders,
  // and the per-receiver earliest-completion index.
  std::vector<sim_detail::FlatMinHeap<ActiveRecv>> active;
  sim_detail::FlatMinHeap<ReadySender> ready;
  sim_detail::IndexedTimeHeap completions;

  // Per-port arrays, sized to the processor count per run.
  std::vector<double> send_avail;
  std::vector<double> recv_avail;
  std::vector<double> virtual_work;   // interleaved: per-message work done
  std::vector<double> last_update;    // interleaved: time virtual_work is at
  std::vector<double> first_attempt;  // fault path: first attempt start
  std::vector<double> retry_delay;    // fault path: next backoff, carried
  std::vector<std::size_t> next_index;
  std::vector<std::size_t> next_recv;   // programmed arbitration
  std::vector<std::size_t> attempt_no;  // fault path: 1-based attempt
  std::vector<std::size_t> slots_used;  // buffered: occupied buffer slots
  std::vector<std::uint8_t> receiver_busy;
};

}  // namespace hcs
