// Structured event tracing — the paper's timing diagram, machine-readable.
//
// The paper's central debugging artifact is the timing diagram (§3.3,
// Figures 5–8): per-sender columns of communication events that make
// contention and idle time visible. This module captures the raw material
// for those diagrams at execution time: every simulator event (send
// start/end, receive grant, failed attempt, retry, relay hop, checkpoint)
// with ports, bytes, and model-assigned timestamps.
//
// Zero overhead when off. Hot-path producers (the simulator's run loops)
// are templated on a sink type satisfying the TraceSink concept and every
// record call sits behind `if constexpr (Sink::kEnabled)`, so the default
// NullTraceSink instantiation compiles to the exact code that existed
// before tracing — no branch, no indirect call, no std::function. The
// recording instantiation writes into an EventTrace, a fixed-capacity
// ring buffer that overwrites its oldest entries rather than allocating
// unboundedly (long fault sweeps stay O(capacity) in memory; the dropped
// count says when the window wrapped). The ring is reserved once at
// construction and read in place (for_each), so a traced run never copies
// or regrows its events.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace hcs {

/// What one trace record describes. Span kinds carry [t_s, t_end_s];
/// instant kinds have t_end_s == t_s.
enum class TraceEventKind : std::uint8_t {
  kSendStart,      ///< instant: a transmission attempt engages the sender
  kSendEnd,        ///< span: a delivered transfer, start to finish
  kReceiveGrant,   ///< instant: a parked sender is granted the receiver
  kBufferDrain,    ///< span: receiver-side processing of a buffered message
  kAttemptFailed,  ///< span: a failed attempt's port engagement
  kRetryScheduled, ///< instant: the sender will retry at t_s
  kGiveUp,         ///< instant: message abandoned as undeliverable
  kRelayHop,       ///< span: one executed store-and-forward hop
  kCheckpoint,     ///< instant: adaptive loop committed a prefix (attempt
                   ///< carries the 1-based round number)
  kReschedule,     ///< instant: a fresh schedule was computed for the
                   ///< remaining pairs
  kReplan,         ///< instant: failed traffic was requeued and re-planned
                   ///< on the degraded view (attempt carries the 1-based
                   ///< replan round)
  kReelect,        ///< instant: a cluster representative was replaced
                   ///< (src = old representative, dst = new)
};

/// Stable lower-case name of a kind ("send-start", "relay-hop", ...).
[[nodiscard]] std::string_view trace_event_kind_name(TraceEventKind kind);

/// One trace record. 40 bytes, trivially copyable; the ring buffer stores
/// these by value.
struct TraceEvent {
  double t_s = 0.0;        ///< start (spans) or occurrence time (instants)
  double t_end_s = 0.0;    ///< span end; equals t_s for instants
  std::uint64_t bytes = 0; ///< message size, when the producer knows it
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t attempt = 1;  ///< 1-based attempt / round number
  TraceEventKind kind = TraceEventKind::kSendStart;

  [[nodiscard]] bool operator==(const TraceEvent&) const = default;
};

/// Compile-time sink contract the simulator's run loops are templated on.
/// `kEnabled == false` lets producers drop record calls entirely via
/// `if constexpr`, which is what keeps the untraced path bit-identical to
/// the pre-tracing code.
template <class S>
concept TraceSink = requires(S sink, const TraceEvent& event) {
  { S::kEnabled } -> std::convertible_to<bool>;
  sink.record(event);
};

/// The default sink: records nothing, costs nothing.
struct NullTraceSink {
  static constexpr bool kEnabled = false;
  void record(const TraceEvent&) const noexcept {}
};

/// Ring-buffered trace recorder. Keeps the most recent `capacity` events
/// in record order; older events are overwritten and counted as dropped.
/// Not thread-safe — one trace per executing thread, like SimWorkspace.
class EventTrace {
 public:
  static constexpr bool kEnabled = true;

  /// Reserves the whole ring up front, so recording never reallocates.
  /// The reservation is virtual until written: pages no event reaches
  /// cost no resident memory. The default capacity holds a P=64 total
  /// exchange several times over. Throws InputError when `capacity` is 0
  /// or exceeds what a vector can hold.
  explicit EventTrace(std::size_t capacity = 1 << 16);

  void record(const TraceEvent& event) {
    if (ring_.size() < capacity_) {
      ring_.push_back(event);  // within the reservation: no reallocation
    } else {
      ring_[head_] = event;
      if (++head_ == capacity_) head_ = 0;
    }
    ++recorded_;
    max_proc_ = std::max({max_proc_, static_cast<std::size_t>(event.src) + 1,
                          static_cast<std::size_t>(event.dst) + 1});
  }

  /// Forgets all events (capacity is kept).
  void clear();

  /// Events currently retained (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events lost to ring wrap-around (recorded() - size()).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ - ring_.size();
  }

  /// Calls `visit(const TraceEvent&)` on every retained event in place,
  /// oldest first. Exporters and the auditor read the trace this way.
  template <class F>
  void for_each(F&& visit) const {
    // Once wrapped, head_ points at the oldest entry; before that it is 0.
    for (std::size_t k = head_; k < ring_.size(); ++k) visit(ring_[k]);
    for (std::size_t k = 0; k < head_; ++k) visit(ring_[k]);
  }

  /// Smallest processor count covering every recorded src/dst (0 for an
  /// empty trace). Exporters use it to size diagrams.
  [[nodiscard]] std::size_t processor_count() const noexcept {
    return max_proc_;
  }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< next write position once the ring is full
  std::uint64_t recorded_ = 0;
  std::size_t max_proc_ = 0;
};

}  // namespace hcs
