#include "trace/trace.hpp"

#include <string>

#include "util/error.hpp"

namespace hcs {

std::string_view trace_event_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSendStart: return "send-start";
    case TraceEventKind::kSendEnd: return "send";
    case TraceEventKind::kReceiveGrant: return "receive-grant";
    case TraceEventKind::kBufferDrain: return "buffer-drain";
    case TraceEventKind::kAttemptFailed: return "attempt-failed";
    case TraceEventKind::kRetryScheduled: return "retry-scheduled";
    case TraceEventKind::kGiveUp: return "give-up";
    case TraceEventKind::kRelayHop: return "relay-hop";
    case TraceEventKind::kCheckpoint: return "checkpoint";
    case TraceEventKind::kReschedule: return "reschedule";
    case TraceEventKind::kReplan: return "replan";
    case TraceEventKind::kReelect: return "reelect";
  }
  throw InputError("trace_event_kind_name: unknown kind");
}

EventTrace::EventTrace(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) throw InputError("EventTrace: capacity must be >= 1");
  if (capacity_ > ring_.max_size())
    throw InputError("EventTrace: capacity " + std::to_string(capacity_) +
                     " exceeds the largest ring a vector can hold (" +
                     std::to_string(ring_.max_size()) + ")");
  ring_.reserve(capacity_);
}

void EventTrace::clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
  max_proc_ = 0;
}

}  // namespace hcs
