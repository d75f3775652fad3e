#include "adaptive/checkpoint.hpp"

#include <cmath>

#include "util/error.hpp"

namespace hcs {

void AdaptiveOptions::validate() const {
  if (!(reschedule_threshold >= 0.0) || !std::isfinite(reschedule_threshold))
    throw InputError(
        "AdaptiveOptions: reschedule_threshold must be finite and >= 0");
}

std::string_view checkpoint_policy_name(CheckpointPolicy policy) {
  switch (policy) {
    case CheckpointPolicy::kNever: return "never";
    case CheckpointPolicy::kEveryEvent: return "every-event";
    case CheckpointPolicy::kHalveRemaining: return "halve-remaining";
  }
  throw InputError("checkpoint_policy_name: unknown policy");
}

}  // namespace hcs
