#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"

namespace hcs {
namespace {

std::string entry(const char* list, std::size_t index) {
  return std::string("FaultPlan: ") + list + "[" + std::to_string(index) + "]";
}

void validate_pair(const char* list, std::size_t index, std::size_t src,
                   std::size_t dst, std::size_t processor_count) {
  if (src >= processor_count || dst >= processor_count)
    throw InputError(entry(list, index) + " references processor " +
                     std::to_string(src >= processor_count ? src : dst) +
                     " but only " + std::to_string(processor_count) +
                     " exist");
  if (src == dst)
    throw InputError(entry(list, index) + " is a self-pair (" +
                     std::to_string(src) + " -> " + std::to_string(dst) + ")");
}

void validate_window(const char* list, std::size_t index, double begin_s,
                     double end_s) {
  if (!std::isfinite(begin_s) || !std::isfinite(end_s))
    throw InputError(entry(list, index) + " has a non-finite window");
  if (end_s < begin_s)
    throw InputError(entry(list, index) + " window is inverted: ends at " +
                     std::to_string(end_s) + " before it begins at " +
                     std::to_string(begin_s));
}

/// Does the down phase of `flap` intersect [begin_s, end_s]? Down phases
/// are [c, c + down) for cycle starts c = flap.begin_s + k * period,
/// clipped to the flap's own window.
bool flap_down_overlaps(const FlappingLink& flap, double begin_s,
                        double end_s) {
  if (!(begin_s < flap.end_s && end_s >= flap.begin_s)) return false;
  const double down = flap.down_fraction * flap.period_s;
  if (down <= 0.0) return false;
  const double lo = begin_s > flap.begin_s ? begin_s : flap.begin_s;
  const double hi = end_s < flap.end_s ? end_s : flap.end_s;
  const double phase = std::fmod(lo - flap.begin_s, flap.period_s);
  if (phase < down) return true;  // lo lands inside a down phase
  // Otherwise the next down phase starts when the current cycle wraps.
  return lo + (flap.period_s - phase) <= hi;
}

}  // namespace

bool FaultPlan::empty() const {
  return crashes.empty() && restarts.empty() && cuts.empty() &&
         flaky.empty() && flapping.empty() && brownouts.empty() &&
         transient_loss_prob == 0.0;
}

void FaultPlan::validate(std::size_t processor_count) const {
  for (std::size_t k = 0; k < crashes.size(); ++k) {
    const CrashStop& crash = crashes[k];
    if (crash.node >= processor_count)
      throw InputError(entry("crashes", k) + " references processor " +
                       std::to_string(crash.node) + " but only " +
                       std::to_string(processor_count) + " exist");
    if (!std::isfinite(crash.at_s) || crash.at_s < 0.0)
      throw InputError(entry("crashes", k) +
                       " crash time must be finite and >= 0");
  }
  for (std::size_t k = 0; k < restarts.size(); ++k) {
    const CrashRestart& restart = restarts[k];
    if (restart.node >= processor_count)
      throw InputError(entry("restarts", k) + " references processor " +
                       std::to_string(restart.node) + " but only " +
                       std::to_string(processor_count) + " exist");
    validate_window("restarts", k, restart.at_s, restart.recover_s);
    if (restart.at_s < 0.0)
      throw InputError(entry("restarts", k) +
                       " crash time must be finite and >= 0");
    if (restart.recover_s <= restart.at_s)
      throw InputError(entry("restarts", k) + " recovery at " +
                       std::to_string(restart.recover_s) +
                       " does not follow its crash at " +
                       std::to_string(restart.at_s));
    // Two down windows of one node must not overlap (which recovery
    // applies would be ambiguous), and a restart after the node
    // crash-stopped can never happen.
    for (std::size_t j = 0; j < k; ++j) {
      const CrashRestart& other = restarts[j];
      if (other.node != restart.node) continue;
      if (restart.at_s < other.recover_s && restart.recover_s > other.at_s)
        throw InputError(entry("restarts", k) + " window [" +
                         std::to_string(restart.at_s) + ", " +
                         std::to_string(restart.recover_s) +
                         ") overlaps restarts[" + std::to_string(j) +
                         "] of the same node " +
                         std::to_string(restart.node));
    }
    for (std::size_t j = 0; j < crashes.size(); ++j) {
      if (crashes[j].node != restart.node) continue;
      if (restart.recover_s > crashes[j].at_s)
        throw InputError(entry("restarts", k) + " of node " +
                         std::to_string(restart.node) + " recovers at " +
                         std::to_string(restart.recover_s) +
                         " after the node crash-stops at " +
                         std::to_string(crashes[j].at_s) +
                         " (crashes[" + std::to_string(j) + "])");
    }
  }
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const LinkCut& cut = cuts[k];
    validate_pair("cuts", k, cut.src, cut.dst, processor_count);
    validate_window("cuts", k, cut.begin_s, cut.end_s);
  }
  for (std::size_t k = 0; k < flaky.size(); ++k) {
    const FlakyLink& link = flaky[k];
    validate_pair("flaky", k, link.src, link.dst, processor_count);
    if (!(link.loss_prob >= 0.0) || !(link.loss_prob < 1.0) ||
        !std::isfinite(link.loss_prob))
      throw InputError(entry("flaky", k) +
                       " loss probability must be in [0, 1)");
  }
  for (std::size_t k = 0; k < flapping.size(); ++k) {
    const FlappingLink& flap = flapping[k];
    validate_pair("flapping", k, flap.src, flap.dst, processor_count);
    validate_window("flapping", k, flap.begin_s, flap.end_s);
    if (!(flap.period_s > 0.0) || !std::isfinite(flap.period_s))
      throw InputError(entry("flapping", k) +
                       " period must be finite and > 0");
    if (!(flap.down_fraction >= 0.0) || !(flap.down_fraction <= 1.0) ||
        !std::isfinite(flap.down_fraction))
      throw InputError(entry("flapping", k) +
                       " down_fraction must be in [0, 1]");
  }
  for (std::size_t k = 0; k < brownouts.size(); ++k) {
    const Brownout& brownout = brownouts[k];
    validate_pair("brownouts", k, brownout.src, brownout.dst,
                  processor_count);
    validate_window("brownouts", k, brownout.begin_s, brownout.end_s);
    if (!(brownout.factor > 0.0) || !(brownout.factor <= 1.0) ||
        !std::isfinite(brownout.factor))
      throw InputError(entry("brownouts", k) + " factor must be in (0, 1]");
  }
  if (!(transient_loss_prob >= 0.0) || !(transient_loss_prob < 1.0) ||
      !std::isfinite(transient_loss_prob))
    throw InputError("FaultPlan: transient_loss_prob must be in [0, 1)");
}

bool FaultPlan::node_dead(std::size_t node, double now_s) const {
  for (const CrashStop& crash : crashes)
    if (crash.node == node && now_s >= crash.at_s) return true;
  for (const CrashRestart& restart : restarts)
    if (restart.node == node && now_s >= restart.at_s &&
        now_s < restart.recover_s)
      return true;
  return false;
}

std::vector<char> FaultPlan::dead_nodes(std::size_t processor_count,
                                        double now_s) const {
  std::vector<char> down(processor_count, 0);
  for (const CrashStop& crash : crashes)
    if (now_s >= crash.at_s) down[crash.node] = 1;
  for (const CrashRestart& restart : restarts)
    if (now_s >= restart.at_s && now_s < restart.recover_s)
      down[restart.node] = 1;
  return down;
}

std::vector<std::size_t> FaultPlan::named_pairs(
    std::size_t processor_count) const {
  std::vector<std::size_t> pairs;
  const auto name = [&](std::size_t src, std::size_t dst, bool symmetric) {
    pairs.push_back(src * processor_count + dst);
    if (symmetric) pairs.push_back(dst * processor_count + src);
  };
  for (const LinkCut& cut : cuts) name(cut.src, cut.dst, cut.symmetric);
  for (const FlappingLink& flap : flapping)
    name(flap.src, flap.dst, flap.symmetric);
  for (const Brownout& brownout : brownouts)
    name(brownout.src, brownout.dst, brownout.symmetric);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

bool FaultPlan::node_dead_forever(std::size_t node, double now_s) const {
  for (const CrashStop& crash : crashes)
    if (crash.node == node && now_s >= crash.at_s) return true;
  return false;
}

bool FaultPlan::link_cut(std::size_t src, std::size_t dst, double now_s) const {
  return cut_overlaps(src, dst, now_s, now_s);
}

bool FaultPlan::cut_overlaps(std::size_t src, std::size_t dst, double begin_s,
                             double end_s) const {
  for (const LinkCut& cut : cuts) {
    const bool forward = cut.src == src && cut.dst == dst;
    const bool backward = cut.symmetric && cut.src == dst && cut.dst == src;
    if (!forward && !backward) continue;
    if (begin_s < cut.end_s && end_s >= cut.begin_s) return true;
  }
  for (const FlappingLink& flap : flapping) {
    const bool forward = flap.src == src && flap.dst == dst;
    const bool backward = flap.symmetric && flap.src == dst && flap.dst == src;
    if (!forward && !backward) continue;
    if (flap_down_overlaps(flap, begin_s, end_s)) return true;
  }
  return false;
}

double FaultPlan::loss_probability(std::size_t src, std::size_t dst) const {
  double survive = 1.0 - transient_loss_prob;
  for (const FlakyLink& link : flaky) {
    const bool forward = link.src == src && link.dst == dst;
    const bool backward = link.symmetric && link.src == dst && link.dst == src;
    if (forward || backward) survive *= 1.0 - link.loss_prob;
  }
  return 1.0 - survive;
}

double FaultPlan::brownout_factor(std::size_t src, std::size_t dst,
                                  double now_s) const {
  double factor = 1.0;
  for (const Brownout& brownout : brownouts) {
    const bool forward = brownout.src == src && brownout.dst == dst;
    const bool backward =
        brownout.symmetric && brownout.src == dst && brownout.dst == src;
    if (!forward && !backward) continue;
    if (now_s >= brownout.begin_s && now_s < brownout.end_s)
      factor *= brownout.factor;
  }
  return factor;
}

bool FaultPlan::has_recoverable_faults() const {
  if (!restarts.empty() || !flapping.empty()) return true;
  if (transient_loss_prob > 0.0 || !flaky.empty()) return true;
  for (const LinkCut& cut : cuts)
    if (std::isfinite(cut.end_s) && cut.end_s < 1e11) return true;
  return false;
}

}  // namespace hcs
