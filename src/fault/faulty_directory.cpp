#include "fault/faulty_directory.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hcs {

FaultyDirectory::FaultyDirectory(const DirectoryService& base, FaultPlan plan,
                                 double unreachable_factor)
    : base_(base), plan_(std::move(plan)), unreachable_factor_(unreachable_factor) {
  plan_.validate(base_.processor_count());
  if (!(unreachable_factor > 0.0) || !(unreachable_factor <= 1.0) ||
      !std::isfinite(unreachable_factor))
    throw InputError("FaultyDirectory: unreachable_factor must be in (0, 1]");
  named_pairs_ = plan_.named_pairs(base_.processor_count());
}

std::size_t FaultyDirectory::processor_count() const {
  return base_.processor_count();
}

bool FaultyDirectory::reachable(std::size_t src, std::size_t dst,
                                double now_s) const {
  return !plan_.node_dead(src, now_s) && !plan_.node_dead(dst, now_s) &&
         !plan_.link_cut(src, dst, now_s);
}

LinkParams FaultyDirectory::query(std::size_t src, std::size_t dst,
                                  double now_s) const {
  LinkParams params = base_.query(src, dst, now_s);
  if (src == dst) return params;
  if (!reachable(src, dst, now_s)) {
    params.bandwidth_Bps *= unreachable_factor_;
    return params;
  }
  // Brownouts advertise honestly: the degraded rate is what a transfer
  // started now would actually see.
  const double brownout = plan_.brownout_factor(src, dst, now_s);
  if (brownout < 1.0) params.bandwidth_Bps *= brownout;
  return params;
}

NetworkModel FaultyDirectory::snapshot(double now_s) const {
  NetworkModel model = base_.snapshot(now_s);
  const std::size_t n = model.processor_count();
  for (std::size_t p = 0; p < n; ++p) model.set_link(p, p, {0.0, 1.0});
  const auto scale = [&](std::size_t src, std::size_t dst, double factor) {
    LinkParams params = model.link(src, dst);
    params.bandwidth_Bps *= factor;
    model.set_link(src, dst, params);
  };
  // A dead node collapses its whole row and column; each pair once, so a
  // pair of two dead nodes is scaled by its row only.
  const std::vector<char> dead = plan_.dead_nodes(n, now_s);
  for (std::size_t p = 0; p < n; ++p) {
    if (dead[p] == 0) continue;
    for (std::size_t q = 0; q < n; ++q) {
      if (q != p) scale(p, q, unreachable_factor_);
      if (dead[q] == 0) scale(q, p, unreachable_factor_);
    }
  }
  // Every other pair query would change is one the plan names.
  for (const std::size_t pair : named_pairs_) {
    const std::size_t src = pair / n;
    const std::size_t dst = pair % n;
    if (dead[src] != 0 || dead[dst] != 0) continue;
    if (plan_.link_cut(src, dst, now_s)) {
      scale(src, dst, unreachable_factor_);
    } else {
      const double brownout = plan_.brownout_factor(src, dst, now_s);
      if (brownout < 1.0) scale(src, dst, brownout);
    }
  }
  return model;
}

std::vector<std::size_t> FaultyDirectory::cut_pairs(double now_s) const {
  const std::size_t n = base_.processor_count();
  std::vector<std::size_t> cut;
  for (const std::size_t pair : named_pairs_)
    if (plan_.link_cut(pair / n, pair % n, now_s)) cut.push_back(pair);
  return cut;
}

FaultPlanModel::FaultPlanModel(const FaultPlan& plan, double timeout_slack,
                               double transient_detect_factor)
    : plan_(plan),
      timeout_slack_(timeout_slack),
      transient_detect_factor_(transient_detect_factor) {
  if (!(timeout_slack >= 1.0) || !std::isfinite(timeout_slack))
    throw InputError("FaultPlanModel: timeout_slack must be finite and >= 1");
  if (!(transient_detect_factor > 0.0) ||
      !(transient_detect_factor <= timeout_slack) ||
      !std::isfinite(transient_detect_factor))
    throw InputError(
        "FaultPlanModel: transient_detect_factor must be in (0, timeout_slack]");
}

SendVerdict FaultPlanModel::judge(const SendAttempt& attempt) const {
  const double finish = attempt.start_s + attempt.nominal_s;
  const double timeout = timeout_slack_ * attempt.nominal_s;

  // A sender already dead at the start never transmits at all; one dying
  // mid-transfer, or a dead/dying receiver, costs the watchdog timeout.
  // Only a crash-stop endpoint makes the failure permanent — a node inside
  // a crash-restart window comes back, so retrying can still succeed.
  const bool hopeless = plan_.node_dead_forever(attempt.src, finish) ||
                        plan_.node_dead_forever(attempt.dst, finish);
  if (plan_.node_dead(attempt.src, attempt.start_s))
    return {false, 0.0, hopeless};
  if (plan_.node_dead(attempt.src, finish) || plan_.node_dead(attempt.dst, finish))
    return {false, timeout, hopeless};

  // A cut anywhere in the attempt's nominal interval stalls the transfer
  // until the watchdog fires; the cut may clear later, so retrying (or
  // rerouting) can still succeed.
  if (plan_.cut_overlaps(attempt.src, attempt.dst, attempt.start_s, finish))
    return {false, timeout, false};

  const double loss = plan_.loss_probability(attempt.src, attempt.dst);
  if (loss > 0.0) {
    // Deterministic per-attempt draw: reproducible across replays, yet
    // independent across pairs, attempt numbers, and start times.
    std::uint64_t state = plan_.seed;
    state ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(attempt.src) + 1);
    state ^= 0xC2B2AE3D27D4EB4FULL * (static_cast<std::uint64_t>(attempt.dst) + 1);
    state ^= 0x165667B19E3779F9ULL * static_cast<std::uint64_t>(attempt.attempt);
    state ^= std::bit_cast<std::uint64_t>(attempt.start_s);
    const double draw =
        static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
    if (draw < loss)
      return {false, transient_detect_factor_ * attempt.nominal_s, false};
  }

  // Delivered — but brownouts active at the start stretch the transfer.
  SendVerdict verdict{true, 0.0, false};
  const double brownout =
      plan_.brownout_factor(attempt.src, attempt.dst, attempt.start_s);
  if (brownout < 1.0) verdict.slowdown = 1.0 / brownout;
  return verdict;
}

}  // namespace hcs
