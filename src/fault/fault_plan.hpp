// Failure injection: what breaks, where, and when.
//
// The paper's adaptive framework (§6.3) assumes the network only drifts.
// Real metacomputing networks also fail. Softly: a path browns out to a
// fraction of its bandwidth for a window and transfers crawl rather than
// error. *Hard*: a node crashes and stays down (crash-stop), a link is
// cut outright for a window, and individual transmissions are lost. And
// *dynamically*: a node reboots and rejoins (crash-restart), a link flaps
// up and down. A FaultPlan is the one vocabulary for all of these: it
// describes one scenario declaratively. FaultyDirectory exposes it to
// planning (or, with only brownouts, serves as a degraded live directory),
// and FaultPlanModel (both in faulty_directory.hpp) exposes it to
// execution through the simulator's send-failure hook, so schedulers and
// the resilient executor see a consistent world. The dynamic faults are what
// make online re-planning (fault/resilient.hpp) worthwhile: a schedule
// that failed now can succeed after the recovery window passes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hcs {

/// A node that dies at `at_s` and never recovers (crash-stop): from then
/// on it neither sends, receives, nor relays.
struct CrashStop {
  std::size_t node = 0;
  double at_s = 0.0;
};

/// A node that crashes at `at_s` and rejoins at `recover_s` (crash-
/// restart): down over [at_s, recover_s), fully functional outside the
/// window. Unlike crash-stop, waiting out the window — which is what the
/// resilient executor's replan path does — recovers the traffic.
struct CrashRestart {
  std::size_t node = 0;
  double at_s = 0.0;
  double recover_s = 0.0;
};

/// A pair unreachable over [begin_s, end_s): every transmission attempt
/// overlapping the window times out. The hard sibling of Brownout.
struct LinkCut {
  std::size_t src = 0;
  std::size_t dst = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  /// When set, the opposite direction is cut too.
  bool symmetric = true;
};

/// A pair whose transmissions are lost with the given probability per
/// attempt (flaky NIC, lossy tunnel) — on top of the plan-wide
/// transient_loss_prob.
struct FlakyLink {
  std::size_t src = 0;
  std::size_t dst = 0;
  double loss_prob = 0.5;
  bool symmetric = true;
};

/// A pair that flaps: within [begin_s, end_s) the link is down during the
/// first `down_fraction` of every `period_s`-long cycle (measured from
/// begin_s) and up for the rest. Attempts overlapping a down phase time
/// out like a cut; attempts threading an up phase succeed.
struct FlappingLink {
  std::size_t src = 0;
  std::size_t dst = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  double period_s = 1.0;
  double down_fraction = 0.5;
  bool symmetric = true;
};

/// A bandwidth brownout: over [begin_s, end_s) the pair's bandwidth is
/// multiplied by `factor` in (0, 1]; overlapping brownouts multiply.
/// Transfers still complete — slower — so planning sees a degraded
/// advertisement and execution pays 1/factor times the nominal transfer
/// time. Only bandwidth degrades; start-up latency is untouched.
struct Brownout {
  std::size_t src = 0;
  std::size_t dst = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  double factor = 0.1;
  bool symmetric = true;
};

/// One fault scenario. An empty plan (the default) injects nothing —
/// planning and execution are bit-identical to runs without it.
struct FaultPlan {
  std::vector<CrashStop> crashes;
  std::vector<CrashRestart> restarts;
  std::vector<LinkCut> cuts;
  std::vector<FlakyLink> flaky;
  std::vector<FlappingLink> flapping;
  std::vector<Brownout> brownouts;
  /// Plan-wide per-attempt transmission loss probability in [0, 1).
  double transient_loss_prob = 0.0;
  /// Seed for the deterministic transient-loss draws.
  std::uint64_t seed = 0;

  [[nodiscard]] bool empty() const;

  /// Throws InputError unless every fault is well-formed, references
  /// processors below `processor_count`, and no two windows of the same
  /// node's crash faults overlap. Messages name the offending entry.
  void validate(std::size_t processor_count) const;

  /// True when `node` is down at `now_s` — crash-stopped, or inside a
  /// crash-restart window.
  [[nodiscard]] bool node_dead(std::size_t node, double now_s) const;

  /// down[p] == node_dead(p, now_s) for every p < processor_count, from
  /// one pass over the crash lists instead of one pass per node. The
  /// plan must validate for `processor_count`.
  [[nodiscard]] std::vector<char> dead_nodes(std::size_t processor_count,
                                             double now_s) const;

  /// Every ordered pair a cut, flap or brownout names, both directions of
  /// a symmetric entry, as the flat index src * processor_count + dst;
  /// ascending, without repeats. Outside these pairs link_cut is false and
  /// brownout_factor is 1 at every instant.
  [[nodiscard]] std::vector<std::size_t> named_pairs(
      std::size_t processor_count) const;

  /// True when `node` is down at `now_s` and will never recover
  /// (crash-stop). A crash-restart window is down but not dead forever.
  [[nodiscard]] bool node_dead_forever(std::size_t node, double now_s) const;

  /// True when some cut — or a flapping link's down phase — of
  /// (src, dst) covers `now_s`.
  [[nodiscard]] bool link_cut(std::size_t src, std::size_t dst,
                              double now_s) const;

  /// True when some cut or flap-down phase of (src, dst) overlaps
  /// [begin_s, end_s) — the question a transmission attempt over that
  /// interval asks.
  [[nodiscard]] bool cut_overlaps(std::size_t src, std::size_t dst,
                                  double begin_s, double end_s) const;

  /// Combined per-attempt loss probability for (src, dst): the plan-wide
  /// rate and any matching flaky links, composed as independent causes.
  [[nodiscard]] double loss_probability(std::size_t src, std::size_t dst) const;

  /// Product of the factors of every brownout of (src, dst) active at
  /// `now_s`; 1.0 when none is.
  [[nodiscard]] double brownout_factor(std::size_t src, std::size_t dst,
                                       double now_s) const;

  /// True when the plan contains any fault a later retry could outlive:
  /// crash-restart windows, finite cuts, flapping links, transient loss.
  [[nodiscard]] bool has_recoverable_faults() const;
};

}  // namespace hcs
