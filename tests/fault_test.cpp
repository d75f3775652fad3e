// Tests for src/fault: fault plans, the planning/execution views of a
// plan, health-driven quarantine, and the resilient executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/checkpoint.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "core/matching_scheduler.hpp"
#include "core/openshop_scheduler.hpp"
#include "fault/faulty_directory.hpp"
#include "fault/health.hpp"
#include "fault/resilient.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/generator.hpp"
#include "trace/auditor.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace hcs {
namespace {

constexpr CheckpointPolicy kAllPolicies[] = {CheckpointPolicy::kNever,
                                             CheckpointPolicy::kEveryEvent,
                                             CheckpointPolicy::kHalveRemaining};

/// No two events of the same send or receive port may overlap, relay hops
/// included.
void check_no_port_overlap(const std::vector<ScheduledEvent>& events,
                           std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) {
    for (const bool sender_side : {true, false}) {
      std::vector<ScheduledEvent> mine;
      for (const ScheduledEvent& event : events)
        if ((sender_side ? event.src : event.dst) == p) mine.push_back(event);
      std::sort(mine.begin(), mine.end(),
                [](const ScheduledEvent& a, const ScheduledEvent& b) {
                  return a.start_s < b.start_s;
                });
      for (std::size_t k = 0; k + 1 < mine.size(); ++k)
        EXPECT_LE(mine[k].finish_s, mine[k + 1].start_s + 1e-9)
            << (sender_side ? "send" : "receive") << " port " << p;
    }
  }
}

const MessageOutcome& outcome_of(const ResilientResult& result,
                                 std::size_t src, std::size_t dst) {
  for (const MessageOutcome& outcome : result.outcomes)
    if (outcome.src == src && outcome.dst == dst) return outcome;
  throw std::logic_error("outcome_of: pair not found");
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, ValidateRejectsMalformedPlans) {
  {
    FaultPlan plan;
    plan.crashes.push_back({9, 0.0});
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.cuts.push_back({0, 0, 0.0, 1.0});
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.cuts.push_back({0, 1, 2.0, 1.0});
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.flaky.push_back({0, 1, 1.0});
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.transient_loss_prob = -0.1;
    EXPECT_THROW(plan.validate(4), InputError);
  }
}

TEST(FaultPlan, QueriesMatchDeclaredScenario) {
  FaultPlan plan;
  plan.crashes.push_back({2, 5.0});
  plan.cuts.push_back({0, 1, 1.0, 2.0});
  plan.flaky.push_back({0, 3, 0.25});
  plan.transient_loss_prob = 0.5;
  plan.validate(4);

  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.node_dead(2, 4.9));
  EXPECT_TRUE(plan.node_dead(2, 5.0));
  EXPECT_TRUE(plan.node_dead(2, 100.0));
  EXPECT_FALSE(plan.node_dead(0, 100.0));

  EXPECT_FALSE(plan.link_cut(0, 1, 0.5));
  EXPECT_TRUE(plan.link_cut(0, 1, 1.5));
  EXPECT_TRUE(plan.link_cut(1, 0, 1.5)) << "cuts default to symmetric";
  EXPECT_FALSE(plan.link_cut(0, 1, 2.0)) << "window is half-open";
  EXPECT_TRUE(plan.cut_overlaps(0, 1, 0.0, 1.5));
  EXPECT_FALSE(plan.cut_overlaps(0, 1, 2.5, 3.0));

  // Flaky and plan-wide losses compose as independent causes.
  EXPECT_NEAR(plan.loss_probability(0, 3), 1.0 - 0.5 * 0.75, 1e-12);
  EXPECT_NEAR(plan.loss_probability(3, 0), 1.0 - 0.5 * 0.75, 1e-12);
  EXPECT_NEAR(plan.loss_probability(1, 2), 0.5, 1e-12);

  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlan, ValidateRejectsMalformedDynamicFaults) {
  {
    FaultPlan plan;
    plan.restarts.push_back({9, 0.0, 1.0});  // node out of range
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.restarts.push_back({1, 2.0, 1.0});  // recovers before it crashes
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    // Overlapping down windows of one node: which recovery applies would
    // be ambiguous. The message must name the offending entry.
    FaultPlan plan;
    plan.restarts.push_back({1, 0.0, 5.0});
    plan.restarts.push_back({1, 3.0, 8.0});
    try {
      plan.validate(4);
      FAIL() << "overlapping restart windows must be rejected";
    } catch (const InputError& error) {
      EXPECT_NE(std::string(error.what()).find("restarts[1]"),
                std::string::npos)
          << error.what();
    }
  }
  {
    // A node cannot rejoin after it crash-stopped for good.
    FaultPlan plan;
    plan.crashes.push_back({1, 2.0});
    plan.restarts.push_back({1, 3.0, 4.0});
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.flapping.push_back({0, 1, 0.0, 4.0, 0.0, 0.5, true});  // period 0
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.flapping.push_back({0, 1, 0.0, 4.0, 1.0, 1.5, true});  // fraction > 1
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.flapping.push_back({2, 2, 0.0, 4.0, 1.0, 0.5, true});  // self-pair
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.brownouts.push_back({0, 1, 0.0, 4.0, 0.0, true});  // factor 0
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.brownouts.push_back({0, 1, 0.0, 4.0, 1.5, true});  // factor > 1
    EXPECT_THROW(plan.validate(4), InputError);
  }
  {
    FaultPlan plan;
    plan.brownouts.push_back({0, 9, 0.0, 4.0, 0.5, true});  // node range
    EXPECT_THROW(plan.validate(4), InputError);
  }
}

TEST(FaultPlan, DynamicQueriesMatchDeclaredScenario) {
  FaultPlan plan;
  plan.crashes.push_back({1, 30.0});
  plan.restarts.push_back({2, 5.0, 10.0});
  plan.flapping.push_back({0, 1, 0.0, 10.0, 2.0, 0.5, true});
  plan.brownouts.push_back({0, 1, 0.0, 10.0, 0.5, true});
  plan.brownouts.push_back({0, 1, 5.0, 15.0, 0.5, true});
  plan.validate(4);
  EXPECT_TRUE(plan.has_recoverable_faults());

  // Crash-restart: down over [at, recover), never dead forever.
  EXPECT_FALSE(plan.node_dead(2, 4.9));
  EXPECT_TRUE(plan.node_dead(2, 5.0));
  EXPECT_TRUE(plan.node_dead(2, 9.9));
  EXPECT_FALSE(plan.node_dead(2, 10.0)) << "recovery is half-open";
  EXPECT_FALSE(plan.node_dead_forever(2, 7.0));
  EXPECT_TRUE(plan.node_dead_forever(1, 30.0)) << "crash-stop is forever";

  // Flapping: down during the first half of every 2 s cycle from t=0.
  EXPECT_TRUE(plan.link_cut(0, 1, 0.5));
  EXPECT_FALSE(plan.link_cut(0, 1, 1.5));
  EXPECT_TRUE(plan.link_cut(1, 0, 2.3)) << "flaps default to symmetric";
  EXPECT_FALSE(plan.link_cut(0, 1, 10.5)) << "past the flap window";
  EXPECT_FALSE(plan.cut_overlaps(0, 1, 1.2, 1.8)) << "threads an up phase";
  EXPECT_TRUE(plan.cut_overlaps(0, 1, 1.2, 2.2)) << "crosses a down phase";

  // Brownouts compose multiplicatively while both windows are active.
  EXPECT_NEAR(plan.brownout_factor(0, 1, 2.0), 0.5, 1e-12);
  EXPECT_NEAR(plan.brownout_factor(0, 1, 7.0), 0.25, 1e-12);
  EXPECT_NEAR(plan.brownout_factor(1, 0, 7.0), 0.25, 1e-12) << "symmetric";
  EXPECT_NEAR(plan.brownout_factor(0, 1, 12.0), 0.5, 1e-12);
  EXPECT_NEAR(plan.brownout_factor(0, 1, 20.0), 1.0, 1e-12);
  EXPECT_NEAR(plan.brownout_factor(2, 3, 7.0), 1.0, 1e-12);

  EXPECT_FALSE(FaultPlan{}.has_recoverable_faults());
  FaultPlan stop_only;
  stop_only.crashes.push_back({0, 1.0});
  EXPECT_FALSE(stop_only.has_recoverable_faults())
      << "crash-stop is not recoverable";
}

// Property: randomized well-formed plans always validate; corrupting any
// one entry flips them to rejected. 100 seeds cover every fault list and
// every corruption class.
TEST(FaultProperty, RandomizedPlansValidateUntilCorrupted) {
  const std::size_t n = 8;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    const auto node = [&](std::uint64_t salt) {
      return static_cast<std::size_t>((seed * 31 + salt * 17) % n);
    };
    const double base = 1.0 + static_cast<double>(seed % 7);
    plan.crashes.push_back({node(1), base});
    // Distinct node for the restarts so they cannot collide with the
    // crash-stop; two non-overlapping windows on it.
    const std::size_t restart_node = (node(1) + 1) % n;
    plan.restarts.push_back({restart_node, base, base + 2.0});
    plan.restarts.push_back({restart_node, base + 3.0, base + 4.0});
    std::size_t a = node(2), b = node(3);
    if (a == b) b = (b + 1) % n;
    plan.cuts.push_back({a, b, 0.0, base});
    plan.flapping.push_back({a, b, 0.0, 4.0 * base, base, 0.25, seed % 2 == 0});
    plan.brownouts.push_back(
        {b, a, base, 3.0 * base, 0.1 + 0.1 * static_cast<double>(seed % 9),
         true});
    plan.transient_loss_prob = 0.01 * static_cast<double>(seed % 50);
    ASSERT_NO_THROW(plan.validate(n)) << "seed=" << seed;

    FaultPlan corrupt = plan;
    switch (seed % 5) {
      case 0: corrupt.restarts[0].node = n + seed; break;
      case 1: corrupt.restarts[1] = {restart_node, base + 1.0, base + 5.0};
              break;  // overlaps restarts[0]
      case 2: corrupt.flapping[0].down_fraction = 1.0 + base; break;
      case 3: corrupt.brownouts[0].factor = 0.0; break;
      case 4: corrupt.cuts[0].end_s = -base; break;
    }
    EXPECT_THROW(corrupt.validate(n), InputError) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// FaultyDirectory / FaultPlanModel
// ---------------------------------------------------------------------------

TEST(FaultyDirectory, CollapsesCutAndCrashedPairsOnly) {
  const StaticDirectory base{generate_network(4, 21)};
  FaultPlan plan;
  plan.cuts.push_back({0, 1, 1.0, 2.0});
  plan.crashes.push_back({3, 5.0});
  const FaultyDirectory faulty{base, plan};

  EXPECT_EQ(faulty.processor_count(), 4u);
  EXPECT_EQ(faulty.query(0, 1, 0.5), base.query(0, 1, 0.5));
  EXPECT_NEAR(faulty.query(0, 1, 1.5).bandwidth_Bps,
              base.query(0, 1, 1.5).bandwidth_Bps * 1e-6, 1e-9);
  EXPECT_FALSE(faulty.reachable(1, 0, 1.5)) << "symmetric cut";
  EXPECT_TRUE(faulty.reachable(3, 2, 4.9));
  EXPECT_FALSE(faulty.reachable(3, 2, 5.0)) << "dead endpoint";
  EXPECT_FALSE(faulty.reachable(2, 3, 6.0));
}

TEST(FaultPlanModel, WatchdogAndCrashSemantics) {
  FaultPlan plan;
  plan.crashes.push_back({1, 10.0});
  plan.cuts.push_back({2, 3, 0.0, 5.0});
  const FaultPlanModel model{plan, 3.0, 0.5};

  // Healthy pair, no loss: delivered.
  EXPECT_TRUE(model.judge({0, 2, 0.0, 1, 1.0}).delivered);

  // Sender dead at start: immediate permanent failure.
  const SendVerdict dead_src = model.judge({1, 0, 11.0, 1, 1.0});
  EXPECT_FALSE(dead_src.delivered);
  EXPECT_TRUE(dead_src.permanent);
  EXPECT_EQ(dead_src.elapsed_s, 0.0);

  // Receiver dead by the nominal finish: watchdog timeout, permanent.
  const SendVerdict dead_dst = model.judge({0, 1, 9.5, 1, 1.0});
  EXPECT_FALSE(dead_dst.delivered);
  EXPECT_TRUE(dead_dst.permanent);
  EXPECT_NEAR(dead_dst.elapsed_s, 3.0, 1e-12);

  // Cut overlapping the attempt: watchdog timeout, retryable.
  const SendVerdict cut = model.judge({2, 3, 4.0, 1, 2.0});
  EXPECT_FALSE(cut.delivered);
  EXPECT_FALSE(cut.permanent);
  EXPECT_NEAR(cut.elapsed_s, 6.0, 1e-12);

  // Past the cut window the pair works again.
  EXPECT_TRUE(model.judge({2, 3, 5.0, 1, 2.0}).delivered);
}

TEST(FaultPlanModel, TransientLossIsDeterministic) {
  FaultPlan plan;
  plan.transient_loss_prob = 0.5;
  plan.seed = 7;
  const FaultPlanModel model{plan, 3.0, 0.5};

  int lost = 0;
  for (int k = 0; k < 64; ++k) {
    const SendAttempt attempt{0, 1, 0.125 * k, 1, 1.0};
    const SendVerdict first = model.judge(attempt);
    const SendVerdict second = model.judge(attempt);
    EXPECT_EQ(first.delivered, second.delivered);
    if (!first.delivered) {
      EXPECT_FALSE(first.permanent);
      EXPECT_NEAR(first.elapsed_s, 0.5, 1e-12) << "fast loss detection";
      ++lost;
    }
  }
  // ~50% loss: wildly off means the hash is broken.
  EXPECT_GT(lost, 16);
  EXPECT_LT(lost, 48);
}

TEST(FaultyDirectory, AdvertisesBrownoutsAndRestartWindows) {
  const StaticDirectory base{generate_network(4, 21)};
  FaultPlan plan;
  plan.restarts.push_back({3, 1.0, 2.0});
  plan.brownouts.push_back({0, 1, 0.0, 5.0, 0.25, true});
  const FaultyDirectory faulty{base, plan};

  // Brownout window: bandwidth scaled by the factor, both directions.
  EXPECT_NEAR(faulty.query(0, 1, 2.0).bandwidth_Bps,
              base.query(0, 1, 2.0).bandwidth_Bps * 0.25, 1e-9);
  EXPECT_NEAR(faulty.query(1, 0, 2.0).bandwidth_Bps,
              base.query(1, 0, 2.0).bandwidth_Bps * 0.25, 1e-9);
  EXPECT_EQ(faulty.query(0, 1, 6.0), base.query(0, 1, 6.0))
      << "outside the window the advertisement is untouched";

  // Crash-restart: unreachable only inside the down window.
  EXPECT_TRUE(faulty.reachable(3, 2, 0.5));
  EXPECT_FALSE(faulty.reachable(3, 2, 1.5));
  EXPECT_NEAR(faulty.query(3, 2, 1.5).bandwidth_Bps,
              base.query(3, 2, 1.5).bandwidth_Bps * 1e-6, 1e-9);
  EXPECT_TRUE(faulty.reachable(3, 2, 2.0)) << "recovered";
  EXPECT_EQ(faulty.query(3, 2, 2.5), base.query(3, 2, 2.5));
}

TEST(FaultPlanModel, CrashRestartIsRetryableAndBrownoutsSlowDelivery) {
  FaultPlan plan;
  plan.restarts.push_back({1, 10.0, 20.0});
  plan.brownouts.push_back({2, 3, 0.0, 100.0, 0.25, true});
  const FaultPlanModel model{plan, 3.0, 0.5};

  // Receiver inside its down window: watchdog timeout, but NOT permanent —
  // the node comes back, so the executor may retry or replan.
  const SendVerdict down_dst = model.judge({0, 1, 15.0, 1, 1.0});
  EXPECT_FALSE(down_dst.delivered);
  EXPECT_FALSE(down_dst.permanent);
  EXPECT_NEAR(down_dst.elapsed_s, 3.0, 1e-12);

  // Sender down at start: fails immediately, still retryable.
  const SendVerdict down_src = model.judge({1, 0, 15.0, 1, 1.0});
  EXPECT_FALSE(down_src.delivered);
  EXPECT_FALSE(down_src.permanent);
  EXPECT_EQ(down_src.elapsed_s, 0.0);

  // Receiver down by the nominal finish: timeout, retryable.
  const SendVerdict crossing = model.judge({0, 1, 9.5, 1, 1.0});
  EXPECT_FALSE(crossing.delivered);
  EXPECT_FALSE(crossing.permanent);

  // After recovery the pair works again.
  EXPECT_TRUE(model.judge({0, 1, 20.0, 1, 1.0}).delivered);

  // Brownout: delivered, but the transfer runs 1/factor slower.
  const SendVerdict slow = model.judge({2, 3, 50.0, 1, 4.0});
  EXPECT_TRUE(slow.delivered);
  EXPECT_NEAR(slow.slowdown, 4.0, 1e-12);
  const SendVerdict healthy = model.judge({2, 3, 200.0, 1, 4.0});
  EXPECT_TRUE(healthy.delivered);
  EXPECT_EQ(healthy.slowdown, 1.0) << "no active brownout, no slowdown";
}

// ---------------------------------------------------------------------------
// HealthMonitor / QuarantineDirectory
// ---------------------------------------------------------------------------

TEST(Health, StrikesAccumulateResetAndQuarantineSticks) {
  HealthMonitor health{3, {}};
  EXPECT_EQ(health.strikes(0, 1), 0u);

  health.record_failure(0, 1);
  health.record_transfer(0, 1, 10.0, 1.0);  // deviation > 3x: strike
  EXPECT_EQ(health.strikes(0, 1), 2u);
  EXPECT_FALSE(health.quarantined(0, 1));

  health.record_transfer(0, 1, 1.0, 1.0);  // on-estimate: reset
  EXPECT_EQ(health.strikes(0, 1), 0u);

  health.record_failure(0, 1);
  health.record_failure(0, 1);
  health.record_failure(0, 1);
  EXPECT_TRUE(health.quarantined(0, 1));
  EXPECT_EQ(health.quarantined_pair_count(), 1u);

  health.record_transfer(0, 1, 1.0, 1.0);
  EXPECT_TRUE(health.quarantined(0, 1)) << "quarantine is sticky";
  EXPECT_FALSE(health.quarantined(1, 0)) << "per ordered pair";
}

TEST(Health, QuarantineDirectoryDegradesOnlyQuarantinedPairs) {
  const StaticDirectory base{generate_network(3, 22)};
  HealthMonitor health{3, {}};
  const QuarantineDirectory directory{base, health};

  EXPECT_EQ(directory.query(0, 1, 0.0), base.query(0, 1, 0.0));
  for (int k = 0; k < 3; ++k) health.record_failure(0, 1);
  EXPECT_NEAR(directory.query(0, 1, 0.0).bandwidth_Bps,
              base.query(0, 1, 0.0).bandwidth_Bps * 1e-6, 1e-9);
  EXPECT_EQ(directory.query(1, 0, 0.0), base.query(1, 0, 0.0));
}

TEST(Health, OptionValidation) {
  EXPECT_THROW(HealthMonitor(3, {0, 3.0, 1e-6}), InputError);
  EXPECT_THROW(HealthMonitor(3, {3, 0.5, 1e-6}), InputError);
  EXPECT_THROW(HealthMonitor(3, {3, 3.0, 0.0}), InputError);
}

// ---------------------------------------------------------------------------
// Decorator snapshots against the per-pair default
// ---------------------------------------------------------------------------

/// A well-formed random plan over `n` nodes whose windows start and end
/// on half-second marks, so probe times land inside, outside and exactly
/// on window edges. Pairs come from a small pool, so entries repeat,
/// overlap and mix symmetric with one-way directions.
FaultPlan random_snapshot_plan(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  FaultPlan plan;
  plan.seed = seed;
  const auto time = [&] { return 0.5 * static_cast<double>(rng.next_below(17)); };
  const auto pair = [&] {
    const auto src = static_cast<std::size_t>(rng.next_below(4));
    auto dst = static_cast<std::size_t>(rng.next_below(n - 1));
    if (dst >= src) ++dst;
    return std::pair{src, dst};
  };
  // Node 0 may crash-stop, node 1 restarts in two disjoint windows; the
  // rest of the pool stays alive so named pairs are patched too.
  if (rng.bernoulli(0.5)) plan.crashes.push_back({0, time()});
  if (rng.bernoulli(0.7)) {
    const double at = time();
    plan.restarts.push_back({1, at, at + 0.5 + time()});
    const double again = plan.restarts[0].recover_s + time();
    plan.restarts.push_back({1, again, again + 1.0});
  }
  for (std::uint64_t k = rng.next_below(4); k > 0; --k) {
    const auto [src, dst] = pair();
    const double begin = time();
    plan.cuts.push_back({src, dst, begin, begin + time(), rng.bernoulli(0.5)});
  }
  for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
    const auto [src, dst] = pair();
    const double begin = time();
    plan.flapping.push_back({src, dst, begin, begin + 2.0 * time(),
                             0.5 + time(), 0.25 * static_cast<double>(rng.next_below(5)),
                             rng.bernoulli(0.5)});
  }
  for (std::uint64_t k = rng.next_below(6); k > 0; --k) {
    const auto [src, dst] = pair();
    const double begin = time();
    plan.brownouts.push_back({src, dst, begin, begin + time(),
                              0.05 + 0.95 * rng.next_double(),
                              rng.bernoulli(0.5)});
  }
  if (rng.bernoulli(0.3)) plan.flaky.push_back({2, 3, 0.5, true});
  plan.validate(n);
  return plan;
}

/// Probe instants: before the plan, every half-second mark the plan's
/// windows use (edges included), points between them, and far past it.
std::vector<double> snapshot_probe_times() {
  std::vector<double> times{-1.0, 1e12};
  for (int k = 0; k <= 40; ++k) times.push_back(0.25 * k);
  return times;
}

/// Every entry of the two models, diagonal included, has the same bits.
void expect_bitwise_equal(const NetworkModel& got, const NetworkModel& want) {
  ASSERT_EQ(got.processor_count(), want.processor_count());
  const std::size_t n = got.processor_count();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const LinkParams a = got.link(i, j);
      const LinkParams b = want.link(i, j);
      if (std::bit_cast<std::uint64_t>(a.startup_s) !=
              std::bit_cast<std::uint64_t>(b.startup_s) ||
          std::bit_cast<std::uint64_t>(a.bandwidth_Bps) !=
              std::bit_cast<std::uint64_t>(b.bandwidth_Bps)) {
        if (mismatches++ == 0)
          ADD_FAILURE() << "pair (" << i << ", " << j << "): got {"
                        << a.startup_s << ", " << a.bandwidth_Bps
                        << "}, want {" << b.startup_s << ", "
                        << b.bandwidth_Bps << "}";
      }
    }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FaultProperty, FaultyAndQuarantineSnapshotsMatchPerPairQueries) {
  const std::size_t n = 9;
  const NetworkModel network = generate_network(n, 61);
  const StaticDirectory fixed{network};
  const DriftingDirectory drifting{network, 17, {0.5, 0.3, 4.0}};
  const std::vector<double> times = snapshot_probe_times();
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const FaultPlan plan = random_snapshot_plan(n, seed);
    // Quarantine a few pairs, some of them also named by the plan.
    HealthMonitor health{n, {1, 3.0, 1e-3}};
    Rng rng(seed * 7919);
    for (std::uint64_t k = rng.next_below(5); k > 0; --k) {
      const auto src = static_cast<std::size_t>(rng.next_below(n));
      const auto dst = static_cast<std::size_t>(rng.next_below(n));
      if (src != dst) health.record_failure(src, dst);
    }
    const HealthMonitor empty_health;
    for (const DirectoryService* base :
         {static_cast<const DirectoryService*>(&fixed),
          static_cast<const DirectoryService*>(&drifting)}) {
      const FaultyDirectory faulty{*base, plan, 1e-6};
      const QuarantineDirectory quarantine{faulty, health};
      const QuarantineDirectory bare_quarantine{*base, health};
      const QuarantineDirectory unmonitored{faulty, empty_health};
      for (const double t : times) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " t " +
                     std::to_string(t) +
                     (base == &fixed ? " static" : " drifting"));
        expect_bitwise_equal(faulty.snapshot(t),
                             faulty.DirectoryService::snapshot(t));
        expect_bitwise_equal(quarantine.snapshot(t),
                             quarantine.DirectoryService::snapshot(t));
        expect_bitwise_equal(bare_quarantine.snapshot(t),
                             bare_quarantine.DirectoryService::snapshot(t));
        expect_bitwise_equal(unmonitored.snapshot(t),
                             unmonitored.DirectoryService::snapshot(t));
        if (HasFailure()) return;
      }
    }
  }
}

// The degraded views run_resilient builds from lists — dead nodes from
// one pass over the crash lists, cut pairs from the plan's named pairs,
// quarantined pairs from the monitor's ledger — equal the per-pair
// predicates they replace.
TEST(FaultProperty, ListBuiltDegradedViewsMatchPerPairPredicates) {
  const std::size_t n = 9;
  const StaticDirectory base{generate_network(n, 62)};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const FaultPlan plan = random_snapshot_plan(n, seed);
    const FaultyDirectory faulty{base, plan};
    const std::vector<std::size_t> named = plan.named_pairs(n);
    for (const double t : snapshot_probe_times()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " t " + std::to_string(t));
      const std::vector<char> dead = plan.dead_nodes(n, t);
      ASSERT_EQ(dead.size(), n);
      std::vector<std::size_t> cut;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(dead[i] != 0, plan.node_dead(i, t)) << "node " << i;
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          if (plan.link_cut(i, j, t)) cut.push_back(i * n + j);
          if (plan.link_cut(i, j, t) || plan.brownout_factor(i, j, t) < 1.0)
            EXPECT_TRUE(std::binary_search(named.begin(), named.end(),
                                           i * n + j))
                << "pair (" << i << ", " << j << ") is not named";
        }
      }
      EXPECT_EQ(faulty.cut_pairs(t), cut);
    }
  }

  HealthMonitor health{n, {2, 3.0, 1e-6}};
  Rng rng(5);
  for (int k = 0; k < 40; ++k) {
    const auto src = static_cast<std::size_t>(rng.next_below(n));
    const auto dst = static_cast<std::size_t>(rng.next_below(n));
    if (src != dst) health.record_failure(src, dst);
  }
  std::vector<std::size_t> listed = health.quarantined_pairs();
  std::sort(listed.begin(), listed.end());
  std::vector<std::size_t> scanned;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (health.quarantined(i, j)) scanned.push_back(i * n + j);
  EXPECT_FALSE(scanned.empty());
  EXPECT_EQ(listed, scanned);
  EXPECT_EQ(health.quarantined_pair_count(), scanned.size());
}

// ---------------------------------------------------------------------------
// run_resilient
// ---------------------------------------------------------------------------

/// The standalone §6.3 checkpoint loop that run_resilient replaced, kept
/// verbatim as the oracle for the empty-plan case: plan from a snapshot,
/// run to the checkpoint, commit (in-flight events included), re-plan.
/// `trace` is null for an untraced run.
struct ReferenceAdaptiveResult {
  std::vector<ScheduledEvent> events;
  double completion_time = 0.0;
  std::size_t reschedule_count = 0;
};

ReferenceAdaptiveResult reference_run_adaptive(
    const Scheduler& scheduler, const DirectoryService& directory,
    const MessageMatrix& messages, const AdaptiveOptions& options,
    EventTrace* trace) {
  const std::size_t n = directory.processor_count();
  if (messages.rows() != n || !messages.square())
    throw InputError("run_adaptive: directory and messages disagree on size");
  options.validate();

  Matrix<unsigned char> remaining(n, n, 0);
  std::size_t remaining_count = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) {
        // Even a zero-byte message costs its start-up time in the model,
        // so every off-diagonal pair participates.
        remaining(i, j) = 1;
        ++remaining_count;
      }

  const NetworkSimulator simulator{directory, messages};
  std::vector<double> send_avail(n, 0.0);
  std::vector<double> recv_avail(n, 0.0);
  double now = 0.0;

  ReferenceAdaptiveResult result;
  result.events.reserve(remaining_count);

  // Per-round simulation state, hoisted so the simulator's warm workspace
  // and these buffers are reused across every checkpoint round.
  SimOptions sim_options;
  SimResult executed;
  std::size_t round = 0;

  while (remaining_count > 0) {
    ++round;
    // Plan from the current directory snapshot: estimated event times for
    // the remaining pairs only (finished pairs cost zero and are dropped
    // from the program afterwards).
    const NetworkModel snapshot = directory.snapshot(now);
    const CommMatrix comm{snapshot.cost_matrix(messages, remaining)};
    // Availability-aware schedulers plan against the current port skew
    // (ports that are still busy with committed transfers); others plan
    // for an idle system and contribute orders only.
    Schedule planned = [&] {
      const auto* avail_aware =
          dynamic_cast<const AvailabilityAwareScheduler*>(&scheduler);
      if (avail_aware == nullptr) return scheduler.schedule(comm);
      std::vector<double> send_offset(n, 0.0);
      std::vector<double> recv_offset(n, 0.0);
      for (std::size_t p = 0; p < n; ++p) {
        send_offset[p] = std::max(send_avail[p] - now, 0.0);
        recv_offset[p] = std::max(recv_avail[p] - now, 0.0);
      }
      return avail_aware->schedule_with_availability(comm, send_offset,
                                                     recv_offset);
    }();
    // Pairs already sent, and the zero-cost padding the round's plan
    // covers them with, drop out of the program.
    const SendProgram program = SendProgram::from_schedule(planned, remaining);

    // Execute the plan against the live directory.
    sim_options.initial_send_avail.assign(n, 0.0);
    sim_options.initial_recv_avail.assign(n, 0.0);
    for (std::size_t p = 0; p < n; ++p) {
      sim_options.initial_send_avail[p] = std::max(send_avail[p], now);
      sim_options.initial_recv_avail[p] = std::max(recv_avail[p], now);
    }
    simulator.run_into(program, sim_options, executed);
    std::sort(executed.events.begin(), executed.events.end(),
              [](const ScheduledEvent& a, const ScheduledEvent& b) {
                return a.finish_s < b.finish_s;
              });

    // How many events to commit before the checkpoint.
    std::size_t commit_target = remaining_count;
    switch (options.policy) {
      case CheckpointPolicy::kNever: break;
      case CheckpointPolicy::kEveryEvent: commit_target = 1; break;
      case CheckpointPolicy::kHalveRemaining:
        commit_target = (remaining_count + 1) / 2;
        break;
    }

    // Optional threshold: if the committed prefix ran close to its
    // estimate, keep executing the same plan through further checkpoints.
    if (commit_target < executed.events.size() &&
        options.reschedule_threshold > 0.0) {
      while (commit_target < executed.events.size()) {
        double worst = 0.0;
        for (std::size_t k = 0; k < commit_target; ++k) {
          const ScheduledEvent& event = executed.events[k];
          const double estimated = comm.time(event.src, event.dst);
          if (estimated <= 0.0) continue;
          worst = std::max(worst,
                           std::abs(event.duration() - estimated) / estimated);
        }
        if (worst > options.reschedule_threshold) break;
        commit_target = std::min(executed.events.size(),
                                 commit_target + (remaining_count + 1) / 2);
      }
    }

    // Commit events up to the checkpoint, plus any event already in
    // flight at the checkpoint time (a started transfer cannot be
    // recalled).
    double cut_time = executed.completion_time;
    if (commit_target < executed.events.size())
      cut_time = executed.events[commit_target - 1].finish_s;
    std::size_t committed = 0;
    for (const ScheduledEvent& event : executed.events) {
      const bool before_cut = event.finish_s <= cut_time;
      const bool in_flight = event.start_s < cut_time;
      if (!before_cut && !in_flight) continue;
      if (trace != nullptr) {
        const auto src32 = static_cast<std::uint32_t>(event.src);
        const auto dst32 = static_cast<std::uint32_t>(event.dst);
        const auto round32 = static_cast<std::uint32_t>(round);
        trace->record({event.start_s, event.start_s,
                       messages(event.src, event.dst), src32, dst32, round32,
                       TraceEventKind::kSendStart});
        trace->record({event.start_s, event.finish_s,
                       messages(event.src, event.dst), src32, dst32, round32,
                       TraceEventKind::kSendEnd});
      }
      result.events.push_back(event);
      remaining(event.src, event.dst) = 0;
      send_avail[event.src] = std::max(send_avail[event.src], event.finish_s);
      recv_avail[event.dst] = std::max(recv_avail[event.dst], event.finish_s);
      result.completion_time = std::max(result.completion_time, event.finish_s);
      ++committed;
    }
    check(committed > 0, "run_adaptive: no progress");
    remaining_count -= committed;
    now = cut_time;
    if (remaining_count > 0) {
      ++result.reschedule_count;
      if (trace != nullptr) {
        const auto round32 = static_cast<std::uint32_t>(round);
        trace->record({cut_time, cut_time, 0, 0, 0, round32,
                       TraceEventKind::kCheckpoint});
        trace->record({cut_time, cut_time, 0, 0, 0, round32,
                       TraceEventKind::kReschedule});
      }
    }
  }
  return result;
}

/// Every recorded event of `trace`, oldest first.
std::vector<TraceEvent> recorded_events(const EventTrace& trace) {
  std::vector<TraceEvent> events;
  trace.for_each([&](const TraceEvent& event) { events.push_back(event); });
  return events;
}

TEST(Resilient, EmptyPlanIsBitIdenticalToRunAdaptive) {
  // The fault path with nothing to inject must not perturb a single
  // double: same events, same times, same reschedule count and the same
  // traced history as the standalone checkpoint loop. The cases cover
  // flat and hierarchical schedulers, every policy, reschedule
  // thresholds, static and drifting directories — including one drifting
  // hard enough (sigma >= 1, 50x clamp) that deviation strikes fire — and
  // a brownout FaultyDirectory as the live directory. Every pair commits
  // exactly once, so a pair collects at most one strike: nothing is ever
  // quarantined or relayed.
  for (const std::size_t n : {5, 8}) {
    const NetworkModel flat = generate_network(n, 31 + n);
    ClusteredNetworkOptions clustered_options;
    clustered_options.cluster_count = 2;
    const NetworkModel clustered =
        generate_clustered_network(n, 7 + n, clustered_options);

    DriftingDirectory::Options mild;
    mild.update_period_s = 0.5;
    mild.step_sigma = 0.4;
    DriftingDirectory::Options wild;
    wild.update_period_s = 0.25;
    wild.step_sigma = 1.5;
    wild.max_factor = 50.0;
    FaultPlan outage_plan;
    outage_plan.brownouts.push_back({0, 1, 0.05, 5.0, 0.02, true});
    outage_plan.brownouts.push_back({2, n - 1, 0.0, 2.0, 0.1, false});

    const MessageMatrix messages = uniform_messages(n, kMiB);
    const OpenShopScheduler openshop;
    const GreedyScheduler greedy;
    const MatchingScheduler matching{MatchingObjective::kMaxWeight};
    HierarchicalScheduler::Options hierarchical_options;
    hierarchical_options.inner = SchedulerKind::kGreedy;
    const HierarchicalScheduler hierarchical{detect_clusters(clustered),
                                             hierarchical_options};

    std::size_t strikes = 0;
    for (const bool on_clusters : {false, true}) {
      const NetworkModel& network = on_clusters ? clustered : flat;
      const StaticDirectory fixed{network};
      const DriftingDirectory drifting{network, 13, mild};
      const DriftingDirectory storm{network, 17, wild};
      const FaultyDirectory outage{fixed, outage_plan};
      const std::vector<const Scheduler*> schedulers =
          on_clusters ? std::vector<const Scheduler*>{&hierarchical}
                      : std::vector<const Scheduler*>{&openshop, &greedy,
                                                      &matching};
      for (const Scheduler* scheduler : schedulers) {
        for (const DirectoryService* directory :
             {static_cast<const DirectoryService*>(&fixed),
              static_cast<const DirectoryService*>(&drifting),
              static_cast<const DirectoryService*>(&storm),
              static_cast<const DirectoryService*>(&outage)}) {
          for (const CheckpointPolicy policy : kAllPolicies) {
            for (const double threshold : {0.0, 0.1, 0.5}) {
              SCOPED_TRACE(std::string(scheduler->name()) + " P=" +
                           std::to_string(n) + " policy " +
                           std::string(checkpoint_policy_name(policy)) +
                           " threshold " + std::to_string(threshold));
              ResilientOptions options;
              options.adaptive.policy = policy;
              options.adaptive.reschedule_threshold = threshold;
              EventTrace expected_trace;
              const ReferenceAdaptiveResult expected = reference_run_adaptive(
                  *scheduler, *directory, messages, options.adaptive,
                  &expected_trace);
              EventTrace actual_trace;
              const ResilientResult actual = run_resilient_traced(
                  *scheduler, *directory, messages, {}, options,
                  actual_trace);

              ASSERT_EQ(actual.events.size(), expected.events.size());
              for (std::size_t k = 0; k < expected.events.size(); ++k)
                EXPECT_EQ(actual.events[k], expected.events[k]);
              EXPECT_EQ(actual.completion_time, expected.completion_time);
              EXPECT_EQ(actual.reschedule_count, expected.reschedule_count);
              EXPECT_EQ(actual.failed_attempts, 0u);
              EXPECT_TRUE(actual.complete());
              for (const MessageOutcome& outcome : actual.outcomes)
                EXPECT_EQ(outcome.status, DeliveryStatus::kDirect);
              EXPECT_EQ(actual.health.quarantined_pair_count(), 0u);
              for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j)
                  if (i != j) strikes += actual.health.strikes(i, j);

              const std::vector<TraceEvent> expected_events =
                  recorded_events(expected_trace);
              const std::vector<TraceEvent> actual_events =
                  recorded_events(actual_trace);
              ASSERT_EQ(actual_events.size(), expected_events.size());
              for (std::size_t k = 0; k < expected_events.size(); ++k)
                EXPECT_EQ(actual_events[k], expected_events[k]);
            }
          }
        }
      }
    }
    EXPECT_GT(strikes, 0u) << "no deviation strike fired at P=" << n;
  }
}

TEST(Resilient, CrashStopAndCutLinkExchangeStillCompletes) {
  // The headline scenario: one node dead from the start, one pair cut for
  // the whole run. The exchange must terminate (not hang), report
  // messages touching the dead node undeliverable, and deliver the cut
  // pair's messages through a relay.
  const std::size_t n = 6;
  const StaticDirectory directory{generate_network(n, 33)};
  const MessageMatrix messages = uniform_messages(n, 64 * kKiB);
  const OpenShopScheduler scheduler;

  FaultPlan plan;
  plan.crashes.push_back({5, 0.0});
  plan.cuts.push_back({0, 1, 0.0, 1e9});

  ResilientOptions options;
  options.adaptive.policy = CheckpointPolicy::kHalveRemaining;
  const ResilientResult result =
      run_resilient(scheduler, directory, messages, plan, options);

  EXPECT_EQ(result.outcomes.size(), n * (n - 1));
  EXPECT_FALSE(result.complete());
  check_no_port_overlap(result.events, n);

  // Every pair touching the dead node: undeliverable, endpoint-crashed.
  for (std::size_t p = 0; p < n - 1; ++p) {
    for (const auto& outcome : {outcome_of(result, 5, p), outcome_of(result, p, 5)}) {
      EXPECT_EQ(outcome.status, DeliveryStatus::kUndeliverable);
      EXPECT_EQ(outcome.reason, FailureReason::kEndpointCrashed);
    }
  }
  EXPECT_EQ(result.undelivered_count, 2 * (n - 1));

  // The dead node never moves a byte.
  for (const ScheduledEvent& event : result.events) {
    EXPECT_NE(event.src, 5u);
    EXPECT_NE(event.dst, 5u);
  }

  // The cut pair's messages arrive via a relay through a live intermediate.
  for (const auto& outcome : {outcome_of(result, 0, 1), outcome_of(result, 1, 0)}) {
    EXPECT_EQ(outcome.status, DeliveryStatus::kRelayed);
    ASSERT_FALSE(outcome.via.empty());
    for (const std::size_t hop : outcome.via) EXPECT_NE(hop, 5u);
  }
  EXPECT_EQ(result.relayed_count, 2u);
  EXPECT_GT(result.failed_attempts, 0u);

  // Everything else went direct.
  for (const MessageOutcome& outcome : result.outcomes) {
    if (outcome.src != 5 && outcome.dst != 5 &&
        !(outcome.src == 0 && outcome.dst == 1) &&
        !(outcome.src == 1 && outcome.dst == 0)) {
      EXPECT_EQ(outcome.status, DeliveryStatus::kDirect);
    }
  }
}

TEST(Resilient, QuarantinedPairVanishesFromDirectSchedules) {
  // A persistently lossy pair exhausts its retries, gets quarantined by
  // the health monitor, and its traffic moves to relays: no executed
  // event may use the sick pair in either direction afterwards.
  const std::size_t n = 5;
  const StaticDirectory directory{generate_network(n, 34)};
  const MessageMatrix messages = uniform_messages(n, 64 * kKiB);
  const OpenShopScheduler scheduler;

  FaultPlan plan;
  plan.flaky.push_back({2, 3, 0.999});
  plan.seed = 5;

  ResilientOptions options;
  options.adaptive.policy = CheckpointPolicy::kEveryEvent;
  const ResilientResult result =
      run_resilient(scheduler, directory, messages, plan, options);

  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(result.health.quarantined(2, 3));
  check_no_port_overlap(result.events, n);

  for (const ScheduledEvent& event : result.events) {
    EXPECT_FALSE(event.src == 2 && event.dst == 3)
        << "quarantined pair scheduled directly";
    EXPECT_FALSE(event.src == 3 && event.dst == 2)
        << "quarantined pair scheduled directly";
  }
  for (const auto& outcome : {outcome_of(result, 2, 3), outcome_of(result, 3, 2)}) {
    EXPECT_EQ(outcome.status, DeliveryStatus::kRelayed);
    EXPECT_FALSE(outcome.via.empty());
  }
  EXPECT_GE(result.relayed_count, 2u);
}

TEST(Resilient, RetryAfterCutClearsDeliversDirectly) {
  // On a 2-node network there is nowhere to relay through: a short cut
  // must be survived by backoff and retry alone.
  const StaticDirectory directory{generate_network(2, 35)};
  const MessageMatrix messages = uniform_messages(2, kKiB);
  const OpenShopScheduler scheduler;

  FaultPlan plan;
  plan.cuts.push_back({0, 1, 0.0, 0.5});

  ResilientOptions options;
  options.backoff_base_s = 1.0;
  const ResilientResult result =
      run_resilient(scheduler, directory, messages, plan, options);

  EXPECT_TRUE(result.complete());
  EXPECT_GT(result.failed_attempts, 0u);
  for (const MessageOutcome& outcome : result.outcomes)
    EXPECT_EQ(outcome.status, DeliveryStatus::kDirect);
}

TEST(Resilient, NoRouteIsReportedWhenRelayingIsImpossible) {
  // Node 0 is cut off from everyone for the whole run; its messages have
  // no direct link and no relay path.
  const std::size_t n = 3;
  const StaticDirectory directory{generate_network(n, 36)};
  const MessageMatrix messages = uniform_messages(n, kKiB);
  const OpenShopScheduler scheduler;

  FaultPlan plan;
  plan.cuts.push_back({0, 1, 0.0, 1e9});
  plan.cuts.push_back({0, 2, 0.0, 1e9});

  const ResilientResult result =
      run_resilient(scheduler, directory, messages, plan, {});

  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.undelivered_count, 4u);
  for (const auto& pair : {std::pair<std::size_t, std::size_t>{0, 1},
                           {0, 2}, {1, 0}, {2, 0}}) {
    const MessageOutcome& outcome = outcome_of(result, pair.first, pair.second);
    EXPECT_EQ(outcome.status, DeliveryStatus::kUndeliverable);
    EXPECT_EQ(outcome.reason, FailureReason::kNoRoute);
  }
  EXPECT_EQ(outcome_of(result, 1, 2).status, DeliveryStatus::kDirect);
  EXPECT_EQ(outcome_of(result, 2, 1).status, DeliveryStatus::kDirect);
}

TEST(Resilient, RelayDisabledReportsRetriesExhausted) {
  const std::size_t n = 5;
  const StaticDirectory directory{generate_network(n, 34)};
  const MessageMatrix messages = uniform_messages(n, 64 * kKiB);
  const OpenShopScheduler scheduler;

  FaultPlan plan;
  plan.flaky.push_back({2, 3, 0.999});
  plan.seed = 5;

  ResilientOptions options;
  options.relay = false;
  const ResilientResult result =
      run_resilient(scheduler, directory, messages, plan, options);

  EXPECT_FALSE(result.complete());
  EXPECT_EQ(outcome_of(result, 2, 3).reason, FailureReason::kRetriesExhausted);
  EXPECT_EQ(result.relayed_count, 0u);
}

TEST(Resilient, WorksWithMatchingSchedulers) {
  // Non-availability-aware schedulers go through the plain schedule()
  // path; the fault machinery must compose with them too.
  const std::size_t n = 5;
  const StaticDirectory directory{generate_network(n, 37)};
  const MessageMatrix messages = uniform_messages(n, 64 * kKiB);
  const MatchingScheduler scheduler{MatchingObjective::kMaxWeight};

  FaultPlan plan;
  plan.crashes.push_back({4, 0.0});
  plan.cuts.push_back({0, 1, 0.0, 1e9});

  const ResilientResult result =
      run_resilient(scheduler, directory, messages, plan, {});
  EXPECT_EQ(result.undelivered_count, 2 * (n - 1));
  EXPECT_EQ(outcome_of(result, 0, 1).status, DeliveryStatus::kRelayed);
  check_no_port_overlap(result.events, n);
}

TEST(Resilient, OptionValidation) {
  const StaticDirectory directory{generate_network(3, 38)};
  const MessageMatrix messages = uniform_messages(3, kKiB);
  const OpenShopScheduler scheduler;

  {
    ResilientOptions options;
    options.timeout_slack = 0.5;
    EXPECT_THROW(
        (void)run_resilient(scheduler, directory, messages, {}, options),
        InputError);
  }
  {
    ResilientOptions options;
    options.max_attempts = 0;
    EXPECT_THROW(
        (void)run_resilient(scheduler, directory, messages, {}, options),
        InputError);
  }
  {
    ResilientOptions options;
    options.adaptive.reschedule_threshold = -1.0;
    EXPECT_THROW(
        (void)run_resilient(scheduler, directory, messages, {}, options),
        InputError);
  }
  {
    FaultPlan plan;
    plan.crashes.push_back({7, 0.0});
    EXPECT_THROW((void)run_resilient(scheduler, directory, messages, plan, {}),
                 InputError);
  }
}

TEST(Resilient, NamesAreStable) {
  EXPECT_EQ(delivery_status_name(DeliveryStatus::kDirect), "direct");
  EXPECT_EQ(delivery_status_name(DeliveryStatus::kRelayed), "relayed");
  EXPECT_EQ(delivery_status_name(DeliveryStatus::kUndeliverable),
            "undeliverable");
  EXPECT_EQ(failure_reason_name(FailureReason::kNone), "none");
  EXPECT_EQ(failure_reason_name(FailureReason::kEndpointCrashed),
            "endpoint-crashed");
  EXPECT_EQ(failure_reason_name(FailureReason::kNoRoute), "no-route");
  EXPECT_EQ(failure_reason_name(FailureReason::kRetriesExhausted),
            "retries-exhausted");
}

// ---------------------------------------------------------------------------
// Online re-planning
// ---------------------------------------------------------------------------

TEST(Resilient, ReplanOptionValidation) {
  const StaticDirectory directory{generate_network(3, 38)};
  const MessageMatrix messages = uniform_messages(3, kKiB);
  const OpenShopScheduler scheduler;

  {
    ResilientOptions options;
    options.replan.enabled = true;
    options.replan.trigger_failures = 0;
    EXPECT_THROW(
        (void)run_resilient(scheduler, directory, messages, {}, options),
        InputError);
  }
  {
    ResilientOptions options;
    options.replan.backoff_base_s = -1.0;
    EXPECT_THROW(
        (void)run_resilient(scheduler, directory, messages, {}, options),
        InputError);
  }
  {
    ResilientOptions options;
    options.replan.backoff_factor = 0.5;
    EXPECT_THROW(
        (void)run_resilient(scheduler, directory, messages, {}, options),
        InputError);
  }
}

TEST(Resilient, ReplanIdleOnHealthyRuns) {
  // With nothing failing, enabling replan must not perturb a single
  // double: the trigger never fires, so the executed events are
  // bit-identical to the replan-disabled run.
  const std::size_t n = 6;
  const StaticDirectory directory{generate_network(n, 31)};
  const MessageMatrix messages = uniform_messages(n, kMiB);
  const OpenShopScheduler scheduler;

  ResilientOptions off;
  ResilientOptions on;
  on.replan.enabled = true;
  const ResilientResult a = run_resilient(scheduler, directory, messages, {}, off);
  const ResilientResult b = run_resilient(scheduler, directory, messages, {}, on);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t k = 0; k < a.events.size(); ++k)
    EXPECT_EQ(a.events[k], b.events[k]);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(b.replan_count, 0u);
  EXPECT_EQ(b.rescued_count, 0u);
}

TEST(Resilient, ReplanRescuesCrashRestartTraffic) {
  // The self-healing headline (ISSUE 7 acceptance): P = 64, two nodes in
  // crash-restart windows plus a bandwidth brownout, hierarchical(greedy)
  // plan. Relay-only gives up on traffic whose endpoint is down right
  // now; the replan path defers it, concedes backoff wall-clock until the
  // recovery windows pass, and delivers it directly — strictly more
  // messages than relay-only, with the rescue visible in the trace, the
  // outcomes, and the metrics.
  const std::size_t n = 64;
  const ProblemInstance instance =
      make_instance(Scenario::kMixedMessages, n, 7, 4);
  const StaticDirectory directory{instance.network};
  const HierarchicalScheduler scheduler{detect_clusters(instance.network),
                                        {SchedulerKind::kGreedy, 0}};

  FaultPlan plan;
  plan.seed = 42;
  plan.restarts.push_back({3, 10.0, 500.0});
  plan.restarts.push_back({11, 10.0, 500.0});
  plan.brownouts.push_back({5, 20, 0.0, 300.0, 0.25, true});

  ResilientOptions relay_only;
  ResilientOptions with_replan;
  with_replan.replan.enabled = true;
  with_replan.replan.max_replans = 6;
  with_replan.replan.backoff_base_s = 60.0;

  const ResilientResult a =
      run_resilient(scheduler, directory, instance.messages, plan, relay_only);
  EventTrace trace{1 << 20};
  const ResilientResult b = run_resilient_traced(
      scheduler, directory, instance.messages, plan, with_replan, trace);

  EXPECT_EQ(a.outcomes.size(), n * (n - 1));
  EXPECT_EQ(b.outcomes.size(), n * (n - 1));
  check_no_port_overlap(b.events, n);

  // Strictly more delivered than relay-only, and the saves are counted.
  EXPECT_LT(b.undelivered_count, a.undelivered_count);
  EXPECT_GT(b.rescued_count, 0u);
  EXPECT_GT(b.replan_count, 0u);
  EXPECT_LE(b.replan_count, with_replan.replan.max_replans)
      << "replan budget must be respected";

  // Outcome flags agree with the aggregate counter.
  std::size_t rescued_flags = 0;
  for (const MessageOutcome& outcome : b.outcomes)
    if (outcome.rescued) {
      ++rescued_flags;
      EXPECT_NE(outcome.status, DeliveryStatus::kUndeliverable);
    }
  EXPECT_EQ(rescued_flags, b.rescued_count);

  // Replan rounds are visible in the trace, and the committed history
  // still replays cleanly through the auditor.
  std::size_t replan_events = 0;
  trace.for_each([&](const TraceEvent& event) {
    if (event.kind == TraceEventKind::kReplan) ++replan_events;
  });
  EXPECT_EQ(replan_events, b.replan_count);
  EXPECT_EQ(trace.dropped(), 0u);
  const AuditReport report = ScheduleAuditor{}.audit(trace);
  EXPECT_TRUE(report.ok()) << report.summary();

  // Metrics: the self-healing totals land in the registry.
  MetricsRegistry metrics;
  record_metrics(b, a.completion_time, metrics);
  EXPECT_EQ(metrics.counter("resilient.replan_count").value(), b.replan_count);
  EXPECT_EQ(metrics.counter("resilient.messages_rescued").value(),
            b.rescued_count);
  EXPECT_GT(metrics.gauge("resilient.degraded_makespan_ratio").value(), 0.0);
}

// ---------------------------------------------------------------------------
// Property: no executor emits overlapping port intervals under faults.
// ---------------------------------------------------------------------------

TEST(FaultProperty, AdaptiveUnderOutagesNeverOverlapsPorts) {
  const std::size_t n = 6;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    DriftingDirectory::Options drift;
    drift.update_period_s = 0.5;
    drift.step_sigma = 0.3;
    const DriftingDirectory base{generate_network(n, seed), seed, drift};
    FaultPlan outages;
    outages.brownouts = {{0, 1, 0.2, 1.5, 0.02},
                         {2, 3, 0.0, 0.8, 0.05},
                         {1, 4, 0.5, 2.0, 0.1}};
    const FaultyDirectory directory{base, outages};
    const MessageMatrix messages = uniform_messages(n, 256 * kKiB);
    const OpenShopScheduler scheduler;
    for (const CheckpointPolicy policy : kAllPolicies) {
      ResilientOptions options;
      options.adaptive.policy = policy;
      const ResilientResult result =
          run_resilient(scheduler, directory, messages, {}, options);
      check_no_port_overlap(result.events, n);
      EXPECT_EQ(result.events.size(), n * (n - 1));
    }
  }
}

TEST(FaultProperty, AdaptiveUnderFaultyDirectoryNeverOverlapsPorts) {
  // As the live directory of a run with no fault plan, a FaultyDirectory
  // is a very slow network: cut pairs crawl instead of erroring, but port
  // exclusivity must hold.
  const std::size_t n = 5;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const StaticDirectory base{generate_network(n, seed)};
    FaultPlan plan;
    plan.cuts.push_back({0, 1, 0.0, 2.0});
    plan.cuts.push_back({static_cast<std::size_t>(seed % n),
                         static_cast<std::size_t>((seed + 2) % n), 0.5, 3.0});
    if (plan.cuts.back().src == plan.cuts.back().dst) plan.cuts.pop_back();
    const FaultyDirectory directory{base, plan};
    const MessageMatrix messages = uniform_messages(n, kKiB);
    const OpenShopScheduler scheduler;
    for (const CheckpointPolicy policy : kAllPolicies) {
      ResilientOptions options;
      options.adaptive.policy = policy;
      const ResilientResult result =
          run_resilient(scheduler, directory, messages, {}, options);
      check_no_port_overlap(result.events, n);
      EXPECT_EQ(result.events.size(), n * (n - 1));
    }
  }
}

TEST(FaultProperty, ResilientUnderMixedFaultsNeverOverlapsPorts) {
  const std::size_t n = 6;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const StaticDirectory directory{generate_network(n, 40 + seed)};
    const MessageMatrix messages = uniform_messages(n, 64 * kKiB);
    const OpenShopScheduler scheduler;

    FaultPlan plan;
    plan.crashes.push_back({n - 1, 0.1 * static_cast<double>(seed)});
    plan.cuts.push_back({0, 1, 0.0, 1e9});
    plan.flaky.push_back({2, 3, 0.7});
    plan.transient_loss_prob = 0.05;
    plan.seed = seed;

    for (const CheckpointPolicy policy : kAllPolicies) {
      ResilientOptions options;
      options.adaptive.policy = policy;
      const ResilientResult result =
          run_resilient(scheduler, directory, messages, plan, options);
      EXPECT_EQ(result.outcomes.size(), n * (n - 1));
      check_no_port_overlap(result.events, n);
    }
  }
}

}  // namespace
}  // namespace hcs
