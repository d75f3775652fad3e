// Differential fuzz harness (ISSUE 4, satellite 1): random scenarios,
// every paper scheduler, every receive model — the production simulator
// and the retained naive reference must agree on the completion time
// exactly, and the recorded event trace must replay cleanly through the
// ScheduleAuditor. Two independent implementations agreeing bit-for-bit
// on thousands of random instances, with a third (the auditor) checking
// the model invariants on what executed, is the strongest cheap evidence
// the simulator core is right.
//
// 200 deterministic seeds by default; set HCS_FUZZ_SEEDS to raise or
// lower the count (CI's sanitizer lane runs a fixed block).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "core/hierarchical_scheduler.hpp"
#include "core/scheduler.hpp"
#include "fault/resilient.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "oracles/reference_simulator.hpp"
#include "sim/send_program.hpp"
#include "sim/simulator.hpp"
#include "trace/auditor.hpp"
#include "workload/generators.hpp"

namespace hcs {
namespace {

// Processor counts the seeds cycle through (spec: P in 2..24).
constexpr std::size_t kProcCounts[] = {2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24};

std::uint64_t seed_count() {
  if (const char* env = std::getenv("HCS_FUZZ_SEEDS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::uint64_t>(parsed);
  }
  return 200;
}

SimOptions options_for(ReceiveModel model, std::uint64_t seed) {
  SimOptions options;
  options.model = model;
  if (model == ReceiveModel::kInterleaved)
    options.alpha = 0.1 * static_cast<double>(seed % 4);  // 0, .1, .2, .3
  if (model == ReceiveModel::kBuffered) {
    options.buffer_capacity = 1 + seed % 3;
    options.drain_factor = (seed % 2 == 0) ? 1.0 : 0.5;
  }
  return options;
}

TEST(DifferentialFuzz, SimulatorsAgreeAndTracesAuditClean) {
  constexpr ReceiveModel kModels[] = {ReceiveModel::kSerialized,
                                      ReceiveModel::kInterleaved,
                                      ReceiveModel::kBuffered};
  const std::uint64_t seeds = seed_count();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    const NetworkModel network = generate_network(n, seed);
    const MessageMatrix messages =
        mixed_messages(n, seed, {1024, 1024 * 1024});
    const StaticDirectory directory{network};
    const NetworkSimulator simulator{directory, messages};
    const CommMatrix comm{network, messages};

    for (const SchedulerKind kind : paper_schedulers()) {
      const Schedule schedule = make_scheduler(kind, seed)->schedule(comm);
      const SendProgram program = SendProgram::from_schedule(schedule);

      for (const ReceiveModel model : kModels) {
        const SimOptions options = options_for(model, seed);
        const std::string label =
            "seed=" + std::to_string(seed) + " P=" + std::to_string(n) +
            " " + std::string(scheduler_name(kind)) + " model=" +
            std::to_string(static_cast<int>(model));

        EventTrace trace;
        SimWorkspace workspace;
        SimResult fast;
        simulator.run_into_traced(program, options, workspace, fast, trace);
        const SimResult ref =
            run_reference(directory, messages, program, options);
        ASSERT_EQ(fast.completion_time, ref.completion_time) << label;
        ASSERT_EQ(fast.events.size(), ref.events.size()) << label;
        ASSERT_EQ(fast.total_sender_wait_s, ref.total_sender_wait_s) << label;

        AuditOptions audit_options;
        audit_options.serialized_receives =
            model == ReceiveModel::kSerialized;
        const AuditReport report = ScheduleAuditor{audit_options}.audit(
            trace, fast.completion_time);
        ASSERT_TRUE(report.ok()) << label << " audit:\n" << report.summary();
        ASSERT_EQ(report.transfers, fast.events.size()) << label;
      }
    }
  }
}

// Hierarchical schedules on clustered instances (ISSUE 6, satellite 4):
// the spliced schedule must drive both simulators to bit-identical
// results and replay cleanly through the auditor, exactly like the flat
// schedulers above. Detection runs per instance, so the fuzz also covers
// whatever cluster shapes the family + detector actually produce.
TEST(DifferentialFuzz, HierarchicalSchedulesAgreeAndAuditClean) {
  const std::uint64_t seeds = std::min<std::uint64_t>(seed_count(), 100);
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    ClusteredNetworkOptions family;
    family.cluster_count = 2 + seed % 4;
    if (family.cluster_count > n) family.cluster_count = n;
    const NetworkModel network = generate_clustered_network(n, seed, family);
    const MessageMatrix messages =
        mixed_messages(n, seed, {1024, 1024 * 1024});
    const StaticDirectory directory{network};
    const NetworkSimulator simulator{directory, messages};
    const CommMatrix comm{network, messages};

    HierarchicalScheduler::Options options;
    options.inner = paper_schedulers()[seed % paper_schedulers().size()];
    options.seed = seed;
    const HierarchicalScheduler scheduler{detect_clusters(network), options};
    const Schedule schedule = scheduler.schedule(comm);
    schedule.validate(comm);
    const SendProgram program = SendProgram::from_schedule(schedule);

    const std::string label = "seed=" + std::to_string(seed) +
                              " P=" + std::to_string(n) + " " +
                              std::string(scheduler.name());
    const SimOptions sim_options = options_for(ReceiveModel::kSerialized,
                                               seed);
    EventTrace trace;
    SimWorkspace workspace;
    SimResult fast;
    simulator.run_into_traced(program, sim_options, workspace, fast, trace);
    const SimResult ref = run_reference(directory, messages, program,
                                        sim_options);
    ASSERT_EQ(fast.completion_time, ref.completion_time) << label;
    ASSERT_EQ(fast.events.size(), ref.events.size()) << label;

    AuditOptions audit_options;
    audit_options.serialized_receives = true;
    const AuditReport report =
        ScheduleAuditor{audit_options}.audit(trace, fast.completion_time);
    ASSERT_TRUE(report.ok()) << label << " audit:\n" << report.summary();
    ASSERT_EQ(report.transfers, fast.events.size()) << label;
  }
}

// Self-healing execution under dynamic faults (ISSUE 7, satellite 3):
// hierarchical(inner) plans driven by the resilient executor with online
// re-planning enabled, against plans mixing crash-stop, crash-restart,
// and bandwidth brownouts. Whatever the scenario, the committed history
// must replay cleanly through the auditor (no port overlap, no physics
// violation) and every one of the P(P-1) messages must be accounted for
// with a consistent outcome.
TEST(DifferentialFuzz, SelfHealingHierarchicalRunsAuditCleanUnderDynamicFaults) {
  const std::uint64_t seeds = std::min<std::uint64_t>(seed_count(), 100);
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    ClusteredNetworkOptions family;
    family.cluster_count = std::min<std::size_t>(2 + seed % 3, n);
    const NetworkModel network = generate_clustered_network(n, seed, family);
    const MessageMatrix messages =
        mixed_messages(n, seed, {1024, 256 * 1024});
    const StaticDirectory directory{network};

    HierarchicalScheduler::Options options;
    options.inner = paper_schedulers()[seed % paper_schedulers().size()];
    options.seed = seed;
    const HierarchicalScheduler scheduler{detect_clusters(network), options};

    // Horizon-scaled dynamic faults, varied by seed: a crash-restart
    // window on node 0, a brownout, for larger instances a second
    // restart, and every third seed a crash-stop on the last node.
    const double horizon =
        scheduler.schedule(CommMatrix{network, messages}).completion_time();
    FaultPlan plan;
    plan.seed = seed;
    plan.restarts.push_back({0, 0.1 * horizon, 0.5 * horizon});
    if (n >= 6) plan.restarts.push_back({1, 0.2 * horizon, 0.6 * horizon});
    plan.brownouts.push_back({n - 1, n - 2, 0.0, 0.7 * horizon,
                              0.2 + 0.1 * static_cast<double>(seed % 5),
                              true});
    if (seed % 3 == 0 && n >= 4)
      plan.crashes.push_back({n - 1, 0.3 * horizon});
    if (seed % 4 == 1 && n >= 4)
      plan.flapping.push_back({n - 2, 0, 0.0, horizon,
                               std::max(horizon / 6.0, 1e-9), 0.3, true});
    plan.validate(n);

    ResilientOptions resilient;
    resilient.replan.enabled = true;
    resilient.replan.max_replans = 3;
    resilient.replan.backoff_base_s = 0.15 * horizon;

    EventTrace trace{1 << 18};
    const ResilientResult result = run_resilient_traced(
        scheduler, directory, messages, plan, resilient, trace);

    const std::string label = "seed=" + std::to_string(seed) +
                              " P=" + std::to_string(n) + " " +
                              std::string(scheduler.name());

    // Every message accounted for, exactly once, with consistent totals.
    ASSERT_EQ(result.outcomes.size(), n * (n - 1)) << label;
    std::size_t relayed = 0, undelivered = 0, rescued = 0;
    std::vector<char> seen(n * n, 0);
    for (const MessageOutcome& outcome : result.outcomes) {
      ASSERT_LT(outcome.src, n) << label;
      ASSERT_LT(outcome.dst, n) << label;
      ASSERT_NE(outcome.src, outcome.dst) << label;
      ASSERT_EQ(seen[outcome.src * n + outcome.dst], 0) << label;
      seen[outcome.src * n + outcome.dst] = 1;
      if (outcome.status == DeliveryStatus::kRelayed) ++relayed;
      if (outcome.status == DeliveryStatus::kUndeliverable) ++undelivered;
      if (outcome.rescued) ++rescued;
      ASSERT_EQ(outcome.status == DeliveryStatus::kUndeliverable,
                outcome.reason != FailureReason::kNone)
          << label;
    }
    ASSERT_EQ(relayed, result.relayed_count) << label;
    ASSERT_EQ(undelivered, result.undelivered_count) << label;
    ASSERT_EQ(rescued, result.rescued_count) << label;
    ASSERT_LE(result.replan_count, resilient.replan.max_replans) << label;

    // The committed history obeys the model invariants: the auditor
    // checks port exclusivity and event physics over the full trace,
    // relay hops and degraded rounds included.
    ASSERT_EQ(trace.dropped(), 0u) << label;
    const AuditReport report = ScheduleAuditor{}.audit(trace);
    ASSERT_TRUE(report.ok()) << label << " audit:\n" << report.summary();
  }
}

}  // namespace
}  // namespace hcs
