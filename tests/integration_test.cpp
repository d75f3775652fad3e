// End-to-end integration tests: the qualitative claims of the paper's §5
// must hold when the whole pipeline — network generation, workloads,
// scheduling, validation, aggregation — runs together. Thresholds carry
// slack over the paper's exact percentages (our random networks are
// regenerated, not the authors'), but the ordering and rough magnitudes
// are asserted strictly.
#include <gtest/gtest.h>

#include <map>

#include "adaptive/checkpoint.hpp"
#include "adaptive/incremental.hpp"
#include "core/baseline.hpp"
#include "core/matching_scheduler.hpp"
#include "core/openshop_scheduler.hpp"
#include "fault/resilient.hpp"
#include "experiment/experiment.hpp"
#include "netmodel/generator.hpp"
#include "qos/qos_scheduler.hpp"
#include "sim/simulator.hpp"

namespace hcs {
namespace {

/// Shared sweep per scenario (computed once; experiments are deterministic).
const ExperimentResult& sweep(Scenario scenario) {
  static std::map<Scenario, ExperimentResult> cache;
  auto it = cache.find(scenario);
  if (it == cache.end()) {
    ExperimentConfig config;
    config.scenario = scenario;
    config.processor_counts = {10, 20, 30, 40, 50};
    config.repetitions = 8;
    config.base_seed = 20260706;
    config.schedulers = paper_schedulers();
    config.schedulers.push_back(SchedulerKind::kBaselineBarrier);
    it = cache.emplace(scenario, run_experiment(config)).first;
  }
  return it->second;
}

const SchedulerSeries& series_of(const ExperimentResult& result,
                                 SchedulerKind kind) {
  for (const SchedulerSeries& series : result.series)
    if (series.kind == kind) return series;
  throw std::logic_error("series not found");
}

/// Paper claim: "The open shop algorithm finds schedules that are very
/// close to the lower bound, often within 2%, and always within 10%."
TEST(FigureShapes, OpenShopStaysNearLowerBoundOnAllScenarios) {
  for (const Scenario scenario :
       {Scenario::kSmallMessages, Scenario::kLargeMessages,
        Scenario::kMixedMessages, Scenario::kServers}) {
    const auto& openshop = series_of(sweep(scenario), SchedulerKind::kOpenShop);
    for (std::size_t p = 0; p < openshop.mean_ratio_to_lb.size(); ++p) {
      EXPECT_LE(openshop.mean_ratio_to_lb[p], 1.15)
          << scenario_name(scenario) << " at index " << p;
      EXPECT_LE(openshop.max_ratio_to_lb[p], 2.0);  // Theorem 3, always
    }
  }
}

/// Paper claim: matchings within ~15% of the lower bound.
TEST(FigureShapes, MatchingsStayWithinRoughlyFifteenPercent) {
  for (const Scenario scenario :
       {Scenario::kSmallMessages, Scenario::kLargeMessages,
        Scenario::kMixedMessages, Scenario::kServers}) {
    for (const SchedulerKind kind :
         {SchedulerKind::kMaxMatching, SchedulerKind::kMinMatching}) {
      const auto& matching = series_of(sweep(scenario), kind);
      for (const double ratio : matching.mean_ratio_to_lb)
        EXPECT_LE(ratio, 1.20) << scenario_name(scenario);
    }
  }
}

/// Paper claim: greedy within ~25%; worse than matchings but far better
/// than the baseline at scale.
TEST(FigureShapes, GreedySitsBetweenMatchingAndBaseline) {
  for (const Scenario scenario :
       {Scenario::kLargeMessages, Scenario::kMixedMessages}) {
    const ExperimentResult& result = sweep(scenario);
    const auto& greedy = series_of(result, SchedulerKind::kGreedy);
    const auto& baseline = series_of(result, SchedulerKind::kBaseline);
    // Compare at the largest processor counts, where the gap is stable.
    for (std::size_t p = 2; p < greedy.mean_ratio_to_lb.size(); ++p) {
      EXPECT_LE(greedy.mean_ratio_to_lb[p], 1.40) << scenario_name(scenario);
      EXPECT_LE(greedy.mean_ratio_to_lb[p], baseline.mean_ratio_to_lb[p])
          << scenario_name(scenario);
    }
  }
}

/// Paper claim: the baseline is the worst algorithm and its gap grows
/// with P; the adaptive algorithms beat it on every scenario at scale.
TEST(FigureShapes, BaselineIsWorstAtScaleOnEveryScenario) {
  for (const Scenario scenario :
       {Scenario::kSmallMessages, Scenario::kLargeMessages,
        Scenario::kMixedMessages, Scenario::kServers}) {
    const ExperimentResult& result = sweep(scenario);
    const double baseline =
        series_of(result, SchedulerKind::kBaseline).mean_ratio_to_lb.back();
    for (const SchedulerKind kind :
         {SchedulerKind::kMaxMatching, SchedulerKind::kMinMatching,
          SchedulerKind::kGreedy, SchedulerKind::kOpenShop}) {
      EXPECT_LE(series_of(result, kind).mean_ratio_to_lb.back(), baseline)
          << scenario_name(scenario) << " vs " << scheduler_name(kind);
    }
  }
}

/// Paper claim (abstract): "performance improvements of a factor of 5
/// over well known homogeneous scheduling techniques", with 2–5x on the
/// server scenario. The homogeneous technique as actually deployed is
/// step-synchronized; measure the barrier baseline against open shop.
TEST(FigureShapes, BarrierBaselineLosesByLargeFactorsAtScale) {
  const ExperimentResult& mixed = sweep(Scenario::kMixedMessages);
  const double barrier_mixed =
      series_of(mixed, SchedulerKind::kBaselineBarrier).mean_ratio_to_lb.back();
  const double openshop_mixed =
      series_of(mixed, SchedulerKind::kOpenShop).mean_ratio_to_lb.back();
  EXPECT_GE(barrier_mixed / openshop_mixed, 2.5);

  const ExperimentResult& servers = sweep(Scenario::kServers);
  const double barrier_servers =
      series_of(servers, SchedulerKind::kBaselineBarrier)
          .mean_ratio_to_lb.back();
  const double openshop_servers =
      series_of(servers, SchedulerKind::kOpenShop).mean_ratio_to_lb.back();
  EXPECT_GE(barrier_servers / openshop_servers, 2.0);
}

/// Paper claim: the async baseline's gap grows with P (Figure trend).
TEST(FigureShapes, BaselineGapGrowsWithProcessorCount) {
  const auto& baseline =
      series_of(sweep(Scenario::kMixedMessages), SchedulerKind::kBaseline);
  EXPECT_GT(baseline.mean_ratio_to_lb.back(),
            baseline.mean_ratio_to_lb.front());
}

/// Open shop dominates on the server scenario (it is essentially optimal
/// there: the client small-message phase hides behind the server sends).
TEST(FigureShapes, OpenShopNearOptimalOnServerScenario) {
  const auto& openshop =
      series_of(sweep(Scenario::kServers), SchedulerKind::kOpenShop);
  for (const double ratio : openshop.mean_ratio_to_lb) EXPECT_LE(ratio, 1.02);
}

// ---------------------------------------------------------------------------
// Cross-module pipelines
// ---------------------------------------------------------------------------

/// Plan with every scheduler, execute in the simulator on the same static
/// network: simulated completion must equal planned completion.
TEST(Pipeline, PlannedTimesSurviveSimulation) {
  const std::size_t n = 10;
  const ProblemInstance instance = make_instance(Scenario::kMixedMessages, n, 5);
  const CommMatrix comm{instance.network, instance.messages};
  const StaticDirectory directory{instance.network};
  const NetworkSimulator simulator{directory, instance.messages};
  for (const SchedulerKind kind : paper_schedulers()) {
    const Schedule planned = make_scheduler(kind)->schedule(comm);
    const SimResult simulated =
        simulator.run(SendProgram::from_schedule(planned));
    EXPECT_NEAR(simulated.completion_time, planned.completion_time(),
                1e-6 * planned.completion_time())
        << scheduler_name(kind);
  }
}

/// §6.3's premise: when the network changes mid-exchange, re-planning the
/// remaining events from fresh directory information helps. Model a
/// regime switch (an independent network draw takes effect at half the
/// initial lower bound) with the duration-aware matching scheduler:
/// fine-grained adaptation beats schedule-once, and coarse halving
/// checkpoints stay close (their single replan can land awkwardly against
/// in-flight port availabilities — re-planning is order-only).
TEST(Pipeline, CheckpointAdaptationHelpsUnderRegimeSwitch) {
  const std::size_t n = 8;
  double never_total = 0.0, halve_total = 0.0, every_total = 0.0;
  const MatchingScheduler scheduler{MatchingObjective::kMaxWeight};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const NetworkModel before = generate_network(n, seed);
    const NetworkModel after = generate_network(n, seed + 500);
    const MessageMatrix messages = uniform_messages(n, 4 * kMiB);
    const double switch_time = CommMatrix(before, messages).lower_bound() * 0.5;
    std::map<double, NetworkModel> trace;
    trace.emplace(0.0, before);
    trace.emplace(switch_time, after);
    const TraceDirectory directory{std::move(trace)};

    ResilientOptions options;
    const auto completion = [&](CheckpointPolicy policy) {
      options.adaptive.policy = policy;
      return run_resilient(scheduler, directory, messages, {}, options)
          .completion_time;
    };
    never_total += completion(CheckpointPolicy::kNever);
    halve_total += completion(CheckpointPolicy::kHalveRemaining);
    every_total += completion(CheckpointPolicy::kEveryEvent);
  }
  EXPECT_LT(every_total, never_total);
  EXPECT_LE(halve_total, never_total * 1.05);
}

/// Incremental refinement of a stale matching schedule recovers most of
/// the gap to a fresh matching run, at far lower cost (§6.2's premise).
TEST(Pipeline, IncrementalRefinementRecoversFromStaleness) {
  const std::size_t n = 10;
  double stale_total = 0.0, refined_total = 0.0, fresh_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ProblemInstance old_instance =
        make_instance(Scenario::kMixedMessages, n, seed);
    const ProblemInstance new_instance =
        make_instance(Scenario::kMixedMessages, n, seed + 1000);
    const CommMatrix old_comm{old_instance.network, old_instance.messages};
    const CommMatrix new_comm{new_instance.network, new_instance.messages};

    const StepSchedule stale =
        matching_steps(old_comm, MatchingObjective::kMaxWeight);
    stale_total += execute_async(stale, new_comm).completion_time();
    refined_total += refine_schedule(stale, new_comm).completion_time;
    fresh_total +=
        execute_async(matching_steps(new_comm, MatchingObjective::kMaxWeight),
                      new_comm)
            .completion_time();
  }
  EXPECT_LE(refined_total, stale_total);
  // Refinement closes a meaningful part of the staleness gap.
  EXPECT_LE(refined_total - fresh_total, 0.8 * (stale_total - fresh_total));
}

/// QoS pipeline: EDF scheduling reduces weighted tardiness against the
/// makespan-oriented open shop on deadline-annotated exchanges.
TEST(Pipeline, EdfReducesWeightedTardinessInAggregate) {
  double edf_total = 0.0, openshop_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t n = 8;
    const ProblemInstance instance =
        make_instance(Scenario::kMixedMessages, n, seed);
    const CommMatrix comm{instance.network, instance.messages};
    QosSpec spec = QosSpec::unconstrained(n);
    Rng rng{seed};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i != j) {
          spec.deadline_s(i, j) =
              comm.time(i, j) + rng.uniform(0.0, 0.6) * comm.lower_bound();
          spec.priority(i, j) = rng.uniform(1.0, 10.0);
        }
    const QosScheduler edf{spec};
    const OpenShopScheduler openshop;
    edf_total += evaluate_qos(edf.schedule(comm), spec).weighted_tardiness_s;
    openshop_total +=
        evaluate_qos(openshop.schedule(comm), spec).weighted_tardiness_s;
  }
  EXPECT_LE(edf_total, openshop_total);
}

}  // namespace
}  // namespace hcs
