// Hierarchical-vs-flat scheduling benchmarks, and the pipeline stages
// that follow a wide hierarchical schedule.
//
// The flat schedulers price all P² events against the full directory —
// O(P³) and up — which tops out in the low hundreds of processors. The
// hierarchical path (detect logical clusters, schedule intra-cluster,
// quotient + splice) turns one P-wide instance into K small ones and an
// O(E log E) splice. This bench measures both sides on the clustered
// GUSTO family so the trajectory records the wall-clock speedup, and — at
// P <= 128 where the flat pass is affordable inside the timing loop's
// setup — the makespan cost of hierarchy, reported as the counter
// `hier_vs_flat_makespan` (hierarchical completion / flat completion;
// 1.0 means free, lower is better).
//
// BM_ScheduleValidate and BM_SendProgramFromSchedule time the two stages
// between scheduling and simulation on the same hierarchical(greedy)
// plans: the §3.4 validity check and the per-port send/receive orders.
// Both stream the schedule's events once; at P = 1024 that is ~1M events.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/comm_matrix.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "core/scheduler.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/generator.hpp"
#include "sim/send_program.hpp"
#include "workload/generators.hpp"

namespace {

constexpr std::size_t kSites = 8;
constexpr std::uint64_t kSeed = 19980728;

hcs::NetworkModel clustered_network(std::size_t n) {
  hcs::ClusteredNetworkOptions options;
  options.cluster_count = kSites < n ? kSites : 2;
  return hcs::generate_clustered_network(n, kSeed, options);
}

hcs::CommMatrix clustered_comm(const hcs::NetworkModel& network) {
  const hcs::MessageMatrix messages = hcs::mixed_messages(
      network.processor_count(), kSeed, {1024, 1024 * 1024});
  return hcs::CommMatrix{network, messages};
}

void BM_ClusterDetect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hcs::NetworkModel network = clustered_network(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcs::detect_clusters(network));
  }
  state.SetComplexityN(state.range(0));
}

void BM_HierarchicalSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hcs::NetworkModel network = clustered_network(n);
  const hcs::CommMatrix comm = clustered_comm(network);
  hcs::HierarchicalScheduler::Options options;
  options.inner = hcs::SchedulerKind::kGreedy;
  const hcs::HierarchicalScheduler scheduler{hcs::detect_clusters(network),
                                             options};
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(comm));
  }
  state.SetComplexityN(state.range(0));
  state.counters["clusters"] =
      static_cast<double>(scheduler.clustering().cluster_count());
  if (n <= 128) {
    const hcs::Schedule hier = scheduler.schedule(comm);
    const hcs::Schedule flat =
        hcs::make_scheduler(hcs::SchedulerKind::kGreedy, 0)->schedule(comm);
    state.counters["hier_vs_flat_makespan"] =
        hier.completion_time() / flat.completion_time();
  }
}

void BM_FlatSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hcs::NetworkModel network = clustered_network(n);
  const hcs::CommMatrix comm = clustered_comm(network);
  const auto scheduler = hcs::make_scheduler(hcs::SchedulerKind::kGreedy, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler->schedule(comm));
  }
  state.SetComplexityN(state.range(0));
}

hcs::Schedule hierarchical_plan(const hcs::NetworkModel& network,
                                const hcs::CommMatrix& comm) {
  hcs::HierarchicalScheduler::Options options;
  options.inner = hcs::SchedulerKind::kGreedy;
  return hcs::HierarchicalScheduler{hcs::detect_clusters(network), options}
      .schedule(comm);
}

void BM_ScheduleValidate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hcs::NetworkModel network = clustered_network(n);
  const hcs::CommMatrix comm = clustered_comm(network);
  const hcs::Schedule schedule = hierarchical_plan(network, comm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule.first_violation(comm));
  }
  state.SetComplexityN(state.range(0));
  state.counters["events"] = static_cast<double>(schedule.events().size());
}

void BM_SendProgramFromSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hcs::NetworkModel network = clustered_network(n);
  const hcs::Schedule schedule =
      hierarchical_plan(network, clustered_comm(network));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcs::SendProgram::from_schedule(schedule));
  }
  state.SetComplexityN(state.range(0));
  state.counters["events"] = static_cast<double>(schedule.events().size());
}

}  // namespace

BENCHMARK(BM_ClusterDetect)->RangeMultiplier(2)->Range(64, 1024)->Complexity();
BENCHMARK(BM_HierarchicalSchedule)
    ->RangeMultiplier(2)
    ->Range(64, 1024)
    ->Complexity();
// The flat side stops at 512: that is the point of the hierarchy — the
// same bench at 1024 would dominate the suite's wall clock.
BENCHMARK(BM_FlatSchedule)->RangeMultiplier(2)->Range(64, 512)->Complexity();
BENCHMARK(BM_ScheduleValidate)
    ->RangeMultiplier(2)
    ->Range(256, 1024)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();
BENCHMARK(BM_SendProgramFromSchedule)
    ->RangeMultiplier(2)
    ->Range(256, 1024)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

BENCHMARK_MAIN();
