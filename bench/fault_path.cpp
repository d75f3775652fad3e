// Fault-path overhead benchmarks (google-benchmark).
//
// The resilient executor (src/fault) is the only checkpoint executor, so
// fault tolerance must be pay-as-you-go: with an empty FaultPlan
// (BM_ResilientHealthy) it runs the plain checkpointed exchange and skips
// the fault hook and planning overlays, while actual faults pay for
// watchdog timeouts, retries and relay routing (BM_ResilientCrashAndCut). Tracked in BENCH_scheduler.json via
// the bench_json target.
#include <benchmark/benchmark.h>

#include "core/openshop_scheduler.hpp"
#include "fault/resilient.hpp"
#include "netmodel/generator.hpp"
#include "workload/generators.hpp"

namespace {

constexpr std::uint64_t kSeed = 42;

void BM_ResilientHealthy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hcs::StaticDirectory directory{hcs::generate_network(n, kSeed)};
  const hcs::MessageMatrix messages = hcs::uniform_messages(n, hcs::kMiB);
  const hcs::OpenShopScheduler scheduler;
  hcs::ResilientOptions options;
  options.adaptive.policy = hcs::CheckpointPolicy::kHalveRemaining;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hcs::run_resilient(scheduler, directory, messages, {}, options));
  }
  state.SetComplexityN(state.range(0));
}

void BM_ResilientCrashAndCut(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hcs::StaticDirectory directory{hcs::generate_network(n, kSeed)};
  const hcs::MessageMatrix messages = hcs::uniform_messages(n, hcs::kMiB);
  const hcs::OpenShopScheduler scheduler;
  hcs::FaultPlan plan;
  plan.crashes.push_back({n - 1, 0.0});
  plan.cuts.push_back({0, 1, 0.0, 1e12});
  plan.seed = kSeed;
  hcs::ResilientOptions options;
  options.adaptive.policy = hcs::CheckpointPolicy::kHalveRemaining;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hcs::run_resilient(scheduler, directory, messages, plan, options));
  }
  state.SetComplexityN(state.range(0));
}

}  // namespace

BENCHMARK(BM_ResilientHealthy)->RangeMultiplier(2)->Range(8, 32)->Complexity();
BENCHMARK(BM_ResilientCrashAndCut)
    ->RangeMultiplier(2)
    ->Range(8, 32)
    ->Complexity();

BENCHMARK_MAIN();
