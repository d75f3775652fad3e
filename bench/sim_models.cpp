// Simulator-core benchmarks (google-benchmark).
//
// The workspace-backed NetworkSimulator promises two things: zero heap
// allocation per run after warm-up (BM_SimSerialized / BM_SimBuffered
// against the priority_queue-rebuilding reference), and an event-driven
// O((E + P) log P) interleaved model replacing the reference's
// O(E * P^2) per-event scans (BM_SimInterleaved vs BM_RefSimInterleaved —
// the Complexity() fits make the asymptotic gap visible). BM_AdaptiveRound
// times the unit the executors loop over: one round's simulation through
// a warm workspace, ports carried in. The BM_RefSim* twins run the
// retained naive implementation (oracles/reference_simulator.hpp) so
// BENCH_scheduler.json records before/after numbers side by side; both
// sides are golden-trace verified bit-identical (tests/sim_golden_test).
// BM_TraceAudit times the traced tail of a scenario run at wide P: a
// fresh ring sized like run_scenario's, a traced simulation of a
// clustered hierarchical(greedy) plan, and the audit replay.
// BM_DriftQuery and BM_DriftSnapshot time the drifting directory the
// simulator and hcsd query: every pair once at steps rising to 800 (a
// drifting simulation's access pattern), and full snapshots at instants
// 0..99 (hcsd's clock moving forward).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "oracles/reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "trace/auditor.hpp"
#include "workload/generators.hpp"

namespace {

constexpr std::uint64_t kSeed = 42;

/// Complete total exchange in rotation order, send orders only (FIFO
/// arbitration — the serialized model's queue-heavy path).
hcs::SendProgram rotation_program(std::size_t n) {
  std::vector<std::vector<std::size_t>> orders(n);
  for (std::size_t src = 0; src < n; ++src) {
    orders[src].reserve(n - 1);
    for (std::size_t k = 1; k < n; ++k) orders[src].push_back((src + k) % n);
  }
  return hcs::SendProgram{std::move(orders)};
}

/// Shared per-size fixture: network, messages, program.
struct Fixture {
  std::size_t n;
  hcs::StaticDirectory directory;
  hcs::MessageMatrix messages;
  hcs::SendProgram program;

  explicit Fixture(std::size_t procs)
      : n(procs),
        directory(hcs::generate_network(n, kSeed)),
        messages(hcs::mixed_messages(n, kSeed, {hcs::kKiB, hcs::kMiB})),
        program(rotation_program(n)) {}
};

hcs::SimOptions options_for(hcs::ReceiveModel model) {
  hcs::SimOptions options;
  options.model = model;
  return options;
}

void run_fast(benchmark::State& state, hcs::ReceiveModel model) {
  const Fixture fx{static_cast<std::size_t>(state.range(0))};
  const hcs::NetworkSimulator simulator{fx.directory, fx.messages};
  const hcs::SimOptions options = options_for(model);
  hcs::SimResult result;  // reused: steady state allocates nothing
  for (auto _ : state) {
    simulator.run_into(fx.program, options, result);
    benchmark::DoNotOptimize(result.completion_time);
  }
  state.SetComplexityN(state.range(0));
}

/// Same run with a live EventTrace sink: the tracing-on cost. The trace
/// is cleared each iteration so the ring never wraps and every record
/// takes the common (no-overwrite) path.
void run_traced(benchmark::State& state, hcs::ReceiveModel model) {
  const Fixture fx{static_cast<std::size_t>(state.range(0))};
  const hcs::NetworkSimulator simulator{fx.directory, fx.messages};
  const hcs::SimOptions options = options_for(model);
  hcs::SimResult result;
  hcs::SimWorkspace workspace;
  hcs::EventTrace trace;
  for (auto _ : state) {
    trace.clear();
    simulator.run_into_traced(fx.program, options, workspace, result, trace);
    benchmark::DoNotOptimize(result.completion_time);
    benchmark::DoNotOptimize(trace.size());
  }
  state.SetComplexityN(state.range(0));
}

void run_reference(benchmark::State& state, hcs::ReceiveModel model) {
  const Fixture fx{static_cast<std::size_t>(state.range(0))};
  const hcs::SimOptions options = options_for(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hcs::run_reference(fx.directory, fx.messages, fx.program, options));
  }
  state.SetComplexityN(state.range(0));
}

void BM_SimSerialized(benchmark::State& state) {
  run_fast(state, hcs::ReceiveModel::kSerialized);
}

void BM_RefSimSerialized(benchmark::State& state) {
  run_reference(state, hcs::ReceiveModel::kSerialized);
}

void BM_SimSerializedTraced(benchmark::State& state) {
  run_traced(state, hcs::ReceiveModel::kSerialized);
}

void BM_SimInterleavedTraced(benchmark::State& state) {
  run_traced(state, hcs::ReceiveModel::kInterleaved);
}

void BM_SimBufferedTraced(benchmark::State& state) {
  run_traced(state, hcs::ReceiveModel::kBuffered);
}

void BM_SimInterleaved(benchmark::State& state) {
  run_fast(state, hcs::ReceiveModel::kInterleaved);
}

void BM_RefSimInterleaved(benchmark::State& state) {
  run_reference(state, hcs::ReceiveModel::kInterleaved);
}

void BM_SimBuffered(benchmark::State& state) {
  run_fast(state, hcs::ReceiveModel::kBuffered);
}

void BM_RefSimBuffered(benchmark::State& state) {
  run_reference(state, hcs::ReceiveModel::kBuffered);
}

/// One adaptive-executor round: simulate the remaining exchange with
/// carried-in port availability through a warm workspace — the unit
/// run_resilient executes once per checkpoint.
void BM_AdaptiveRound(benchmark::State& state) {
  const Fixture fx{static_cast<std::size_t>(state.range(0))};
  const hcs::NetworkSimulator simulator{fx.directory, fx.messages};
  hcs::SimOptions options;
  options.initial_send_avail.assign(fx.n, 0.0);
  options.initial_recv_avail.assign(fx.n, 0.0);
  for (std::size_t p = 0; p < fx.n; ++p) {
    options.initial_send_avail[p] = 1e-3 * static_cast<double>(p % 7);
    options.initial_recv_avail[p] = 1e-3 * static_cast<double>(p % 5);
  }
  hcs::SimResult result;
  for (auto _ : state) {
    simulator.run_into(fx.program, options, result);
    benchmark::DoNotOptimize(result.completion_time);
  }
  state.SetComplexityN(state.range(0));
}

/// Trace, then audit, a P-wide clustered hierarchical(greedy) exchange.
/// Each iteration builds a fresh ring of max(2^16, 4P^2) events, as
/// run_scenario does, so first touch of the ring is part of the cost.
void BM_TraceAudit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hcs::ClusteredNetworkOptions network_options;
  network_options.cluster_count = 8;
  const hcs::NetworkModel network =
      hcs::generate_clustered_network(n, kSeed, network_options);
  const hcs::MessageMatrix messages =
      hcs::mixed_messages(n, kSeed, {hcs::kKiB, hcs::kMiB});
  hcs::HierarchicalScheduler::Options scheduler_options;
  scheduler_options.inner = hcs::SchedulerKind::kGreedy;
  const hcs::HierarchicalScheduler scheduler{hcs::detect_clusters(network),
                                             scheduler_options};
  const hcs::SendProgram program = hcs::SendProgram::from_schedule(
      scheduler.schedule(hcs::CommMatrix{network, messages}));
  const hcs::StaticDirectory directory{network};
  const hcs::NetworkSimulator simulator{directory, messages};
  const hcs::ScheduleAuditor auditor;
  for (auto _ : state) {
    hcs::EventTrace trace{
        std::max<std::size_t>(std::size_t{1} << 16, 4 * n * n)};
    const hcs::SimResult result = simulator.run_traced(program, {}, trace);
    const hcs::AuditReport report =
        auditor.audit(trace, result.completion_time);
    if (!report.ok()) state.SkipWithError(report.violations.front().c_str());
    benchmark::DoNotOptimize(report.transfers);
  }
  state.SetComplexityN(state.range(0));
}

hcs::DriftingDirectory::Options drift_options() {
  hcs::DriftingDirectory::Options options;
  options.step_sigma = 0.1;
  return options;
}

/// Every ordered pair queried once, at steps rising from 0 to 800, on a
/// fresh directory per iteration.
void BM_DriftQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hcs::NetworkModel network = hcs::generate_network(n, kSeed);
  const double pairs = static_cast<double>(n * (n - 1));
  for (auto _ : state) {
    const hcs::DriftingDirectory directory{network, kSeed, drift_options()};
    double sum = 0.0;
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const double now_s = 800.0 * static_cast<double>(k++) / pairs;
        sum += directory.query(i, j, now_s).bandwidth_Bps;
      }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * (n - 1)));
}

/// Snapshots at instants 0..99 in order, on a fresh directory per
/// iteration; items are snapshots.
void BM_DriftSnapshot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hcs::NetworkModel network = hcs::generate_network(n, kSeed);
  constexpr int kInstants = 100;
  for (auto _ : state) {
    const hcs::DriftingDirectory directory{network, kSeed, drift_options()};
    for (int t = 0; t < kInstants; ++t) {
      const hcs::NetworkModel view = directory.snapshot(t);
      benchmark::DoNotOptimize(view.link(0, 1).bandwidth_Bps);
    }
  }
  state.SetItemsProcessed(state.iterations() * kInstants);
}

}  // namespace

BENCHMARK(BM_DriftQuery)->Arg(96)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DriftSnapshot)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimSerialized)->RangeMultiplier(2)->Range(8, 128)->Complexity();
BENCHMARK(BM_RefSimSerialized)->RangeMultiplier(2)->Range(8, 64)->Complexity();
BENCHMARK(BM_SimInterleaved)->RangeMultiplier(2)->Range(8, 128)->Complexity();
BENCHMARK(BM_RefSimInterleaved)
    ->RangeMultiplier(2)
    ->Range(8, 64)
    ->Complexity();
BENCHMARK(BM_SimBuffered)->RangeMultiplier(2)->Range(8, 128)->Complexity();
BENCHMARK(BM_SimSerializedTraced)->RangeMultiplier(2)->Range(8, 128)->Complexity();
BENCHMARK(BM_SimInterleavedTraced)->RangeMultiplier(2)->Range(8, 128)->Complexity();
BENCHMARK(BM_SimBufferedTraced)->RangeMultiplier(2)->Range(8, 128)->Complexity();
BENCHMARK(BM_RefSimBuffered)->RangeMultiplier(2)->Range(8, 64)->Complexity();
BENCHMARK(BM_AdaptiveRound)->RangeMultiplier(2)->Range(8, 64)->Complexity();
BENCHMARK(BM_TraceAudit)
    ->RangeMultiplier(2)
    ->Range(128, 1024)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNSquared);

BENCHMARK_MAIN();
