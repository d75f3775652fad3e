// hcsd service benchmarks (google-benchmark): sustained schedules/sec
// and client-observed p50/p99 latency through the full daemon stack —
// wire codec, UNIX socket, request queue, schedule cache, warm per-worker
// solvers — under the three caching regimes:
//
//   BM_ServiceColdSolve  every request a distinct workload cycling far
//                        past the cache capacity: all misses, the solver
//                        runs every time (the no-cache floor);
//   BM_ServiceWarmCache  one workload, primed: all hits — the acceptance
//                        bar is warm p99 at least 10x better than cold
//                        p99 at P = 64 (compare the p99_us counters in
//                        BENCH_scheduler.json);
//   BM_ServiceDrift      drifting directory queried at an advancing
//                        now_s: keys rotate as pairs cross quantization
//                        levels, mixing hits and re-solves;
//   BM_ServiceOpenLoop   open-loop Poisson arrivals at a fixed offered
//                        rate (the benchmark arg, requests/sec):
//                        latency is charged from each request's intended
//                        arrival instant, so queueing delay is not
//                        coordinated away — the p99_us counters across
//                        the args are the latency-vs-offered-load curve.
//
// Each benchmark runs a real in-process ScheduleServer on a temp socket
// and measures blocking round trips from one client connection, so the
// numbers include every layer a real client pays. Latency percentiles
// are exact (client-side samples, util/stats.hpp), not histogram-bucket
// estimates. Tracked in BENCH_scheduler.json via the bench_json target.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "service/client.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

namespace {

constexpr std::uint64_t kSeed = 42;
// kMaxMatching at P = 64 solves in ~1 ms: heavy enough that the warm-hit
// path (one cache probe + codec + socket round trip) clears the 10x bar
// with margin, and the regime split is about the cache, not noise.
constexpr hcs::SchedulerKind kKind = hcs::SchedulerKind::kMaxMatching;

std::string bench_socket_path(const char* tag) {
  return "/tmp/hcs_bench_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

std::vector<hcs::MessageMatrix> workload_pool(std::size_t p,
                                              std::size_t count) {
  std::vector<hcs::MessageMatrix> pool;
  pool.reserve(count);
  for (std::size_t w = 0; w < count; ++w)
    pool.push_back(
        hcs::make_instance(hcs::Scenario::kMixedMessages, p, kSeed + w)
            .messages);
  return pool;
}

/// Runs the request loop, recording exact client-side latencies, and
/// publishes p50/p99/QPS/hit-rate as benchmark counters.
void run_requests(benchmark::State& state, hcs::service::ServiceClient& client,
                  const std::vector<hcs::MessageMatrix>& pool,
                  double time_step_s) {
  std::vector<double> latencies_us;
  std::size_t hits = 0, total = 0;
  std::size_t i = 0;
  const auto wall0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    hcs::service::ScheduleRequest request;
    request.kind = kKind;
    // Whole-second instants: a drifting directory only changes state
    // every update period, so requests within a window share now_s and
    // the server's snapshot memo — what a real client polling a
    // directory would see.
    request.now_s = std::floor(static_cast<double>(i) * time_step_s);
    request.messages = pool[i % pool.size()];
    const auto t0 = std::chrono::steady_clock::now();
    const hcs::service::ScheduleResponse response = client.schedule(request);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(response.completion_s);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    hits += response.cache_hit ? 1 : 0;
    ++total;
    ++i;
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
  if (!latencies_us.empty()) {
    state.counters["p50_us"] = hcs::quantile(latencies_us, 0.5);
    state.counters["p99_us"] = hcs::quantile(latencies_us, 0.99);
  }
  if (wall_s > 0.0)
    state.counters["schedules_per_sec"] =
        static_cast<double>(total) / wall_s;
  if (total > 0)
    state.counters["hit_rate"] =
        static_cast<double>(hits) / static_cast<double>(total);
}

void BM_ServiceColdSolve(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const hcs::StaticDirectory directory{hcs::generate_network(p, kSeed)};
  hcs::service::ServerOptions options;
  options.socket_path = bench_socket_path("cold");
  options.workers = 2;
  // Tiny cache + a workload pool cycling far past it: every request has
  // aged out by the time its key comes around again, so every request
  // pays the full solve.
  options.cache.shards = 1;
  options.cache.capacity = 8;
  hcs::service::ScheduleServer server(directory, options);
  server.start();
  {
    const auto pool = workload_pool(p, 256);
    hcs::service::ServiceClient client(options.socket_path);
    run_requests(state, client, pool, 0.0);
  }
  server.stop();
}
BENCHMARK(BM_ServiceColdSolve)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_ServiceWarmCache(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const hcs::StaticDirectory directory{hcs::generate_network(p, kSeed)};
  hcs::service::ServerOptions options;
  options.socket_path = bench_socket_path("warm");
  options.workers = 2;
  hcs::service::ScheduleServer server(directory, options);
  server.start();
  {
    const auto pool = workload_pool(p, 1);
    hcs::service::ServiceClient client(options.socket_path);
    // Prime the single key so the timed loop is hits end to end.
    hcs::service::ScheduleRequest prime;
    prime.kind = kKind;
    prime.messages = pool[0];
    (void)client.schedule(prime);
    run_requests(state, client, pool, 0.0);
  }
  server.stop();
}
BENCHMARK(BM_ServiceWarmCache)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_ServiceDrift(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  hcs::DriftingDirectory::Options drift;
  drift.step_sigma = 0.3;
  drift.update_period_s = 1.0;
  const hcs::DriftingDirectory directory{hcs::generate_network(p, kSeed),
                                         kSeed * 97, drift};
  hcs::service::ServerOptions options;
  options.socket_path = bench_socket_path("drift");
  options.workers = 2;
  hcs::service::ScheduleServer server(directory, options);
  server.start();
  {
    const auto pool = workload_pool(p, 4);
    hcs::service::ServiceClient client(options.socket_path);
    // Each request advances the directory clock by 1/20 s: every 20
    // requests the drift window turns over, signatures cross quantization
    // levels, and those keys re-solve — the steady state is a hit/miss
    // mix.
    run_requests(state, client, pool, 0.05);
  }
  server.stop();
}
BENCHMARK(BM_ServiceDrift)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_ServiceOpenLoop(benchmark::State& state) {
  const double offered_qps = static_cast<double>(state.range(0));
  const std::size_t p = 64;
  const hcs::StaticDirectory directory{hcs::generate_network(p, kSeed)};
  hcs::service::ServerOptions options;
  options.socket_path = bench_socket_path("openloop");
  options.workers = 2;
  hcs::service::ScheduleServer server(directory, options);
  server.start();
  {
    hcs::service::ReplayConfig config;
    config.socket_path = options.socket_path;
    config.requests = 128;
    config.connections = 4;
    config.processors = p;
    config.kind = kKind;
    config.seed = kSeed;
    config.distinct_workloads = 8;
    config.arrival = hcs::service::Arrival::kPoisson;
    config.offered_qps = offered_qps;
    hcs::service::ReplayStats stats;
    for (auto _ : state) {
      stats = hcs::service::run_replay(config);
      benchmark::DoNotOptimize(stats.completed);
    }
    state.counters["offered_qps"] = offered_qps;
    state.counters["achieved_qps"] = stats.qps;
    state.counters["p50_us"] = stats.p50_us;
    state.counters["p99_us"] = stats.p99_us;
  }
  server.stop();
}
// One replay per iteration; the rates walk the daemon from an idle
// arrival process into saturation, and the run is pinned to a single
// iteration because an open-loop replay's duration is fixed by
// requests/rate, not by the work.
BENCHMARK(BM_ServiceOpenLoop)
    ->Arg(200)
    ->Arg(800)
    ->Arg(3200)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
