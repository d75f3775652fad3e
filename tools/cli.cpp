#include "tools/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

#include "collectives/broadcast.hpp"
#include "core/comm_matrix.hpp"
#include "experiment/experiment.hpp"
#include "experiment/fault_sweep.hpp"
#include "experiment/sweep_io.hpp"
#include "fault/resilient.hpp"
#include "core/schedule_stats.hpp"
#include "core/scheduler.hpp"
#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "scenario/resolve.hpp"
#include "scenario/runner.hpp"
#include "service/client.hpp"
#include "service/replay.hpp"
#include "service/sweep_driver.hpp"
#include "util/worker_endpoint.hpp"
#include "sim/simulator.hpp"
#include "trace/auditor.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace hcs::cli {
namespace {

constexpr const char* kUsage = R"(hcs — heterogeneous communication scheduling tool

usage:
  hcs generate --processors N [--seed S] [--scenario small|large|mixed|servers]
      Print a P x P communication-matrix CSV (seconds) for a random
      GUSTO-guided network and the scenario's message sizes.

  hcs schedule [--algorithm NAME] [--diagram] [--events] [--stats]
      Read a communication-matrix CSV on stdin and schedule it.
      Algorithms: baseline, baseline-barrier, max-matching, min-matching,
      greedy, openshop (default), random, all.

  hcs simulate --processors N [--seed S] [--scenario NAME]
               [--algorithm NAME] [--drift SIGMA]
      Generate an instance, schedule it, then execute the plan against a
      directory whose bandwidths drift (geometric random walk with the
      given per-second log-sigma; 0 = static). Reports planned vs actual.

  hcs sweep --processors N[,N...] [--repetitions R] [--seed S]
            [--scenario NAME] [--algorithm NAME|all] [--threads T]
            [--execute] [--ratios] [--hierarchical] [--clusters K]
            [--format table|csv|json] [--workers LIST] [--shard-units U]
      Run the figure-style experiment sweep: R random instances per
      processor count, scheduled by each algorithm (all of them by
      default) and averaged. Repetitions run on T worker threads (0 =
      one per allowed hardware thread, the default); output is
      byte-identical at every thread count. --execute also runs every
      schedule through the network simulator; --ratios prints
      ratio-to-lower-bound instead of absolute seconds. --clusters K
      draws instances from the clustered site/WAN family with K sites;
      --hierarchical detects clusters on every instance and runs each
      algorithm inside the hierarchical scheduler. --format csv/json
      emit machine-readable sweeps instead of the table.
      --workers shards the sweep across worker backends instead of the
      local thread pool: a comma-separated list of local[:N] (in-process
      workers), unix:PATH and tcp:HOST:PORT (running hcsd daemons).
      Shards of U work units (0 = auto) are dispatched to any free
      backend, failed shards are re-dispatched, and the merged output is
      byte-identical to the single-process sweep.

  hcs fault-sweep --processors N [--seed S] [--scenario NAME]
                  [--algorithm NAME] [--max-crashes K] [--cuts C] [--loss P]
                  [--restarts R] [--flaps F] [--brownouts B]
                  [--brownout-factor X] [--replan] [--hierarchical]
                  [--clusters K] [--format table|csv|json] [--threads T]
                  [--workers LIST] [--shard-units U]
      Sweep crash-stop severity 0..K on a random instance with C
      permanently cut pairs and per-attempt transmission loss P, executing
      each scenario with the fault-tolerant executor (retry with backoff,
      relay rerouting, health-driven quarantine). Dynamic faults ride
      along: R crash-restart nodes, F flapping links, B bandwidth
      brownouts running at fraction X of the advertised rate. --replan
      turns on online re-planning: failed traffic is requeued and
      re-scheduled on the degraded view (the rescued column counts its
      saves). Reports the delivery mix and the completion overhead versus
      the fault-free run; --format csv/json emit machine-readable rows.
      Severity rows run on T worker threads (0 = one per hardware
      thread), or — with --workers, same syntax as sweep — across
      distributed worker backends with byte-identical output.

  hcs trace --processors N [--seed S] [--scenario NAME] [--algorithm NAME]
            [--model serialized|interleaved|buffered] [--drift SIGMA]
            [--crashes K] [--cuts C] [--loss P] [--restarts R] [--flaps F]
            [--brownouts B] [--brownout-factor X] [--replan]
            [--hierarchical] [--clusters K]
            [--format diagram|chrome|metrics] [--rows R] [--audit]
      Generate an instance, schedule it, execute with event tracing on,
      and export the trace: an ASCII timing diagram (default), Chrome
      trace_event JSON for chrome://tracing / Perfetto, or a metrics JSON
      summary. Fault options switch to the fault-tolerant executor
      (serialized model only), which runs on the same static or drifting
      directory and checkpoints after half of the remaining exchange.
      --clusters/--hierarchical pick the clustered network family and
      the hierarchical scheduler, as in sweep. --audit replays the trace
      through the model-invariant auditor and fails on any violation.

  hcs replay --socket PATH [--requests N] [--connections C]
             [--processors P] [--scenario NAME] [--algorithm NAME]
             [--hierarchical] [--seed S] [--distinct D] [--time-step T]
             [--arrival closed|poisson|burst] [--rate QPS] [--burst B]
             [--format table|json] [--scrape] [--shutdown]
      Drive a running hcsd daemon (see the hcsd binary) with a
      deterministic request trace over C concurrent connections: N
      schedule requests cycling through D distinct generated workloads,
      request i querying the daemon's directory at time i*T seconds.
      Reports sustained schedules/sec and exact client-observed latency
      percentiles. --arrival picks the load regime: closed (default)
      fires each request when the previous response lands; poisson and
      burst are open-loop — requests arrive at the intended instants of
      a Poisson process (or back-to-back bursts of B) at --rate QPS,
      and latency is charged from the intended arrival, so queueing
      delay is visible (no coordinated omission). --scrape prints the
      daemon's admin metrics afterwards; --shutdown asks the daemon to
      exit once done.

  hcs run-scenarios DIR [--threads T] [--filter SUBSTR]
                    [--format table|json] [--update-golden]
      Execute every *.scn scenario file in DIR end to end (resolve,
      schedule, simulate, audit) on T worker threads (0 = one per
      hardware thread; output is byte-identical at every thread count)
      and diff each deterministic JSON artifact against
      DIR/golden/<name>.json. --update-golden (or a non-empty
      HCS_UPDATE_GOLDEN in the environment) rewrites the goldens
      instead; --filter runs only files whose name contains SUBSTR.
      Exits non-zero on any parse error, failed expectation, audit
      violation, or golden mismatch.

  hcs lowerbound
      Read a communication-matrix CSV on stdin and print t_lb.

  hcs broadcast --processors N [--seed S] [--root R] [--bytes B]
                [--algorithm fnf|binomial|linear]
      Schedule a heterogeneous broadcast on a random network.

  hcs help
      Show this message.
)";

Scenario parse_scenario(const std::string& name) {
  if (name == "small") return Scenario::kSmallMessages;
  if (name == "large") return Scenario::kLargeMessages;
  if (name == "mixed") return Scenario::kMixedMessages;
  if (name == "servers") return Scenario::kServers;
  throw InputError("unknown scenario '" + name + "'");
}

SchedulerKind parse_algorithm(const std::string& name) {
  for (const SchedulerKind kind :
       {SchedulerKind::kBaseline, SchedulerKind::kBaselineBarrier,
        SchedulerKind::kMaxMatching, SchedulerKind::kMinMatching,
        SchedulerKind::kGreedy, SchedulerKind::kOpenShop,
        SchedulerKind::kRandom})
    if (scheduler_name(kind) == name) return kind;
  throw InputError("unknown algorithm '" + name + "'");
}

int cmd_generate(const Options& options, std::ostream& out) {
  const long processors = options.get_long("processors", 0);
  if (processors < 2) throw InputError("--processors must be >= 2");
  const auto seed = static_cast<std::uint64_t>(options.get_long("seed", 1));
  const Scenario scenario = parse_scenario(options.get("scenario", "mixed"));
  const ProblemInstance instance =
      make_instance(scenario, static_cast<std::size_t>(processors), seed);
  const CommMatrix comm{instance.network, instance.messages};
  write_csv_matrix(out, comm.times(), 9);
  return 0;
}

int cmd_schedule(const Options& options, std::istream& in, std::ostream& out) {
  const CommMatrix comm{read_csv_matrix(in)};
  const std::string algorithm = options.get("algorithm", "openshop");
  const double lb = comm.lower_bound();

  std::vector<SchedulerKind> kinds;
  if (algorithm == "all") {
    kinds = paper_schedulers();
    kinds.push_back(SchedulerKind::kBaselineBarrier);
  } else {
    kinds.push_back(parse_algorithm(algorithm));
  }

  Table table{{"algorithm", "completion (s)", "ratio to t_lb"}};
  for (const SchedulerKind kind : kinds) {
    const auto scheduler = make_scheduler(kind, /*seed=*/1);
    const Schedule schedule = scheduler->schedule(comm);
    schedule.validate(comm);
    table.add_row({std::string(scheduler->name()),
                   format_double(schedule.completion_time(), 4),
                   format_double(lb > 0 ? schedule.completion_time() / lb : 1.0,
                                 4)});
    if (kinds.size() == 1) {
      if (options.has("events")) {
        out << "src,dst,start_s,finish_s\n";
        for (const ScheduledEvent& event : schedule.events())
          out << event.src << ',' << event.dst << ','
              << format_double(event.start_s, 6) << ','
              << format_double(event.finish_s, 6) << '\n';
      }
      if (options.has("diagram")) out << render_timing_diagram(schedule, 24);
      if (options.has("stats")) {
        const ScheduleStats stats = analyze_schedule(schedule, comm);
        out << "mean port utilization: "
            << format_double(stats.mean_utilization, 3) << "  (bottleneck P"
            << stats.bottleneck_processor << ")\n";
        stats_table(stats).print(out);
      }
    }
  }
  out << "lower bound: " << format_double(lb, 4) << " s\n";
  table.print(out);
  return 0;
}

int cmd_lowerbound(std::istream& in, std::ostream& out) {
  const CommMatrix comm{read_csv_matrix(in)};
  out << format_double(comm.lower_bound(), 9) << '\n';
  return 0;
}

int cmd_replay(const Options& options, std::ostream& out) {
  service::ReplayConfig config;
  config.socket_path = options.get("socket", "");
  if (config.socket_path.empty())
    throw InputError("replay requires --socket PATH");
  config.requests =
      static_cast<std::size_t>(options.get_long("requests", 200));
  config.connections =
      static_cast<std::size_t>(options.get_long("connections", 4));
  config.processors =
      static_cast<std::size_t>(options.get_long("processors", 64));
  config.scenario = parse_scenario(options.get("scenario", "mixed"));
  config.kind = parse_algorithm(options.get("algorithm", "max-matching"));
  config.hierarchical = options.has("hierarchical");
  config.seed = static_cast<std::uint64_t>(options.get_long("seed", 1));
  config.distinct_workloads =
      static_cast<std::size_t>(options.get_long("distinct", 8));
  config.time_step_s = options.get_double("time-step", 0.0);
  if (config.time_step_s < 0.0)
    throw InputError("--time-step must be non-negative");
  const std::string arrival = options.get("arrival", "closed");
  if (arrival == "closed") {
    config.arrival = service::Arrival::kClosed;
  } else if (arrival == "poisson") {
    config.arrival = service::Arrival::kPoisson;
  } else if (arrival == "burst") {
    config.arrival = service::Arrival::kBurst;
  } else {
    throw InputError("--arrival must be closed, poisson, or burst");
  }
  config.offered_qps = options.get_double("rate", 0.0);
  if (config.arrival != service::Arrival::kClosed &&
      !(config.offered_qps > 0.0))
    throw InputError("--arrival poisson/burst requires --rate QPS > 0");
  const long burst = options.get_long("burst", 8);
  if (burst < 1) throw InputError("--burst must be >= 1");
  config.burst_size = static_cast<std::size_t>(burst);

  const service::ReplayStats stats = service::run_replay(config);

  const std::string format = options.get("format", "table");
  if (format == "json") {
    out << "{\"requests\": " << config.requests
        << ", \"completed\": " << stats.completed
        << ", \"cache_hits\": " << stats.cache_hits
        << ", \"coalesced\": " << stats.coalesced
        << ", \"busy\": " << stats.busy << ", \"errors\": " << stats.errors
        << ", \"wall_s\": " << format_double(stats.wall_s, 6)
        << ", \"arrival\": \"" << arrival << "\""
        << ", \"offered_qps\": " << format_double(stats.offered_qps, 2)
        << ", \"schedules_per_sec\": " << format_double(stats.qps, 2)
        << ", \"p50_us\": " << format_double(stats.p50_us, 2)
        << ", \"p99_us\": " << format_double(stats.p99_us, 2)
        << ", \"mean_us\": " << format_double(stats.mean_us, 2)
        << ", \"max_us\": " << format_double(stats.max_us, 2) << "}\n";
  } else if (format == "table") {
    out << "replayed " << config.requests << " requests over "
        << config.connections << " connections (" << config.distinct_workloads
        << " distinct workloads, time step "
        << format_double(config.time_step_s, 3) << " s)\n";
    if (config.arrival != service::Arrival::kClosed)
      out << "open-loop " << arrival << " arrivals at "
          << format_double(config.offered_qps, 1)
          << " req/s (latency from intended arrival)\n";
    Table table{{"metric", "value"}};
    table.add_row({"completed", std::to_string(stats.completed)});
    table.add_row({"cache hits", std::to_string(stats.cache_hits)});
    table.add_row({"coalesced", std::to_string(stats.coalesced)});
    table.add_row({"busy (shed)", std::to_string(stats.busy)});
    table.add_row({"errors", std::to_string(stats.errors)});
    table.add_row({"wall (s)", format_double(stats.wall_s, 4)});
    table.add_row({"schedules/sec", format_double(stats.qps, 1)});
    table.add_row({"p50 (us)", format_double(stats.p50_us, 1)});
    table.add_row({"p99 (us)", format_double(stats.p99_us, 1)});
    table.add_row({"mean (us)", format_double(stats.mean_us, 1)});
    table.add_row({"max (us)", format_double(stats.max_us, 1)});
    table.print(out);
  } else {
    throw InputError("--format must be table or json");
  }

  if (options.has("scrape")) {
    service::ServiceClient admin(config.socket_path);
    out << admin.scrape_metrics(/*text=*/true);
  }
  if (options.has("shutdown")) {
    service::ServiceClient admin(config.socket_path);
    admin.shutdown_server();
    out << "daemon shut down\n";
  }
  return stats.errors == 0 ? 0 : 1;
}

int cmd_broadcast(const Options& options, std::ostream& out) {
  const long processors = options.get_long("processors", 0);
  if (processors < 2) throw InputError("--processors must be >= 2");
  const auto n = static_cast<std::size_t>(processors);
  const auto seed = static_cast<std::uint64_t>(options.get_long("seed", 1));
  const auto root = static_cast<std::size_t>(options.get_long("root", 0));
  const auto bytes = static_cast<std::uint64_t>(
      options.get_long("bytes", static_cast<long>(kMiB)));
  const std::string algorithm = options.get("algorithm", "fnf");

  const NetworkModel network = generate_network(n, seed);
  BroadcastSchedule broadcast;
  if (algorithm == "fnf") {
    broadcast = broadcast_fnf(network, root, bytes);
  } else if (algorithm == "binomial") {
    broadcast = broadcast_binomial(network, root, bytes);
  } else if (algorithm == "linear") {
    broadcast = broadcast_linear(network, root, bytes);
  } else {
    throw InputError("unknown broadcast algorithm '" + algorithm + "'");
  }
  validate_broadcast(broadcast, network);

  out << "broadcast " << algorithm << ": completion "
      << format_double(broadcast.completion_time(), 4) << " s (relay lower bound "
      << format_double(broadcast_lower_bound(network, root, bytes), 4)
      << " s)\n";
  out << "src,dst,start_s,finish_s\n";
  for (const ScheduledEvent& event : broadcast.events)
    out << event.src << ',' << event.dst << ','
        << format_double(event.start_s, 6) << ','
        << format_double(event.finish_s, 6) << '\n';
  return 0;
}

int cmd_simulate(const Options& options, std::ostream& out) {
  const long processors = options.get_long("processors", 0);
  if (processors < 2) throw InputError("--processors must be >= 2");
  const auto n = static_cast<std::size_t>(processors);
  const auto seed = static_cast<std::uint64_t>(options.get_long("seed", 1));
  const Scenario scenario = parse_scenario(options.get("scenario", "mixed"));
  scenario::ScenarioSpec spec = scenario::instance_spec(scenario, n, seed);
  spec.algorithm = parse_algorithm(options.get("algorithm", "openshop"));
  const DriftingDirectory::Options drift = drift_options(options, 0.2);
  spec.drift_sigma = drift.step_sigma;
  spec.drift_period_s = drift.update_period_s;

  const scenario::ResolvedScenario resolved = scenario::resolve_scenario(spec);
  EventTrace trace;  // nothing here reads it; the default ring bounds it
  const scenario::Execution exec = scenario::execute(resolved, {}, trace);

  out << "scenario " << scenario_name(scenario) << ", P = " << n << ", "
      << resolved.scheduler->name() << " schedule\n";
  Table table{{"", "completion (s)", "ratio to t_lb"}};
  const double lb = resolved.lower_bound_s;
  const double planned = exec.planned.completion_time();
  const double actual = exec.totals.completion_time;
  table.add_row({"planned (directory estimate)", format_double(planned, 4),
                 format_double(planned / lb, 4)});
  table.add_row({"actual (drift sigma " + format_double(spec.drift_sigma, 2) +
                     ")",
                 format_double(actual, 4), format_double(actual / lb, 4)});
  table.print(out);
  out << "sender wait total: " << format_double(exec.total_sender_wait_s, 3)
      << " s\n";
  return 0;
}

/// Builds the distributed dispatch options from --workers/--shard-units.
/// Remote round trips are bounded by a generous fixed timeout — a shard
/// is minutes of work at most; a daemon that silent for longer is gone.
service::DistributedSweepOptions make_distributed_options(
    const Options& options) {
  service::DistributedSweepOptions distributed;
  distributed.endpoints = service::make_worker_endpoints(
      parse_worker_specs(options.get("workers", "")), /*timeout_s=*/300.0);
  const long shard_units = options.get_long("shard-units", 0);
  if (shard_units < 0) throw InputError("--shard-units must be >= 0");
  distributed.shard_units = static_cast<std::size_t>(shard_units);
  return distributed;
}

/// Parses a comma-separated list of processor counts ("5,10,20").
std::vector<std::size_t> parse_processor_list(const std::string& text) {
  std::vector<std::size_t> counts;
  std::stringstream stream{text};
  std::string item;
  while (std::getline(stream, item, ',')) {
    char* end = nullptr;
    const long parsed = std::strtol(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0' || parsed < 2)
      throw InputError("--processors expects integers >= 2, got '" + item +
                       "'");
    counts.push_back(static_cast<std::size_t>(parsed));
  }
  if (counts.empty()) throw InputError("--processors must list at least one count");
  return counts;
}

int cmd_sweep(const Options& options, std::ostream& out) {
  ExperimentConfig config;
  config.processor_counts = parse_processor_list(options.get("processors", ""));
  const long repetitions = options.get_long("repetitions", 10);
  if (repetitions < 1) throw InputError("--repetitions must be >= 1");
  config.repetitions = static_cast<std::size_t>(repetitions);
  config.base_seed = static_cast<std::uint64_t>(options.get_long("seed", 1));
  config.scenario = parse_scenario(options.get("scenario", "mixed"));
  const std::string algorithm = options.get("algorithm", "all");
  if (algorithm == "all") {
    config.schedulers = paper_schedulers();
    config.schedulers.push_back(SchedulerKind::kBaselineBarrier);
  } else {
    config.schedulers = {parse_algorithm(algorithm)};
  }
  const long threads = options.get_long("threads", 0);
  if (threads < 0) throw InputError("--threads must be >= 0");
  config.threads = static_cast<std::size_t>(threads);
  config.execute = options.has("execute");
  const long clusters = options.get_long("clusters", 0);
  if (clusters < 0) throw InputError("--clusters must be >= 0");
  config.cluster_count = static_cast<std::size_t>(clusters);
  config.hierarchical = options.has("hierarchical");
  const std::string format = options.get("format", "table");
  if (format != "table" && format != "csv" && format != "json")
    throw InputError("unknown sweep format '" + format + "'");

  // --workers swaps the compute backend, never the output: the merged
  // distributed result renders byte-identically to the local sweep.
  const ExperimentResult result = [&] {
    if (!options.has("workers")) return run_experiment(config);
    auto distributed = make_distributed_options(options);
    return service::run_distributed_sweep(config, distributed);
  }();

  if (format == "csv") {
    write_sweep_csv(out, result, options.has("ratios"));
    return 0;
  }
  if (format == "json") {
    write_sweep_json(out, result);
    return 0;
  }
  out << "scenario " << scenario_name(config.scenario) << ", "
      << config.repetitions << " repetition(s) per point, seed "
      << config.base_seed << ", "
      << ThreadPool::resolve_size(config.threads, config.repetitions)
      << " worker thread(s)\n";
  if (config.cluster_count > 0)
    out << "clustered family: " << config.cluster_count << " site(s)\n";
  if (config.hierarchical) out << "hierarchical scheduling: on\n";
  if (options.has("ratios")) {
    out << "mean completion time / lower bound:\n";
    ratio_table(result).print(out);
  } else {
    out << "mean completion time (seconds):\n";
    completion_table(result).print(out);
  }
  if (config.execute) {
    std::vector<std::string> headers = {"P"};
    for (const SchedulerSeries& series : result.series)
      headers.emplace_back(scheduler_name(series.kind));
    Table executed{std::move(headers)};
    for (std::size_t p = 0; p < config.processor_counts.size(); ++p) {
      std::vector<std::string> row = {
          std::to_string(config.processor_counts[p])};
      for (const SchedulerSeries& series : result.series)
        row.push_back(format_double(series.mean_executed_s[p], 3));
      executed.add_row(std::move(row));
    }
    out << "mean simulated completion time (seconds):\n";
    executed.print(out);
  }
  return 0;
}

int cmd_fault_sweep(const Options& options, std::ostream& out) {
  const long processors = options.get_long("processors", 0);
  if (processors < 3)
    throw InputError("--processors must be >= 3 (relays need an intermediate)");
  const auto n = static_cast<std::size_t>(processors);
  const auto seed = static_cast<std::uint64_t>(options.get_long("seed", 1));
  const Scenario scenario = parse_scenario(options.get("scenario", "mixed"));
  const SchedulerKind kind =
      parse_algorithm(options.get("algorithm", "openshop"));
  const long max_crashes = options.get_long("max-crashes", 2);
  if (max_crashes < 0 || max_crashes > processors - 2)
    throw InputError("--max-crashes must be in [0, processors - 2]");
  const long cut_count = options.get_long("cuts", 1);
  if (cut_count < 0) throw InputError("--cuts must be >= 0");
  const double loss = options.get_double("loss", 0.0);
  if (!(loss >= 0.0) || !(loss < 1.0))
    throw InputError("--loss must be in [0, 1)");
  const long restart_count = options.get_long("restarts", 0);
  if (restart_count < 0 ||
      restart_count + max_crashes > processors - 2)
    throw InputError("--restarts must be >= 0 and leave two healthy nodes");
  const long flap_count = options.get_long("flaps", 0);
  if (flap_count < 0) throw InputError("--flaps must be >= 0");
  const long brownout_count = options.get_long("brownouts", 0);
  if (brownout_count < 0) throw InputError("--brownouts must be >= 0");
  const double brownout_factor = options.get_double("brownout-factor", 0.25);
  if (!(brownout_factor > 0.0) || !(brownout_factor <= 1.0))
    throw InputError("--brownout-factor must be in (0, 1]");
  const long threads = options.get_long("threads", 0);
  if (threads < 0) throw InputError("--threads must be >= 0");
  const long clusters = options.get_long("clusters", 0);
  if (clusters < 0) throw InputError("--clusters must be >= 0");
  const bool hierarchical = options.has("hierarchical");
  const bool replan = options.has("replan");
  const std::string format = options.get("format", "table");
  if (format != "table" && format != "csv" && format != "json")
    throw InputError("unknown fault-sweep format '" + format + "'");

  FaultSweepConfig config;
  config.scenario = scenario;
  config.processors = n;
  config.seed = seed;
  config.kind = kind;
  config.max_crashes = static_cast<std::size_t>(max_crashes);
  config.cut_count = static_cast<std::size_t>(cut_count);
  config.loss = loss;
  config.restart_count = static_cast<std::size_t>(restart_count);
  config.flap_count = static_cast<std::size_t>(flap_count);
  config.brownout_count = static_cast<std::size_t>(brownout_count);
  config.brownout_factor = brownout_factor;
  config.replan = replan;
  config.hierarchical = hierarchical;
  config.cluster_count = static_cast<std::size_t>(clusters);
  config.threads = static_cast<std::size_t>(threads);

  // As in sweep: --workers swaps the compute backend only, the rendered
  // rows are byte-identical either way.
  const FaultSweepResult result = [&] {
    if (!options.has("workers")) return run_fault_sweep(config);
    auto distributed = make_distributed_options(options);
    return service::run_distributed_fault_sweep(config, distributed);
  }();

  if (format == "csv") {
    write_fault_sweep_csv(out, result);
    return 0;
  }
  if (format == "json") {
    write_fault_sweep_json(out, result);
    return 0;
  }

  out << "scenario " << scenario_name(scenario) << ", P = " << n << ", "
      << result.algorithm_name << " schedule, " << cut_count
      << " cut pair(s), loss " << format_double(loss, 2);
  if (restart_count > 0) out << ", " << restart_count << " restart(s)";
  if (flap_count > 0) out << ", " << flap_count << " flapping link(s)";
  if (brownout_count > 0)
    out << ", " << brownout_count << " brownout(s) x"
        << format_double(brownout_factor, 2);
  if (replan) out << ", replan on";
  out << "; fault-free completion "
      << format_double(result.fault_free_completion_s, 4) << " s\n";
  fault_sweep_table(result).print(out);
  return 0;
}

/// Aggregates a recorded trace into a MetricsRegistry: per-kind event
/// counts, span-duration histograms, and completion/ring gauges.
void trace_metrics(const EventTrace& trace, double completion_s,
                   MetricsRegistry& metrics) {
  metrics.counter("trace.recorded").add(trace.recorded());
  metrics.counter("trace.dropped").add(trace.dropped());
  metrics.gauge("trace.completion_s").set_max(completion_s);
  metrics.gauge("trace.processors")
      .set_max(static_cast<double>(trace.processor_count()));
  trace.for_each([&](const TraceEvent& event) {
    const std::string kind(trace_event_kind_name(event.kind));
    metrics.counter("trace.events." + kind).add();
    if (event.t_end_s > event.t_s)
      metrics.histogram("trace.span_s." + kind)
          .observe(event.t_end_s - event.t_s);
  });
}

int cmd_trace(const Options& options, std::ostream& out, std::ostream& err) {
  const long processors = options.get_long("processors", 0);
  if (processors < 2) throw InputError("--processors must be >= 2");
  const auto n = static_cast<std::size_t>(processors);
  const auto seed = static_cast<std::uint64_t>(options.get_long("seed", 1));
  const Scenario scenario = parse_scenario(options.get("scenario", "mixed"));
  const std::string format = options.get("format", "diagram");
  if (format != "diagram" && format != "chrome" && format != "metrics")
    throw InputError("unknown trace format '" + format + "'");
  const std::string model_name = options.get("model", "serialized");
  const long rows = options.get_long("rows", 24);
  if (rows < 1) throw InputError("--rows must be >= 1");
  const long clusters = options.get_long("clusters", 0);
  if (clusters < 0) throw InputError("--clusters must be >= 0");

  // The flags fill in a spec, as a .scn file's drift and [faults] section
  // would, and the run takes the scenario runner's one execution path.
  scenario::ScenarioSpec spec = scenario::instance_spec(
      scenario, n, seed, static_cast<std::size_t>(clusters));
  spec.algorithm = parse_algorithm(options.get("algorithm", "openshop"));
  spec.hierarchical = options.has("hierarchical");
  const DriftingDirectory::Options drift = drift_options(options, 0.0);
  spec.drift_sigma = drift.step_sigma;
  spec.drift_period_s = drift.update_period_s;
  const long crashes = options.get_long("crashes", 0);
  if (crashes < 0 || static_cast<std::size_t>(crashes) + 2 > n)
    throw InputError("--crashes must be in [0, processors - 2]");
  const long restarts = options.get_long("restarts", 0);
  if (restarts < 0 || restarts + crashes > processors - 2)
    throw InputError("--restarts must be >= 0 and leave two healthy nodes");
  const auto count = [&](const std::string& flag) {
    const long value = options.get_long(flag, 0);
    if (value < 0) throw InputError("--" + flag + " must be >= 0");
    return static_cast<std::size_t>(value);
  };
  spec.crashes = static_cast<std::size_t>(crashes);
  spec.restarts = static_cast<std::size_t>(restarts);
  spec.cuts = count("cuts");
  spec.flaps = count("flaps");
  spec.brownouts = count("brownouts");
  spec.loss = options.get_double("loss", 0.0);
  if (!(spec.loss >= 0.0) || !(spec.loss < 1.0))
    throw InputError("--loss must be in [0, 1)");
  spec.brownout_factor = options.get_double("brownout-factor", 0.25);
  if (!(spec.brownout_factor > 0.0) || !(spec.brownout_factor <= 1.0))
    throw InputError("--brownout-factor must be in (0, 1]");
  spec.replan = options.has("replan");
  spec.has_faults = spec.crashes + spec.restarts + spec.cuts + spec.flaps +
                            spec.brownouts > 0 ||
                    spec.loss > 0.0;

  SimOptions sim_options;
  if (model_name == "serialized") {
    sim_options.model = ReceiveModel::kSerialized;
  } else if (model_name == "interleaved") {
    sim_options.model = ReceiveModel::kInterleaved;
  } else if (model_name == "buffered") {
    sim_options.model = ReceiveModel::kBuffered;
  } else {
    throw InputError("unknown receive model '" + model_name + "'");
  }

  const scenario::ResolvedScenario resolved = scenario::resolve_scenario(spec);
  EventTrace trace{scenario::trace_capacity(n)};
  const scenario::Execution exec =
      scenario::execute(resolved, sim_options, trace);

  if (format == "diagram") {
    out << render_trace_diagram(trace, static_cast<std::size_t>(rows));
  } else if (format == "chrome") {
    write_chrome_trace(out, trace);
  } else {
    MetricsRegistry metrics;
    trace_metrics(trace, exec.totals.completion_time, metrics);
    if (spec.has_faults)
      record_metrics(exec.totals, exec.planned.completion_time(), metrics);
    metrics.write_json(out);
    out << '\n';
  }

  if (options.has("audit")) {
    const AuditReport report =
        scenario::audit_execution(spec, sim_options, exec, trace);
    if (!report.ok()) {
      err << "hcs trace: audit failed\n" << report.summary() << '\n';
      return 1;
    }
    err << "audit: clean (" << report.transfers << " transfers, completion "
        << format_double(report.completion_s, 4) << " s)\n";
  }
  return 0;
}

/// Minimal JSON string escaping for diagnostics embedded in --format
/// json output (artifacts themselves are already JSON).
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

int cmd_run_scenarios(const std::string& directory, const Options& options,
                      std::ostream& out) {
  scenario::FleetOptions fleet;
  const long threads = options.get_long("threads", 0);
  if (threads < 0) throw InputError("--threads must be >= 0");
  fleet.threads = static_cast<std::size_t>(threads);
  fleet.filter = options.get("filter", "");
  const char* env_update = std::getenv("HCS_UPDATE_GOLDEN");
  fleet.update_golden = options.has("update-golden") ||
                        (env_update != nullptr && env_update[0] != '\0');
  const std::string format = options.get("format", "table");
  if (format != "table" && format != "json")
    throw InputError("--format must be table or json");

  const scenario::FleetResult result =
      scenario::run_scenario_directory(directory, fleet);

  if (format == "json") {
    out << "{\"scenarios\":[";
    for (std::size_t k = 0; k < result.entries.size(); ++k) {
      const scenario::FleetEntry& entry = result.entries[k];
      out << (k > 0 ? "," : "") << "{\"file\":\"" << json_escape(entry.file)
          << "\",\"name\":\"" << json_escape(entry.scenario)
          << "\",\"status\":\"" << scenario::fleet_status_name(entry.status)
          << "\",\"detail\":\"" << json_escape(entry.detail)
          << "\",\"artifact\":";
      if (entry.artifact.empty()) {
        out << "null";
      } else {
        // The artifact is itself JSON; embed it verbatim, sans the
        // trailing newline.
        std::string_view artifact = entry.artifact;
        while (!artifact.empty() && artifact.back() == '\n')
          artifact.remove_suffix(1);
        out << artifact;
      }
      out << '}';
    }
    out << "]}\n";
  } else {
    Table table{{"file", "scenario", "status", "detail"}};
    std::size_t good = 0;
    for (const scenario::FleetEntry& entry : result.entries) {
      table.add_row({entry.file, entry.scenario,
                     std::string(scenario::fleet_status_name(entry.status)),
                     entry.detail});
      if (entry.status == scenario::FleetStatus::kOk ||
          entry.status == scenario::FleetStatus::kUpdated)
        ++good;
    }
    table.print(out);
    out << result.entries.size() << " scenario(s): " << good << " ok, "
        << result.entries.size() - good << " failing\n";
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

Options::Options(const std::vector<std::string>& args, std::size_t from,
                 const std::vector<std::string>& allowed) {
  for (std::size_t k = from; k < args.size(); ++k) {
    const std::string& arg = args[k];
    if (arg.rfind("--", 0) != 0)
      throw InputError("unexpected argument '" + arg + "'");
    const std::string key = arg.substr(2);
    bool known = false;
    for (const std::string& candidate : allowed)
      if (candidate == key) known = true;
    if (!known) throw InputError("unknown option '--" + key + "'");
    // Bare flag when the next token is absent or another option.
    if (k + 1 < args.size() && args[k + 1].rfind("--", 0) != 0) {
      values_.emplace_back(key, args[k + 1]);
      ++k;
    } else {
      values_.emplace_back(key, "");
    }
  }
}

bool Options::has(const std::string& key) const {
  for (const auto& [k, v] : values_)
    if (k == key) return true;
  return false;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  for (const auto& [k, v] : values_)
    if (k == key) return v;
  return fallback;
}

long Options::get_long(const std::string& key, long fallback) const {
  const std::string value = get(key, "");
  if (value.empty()) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0')
    throw InputError("option --" + key + " expects an integer");
  return parsed;
}

double Options::get_double(const std::string& key, double fallback) const {
  const std::string value = get(key, "");
  if (value.empty()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0')
    throw InputError("option --" + key + " expects a number");
  return parsed;
}

DriftingDirectory::Options drift_options(const Options& options,
                                         double default_sigma) {
  DriftingDirectory::Options drift;
  drift.step_sigma = options.get_double("drift", default_sigma);
  if (!std::isfinite(drift.step_sigma) || drift.step_sigma < 0.0)
    throw InputError("--drift must be finite and non-negative");
  drift.update_period_s = options.get_double("drift-period", 1.0);
  if (!std::isfinite(drift.update_period_s) || drift.update_period_s <= 0.0)
    throw InputError("--drift-period must be finite and positive");
  return drift;
}

int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      out << kUsage;
      return args.empty() ? 2 : 0;
    }
    const std::string& command = args[0];
    if (command == "generate") {
      const Options options(args, 1, {"processors", "seed", "scenario"});
      return cmd_generate(options, out);
    }
    if (command == "schedule") {
      const Options options(args, 1, {"algorithm", "diagram", "events", "stats"});
      return cmd_schedule(options, in, out);
    }
    if (command == "simulate") {
      const Options options(
          args, 1, {"processors", "seed", "scenario", "algorithm", "drift"});
      return cmd_simulate(options, out);
    }
    if (command == "sweep") {
      const Options options(args, 1,
                            {"processors", "repetitions", "seed", "scenario",
                             "algorithm", "threads", "execute", "ratios",
                             "hierarchical", "clusters", "format", "workers",
                             "shard-units"});
      return cmd_sweep(options, out);
    }
    if (command == "fault-sweep") {
      const Options options(
          args, 1,
          {"processors", "seed", "scenario", "algorithm", "max-crashes",
           "cuts", "loss", "restarts", "flaps", "brownouts", "brownout-factor",
           "replan", "hierarchical", "clusters", "format", "threads",
           "workers", "shard-units"});
      return cmd_fault_sweep(options, out);
    }
    if (command == "trace") {
      const Options options(
          args, 1,
          {"processors", "seed", "scenario", "algorithm", "model", "drift",
           "crashes", "cuts", "loss", "restarts", "flaps", "brownouts",
           "brownout-factor", "replan", "hierarchical", "clusters", "format",
           "rows", "audit"});
      return cmd_trace(options, out, err);
    }
    if (command == "run-scenarios") {
      if (args.size() < 2 || args[1].rfind("--", 0) == 0)
        throw InputError("run-scenarios requires a scenario directory");
      const Options options(
          args, 2, {"threads", "filter", "format", "update-golden"});
      return cmd_run_scenarios(args[1], options, out);
    }
    if (command == "lowerbound") {
      (void)Options(args, 1, {});
      return cmd_lowerbound(in, out);
    }
    if (command == "replay") {
      const Options options(
          args, 1,
          {"socket", "requests", "connections", "processors", "scenario",
           "algorithm", "hierarchical", "seed", "distinct", "time-step",
           "arrival", "rate", "burst", "format", "scrape", "shutdown"});
      return cmd_replay(options, out);
    }
    if (command == "broadcast") {
      const Options options(args, 1,
                            {"processors", "seed", "root", "bytes", "algorithm"});
      return cmd_broadcast(options, out);
    }
    err << "hcs: unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const InputError& error) {
    err << "hcs: " << error.what() << '\n';
    return 1;
  } catch (const std::exception& error) {
    err << "hcs: internal error: " << error.what() << '\n';
    return 1;
  }
}

}  // namespace hcs::cli
