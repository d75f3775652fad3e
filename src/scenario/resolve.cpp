#include "scenario/resolve.hpp"

#include <algorithm>
#include <utility>

#include "core/hierarchical_scheduler.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/generator.hpp"
#include "netmodel/gusto.hpp"
#include "netmodel/link_params.hpp"
#include "qos/qos_scheduler.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace hcs::scenario {
namespace {

NetworkModel make_network(const ScenarioSpec& spec,
                          std::uint64_t network_seed) {
  switch (spec.family) {
    case TopologyFamily::kGusto:
      return gusto::network();
    case TopologyFamily::kClustered: {
      ClusteredNetworkOptions options;
      options.cluster_count = spec.sites;
      return generate_clustered_network(spec.processors, network_seed,
                                        options);
    }
    case TopologyFamily::kFlat:
      break;
  }
  return generate_network(spec.processors, network_seed);
}

MessageMatrix make_messages(const ScenarioSpec& spec,
                            std::uint64_t workload_seed) {
  const std::size_t n = spec.processors;
  switch (spec.workload) {
    case WorkloadKind::kSmall: return uniform_messages(n, kKiB);
    case WorkloadKind::kLarge: return uniform_messages(n, kMiB);
    case WorkloadKind::kMixed:
      return mixed_messages(n, workload_seed, {kKiB, kMiB});
    case WorkloadKind::kServers:
      return server_client_messages(n, workload_seed);
    case WorkloadKind::kUniform:
      return uniform_messages(n, spec.uniform_bytes);
    case WorkloadKind::kTranspose:
      return transpose_messages(n, spec.transpose_rows, spec.transpose_cols,
                                spec.element_bytes);
  }
  return uniform_messages(n, kKiB);
}

QosSpec make_qos(const ScenarioSpec& spec, double lower_bound_s) {
  QosSpec qos = QosSpec::unconstrained(spec.processors);
  if (!spec.has_qos) return qos;
  const std::size_t n = spec.processors;
  for (std::size_t src = 0; src < n; ++src)
    for (std::size_t dst = 0; dst < n; ++dst)
      if (src != dst)
        qos.deadline_s(src, dst) = spec.deadline_factor * lower_bound_s;
  // Tight pairs get a shorter deadline and a higher priority; draws are
  // decorrelated from the instance seeds by a fixed salt.
  Rng rng{spec.seed ^ 0x71D3ADE5ULL};
  std::vector<char> tight(n * n, 0);
  std::size_t placed = 0;
  while (placed < spec.tight_pairs) {
    const auto src = static_cast<std::size_t>(rng.next_below(n));
    const auto dst = static_cast<std::size_t>(rng.next_below(n));
    if (src == dst || tight[src * n + dst] != 0) continue;
    tight[src * n + dst] = 1;
    qos.deadline_s(src, dst) = spec.tight_factor * lower_bound_s;
    qos.priority(src, dst) = spec.tight_priority;
    ++placed;
  }
  return qos;
}

std::unique_ptr<Scheduler> make_spec_scheduler(const ScenarioSpec& spec,
                                               const NetworkModel& network,
                                               const QosSpec& qos) {
  if (spec.qos_scheduler) {
    return std::make_unique<QosScheduler>(qos, spec.ordering);
  }
  if (spec.hierarchical) {
    HierarchicalScheduler::Options options;
    options.inner = spec.algorithm;
    options.seed = spec.seed;
    return std::make_unique<HierarchicalScheduler>(detect_clusters(network),
                                                   options);
  }
  return make_scheduler(spec.algorithm, spec.seed);
}

}  // namespace

ScenarioSpec instance_spec(Scenario scenario, std::size_t processors,
                           std::uint64_t seed, std::size_t cluster_count) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.processors = processors;
  if (cluster_count > 0) {
    spec.family = TopologyFamily::kClustered;
    spec.sites = cluster_count;
  }
  switch (scenario) {
    case Scenario::kSmallMessages: spec.workload = WorkloadKind::kSmall; break;
    case Scenario::kLargeMessages: spec.workload = WorkloadKind::kLarge; break;
    case Scenario::kMixedMessages: spec.workload = WorkloadKind::kMixed; break;
    case Scenario::kServers: spec.workload = WorkloadKind::kServers; break;
  }
  return spec;
}

ResolvedScenario resolve_scenario(const ScenarioSpec& spec) {
  // make_instance's sub-seed convention: one seeder, network draw first,
  // workload draw second, so paper workloads on flat/clustered fabrics
  // reproduce the figure sweeps' instances bit-for-bit.
  Rng seeder{spec.seed};
  const std::uint64_t network_seed = seeder.next_u64();
  const std::uint64_t workload_seed = seeder.next_u64();

  NetworkModel network = make_network(spec, network_seed);
  MessageMatrix messages = make_messages(spec, workload_seed);
  CommMatrix comm{network, messages};
  const double lower_bound_s = comm.lower_bound();
  QosSpec qos = make_qos(spec, lower_bound_s);
  std::unique_ptr<Scheduler> scheduler =
      make_spec_scheduler(spec, network, qos);
  return ResolvedScenario{spec,
                          std::move(network),
                          std::move(messages),
                          std::move(comm),
                          lower_bound_s,
                          std::move(qos),
                          std::move(scheduler)};
}

FaultPlan make_fault_plan(const ScenarioSpec& spec, double horizon_s) {
  FaultPlan plan;
  if (!spec.has_faults) return plan;
  const std::size_t n = spec.processors;
  plan.transient_loss_prob = spec.loss;
  plan.seed = spec.seed;

  Rng cut_rng{spec.seed ^ 0xFA17FA17ULL};
  while (plan.cuts.size() < spec.cuts) {
    const auto a = static_cast<std::size_t>(cut_rng.next_below(n));
    const auto b = static_cast<std::size_t>(cut_rng.next_below(n));
    if (a == b) continue;
    plan.cuts.push_back({a, b, 0.0, 1e12});  // outlasts any run
  }

  // Crash the highest-numbered nodes at staggered mid-exchange times.
  for (std::size_t k = 0; k < spec.crashes; ++k)
    plan.crashes.push_back(
        {n - 1 - k, 0.25 * horizon_s * static_cast<double>(k + 1)});

  // Crash-restart windows on the lowest-numbered nodes; waiting them out
  // (the replan path's backoff) recovers the traffic.
  for (std::size_t k = 0; k < spec.restarts; ++k) {
    const double at = (0.05 + 0.1 * static_cast<double>(k)) * horizon_s;
    plan.restarts.push_back({k, at, at + 0.35 * horizon_s});
  }

  Rng rng{spec.seed ^ 0xD15EA5EDULL};
  while (plan.flapping.size() < spec.flaps) {
    const auto a = static_cast<std::size_t>(rng.next_below(n));
    const auto b = static_cast<std::size_t>(rng.next_below(n));
    if (a == b) continue;
    plan.flapping.push_back(
        {a, b, 0.0, horizon_s, std::max(horizon_s / 8.0, 1e-9), 0.3, true});
  }
  while (plan.brownouts.size() < spec.brownouts) {
    const auto a = static_cast<std::size_t>(rng.next_below(n));
    const auto b = static_cast<std::size_t>(rng.next_below(n));
    if (a == b) continue;
    plan.brownouts.push_back(
        {a, b, 0.0, 0.6 * horizon_s, spec.brownout_factor, true});
  }
  return plan;
}

ResilientOptions make_resilient_options(const ScenarioSpec& spec,
                                        double horizon_s) {
  ResilientOptions options;
  if (spec.replan) {
    options.replan.enabled = true;
    options.replan.max_replans = 4;
    options.replan.backoff_base_s = 0.1 * horizon_s;
    options.replan.backoff_factor = 2.0;
  }
  return options;
}

}  // namespace hcs::scenario
