// Scenario resolution: ScenarioSpec -> runnable problem instance.
//
// Resolution composes the existing builders — workload/scenario.hpp's
// figure instances, netmodel's flat/clustered/GUSTO fabrics, src/qos
// deadline specs, core's flat/hierarchical/QoS schedulers — into one
// ResolvedScenario. Everything is a pure function of the spec: the same
// file resolves to bit-identical instances on every run, which is what
// lets the fleet runner (scenario/runner.hpp) diff artifacts against
// checked-in goldens.
//
// Seeding follows make_instance's convention (one Rng{seed} drawing a
// network sub-seed then a workload sub-seed), so a .scn file with a paper
// workload on a flat or clustered fabric generates exactly the instance
// the figure sweeps generate for the same (P, seed).
#pragma once

#include <memory>

#include "core/comm_matrix.hpp"
#include "core/scheduler.hpp"
#include "fault/resilient.hpp"
#include "netmodel/network_model.hpp"
#include "qos/qos_types.hpp"
#include "scenario/spec.hpp"
#include "workload/generators.hpp"
#include "workload/scenario.hpp"

namespace hcs::scenario {

/// A spec resolved into concrete inputs: the network snapshot, the
/// message matrix, their communication matrix (with the paper's t_lb),
/// the QoS annotations (unconstrained unless the spec has a [qos]
/// section), and the configured scheduler.
struct ResolvedScenario {
  ScenarioSpec spec;
  NetworkModel network;
  MessageMatrix messages;
  CommMatrix comm;
  double lower_bound_s = 0.0;
  QosSpec qos;
  std::unique_ptr<Scheduler> scheduler;
};

/// The spec that resolves to make_instance(scenario, processors, seed,
/// cluster_count)'s network and messages: the flat family, or the
/// clustered one with `cluster_count` sites, and the figure workload of
/// `scenario`. The CLI's trace command and the fault sweep start from it
/// and fill in the scheduler and [faults] fields.
[[nodiscard]] ScenarioSpec instance_spec(Scenario scenario,
                                         std::size_t processors,
                                         std::uint64_t seed,
                                         std::size_t cluster_count = 0);

/// Resolves `spec`. Deterministic; throws InputError only on internal
/// inconsistencies (parse_scenario already validated the spec).
[[nodiscard]] ResolvedScenario resolve_scenario(const ScenarioSpec& spec);

/// Synthesizes the spec's [faults] section into a FaultPlan, scaled to
/// the run's planned makespan. The only fault-plan synthesis: scenario
/// files, `hcs trace` and the fault sweep all come through here.
/// Crash-stops are staggered on the highest-numbered nodes at
/// 0.25 * horizon * (k+1), crash-restart windows on the lowest-numbered
/// nodes, permanent seeded cut pairs, and seeded flapping/brownout pairs.
/// Empty when the spec has no [faults] section.
[[nodiscard]] FaultPlan make_fault_plan(const ScenarioSpec& spec,
                                        double horizon_s);

/// Resilient-executor options for the spec: the default policy, plus a
/// budgeted replan policy when the spec asks for replan (backoff
/// concedes enough wall-clock for mid-horizon recovery windows to pass).
[[nodiscard]] ResilientOptions make_resilient_options(const ScenarioSpec& spec,
                                                      double horizon_s);

}  // namespace hcs::scenario
