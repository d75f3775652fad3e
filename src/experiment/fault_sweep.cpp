#include "experiment/fault_sweep.hpp"

#include "fault/resilient.hpp"
#include "netmodel/directory.hpp"
#include "scenario/resolve.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace hcs {
namespace {

/// The sweep as a scenario spec with `crashes` crash-stopped nodes: the
/// cut pairs, loss and dynamic faults are the same in every row, so rows
/// differ only in how many nodes crash.
scenario::ScenarioSpec row_spec(const FaultSweepConfig& config,
                                std::size_t crashes) {
  scenario::ScenarioSpec spec = scenario::instance_spec(
      config.scenario, config.processors, config.seed, config.cluster_count);
  spec.algorithm = config.kind;
  spec.hierarchical = config.hierarchical;
  spec.has_faults = true;
  spec.crashes = crashes;
  spec.cuts = config.cut_count;
  spec.loss = config.loss;
  spec.restarts = config.restart_count;
  spec.flaps = config.flap_count;
  spec.brownouts = config.brownout_count;
  spec.brownout_factor = config.brownout_factor;
  spec.replan = config.replan;
  return spec;
}

}  // namespace

void validate_fault_sweep_config(const FaultSweepConfig& config) {
  if (config.processors < 3)
    throw InputError(
        "fault-sweep: --processors must be >= 3 (relays need an "
        "intermediate)");
  if (config.max_crashes > config.processors - 2)
    throw InputError("fault-sweep: --max-crashes must be in [0, processors - 2]");
  if (!(config.loss >= 0.0) || !(config.loss < 1.0))
    throw InputError("fault-sweep: --loss must be in [0, 1)");
  if (config.restart_count + config.max_crashes > config.processors - 2)
    throw InputError(
        "fault-sweep: --restarts must be >= 0 and leave two healthy nodes");
  if (!(config.brownout_factor > 0.0) || !(config.brownout_factor <= 1.0))
    throw InputError("fault-sweep: --brownout-factor must be in (0, 1]");
}

FaultSweepContext::FaultSweepContext(const FaultSweepConfig& config)
    : config_(config) {}

double FaultSweepContext::fault_free_completion() const {
  const scenario::ResolvedScenario resolved =
      scenario::resolve_scenario(row_spec(config_, 0));
  const StaticDirectory directory{resolved.network};
  return run_resilient(*resolved.scheduler, directory, resolved.messages, {},
                       {})
      .completion_time;
}

FaultSweepRow FaultSweepContext::run_row(std::size_t crashes,
                                         double baseline_s) const {
  const scenario::ScenarioSpec spec = row_spec(config_, crashes);
  const scenario::ResolvedScenario resolved = scenario::resolve_scenario(spec);
  const StaticDirectory directory{resolved.network};
  const ResilientResult result = run_resilient(
      *resolved.scheduler, directory, resolved.messages,
      scenario::make_fault_plan(spec, baseline_s),
      scenario::make_resilient_options(spec, baseline_s));
  const std::size_t delivered_direct =
      result.outcomes.size() - result.relayed_count - result.undelivered_count;
  FaultSweepRow row;
  row.crashes = crashes;
  row.direct = delivered_direct - result.rescued_count;
  row.rescued = result.rescued_count;
  row.relayed = result.relayed_count;
  row.undeliverable = result.undelivered_count;
  row.replans = result.replan_count;
  row.completion_s = result.completion_time;
  return row;
}

std::string FaultSweepContext::algorithm_name() const {
  return std::string(
      scenario::resolve_scenario(row_spec(config_, 0)).scheduler->name());
}

FaultSweepResult run_fault_sweep(const FaultSweepConfig& config) {
  validate_fault_sweep_config(config);
  FaultSweepContext context(config);

  FaultSweepResult result;
  result.config = config;
  result.algorithm_name = context.algorithm_name();
  result.fault_free_completion_s = context.fault_free_completion();

  // Severity rows are independent, so they run on the pool. Each row
  // builds its own scheduler: schedulers carry mutable per-instance
  // workspaces and are not safe to share across threads. Rows land in
  // per-row slots assembled in row order, so the output is identical at
  // every thread count — and identical to a distributed run that
  // computed the rows elsewhere from the same baseline.
  const std::size_t row_count = config.max_crashes + 1;
  result.rows.resize(row_count);
  ThreadPool pool{ThreadPool::resolve_size(config.threads, row_count)};
  pool.run(row_count, [&](std::size_t /*worker*/, std::size_t row) {
    result.rows[row] = context.run_row(row, result.fault_free_completion_s);
  });
  return result;
}

void fault_row_to_values(const FaultSweepRow& row, std::span<double> out) {
  out[0] = static_cast<double>(row.direct);
  out[1] = static_cast<double>(row.rescued);
  out[2] = static_cast<double>(row.relayed);
  out[3] = static_cast<double>(row.undeliverable);
  out[4] = static_cast<double>(row.replans);
  out[5] = row.completion_s;
}

FaultSweepRow fault_row_from_values(std::size_t crashes,
                                    std::span<const double> in) {
  FaultSweepRow row;
  row.crashes = crashes;
  row.direct = static_cast<std::size_t>(in[0]);
  row.rescued = static_cast<std::size_t>(in[1]);
  row.relayed = static_cast<std::size_t>(in[2]);
  row.undeliverable = static_cast<std::size_t>(in[3]);
  row.replans = static_cast<std::size_t>(in[4]);
  row.completion_s = in[5];
  return row;
}

}  // namespace hcs
