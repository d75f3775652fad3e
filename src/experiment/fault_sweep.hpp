// Fault-severity sweep harness.
//
// Sweeps crash-stop severity 0..max_crashes on one random instance under
// a fixed static-fault background (cut pairs, transient loss) plus
// recoverable dynamic faults (crash-restart windows, flapping links,
// brownouts), executing every severity row with the fault-tolerant
// executor. Extracted from the `hcs fault-sweep` command so the rows can
// also be computed remotely: like the figure sweep
// (experiment/sweep_units.hpp), a row's values depend only on (config,
// row index, baseline), so any worker computes the same doubles and the
// merged result is byte-identical to a single-process run.
//
// The row index space is the crash count: unit u ∈ [0, max_crashes]
// computes the row with u crashed nodes. The fault-free baseline is
// computed once (FaultSweepContext::fault_free_completion) and passed to
// every row — it fixes the dynamic-fault horizon and the crash stagger,
// so it must be identical across workers; the distributed driver ships
// it in the shard spec.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "workload/scenario.hpp"

namespace hcs {

/// One fault-severity sweep: the instance, the scheduler, the fault
/// background, and how many severity rows.
struct FaultSweepConfig {
  Scenario scenario = Scenario::kMixedMessages;
  std::size_t processors = 16;
  std::uint64_t seed = 1;
  SchedulerKind kind = SchedulerKind::kOpenShop;
  std::size_t max_crashes = 2;   ///< rows 0..max_crashes inclusive
  std::size_t cut_count = 1;     ///< permanently cut pairs, shared by rows
  double loss = 0.0;             ///< per-attempt transient loss probability
  std::size_t restart_count = 0; ///< crash-restart windows
  std::size_t flap_count = 0;    ///< periodically flapping links
  std::size_t brownout_count = 0;
  double brownout_factor = 0.25; ///< brownout bandwidth fraction
  bool replan = false;           ///< online re-planning on
  bool hierarchical = false;
  std::size_t cluster_count = 0; ///< clustered instance family when > 0
  std::size_t threads = 0;       ///< local row workers (0 = per-CPU)
};

/// One severity row: the delivery mix and completion at `crashes`
/// crash-stopped nodes. (The overhead ratio is completion_s divided by
/// the sweep's fault-free baseline; renderers compute it.)
struct FaultSweepRow {
  std::size_t crashes = 0;
  std::size_t direct = 0;
  std::size_t rescued = 0;
  std::size_t relayed = 0;
  std::size_t undeliverable = 0;
  std::size_t replans = 0;
  double completion_s = 0.0;
};

struct FaultSweepResult {
  FaultSweepConfig config;
  std::string algorithm_name;        ///< display name incl. hierarchical wrap
  double fault_free_completion_s = 0.0;
  std::vector<FaultSweepRow> rows;   ///< rows 0..max_crashes in order
};

/// Throws InputError on out-of-contract values (too few processors for
/// relays, crash/restart budget exceeding the healthy-node floor, loss
/// or brownout factor out of range). Shared by the CLI and the shard
/// decoder.
void validate_fault_sweep_config(const FaultSweepConfig& config);

/// Per-worker view of one sweep. Each row resolves the config as a
/// scenario spec (scenario::instance_spec plus the [faults] fields, with
/// the row's crash count) through the scenario builders: resolve_scenario
/// for the instance and scheduler, make_fault_plan and
/// make_resilient_options scaled to the baseline. Rows are computed by
/// value and are safe to run from multiple threads on one context (each
/// row builds its own instance and scheduler).
class FaultSweepContext {
 public:
  explicit FaultSweepContext(const FaultSweepConfig& config);

  /// The fault-free completion time (row horizon and overhead baseline).
  [[nodiscard]] double fault_free_completion() const;

  /// Computes the severity row with `crashes` crash-stopped nodes.
  [[nodiscard]] FaultSweepRow run_row(std::size_t crashes,
                                      double baseline_s) const;

  /// Display name of the configured scheduler.
  [[nodiscard]] std::string algorithm_name() const;

 private:
  FaultSweepConfig config_;
};

/// Runs the whole sweep on the local ThreadPool. Deterministic at any
/// thread count: rows land in per-row slots assembled in row order.
[[nodiscard]] FaultSweepResult run_fault_sweep(const FaultSweepConfig& config);

/// Row <-> doubles conversion for the shard codec. Counts are carried as
/// doubles (exact: they are far below 2^53).
inline constexpr std::size_t kFaultRowValues = 6;
void fault_row_to_values(const FaultSweepRow& row, std::span<double> out);
[[nodiscard]] FaultSweepRow fault_row_from_values(std::size_t crashes,
                                                  std::span<const double> in);

}  // namespace hcs
