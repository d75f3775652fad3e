// Scenario execution and the golden-artifact fleet runner.
//
// execute is the one execution path for a resolved instance: the fleet
// runner, `hcs trace` and `hcs simulate` all run through it. run_scenario
// is resolve -> execute -> audit -> render, checking the spec's
// expectations and rendering one deterministic JSON artifact: fixed key
// order, format_double-rendered numbers, no timestamps, no environment —
// so a checked-in golden copy is a regression test.
//
// run_scenario_directory is the fleet driver behind `hcs run-scenarios`:
// every *.scn file in a directory runs on the deterministic strided
// ThreadPool (byte-identical results at any thread count), and each
// artifact is compared byte-for-byte against DIR/golden/<name>.json.
// Setting FleetOptions::update_golden (the CLI's --update-golden, or
// HCS_UPDATE_GOLDEN in the environment) regenerates the goldens instead.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "fault/resilient.hpp"
#include "scenario/resolve.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "trace/auditor.hpp"
#include "trace/trace.hpp"

namespace hcs::scenario {

/// Deadline compliance of what actually executed (as opposed to
/// evaluate_qos on the planned schedule): delivered messages are late
/// when they finish past their deadline; undelivered messages with a
/// finite deadline count as missed outright.
struct ExecutedQos {
  std::size_t missed = 0;
  double max_tardiness_s = 0.0;
  double weighted_tardiness_s = 0.0;

  void add(std::size_t src, std::size_t dst, double finish_s, bool delivered,
           const QosSpec& qos);
};

/// What one execution of a resolved scenario planned and did.
struct Execution {
  explicit Execution(Schedule plan) : planned(std::move(plan)) {}

  Schedule planned;  ///< the spec scheduler's plan, validated
  /// A fault-free run fills completion_time, failed_attempts and
  /// undelivered_count only.
  ResilientTotals totals;
  std::size_t events_executed = 0;
  std::size_t direct = 0;  ///< delivered, not relayed or rescued
  double total_sender_wait_s = 0.0;  ///< fault-free runs only
  ExecutedQos qos;  ///< empty unless the spec has a [qos] section
};

/// Plans with the spec's scheduler, validates the plan, builds the live
/// directory once (make_live_directory) and runs the plan on it: through
/// run_resilient_traced with the spec's fault plan when the spec has
/// faults, else on the simulator under `options`. Records every executed
/// event into `trace`. Throws InputError for faults under a receive model
/// other than serialized, the only one the fault-tolerant executor models.
[[nodiscard]] Execution execute(const ResolvedScenario& resolved,
                                const SimOptions& options, EventTrace& trace);

/// Audits what `execute` recorded: serialized receives only under the
/// serialized model, and no completion cross-check for a faulty run, whose
/// completion includes give-up instants that engage no port.
[[nodiscard]] AuditReport audit_execution(const ScenarioSpec& spec,
                                          const SimOptions& options,
                                          const Execution& execution,
                                          const EventTrace& trace);

/// Ring capacity that holds a whole P-processor run: ~4 events per ordered
/// pair (more under retries and relays), at least the default ring. The
/// reservation stays virtual until written, so slack costs no memory.
[[nodiscard]] std::size_t trace_capacity(std::size_t processors);

/// Outcome of one scenario execution.
struct ScenarioRun {
  /// The deterministic JSON artifact (newline-terminated).
  std::string artifact;
  /// Unmet expectations and audit violations; empty = the run is good.
  std::vector<std::string> failures;

  // Headline numbers, for tests that assert on behavior without parsing
  // the artifact.
  double lower_bound_s = 0.0;
  double planned_s = 0.0;
  double executed_s = 0.0;
  std::size_t undeliverable = 0;
  std::size_t executed_missed_deadlines = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Executes one scenario end to end. Deterministic in `spec`; safe to
/// call concurrently for different specs.
[[nodiscard]] ScenarioRun run_scenario(const ScenarioSpec& spec);

/// How one fleet entry resolved.
enum class FleetStatus {
  kOk,             ///< ran clean, artifact matches its golden
  kUpdated,        ///< ran clean, golden (re)written (update_golden)
  kParseError,     ///< the .scn file failed to parse or validate
  kFailed,         ///< an expectation or audit failed (see detail)
  kGoldenMissing,  ///< ran clean but no golden exists (run --update-golden)
  kGoldenDiff,     ///< ran clean but the artifact differs from the golden
};

/// Stable lower-case status name ("ok", "parse-error", ...).
[[nodiscard]] std::string_view fleet_status_name(FleetStatus status);

/// Fleet-runner configuration.
struct FleetOptions {
  /// Worker threads (0 = one per allowed hardware thread).
  std::size_t threads = 0;
  /// Write artifacts to DIR/golden/ instead of diffing against them.
  bool update_golden = false;
  /// When non-empty, only files whose name contains this substring run.
  std::string filter;
};

/// One scenario file's fleet outcome.
struct FleetEntry {
  std::string file;      ///< scenario file name (no directory)
  std::string scenario;  ///< spec name; empty on parse error
  FleetStatus status = FleetStatus::kOk;
  std::string detail;    ///< diagnostic for non-ok statuses
  std::string artifact;  ///< rendered artifact; empty on parse error
};

/// A whole directory's outcome, in file-name order.
struct FleetResult {
  std::vector<FleetEntry> entries;

  /// True when every entry is kOk or kUpdated.
  [[nodiscard]] bool ok() const;
};

/// Runs every *.scn file under `directory` (not recursive). Scenarios
/// execute on the strided ThreadPool into per-index slots, then goldens
/// are compared (or rewritten) serially in file-name order, so the
/// result is byte-identical at every thread count. Throws InputError
/// when the directory is missing or holds no matching scenario files.
[[nodiscard]] FleetResult run_scenario_directory(const std::string& directory,
                                                 const FleetOptions& options = {});

}  // namespace hcs::scenario
