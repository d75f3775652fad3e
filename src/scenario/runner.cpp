#include "scenario/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "netmodel/directory.hpp"
#include "sim/send_program.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace hcs::scenario {
namespace {

std::string render_artifact(const ResolvedScenario& resolved,
                            const Execution& exec, const AuditReport& audit,
                            const EventTrace& trace) {
  const ScenarioSpec& spec = resolved.spec;
  const Schedule& planned = exec.planned;
  const double lb = resolved.lower_bound_s;
  const double ratio =
      lb > 0.0 ? planned.completion_time() / lb : 1.0;
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": \"" << spec.name << "\",\n";
  out << "  \"processors\": " << spec.processors << ",\n";
  out << "  \"seed\": " << spec.seed << ",\n";
  out << "  \"topology\": \"" << topology_family_name(spec.family)
      << "\",\n";
  out << "  \"workload\": \"" << workload_kind_name(spec.workload)
      << "\",\n";
  out << "  \"scheduler\": \"" << resolved.scheduler->name() << "\",\n";
  out << "  \"lower_bound_s\": " << format_double(lb, 6) << ",\n";
  out << "  \"planned_s\": " << format_double(planned.completion_time(), 6)
      << ",\n";
  out << "  \"planned_ratio\": " << format_double(ratio, 6) << ",\n";
  out << "  \"executed_s\": " << format_double(exec.totals.completion_time, 6)
      << ",\n";
  out << "  \"audit\": \""
      << (audit.ok() ? "clean"
                     : "violations: " + std::to_string(
                                            audit.violations.size()))
      << "\",\n";
  out << "  \"audit_transfers\": " << audit.transfers << ",\n";
  out << "  \"events_executed\": " << exec.events_executed << ",\n";
  out << "  \"outcomes\": {\"direct\": " << exec.direct
      << ", \"relayed\": " << exec.totals.relayed_count
      << ", \"rescued\": " << exec.totals.rescued_count
      << ", \"undeliverable\": " << exec.totals.undelivered_count << "},\n";
  out << "  \"replans\": " << exec.totals.replan_count << ",\n";
  out << "  \"reschedules\": " << exec.totals.reschedule_count << ",\n";
  out << "  \"failed_attempts\": " << exec.totals.failed_attempts << ",\n";
  if (spec.has_qos) {
    const QosMetrics planned_qos = evaluate_qos(planned, resolved.qos);
    out << "  \"qos\": {\"planned_missed\": " << planned_qos.missed_deadlines
        << ", \"planned_max_tardiness_s\": "
        << format_double(planned_qos.max_tardiness_s, 6)
        << ", \"executed_missed\": " << exec.qos.missed
        << ", \"executed_max_tardiness_s\": "
        << format_double(exec.qos.max_tardiness_s, 6)
        << ", \"executed_weighted_tardiness_s\": "
        << format_double(exec.qos.weighted_tardiness_s, 6) << "},\n";
  }
  out << "  \"trace\": {\"recorded\": " << trace.recorded()
      << ", \"dropped\": " << trace.dropped() << "}\n";
  out << "}\n";
  return out.str();
}

void check_expectations(const ScenarioSpec& spec, const Execution& exec,
                        const AuditReport& audit, const EventTrace& trace,
                        double lb, std::vector<std::string>& failures) {
  const double planned_s = exec.planned.completion_time();
  if (!audit.ok())
    failures.push_back("audit: " + std::to_string(audit.violations.size()) +
                       " violation(s), first: " + audit.violations.front());
  if (trace.dropped() > 0)
    failures.push_back("trace ring dropped " +
                       std::to_string(trace.dropped()) +
                       " event(s); the audit window is incomplete");
  if (spec.expect_complete && !exec.totals.complete())
    failures.push_back("expected completion but " +
                       std::to_string(exec.totals.undelivered_count) +
                       " message(s) were undeliverable");
  if (spec.expect_max_ratio > 0.0 && lb > 0.0 &&
      planned_s > spec.expect_max_ratio * lb)
    failures.push_back("planned ratio " + format_double(planned_s / lb, 4) +
                       " exceeds max_ratio_to_lb " +
                       format_double(spec.expect_max_ratio, 4));
  if (spec.expect_deadlines_met && exec.qos.missed > 0)
    failures.push_back("expected all deadlines met but " +
                       std::to_string(exec.qos.missed) +
                       " executed message(s) missed theirs");
}

/// 1-based line of the first difference between two artifact texts.
std::size_t first_diff_line(std::string_view a, std::string_view b) {
  std::size_t line = 1;
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t k = 0; k < common; ++k) {
    if (a[k] != b[k]) return line;
    if (a[k] == '\n') ++line;
  }
  return line;
}

std::string golden_file_name(const ScenarioSpec& spec) {
  return spec.golden.empty() ? spec.name + ".json" : spec.golden;
}

}  // namespace

void ExecutedQos::add(std::size_t src, std::size_t dst, double finish_s,
                      bool delivered, const QosSpec& qos) {
  const double deadline = qos.deadline_s(src, dst);
  if (delivered && finish_s <= deadline) return;
  if (!delivered && deadline == std::numeric_limits<double>::infinity())
    return;
  const double tardiness = std::max(0.0, finish_s - deadline);
  ++missed;
  max_tardiness_s = std::max(max_tardiness_s, tardiness);
  weighted_tardiness_s += qos.priority(src, dst) * tardiness;
}

Execution execute(const ResolvedScenario& resolved, const SimOptions& options,
                  EventTrace& trace) {
  const ScenarioSpec& spec = resolved.spec;
  if (spec.has_faults && options.model != ReceiveModel::kSerialized)
    throw InputError("faults require the serialized receive model");
  Execution exec{resolved.scheduler->schedule(resolved.comm)};
  exec.planned.validate(resolved.comm);

  const std::unique_ptr<DirectoryService> directory = make_live_directory(
      resolved.network, spec.seed,
      {.update_period_s = spec.drift_period_s, .step_sigma = spec.drift_sigma});

  if (spec.has_faults) {
    const double horizon_s = exec.planned.completion_time();
    const ResilientResult result = run_resilient_traced(
        *resolved.scheduler, *directory, resolved.messages,
        make_fault_plan(spec, horizon_s),
        make_resilient_options(spec, horizon_s), trace);
    exec.totals = result;  // the counts only, not the history
    exec.events_executed = result.events.size();
    exec.direct = result.outcomes.size() - result.relayed_count -
                  result.undelivered_count - result.rescued_count;
    if (spec.has_qos)
      for (const MessageOutcome& outcome : result.outcomes)
        exec.qos.add(outcome.src, outcome.dst, outcome.finish_s,
                     outcome.status != DeliveryStatus::kUndeliverable,
                     resolved.qos);
    return exec;
  }

  const NetworkSimulator simulator{*directory, resolved.messages};
  const SimResult result = simulator.run_traced(
      SendProgram::from_schedule(exec.planned), options, trace);
  exec.totals.completion_time = result.completion_time;
  exec.totals.failed_attempts = result.failed_attempts;
  exec.totals.undelivered_count = result.undelivered.size();
  exec.events_executed = result.events.size();
  exec.direct = result.events.size();
  exec.total_sender_wait_s = result.total_sender_wait_s;
  if (spec.has_qos)
    for (const ScheduledEvent& event : result.events)
      exec.qos.add(event.src, event.dst, event.finish_s, /*delivered=*/true,
                   resolved.qos);
  return exec;
}

AuditReport audit_execution(const ScenarioSpec& spec,
                            const SimOptions& options,
                            const Execution& execution,
                            const EventTrace& trace) {
  AuditOptions audit_options;
  audit_options.serialized_receives =
      options.model == ReceiveModel::kSerialized;
  const ScheduleAuditor auditor{audit_options};
  return spec.has_faults
             ? auditor.audit(trace)
             : auditor.audit(trace, execution.totals.completion_time);
}

std::size_t trace_capacity(std::size_t processors) {
  return std::max<std::size_t>(std::size_t{1} << 16,
                               4 * processors * processors);
}

ScenarioRun run_scenario(const ScenarioSpec& spec) {
  ScenarioRun run;
  const ResolvedScenario resolved = resolve_scenario(spec);
  EventTrace trace{trace_capacity(spec.processors)};
  const Execution exec = execute(resolved, {}, trace);
  const AuditReport audit = audit_execution(spec, {}, exec, trace);

  run.artifact = render_artifact(resolved, exec, audit, trace);
  check_expectations(spec, exec, audit, trace, resolved.lower_bound_s,
                     run.failures);
  run.lower_bound_s = resolved.lower_bound_s;
  run.planned_s = exec.planned.completion_time();
  run.executed_s = exec.totals.completion_time;
  run.undeliverable = exec.totals.undelivered_count;
  run.executed_missed_deadlines = exec.qos.missed;
  return run;
}

std::string_view fleet_status_name(FleetStatus status) {
  switch (status) {
    case FleetStatus::kOk: return "ok";
    case FleetStatus::kUpdated: return "updated";
    case FleetStatus::kParseError: return "parse-error";
    case FleetStatus::kFailed: return "failed";
    case FleetStatus::kGoldenMissing: return "golden-missing";
    case FleetStatus::kGoldenDiff: return "golden-diff";
  }
  return "ok";
}

bool FleetResult::ok() const {
  return std::all_of(entries.begin(), entries.end(), [](const FleetEntry& e) {
    return e.status == FleetStatus::kOk || e.status == FleetStatus::kUpdated;
  });
}

FleetResult run_scenario_directory(const std::string& directory,
                                   const FleetOptions& options) {
  namespace fs = std::filesystem;
  const fs::path dir{directory};
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    throw InputError("'" + directory + "' is not a directory");

  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".scn") continue;
    const std::string name = entry.path().filename().string();
    if (!options.filter.empty() &&
        name.find(options.filter) == std::string::npos)
      continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty())
    throw InputError("no .scn scenario files in '" + directory + "'" +
                     (options.filter.empty()
                          ? ""
                          : " matching '" + options.filter + "'"));

  // Read serially, compute on the pool into per-index slots, then handle
  // goldens serially in file order: byte-identical at any thread count.
  std::vector<std::string> contents(files.size());
  for (std::size_t k = 0; k < files.size(); ++k) {
    std::ifstream in{files[k]};
    if (!in)
      throw InputError("cannot read '" + files[k].string() + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents[k] = buffer.str();
  }

  FleetResult result;
  result.entries.resize(files.size());
  std::vector<std::string> golden_names(files.size());

  ThreadPool pool{ThreadPool::resolve_size(options.threads, files.size())};
  pool.run(files.size(), [&](std::size_t /*worker*/, std::size_t index) {
    FleetEntry& entry = result.entries[index];
    entry.file = files[index].filename().string();
    try {
      const ScenarioSpec spec = parse_scenario(contents[index]);
      entry.scenario = spec.name;
      golden_names[index] = golden_file_name(spec);
      const ScenarioRun run = run_scenario(spec);
      entry.artifact = run.artifact;
      if (!run.ok()) {
        entry.status = FleetStatus::kFailed;
        entry.detail = run.failures.front();
        for (std::size_t k = 1; k < run.failures.size(); ++k)
          entry.detail += "; " + run.failures[k];
      }
    } catch (const InputError& error) {
      entry.status = FleetStatus::kParseError;
      entry.detail = error.what();
    }
  });

  const fs::path golden_dir = dir / "golden";
  std::vector<std::string> seen_goldens;
  for (std::size_t k = 0; k < result.entries.size(); ++k) {
    FleetEntry& entry = result.entries[k];
    if (entry.status != FleetStatus::kOk) continue;
    const std::string& name = golden_names[k];
    if (std::find(seen_goldens.begin(), seen_goldens.end(), name) !=
        seen_goldens.end()) {
      entry.status = FleetStatus::kFailed;
      entry.detail = "golden artifact name '" + name +
                     "' is already used by an earlier scenario";
      continue;
    }
    seen_goldens.push_back(name);
    const fs::path golden_path = golden_dir / name;
    if (options.update_golden) {
      fs::create_directories(golden_dir);
      std::ofstream out{golden_path, std::ios::trunc};
      if (!out)
        throw InputError("cannot write '" + golden_path.string() + "'");
      out << entry.artifact;
      entry.status = FleetStatus::kUpdated;
      entry.detail = "wrote golden/" + name;
      continue;
    }
    std::ifstream in{golden_path};
    if (!in) {
      entry.status = FleetStatus::kGoldenMissing;
      entry.detail = "no golden/" + name + " (run with --update-golden)";
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (buffer.str() != entry.artifact) {
      entry.status = FleetStatus::kGoldenDiff;
      entry.detail =
          "artifact differs from golden/" + name + " (first difference at "
          "line " +
          std::to_string(first_diff_line(entry.artifact, buffer.str())) +
          ")";
    }
  }
  return result;
}

}  // namespace hcs::scenario
