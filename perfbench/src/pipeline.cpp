#include "pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <numeric>
#include <optional>

#include "fault/resilient.hpp"
#include "generators.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/directory.hpp"
#include "scenario/resolve.hpp"
#include "scenario/runner.hpp"
#include "stats.hpp"
#include "sim/send_program.hpp"
#include "sim/simulator.hpp"
#include "trace/auditor.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using hcs::scenario::ScenarioSpec;

namespace {

/// The headline numbers run_scenario reports, compared exactly.
struct PassOutcome {
  double lower_bound_s = 0.0;
  double planned_s = 0.0;
  double executed_s = 0.0;
  std::size_t undeliverable = 0;

  [[nodiscard]] bool operator==(const PassOutcome&) const = default;
};

/// Counters gathered by the traced decomposition of one spec.
struct StageCounts {
  double clusters = 0;
  double sim_events = 0;
  double send_attempts = 0;
  double failed_attempts = 0;
  double replans = 0;
  double rescued = 0;
  double relayed = 0;
  double undeliverable = 0;
  double delivered = 0;
  double trace_recorded = 0;
  double trace_dropped = 0;
};

constexpr int kSetups = 3;

PassOutcome outcome_of(const hcs::scenario::ScenarioRun& run) {
  return {run.lower_bound_s, run.planned_s, run.executed_s, run.undeliverable};
}

/// Stage span names, in pipeline order, and the per-layer metric each
/// one's per-pass self time feeds.
const std::vector<std::pair<std::string, std::string>> kStageMetrics = {
    {"scenario.resolve", "scenario.resolve_ms"},
    {"core.schedule", "core.schedule_ms"},
    {"core.validate", "core.validate_ms"},
    {"sim.send_program", "sim.send_program_ms"},
    {"sim.simulate", "sim.simulate_ms"},
    {"sim.simulate_drift", "sim.simulate_drift_ms"},
    {"fault.resilient", "fault.resilient_ms"},
    {"trace.audit", "trace.audit_ms"},
};
constexpr const char* kProbeSpan = "netmodel.cluster_detect";

/// Runs `spec` stage by stage through the layers' public functions, with
/// one span per stage under `parent`. Returns what run_scenario would
/// report for the spec; `counts` accumulates the layer counters. Audit
/// violations or trace drops are appended to `failures`.
PassOutcome run_decomposed(const ScenarioSpec& spec, SpanLog& spans,
                           int parent, std::uint64_t op, StageCounts& counts,
                           std::vector<std::string>& failures) {
  std::optional<hcs::scenario::ResolvedScenario> resolved;
  {
    const ScopedSpan span{spans, "scenario.resolve", parent, op};
    resolved.emplace(hcs::scenario::resolve_scenario(spec));
  }
  if (spec.hierarchical) {
    // Probe: resolve already ran this detection; the span is excluded
    // from the traced pass time by the caller.
    const ScopedSpan span{spans, kProbeSpan, parent, op};
    counts.clusters +=
        static_cast<double>(hcs::detect_clusters(resolved->network).cluster_count());
  }
  std::optional<hcs::Schedule> planned;
  {
    const ScopedSpan span{spans, "core.schedule", parent, op};
    planned.emplace(resolved->scheduler->schedule(resolved->comm));
  }
  {
    const ScopedSpan span{spans, "core.validate", parent, op};
    planned->validate(resolved->comm);
  }

  const std::size_t n = spec.processors;
  hcs::EventTrace trace{std::max<std::size_t>(std::size_t{1} << 16, 4 * n * n)};
  PassOutcome outcome;
  outcome.lower_bound_s = resolved->lower_bound_s;
  outcome.planned_s = planned->completion_time();
  if (spec.has_faults) {
    const ScopedSpan span{spans, "fault.resilient", parent, op};
    const hcs::StaticDirectory directory{resolved->network};
    const hcs::FaultPlan plan =
        hcs::scenario::make_fault_plan(spec, outcome.planned_s);
    const hcs::ResilientResult result = hcs::run_resilient_traced(
        *resolved->scheduler, directory, resolved->messages, plan,
        hcs::scenario::make_resilient_options(spec, outcome.planned_s), trace);
    outcome.executed_s = result.completion_time;
    outcome.undeliverable = result.undelivered_count;
    const auto attempts =
        static_cast<double>(result.events.size() + result.failed_attempts);
    counts.send_attempts += attempts;
    counts.failed_attempts += static_cast<double>(result.failed_attempts);
    counts.replans += static_cast<double>(result.replan_count);
    counts.rescued += static_cast<double>(result.rescued_count);
    counts.relayed += static_cast<double>(result.relayed_count);
    counts.undeliverable += static_cast<double>(result.undelivered_count);
    counts.delivered +=
        static_cast<double>(result.outcomes.size() - result.undelivered_count);
  } else {
    std::optional<hcs::SendProgram> program;
    {
      const ScopedSpan span{spans, "sim.send_program", parent, op};
      program.emplace(hcs::SendProgram::from_schedule(*planned));
    }
    hcs::SimResult result;
    if (spec.drift_sigma > 0.0) {
      const ScopedSpan span{spans, "sim.simulate_drift", parent, op};
      hcs::DriftingDirectory::Options drift;
      drift.step_sigma = spec.drift_sigma;
      drift.update_period_s = spec.drift_period_s;
      const hcs::DriftingDirectory directory{resolved->network, spec.seed * 97,
                                             drift};
      const hcs::NetworkSimulator simulator{directory, resolved->messages};
      result = simulator.run_traced(*program, {}, trace);
    } else {
      const ScopedSpan span{spans, "sim.simulate", parent, op};
      const hcs::StaticDirectory directory{resolved->network};
      const hcs::NetworkSimulator simulator{directory, resolved->messages};
      result = simulator.run_traced(*program, {}, trace);
      counts.sim_events += static_cast<double>(result.events.size());
    }
    outcome.executed_s = result.completion_time;
    outcome.undeliverable = result.undelivered.size();
  }

  hcs::AuditReport audit;
  {
    const ScopedSpan span{spans, "trace.audit", parent, op};
    const hcs::ScheduleAuditor auditor{hcs::AuditOptions{}};
    audit = spec.has_faults ? auditor.audit(trace)
                            : auditor.audit(trace, outcome.executed_s);
  }
  counts.trace_recorded += static_cast<double>(trace.recorded());
  counts.trace_dropped += static_cast<double>(trace.dropped());
  if (!audit.ok())
    failures.push_back(spec.name + ": audit: " + audit.violations.front());
  if (trace.dropped() > 0)
    failures.push_back(spec.name + ": trace ring dropped events");
  return outcome;
}

}  // namespace

std::vector<std::vector<ScenarioSpec>> pipeline_passes(
    const std::string& workload, std::uint64_t seed) {
  // wide_hier's makespan ratio and pass time vary by about 10% from spec
  // to spec, so it cycles over 16 specs to keep a run's geomean and
  // median steady across workload seeds; a fleet_mid pass already
  // averages four specs.
  const bool wide = workload == "wide_hier";
  std::vector<std::vector<ScenarioSpec>> passes;
  for (const std::uint64_t spec_seed : spec_seeds(seed, wide ? 16 : 8))
    passes.push_back(wide ? std::vector<ScenarioSpec>{wide_hier_spec(spec_seed)}
                         : fleet_mid_specs(spec_seed));
  return passes;
}

namespace {

/// Shared state of one pipeline run: the first outcome of every distinct
/// spec, against which every later run of it must agree exactly.
class Outcomes {
 public:
  explicit Outcomes(Report& report) : report_(report) {}

  /// Records or compares; false (and the run marked incorrect) on a
  /// mismatch.
  bool check(const ScenarioSpec& spec, const PassOutcome& outcome,
             const char* what) {
    const auto [it, inserted] = first_.emplace(spec.name, outcome);
    if (inserted || it->second == outcome) return true;
    report_.fail(spec.name + ": " + what +
                 " disagrees with the first run (planned " +
                 fmt(outcome.planned_s, 10) + " vs " +
                 fmt(it->second.planned_s, 10) + ", executed " +
                 fmt(outcome.executed_s, 10) + " vs " +
                 fmt(it->second.executed_s, 10) + ", undeliverable " +
                 std::to_string(outcome.undeliverable) + " vs " +
                 std::to_string(it->second.undeliverable) + ")");
    return false;
  }

  [[nodiscard]] bool seen(const std::string& name) const {
    return first_.count(name) > 0;
  }

  /// Geometric means over distinct specs: planned / t_lb and
  /// executed / planned.
  [[nodiscard]] std::pair<double, double> ratios() const {
    std::vector<double> makespan, exec_plan;
    for (const auto& [name, o] : first_) {
      makespan.push_back(o.planned_s / o.lower_bound_s);
      exec_plan.push_back(o.executed_s / o.planned_s);
    }
    return {geomean_of(makespan), geomean_of(exec_plan)};
  }

  [[nodiscard]] std::size_t size() const noexcept { return first_.size(); }

 private:
  Report& report_;
  std::map<std::string, PassOutcome> first_;
};

/// One untraced pass: run_scenario on each spec. Returns false when any
/// spec throws, is not ok(), or disagrees with its first run.
bool untraced_pass(const std::vector<ScenarioSpec>& pass, Outcomes& outcomes,
                   Report& report) {
  bool ok = true;
  for (const ScenarioSpec& spec : pass) {
    try {
      const hcs::scenario::ScenarioRun run = hcs::scenario::run_scenario(spec);
      if (!run.ok()) {
        report.fail(spec.name + ": " + run.failures.front());
        ok = false;
      }
      ok = outcomes.check(spec, outcome_of(run), "run_scenario") && ok;
    } catch (const std::exception& error) {
      report.fail(spec.name + ": threw: " + error.what());
      ok = false;
    }
  }
  return ok;
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

void run_pipeline(const std::string& workload, std::uint64_t seed,
                  double seconds, bool trace, Report& report) {
  Outcomes outcomes{report};

  // Set-up: generate the specs, prove each round-trips through the .scn
  // form, and run one warm-up pass. Repeated, each one read at reference
  // speed like a pass (the kernel runs before the first and after each);
  // the median is reported.
  std::vector<std::vector<ScenarioSpec>> passes;
  std::vector<double> setups, setups_at_reference;
  double kernel_before = reference_kernel_ms();
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    passes = pipeline_passes(workload, seed);
    for (const auto& pass : passes)
      for (const ScenarioSpec& spec : pass)
        if (hcs::scenario::parse_scenario(hcs::scenario::emit_scenario(spec)) !=
            spec)
          report.fail(spec.name + ": spec does not round-trip through .scn");
    if (!untraced_pass(passes[0], outcomes, report))
      report.fail("warm-up pass failed");
    setups.push_back(now_s() - t0);
    const double kernel_after = reference_kernel_ms();
    setups_at_reference.push_back(setups.back() * kReferenceKernelMs /
                                  (0.5 * (kernel_before + kernel_after)));
    kernel_before = kernel_after;
  }
  report.note(workload + " set-up: " + fmt(median_of(setups)) + " s; " +
              fmt(median_of(setups_at_reference)) +
              " s at reference speed (median of " + std::to_string(kSetups) +
              ")");
  report.metric("setup_s", median_of(setups_at_reference));

  std::vector<double> pass_ms;  // untraced pass times
  // The reference kernel runs before the first pass and after every
  // untraced pass; each pass is divided by the mean of the two runs
  // around it.
  std::vector<double> kernel_ms{reference_kernel_ms()};
  std::vector<double> relative;  // pass / reference kernel
  std::map<std::string, std::vector<double>> layer;  // per traced pass
  SpanLog spans;
  const double start = now_s();
  std::uint64_t k = 0;
  for (; now_s() - start < seconds; ++k) {
    const auto& pass = passes[k % passes.size()];
    const double t0 = now_s();
    const bool ok = untraced_pass(pass, outcomes, report);
    pass_ms.push_back(ms(now_s() - t0));
    kernel_ms.push_back(reference_kernel_ms());
    relative.push_back(pass_ms.back() /
                       (0.5 * (kernel_ms[kernel_ms.size() - 2] + kernel_ms.back())));
    ++report.attempted;
    if (!ok) ++report.failed;
    if (!trace) continue;

    // Traced pass of the same specs, stage by stage.
    StageCounts counts;
    std::vector<std::string> failures;
    double probe_s = 0.0;
    const std::size_t first_span = spans.spans().size();
    const int root = spans.open("scenario.pass", -1, k);
    for (const ScenarioSpec& spec : pass) {
      try {
        const PassOutcome outcome =
            run_decomposed(spec, spans, root, k, counts, failures);
        outcomes.check(spec, outcome, "traced decomposition");
      } catch (const std::exception& error) {
        failures.push_back(spec.name + ": decomposition threw: " + error.what());
      }
    }
    spans.close(root);
    for (const std::string& failure : failures) report.fail(failure);
    // Every child of the pass is a stage or the probe, so the stage self
    // times and the unattributed remainder cover the pass between them.
    for (std::size_t s = first_span; s < spans.spans().size(); ++s) {
      const SpanLog::Span& span = spans.spans()[s];
      if (span.parent != root) continue;
      if (span.name == kProbeSpan)
        probe_s += span.end_s - span.start_s;
      else if (std::none_of(
                   kStageMetrics.begin(), kStageMetrics.end(),
                   [&](const auto& stage) { return stage.first == span.name; }))
        report.fail("span " + span.name + " is neither a stage nor the probe");
    }
    const auto& root_span = spans.spans()[static_cast<std::size_t>(root)];
    const double traced_s = root_span.end_s - root_span.start_s - probe_s;

    layer["scenario.pass_traced_ms"].push_back(ms(traced_s));
    layer["netmodel.cluster_detect_ms"].push_back(ms(probe_s));
    layer["netmodel.clusters"].push_back(counts.clusters);
    layer["sim.events"].push_back(counts.sim_events);
    layer["fault.send_attempts"].push_back(counts.send_attempts);
    layer["fault.failed_attempts"].push_back(counts.failed_attempts);
    layer["fault.replans"].push_back(counts.replans);
    layer["fault.rescued"].push_back(counts.rescued);
    layer["fault.relayed"].push_back(counts.relayed);
    layer["fault.undeliverable"].push_back(counts.undeliverable);
    if (counts.send_attempts > 0)
      layer["fault.delivered_per_attempt"].push_back(counts.delivered /
                                                     counts.send_attempts);
    layer["trace.recorded"].push_back(counts.trace_recorded);
    layer["trace.dropped"].push_back(counts.trace_dropped);
  }
  const double loop_s = now_s() - start;

  // Quality ratios cover every distinct spec; finish the cycle off the
  // clock when the timed loop did not reach it.
  for (const auto& pass : passes)
    if (!outcomes.seen(pass.front().name)) untraced_pass(pass, outcomes, report);
  const auto [makespan_ratio, exec_plan_ratio] = outcomes.ratios();

  const double p50_ms = median_of(pass_ms);
  report.note(workload + ": " + std::to_string(pass_ms.size()) +
              " passes in " + fmt(loop_s) + " s, " +
              std::to_string(outcomes.size()) + " distinct specs");
  report.note("  pass_p50_ms = " + fmt(p50_ms) + " ms");
  if (const auto p90 = tail_percentile(pass_ms, 0.90))
    report.note("  pass_p90_ms = " + fmt(*p90) + " ms");
  else
    report.note("  pass_p90_ms = n/a (" + std::to_string(pass_ms.size()) +
                " passes; p90 needs " + std::to_string(min_samples_for(0.90)) +
                ")");
  // Passes back to back: the reference kernel's runs are left out.
  const double passes_per_s =
      1e3 * static_cast<double>(pass_ms.size()) /
      std::accumulate(pass_ms.begin(), pass_ms.end(), 0.0);
  report.note("  passes_per_s = " + fmt(passes_per_s) + " 1/s");
  // The same two at the reference kernel's nominal speed.
  const double kernel_p50_ms = median_of(kernel_ms);
  const double ref_p50_ms = kReferenceKernelMs * median_of(relative);
  const double ref_passes_per_s = 1e3 / (kReferenceKernelMs * mean_of(relative));
  report.note("  reference kernel p50 = " + fmt(kernel_p50_ms) + " ms (" +
              std::to_string(kernel_ms.size()) + " runs; nominal " +
              fmt(kReferenceKernelMs) + " ms)");
  report.note("  pass_p50_ms at reference speed = " + fmt(ref_p50_ms) +
              " ms; passes_per_s at reference speed = " +
              fmt(ref_passes_per_s) + " 1/s");
  report.note("  makespan_ratio = " + fmt(makespan_ratio, 6) +
              " (planned / t_lb, geomean over distinct specs)");
  report.note("  exec_plan_ratio = " + fmt(exec_plan_ratio, 6) +
              " (executed / planned, geomean over distinct specs)");
  const double failed_frac = static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted);
  report.note("  failed_frac = " + fmt(failed_frac) + " (" +
              std::to_string(report.failed) + " / " +
              std::to_string(report.attempted) + " passes)");

  if (!trace) {
    report.metric("op_p50_ms", ref_p50_ms);
    report.metric("op_rate_per_s", ref_passes_per_s);
    report.metric("quality_ratio", makespan_ratio);
    report.metric("ok_frac", 1.0 - failed_frac);
    report.metric("rss_mb", peak_rss_mb());
    return;
  }

  // Per-pass stage self times; what they leave of the traced pass is
  // unattributed.
  const auto by_name = spans.self_by_name();
  const auto per_pass = [&](const std::string& span_name) {
    std::vector<double> values;
    const auto it = by_name.find(span_name);
    for (std::uint64_t op = 0; op < k; ++op) {
      double v = 0.0;
      if (it != by_name.end()) {
        const auto found = it->second.find(op);
        if (found != it->second.end()) v = found->second;
      }
      values.push_back(ms(v));
    }
    return values;
  };
  for (const auto& [span_name, metric] : kStageMetrics)
    layer[metric] = per_pass(span_name);
  for (std::size_t p = 0; p < layer["scenario.pass_traced_ms"].size(); ++p) {
    std::vector<double> self;
    for (const auto& [span_name, metric] : kStageMetrics)
      self.push_back(layer[metric][p]);
    layer["scenario.unattributed_ms"].push_back(
        unattributed(layer["scenario.pass_traced_ms"][p], self));
    layer["scenario.unattributed_pct"].push_back(
        100.0 * layer["scenario.unattributed_ms"][p] /
        layer["scenario.pass_traced_ms"][p]);
    const double sim_ms = layer["sim.simulate_ms"][p];
    if (sim_ms > 0.0)
      layer["sim.events_per_s"].push_back(layer["sim.events"][p] /
                                          (sim_ms / 1e3));
  }
  for (const auto& [metric, values] : layer)
    report.metric(metric, median_of(values));
  report.metric("sim.exec_plan_ratio", exec_plan_ratio);
  report.metric("scenario.pass_ms", p50_ms);
  report.metric("bench.reference_kernel_ms", kernel_p50_ms);
  const double traced_p50 = median_of(layer["scenario.pass_traced_ms"]);
  report.metric("bench.trace_overhead_pct", 100.0 * (traced_p50 / p50_ms - 1.0));

  report.note("  traced pass p50 = " + fmt(traced_p50) +
              " ms; unattributed share " +
              fmt(report.value("scenario.unattributed_pct")) +
              "% (trace-ring allocation, directory set-up, span bookkeeping;"
              " the decomposition renders no artifact)");
  report.note("  trace overhead = " +
              fmt(report.value("bench.trace_overhead_pct")) +
              "% (traced vs untraced pass p50)");
  spans.write(".bench_build/spans-" + workload + "-" + std::to_string(seed) +
              ".jsonl");
}

}  // namespace perfbench
