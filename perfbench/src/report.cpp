#include "report.hpp"

#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"op_rate_per_s", "1/s"},
    {"quality_ratio", "ratio"},
    {"ok_frac", "ratio"},
    {"rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"scenario.pass_ms", "ms"},
    {"scenario.pass_traced_ms", "ms"},
    {"scenario.resolve_ms", "ms"},
    {"scenario.unattributed_ms", "ms"},
    {"scenario.unattributed_pct", "%"},
    {"netmodel.cluster_detect_ms", "ms"},
    {"netmodel.clusters", "count"},
    {"core.schedule_ms", "ms"},
    {"core.validate_ms", "ms"},
    {"sim.send_program_ms", "ms"},
    {"sim.simulate_ms", "ms"},
    {"sim.simulate_drift_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.exec_plan_ratio", "ratio"},
    {"fault.resilient_ms", "ms"},
    {"fault.send_attempts", "count"},
    {"fault.failed_attempts", "count"},
    {"fault.replans", "count"},
    {"fault.rescued", "count"},
    {"fault.relayed", "count"},
    {"fault.undeliverable", "count"},
    {"fault.delivered_per_attempt", "ratio"},
    {"trace.audit_ms", "ms"},
    {"trace.recorded", "count"},
    {"trace.dropped", "count"},
    {"service.worker_busy_us", "us"},
    {"service.solve_us", "us"},
    {"service.outside_worker_us", "us"},
    {"service.requests", "count"},
    {"service.cache_hits", "count"},
    {"service.solved", "count"},
    {"service.coalesced", "count"},
    {"service.memo_hits", "count"},
    {"service.evictions", "count"},
    {"service.busy_rejections", "count"},
    {"service.snapshot_builds", "count"},
    {"service.snapshot_reuses", "count"},
    {"service.hit_rate", "ratio"},
    {"service.invalid_hits", "count"},
    {"service.decode_us", "us"},
    {"netmodel.snapshot_us", "us"},
    {"core.comm_build_us", "us"},
    {"service.key_us", "us"},
    {"service.cache_lookup_us", "us"},
    {"netmodel.cluster_detect_us", "us"},
    {"core.solve_us", "us"},
    {"service.encode_us", "us"},
    {"service.probe_vs_worker", "ratio"},
    {"bench.latency_p50_us", "us"},
    {"bench.latency_p99_us", "us"},
    {"bench.generator_late_us", "us"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.reference_kernel_ms", "ms"},
};

void Report::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(const std::string& why) { errors_.push_back(why); }

double Report::value(const std::string& name) const {
  for (const auto& [existing, v] : metrics_)
    if (existing == name) return v;
  return 0.0;
}

void Report::print(std::ostream& out, const std::vector<MetricDef>& defs) const {
  for (const std::string& line : notes_) out << line << '\n';
  for (const std::string& line : errors_) out << "INCORRECT: " << line << '\n';
  std::ostringstream json;
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  if (correct()) {
    bool first = true;
    for (const MetricDef& def : defs) {
      json << (first ? "" : ", ") << '"' << def.name << "\": {\"value\": "
           << value(def.name) << ", \"unit\": \"" << def.unit << "\"}";
      first = false;
    }
  }
  json << "}}";
  out << json.str() << std::endl;
}

std::string fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
  return buffer;
}

}  // namespace perfbench
