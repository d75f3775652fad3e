// perfbench: the end-to-end benchmark of hcs.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Run from the repository root (the bundled scenarios are read from
// ./scenarios). Prints human-readable lines, then one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <sys/sysinfo.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "hcsd.hpp"
#include "pipeline.hpp"
#include "report.hpp"
#include "scenario/runner.hpp"
#include "stats.hpp"

namespace {

double load_average() {
  double load = 0.0;
  return ::getloadavg(&load, 1) == 1 ? load : -1.0;
}

int usage() {
  std::cerr << "usage: perfbench --workload wide_hier|fleet_mid|hcsd_zipf|"
               "hcsd_drift --seed N --seconds S --trace 0|1\n";
  return 2;
}

/// Correctness gate: every bundled scenario must run clean and match its
/// golden. Read-only: goldens are never rewritten here.
bool scenario_gate(perfbench::Report& report) {
  hcs::scenario::FleetOptions options;
  options.threads = 1;
  const hcs::scenario::FleetResult fleet =
      hcs::scenario::run_scenario_directory("scenarios", options);
  for (const auto& entry : fleet.entries)
    if (entry.status != hcs::scenario::FleetStatus::kOk)
      report.fail("bundled scenario " + entry.file + ": " +
                  std::string(hcs::scenario::fleet_status_name(entry.status)) +
                  " " + entry.detail);
  report.note("gate: " + std::to_string(fleet.entries.size()) +
              " bundled scenarios, " + (fleet.ok() ? "all ok" : "FAILING"));
  return fleet.ok();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else return usage();
  }
  const bool pipeline = workload == "wide_hier" || workload == "fleet_mid";
  if ((!pipeline && !perfbench::is_hcsd_workload(workload)) || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || argc % 2 != 1)
    return usage();

  std::filesystem::create_directories(".bench_build");
  perfbench::Report report;
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  const double load_start = load_average();
  const perfbench::CpuTicks ticks_start = perfbench::cpu_ticks();
  try {
    if (scenario_gate(report)) {
      if (pipeline)
        perfbench::run_pipeline(workload, seed, seconds, trace == 1, report);
      else
        perfbench::run_hcsd(workload, seed, seconds, trace == 1, report);
    }
  } catch (const std::exception& error) {
    report.fail(std::string("benchmark aborted: ") + error.what());
  }
  const double load_end = load_average();
  const double steal_pct =
      perfbench::steal_pct(ticks_start, perfbench::cpu_ticks());
  report.note("run: workload " + workload + ", seed " + std::to_string(seed) +
              ", seconds " + perfbench::fmt(seconds) + ", trace " +
              std::to_string(trace) + ", nproc " + std::to_string(cpus) +
              ", load " + perfbench::fmt(load_start, 3) + " -> " +
              perfbench::fmt(load_end, 3) + ", steal " +
              perfbench::fmt(steal_pct, 3) + "%, compiler " PERFBENCH_COMPILER
              ", build " PERFBENCH_BUILD_TYPE);
  if (std::max(load_start, load_end) > static_cast<double>(cpus))
    report.note("WARNING: load average exceeded the CPU count during this run");
  if (steal_pct > 5.0)
    report.note("WARNING: the hypervisor stole " + perfbench::fmt(steal_pct, 3) +
                "% of CPU time during this run; timings are inflated");
  report.print(std::cout,
               trace == 1 ? perfbench::kPerLayer : perfbench::kEndToEnd);
  return 0;
}
