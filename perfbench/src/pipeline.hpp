// Pipeline workloads (wide_hier, fleet_mid): closed loops of
// scenario::run_scenario passes on one thread, and the traced
// stage-by-stage decomposition of the same passes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

/// The specs of each pass of a pipeline workload, one vector per pass.
[[nodiscard]] std::vector<std::vector<hcs::scenario::ScenarioSpec>>
pipeline_passes(const std::string& workload, std::uint64_t seed);

/// Runs a pipeline workload for `seconds` and fills `report`.
void run_pipeline(const std::string& workload, std::uint64_t seed,
                  double seconds, bool trace, Report& report);

}  // namespace perfbench
