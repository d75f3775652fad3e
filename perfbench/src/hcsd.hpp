// hcsd workloads (hcsd_zipf, hcsd_drift): an in-process ScheduleServer
// reached over its UNIX socket by ServiceClient connections, driven open
// loop with Poisson arrivals; every response is validated off the clock.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

/// True for hcsd_zipf and hcsd_drift.
[[nodiscard]] bool is_hcsd_workload(const std::string& workload);

/// Runs a hcsd workload for about `seconds` and fills `report`.
void run_hcsd(const std::string& workload, std::uint64_t seed, double seconds,
              bool trace, Report& report);

}  // namespace perfbench
