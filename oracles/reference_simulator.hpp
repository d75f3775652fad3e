// Retained naive reference simulator.
//
// The workspace-backed NetworkSimulator (src/sim/simulator.cpp) is the
// production path; this file preserves the straightforward
// implementation it replaced — std::priority_queue forests rebuilt per
// run, and for the interleaved model full per-event scans over all P
// receivers' active lists (the O(E * P^2) inner loop the event-driven
// rewrite removed).
//
// It exists for two reasons:
//  - Golden-trace testing: tests/sim_golden_test.cpp asserts the fast
//    simulator produces event-for-event bit-identical results against
//    this reference across every receive model, arbitration mode, and
//    fault hook. The two implementations share the model-math helpers
//    (interleaved_rate, completion_wins in simulator.hpp) and perform
//    the same floating-point operations in the same order, so equality
//    is exact, not approximate.
//  - Before/after benchmarking: bench/sim_models.cpp runs both so
//    BENCH_scheduler.json records the pre-rewrite cost alongside the
//    current one.
//
// Do not "optimize" this file; its value is being obviously correct and
// structurally naive.
#pragma once

#include "netmodel/directory.hpp"
#include "sim/send_program.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace hcs {

/// Runs `program` under `options` with the naive algorithms. Same
/// semantics, validation, and results as NetworkSimulator::run.
[[nodiscard]] SimResult run_reference(const DirectoryService& directory,
                                      const MessageMatrix& messages,
                                      const SendProgram& program,
                                      const SimOptions& options = {});

}  // namespace hcs
