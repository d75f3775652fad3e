// Property pins for the workspace-backed scheduler hot paths (ISSUE 5):
// the optimized greedy and open-shop loops — masked SIMD argmins,
// speculation, bitset scans — must produce output bit-identical to the
// retained textbook implementations in oracles/reference_schedulers.hpp on
// every instance. Seeds cycle P through 2..64 plus >64 sizes that force
// the multi-word (wide) mask path; half the instances use quantized times
// so tie-breaking is exercised, and the availability-aware entry point is
// pinned with nonzero port offsets.
//
// The SIMD/scalar dispatch honours HCS_FORCE_SCALAR_SCHEDULERS; CI
// registers this binary a second time with that variable set, so both
// code paths are pinned to the same reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "core/openshop_scheduler.hpp"
#include "oracles/reference_schedulers.hpp"
#include "core/step_schedule.hpp"
#include "util/rng.hpp"

namespace hcs {
namespace {

// P values the seeds cycle through: small, word-boundary (63/64/65), and
// wide (>64, multi-word masks, padded row copies).
constexpr std::size_t kProcCounts[] = {2,  3,  4,  5,  7,  8,  9,  12, 16,
                                       17, 24, 31, 32, 33, 48, 63, 64, 65,
                                       80, 100, 128};

std::uint64_t seed_count() {
  if (const char* env = std::getenv("HCS_FUZZ_SEEDS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::uint64_t>(parsed);
  }
  return 128;
}

/// Random communication matrix; odd seeds use quantized times so equal
/// entries (argmin/argmax ties) are common.
CommMatrix random_comm(std::size_t n, std::uint64_t seed) {
  Rng rng{seed * 0x9E3779B97F4A7C15ULL + 1};
  const bool quantize = seed % 2 == 1;
  Matrix<double> times(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j)
        times(i, j) = quantize
                          ? 0.5 * static_cast<double>(1 + rng.next_below(8))
                          : rng.uniform(0.01, 10.0);
  return CommMatrix{std::move(times)};
}

void expect_same_events(const Schedule& got, const Schedule& want,
                        const std::string& label) {
  ASSERT_EQ(got.events().size(), want.events().size()) << label;
  for (std::size_t k = 0; k < got.events().size(); ++k) {
    const ScheduledEvent& a = got.events()[k];
    const ScheduledEvent& b = want.events()[k];
    ASSERT_EQ(a.src, b.src) << label << " event " << k;
    ASSERT_EQ(a.dst, b.dst) << label << " event " << k;
    ASSERT_EQ(a.start_s, b.start_s) << label << " event " << k;
    ASSERT_EQ(a.finish_s, b.finish_s) << label << " event " << k;
  }
}

TEST(SchedulerFuzz, GreedyStepsMatchReferenceBitForBit) {
  const std::uint64_t seeds = seed_count();
  SchedulerWorkspace workspace;  // shared: warm reuse must not leak state
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    const CommMatrix comm = random_comm(n, seed);
    const std::string label =
        "seed=" + std::to_string(seed) + " P=" + std::to_string(n);

    const StepSchedule fast = greedy_steps(comm, workspace);
    const StepSchedule ref = reference_greedy_steps(comm);
    ASSERT_EQ(fast.processor_count(), ref.processor_count()) << label;
    ASSERT_EQ(fast.steps(), ref.steps()) << label;
    EXPECT_TRUE(fast.covers_total_exchange()) << label;
  }
}

TEST(SchedulerFuzz, OpenShopScheduleMatchesReferenceBitForBit) {
  const std::uint64_t seeds = seed_count();
  const OpenShopScheduler scheduler;  // shared: warm reuse must not leak
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    const CommMatrix comm = random_comm(n, seed);
    const std::string label =
        "seed=" + std::to_string(seed) + " P=" + std::to_string(n);

    const Schedule fast = scheduler.schedule(comm);
    const std::vector<double> zeros(n, 0.0);
    const Schedule ref = reference_openshop_schedule(comm, zeros, zeros);
    expect_same_events(fast, ref, label);
    fast.validate(comm);
  }
}

TEST(SchedulerFuzz, OpenShopWithAvailabilityMatchesReference) {
  const std::uint64_t seeds = seed_count();
  const OpenShopScheduler scheduler;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    const CommMatrix comm = random_comm(n, seed);
    Rng rng{seed ^ 0xA5A11AB1E5EEDULL};
    std::vector<double> send_avail(n), recv_avail(n);
    for (std::size_t p = 0; p < n; ++p) {
      send_avail[p] = rng.uniform(0.0, 5.0);
      recv_avail[p] = rng.uniform(0.0, 5.0);
    }
    const std::string label =
        "seed=" + std::to_string(seed) + " P=" + std::to_string(n);

    const Schedule fast =
        scheduler.schedule_with_availability(comm, send_avail, recv_avail);
    const Schedule ref =
        reference_openshop_schedule(comm, send_avail, recv_avail);
    expect_same_events(fast, ref, label);
  }
}

}  // namespace
}  // namespace hcs
