// Failure-injection tests: a windowed bandwidth outage expressed as a
// FaultPlan brownout, served by FaultyDirectory as the live directory;
// its effect on simulated executions; and whether checkpoint-based
// adaptation steers work away from degraded pairs.
#include <gtest/gtest.h>

#include "core/openshop_scheduler.hpp"
#include "fault/faulty_directory.hpp"
#include "fault/resilient.hpp"
#include "netmodel/generator.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workload/generators.hpp"

namespace hcs {
namespace {

StaticDirectory flat_directory(std::size_t n) {
  return StaticDirectory{NetworkModel{n, LinkParams{0.0, 1000.0}}};
}

/// A plan holding only `brownouts`: the outage vocabulary.
FaultPlan outages(std::vector<Brownout> brownouts) {
  FaultPlan plan;
  plan.brownouts = std::move(brownouts);
  return plan;
}

TEST(Outage, HealthyOutsideTheWindow) {
  const StaticDirectory base = flat_directory(3);
  const FaultyDirectory directory{
      base, outages({{0, 1, 5.0, 10.0, 0.1, true}})};
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 0.0).bandwidth_Bps, 1000.0);
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 10.0).bandwidth_Bps, 1000.0);
}

TEST(Outage, DegradesInsideTheWindow) {
  const StaticDirectory base = flat_directory(3);
  const FaultyDirectory directory{
      base, outages({{0, 1, 5.0, 10.0, 0.1, true}})};
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 5.0).bandwidth_Bps, 100.0);
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 7.5).bandwidth_Bps, 100.0);
  // Symmetric by default.
  EXPECT_DOUBLE_EQ(directory.query(1, 0, 7.5).bandwidth_Bps, 100.0);
  // Other pairs untouched.
  EXPECT_DOUBLE_EQ(directory.query(0, 2, 7.5).bandwidth_Bps, 1000.0);
}

TEST(Outage, AsymmetricOutageAffectsOneDirection) {
  const StaticDirectory base = flat_directory(3);
  const FaultyDirectory directory{
      base, outages({{0, 1, 0.0, 10.0, 0.5, false}})};
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 1.0).bandwidth_Bps, 500.0);
  EXPECT_DOUBLE_EQ(directory.query(1, 0, 1.0).bandwidth_Bps, 1000.0);
}

TEST(Outage, OverlappingOutagesMultiply) {
  const StaticDirectory base = flat_directory(3);
  const FaultyDirectory directory{
      base,
      outages({{0, 1, 0.0, 10.0, 0.5, true}, {0, 1, 5.0, 15.0, 0.5, true}})};
  const FaultPlan& plan = directory.plan();
  EXPECT_DOUBLE_EQ(plan.brownout_factor(0, 1, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(plan.brownout_factor(0, 1, 7.0), 0.25);
  EXPECT_DOUBLE_EQ(plan.brownout_factor(0, 1, 12.0), 0.5);
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 7.0).bandwidth_Bps, 250.0);
}

TEST(Outage, StartupIsUnaffected) {
  const StaticDirectory base{NetworkModel{2, LinkParams{0.25, 1000.0}}};
  const FaultyDirectory directory{
      base, outages({{0, 1, 0.0, 10.0, 0.1, true}})};
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 1.0).startup_s, 0.25);
}

TEST(Outage, InvalidSpecsThrow) {
  const StaticDirectory base = flat_directory(3);
  for (const Brownout& bad : {Brownout{0, 0, 0.0, 1.0, 0.5, true},
                              Brownout{0, 9, 0.0, 1.0, 0.5, true},
                              Brownout{0, 1, 5.0, 1.0, 0.5, true},
                              Brownout{0, 1, 0.0, 1.0, 0.0, true},
                              Brownout{0, 1, 0.0, 1.0, 1.5, true}}) {
    EXPECT_THROW(FaultyDirectory(base, outages({bad})), InputError);
    EXPECT_THROW(outages({bad}).validate(3), InputError);
  }
}

TEST(Outage, SimulatedTransferDuringOutageSlowsDown) {
  const StaticDirectory base = flat_directory(2);
  const FaultyDirectory directory{
      base, outages({{0, 1, 0.0, 100.0, 0.1, true}})};
  MessageMatrix messages(2, 2, 0);
  messages(0, 1) = 1000;  // 1 s healthy, 10 s degraded
  const NetworkSimulator simulator{directory, messages};
  const SimResult result = simulator.run(
      SendProgram(std::vector<std::vector<std::size_t>>{{1}, {}}));
  EXPECT_NEAR(result.completion_time, 10.0, 1e-9);
}

TEST(Outage, CheckpointAdaptationMitigatesAMidExchangeOutage) {
  // A severe outage hits one pair shortly after the exchange starts.
  // The schedule-once run ploughs straight into it; the checkpointing
  // run re-queries the directory, sees the degradation, and defers the
  // affected transfers — aggregate completion must not be worse.
  const std::size_t n = 8;
  double once_total = 0.0, adaptive_total = 0.0;
  const OpenShopScheduler scheduler;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const NetworkModel network = generate_network(n, seed);
    const StaticDirectory base{network};
    const MessageMatrix messages = uniform_messages(n, 2 * kMiB);
    const double horizon = CommMatrix(network, messages).lower_bound();
    // Outage on the pair (0, 1) covering the middle half of the nominal
    // schedule, 20x slowdown.
    const FaultyDirectory directory{
        base, outages({{0, 1, horizon * 0.25, horizon * 1.5, 0.05, true}})};

    ResilientOptions options;
    const auto completion = [&](CheckpointPolicy policy) {
      options.adaptive.policy = policy;
      return run_resilient(scheduler, directory, messages, {}, options)
          .completion_time;
    };
    once_total += completion(CheckpointPolicy::kNever);
    adaptive_total += completion(CheckpointPolicy::kEveryEvent);
  }
  EXPECT_LE(adaptive_total, once_total * 1.02);
}

}  // namespace
}  // namespace hcs
