// End-to-end scenario execution and fleet-runner tests: resolution
// reproduces the paper instances bit-for-bit, runs are deterministic and
// audit-clean, QoS compliance is tracked through fault-injected
// execution, and the golden-artifact lifecycle (update, match, diff,
// missing) behaves at every thread count.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/comm_matrix.hpp"
#include "scenario/resolve.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "workload/scenario.hpp"

namespace hcs::scenario {
namespace {

namespace fs = std::filesystem;

ScenarioSpec base_spec(const std::string& name, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.processors = 8;
  spec.workload = WorkloadKind::kMixed;
  spec.algorithm = SchedulerKind::kOpenShop;
  return spec;
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

TEST(ScenarioResolve, FlatMixedMatchesPaperInstanceBitForBit) {
  ScenarioSpec spec = base_spec("paper", 3);
  const ResolvedScenario resolved = resolve_scenario(spec);
  const ProblemInstance instance =
      make_instance(Scenario::kMixedMessages, 8, 3);
  ASSERT_EQ(resolved.network.processor_count(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(resolved.messages(i, j), instance.messages(i, j));
      EXPECT_EQ(resolved.network.cost(i, j, 1 << 20),
                instance.network.cost(i, j, 1 << 20));
    }
  }
  const CommMatrix comm{instance.network, instance.messages};
  EXPECT_EQ(resolved.lower_bound_s, comm.lower_bound());
}

TEST(ScenarioResolve, SchedulerNamesFollowTheSpec) {
  ScenarioSpec spec = base_spec("names", 1);
  EXPECT_EQ(resolve_scenario(spec).scheduler->name(), "openshop");

  spec.hierarchical = true;
  spec.family = TopologyFamily::kClustered;
  spec.sites = 2;
  spec.algorithm = SchedulerKind::kGreedy;
  EXPECT_EQ(resolve_scenario(spec).scheduler->name(), "hierarchical(greedy)");

  spec = base_spec("qos", 1);
  spec.qos_scheduler = true;
  spec.has_qos = true;
  spec.ordering = QosOrdering::kLeastLaxity;
  EXPECT_EQ(resolve_scenario(spec).scheduler->name(), "qos-laxity");
}

TEST(ScenarioResolve, QosSpecCoversAllPairsAndTightensSeededOnes) {
  ScenarioSpec spec = base_spec("deadlines", 5);
  spec.has_qos = true;
  spec.deadline_factor = 3.0;
  spec.tight_pairs = 4;
  spec.tight_factor = 0.5;
  spec.tight_priority = 9.0;
  const ResolvedScenario resolved = resolve_scenario(spec);
  std::size_t tight = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) continue;
      const double deadline = resolved.qos.deadline_s(i, j);
      if (resolved.qos.priority(i, j) == 9.0) {
        ++tight;
        EXPECT_EQ(deadline, 0.5 * resolved.lower_bound_s);
      } else {
        EXPECT_EQ(deadline, 3.0 * resolved.lower_bound_s);
      }
    }
  }
  EXPECT_EQ(tight, 4u);
}

// ---------------------------------------------------------------------------
// Single-scenario execution
// ---------------------------------------------------------------------------

TEST(ScenarioRunner, StaticRunIsCleanAndExecutesThePlan) {
  const ScenarioRun run = run_scenario(base_spec("static", 11));
  EXPECT_TRUE(run.ok()) << (run.failures.empty() ? "" : run.failures[0]);
  EXPECT_GT(run.lower_bound_s, 0.0);
  // The open-shop schedule can hit t_lb exactly; allow rounding slack.
  EXPECT_GE(run.planned_s, run.lower_bound_s * (1.0 - 1e-9));
  // A static directory executes the planned schedule exactly.
  EXPECT_DOUBLE_EQ(run.executed_s, run.planned_s);
  EXPECT_EQ(run.undeliverable, 0u);
  EXPECT_NE(run.artifact.find("\"audit\": \"clean\""), std::string::npos);
  EXPECT_EQ(run.artifact.back(), '\n');
}

TEST(ScenarioRunner, RunsAreDeterministic) {
  ScenarioSpec spec = base_spec("det", 21);
  spec.drift_sigma = 0.25;
  spec.drift_period_s = 0.5;
  const ScenarioRun first = run_scenario(spec);
  const ScenarioRun second = run_scenario(spec);
  EXPECT_EQ(first.artifact, second.artifact);
  EXPECT_TRUE(first.ok());
}

TEST(ScenarioRunner, DriftComposesWithFaults) {
  // The fault-tolerant executor runs on the spec's live directory, so a
  // drifting directory changes what a faulty run executes.
  ScenarioSpec spec = base_spec("drift-faults", 9);
  spec.processors = 12;
  spec.has_faults = true;
  spec.crashes = 1;
  spec.cuts = 2;
  spec.loss = 0.02;
  spec.replan = true;
  spec.expect_complete = false;
  const ScenarioRun still = run_scenario(spec);
  spec.drift_sigma = 0.3;
  const ScenarioRun drifting = run_scenario(spec);
  EXPECT_TRUE(still.ok()) << (still.ok() ? "" : still.failures[0]);
  EXPECT_TRUE(drifting.ok()) << (drifting.ok() ? "" : drifting.failures[0]);
  EXPECT_NE(drifting.executed_s, still.executed_s);
  EXPECT_EQ(drifting.planned_s, still.planned_s);
  EXPECT_EQ(run_scenario(spec).artifact, drifting.artifact);
}

TEST(ScenarioRunner, FaultsRequireTheSerializedModel) {
  ScenarioSpec spec = base_spec("model", 4);
  spec.has_faults = true;
  spec.cuts = 1;
  const ResolvedScenario resolved = resolve_scenario(spec);
  SimOptions interleaved;
  interleaved.model = ReceiveModel::kInterleaved;
  EventTrace trace;
  EXPECT_THROW((void)execute(resolved, interleaved, trace), InputError);
  EXPECT_EQ(trace.recorded(), 0u);
}

TEST(ScenarioRunner, QosUnderFaultsCompletesAndCountsMissedDeadlines) {
  // The satellite regime: deadline-aware scheduling executed through the
  // resilient executor with recoverable faults. Everything must still be
  // delivered; the artifact records planned and executed QoS compliance.
  ScenarioSpec spec = base_spec("qos-faults", 14);
  spec.processors = 12;
  spec.qos_scheduler = true;
  spec.ordering = QosOrdering::kLeastLaxity;
  spec.has_qos = true;
  spec.deadline_factor = 3.0;
  spec.tight_pairs = 4;
  spec.tight_factor = 1.5;
  spec.tight_priority = 8.0;
  spec.has_faults = true;
  spec.cuts = 1;
  spec.loss = 0.05;
  spec.flaps = 1;

  const ScenarioRun run = run_scenario(spec);
  EXPECT_TRUE(run.ok()) << (run.failures.empty() ? "" : run.failures[0]);
  EXPECT_EQ(run.undeliverable, 0u);
  EXPECT_GE(run.executed_s, run.planned_s);
  EXPECT_NE(run.artifact.find("\"qos\": {"), std::string::npos);
  EXPECT_NE(run.artifact.find("\"executed_missed\":"), std::string::npos);
  EXPECT_NE(run.artifact.find("\"audit\": \"clean\""), std::string::npos);

  // Byte-identical on a second execution (the fleet depends on this).
  EXPECT_EQ(run_scenario(spec).artifact, run.artifact);
}

TEST(ScenarioRunner, CrashStopLeavesUndeliverableTraffic) {
  ScenarioSpec spec = base_spec("crash", 8);
  spec.processors = 12;
  spec.has_faults = true;
  spec.crashes = 2;
  spec.expect_complete = false;
  const ScenarioRun run = run_scenario(spec);
  EXPECT_TRUE(run.ok()) << (run.failures.empty() ? "" : run.failures[0]);
  EXPECT_GT(run.undeliverable, 0u);
}

TEST(ScenarioRunner, UnmetExpectationsAreReported) {
  // No schedule can beat the concurrency lower bound, so a max ratio
  // of 1e-3 must fail — and completeness holds, so that failure is the
  // only one.
  ScenarioSpec spec = base_spec("ratio", 4);
  spec.expect_max_ratio = 1e-3;
  const ScenarioRun run = run_scenario(spec);
  ASSERT_EQ(run.failures.size(), 1u);
  EXPECT_NE(run.failures[0].find("ratio"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fleet runner and the golden lifecycle
// ---------------------------------------------------------------------------

class ScenarioFleet : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("hcs_fleet_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::string& file, const std::string& text) {
    std::ofstream out{dir_ / file, std::ios::trunc};
    out << text;
  }

  std::string scn(const std::string& name, std::uint64_t seed,
                  const std::string& extra = "") {
    return "[scenario]\nname = " + name +
           "\nseed = " + std::to_string(seed) +
           "\n[topology]\nprocessors = 6\n[workload]\nkind = small\n" +
           extra;
  }

  fs::path dir_;
};

TEST_F(ScenarioFleet, GoldenLifecycle) {
  write("a.scn", scn("alpha", 1));
  write("b.scn", scn("beta", 2));

  // No goldens yet.
  FleetResult result = run_scenario_directory(dir_.string(), {});
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_FALSE(result.ok());
  for (const FleetEntry& entry : result.entries) {
    EXPECT_EQ(entry.status, FleetStatus::kGoldenMissing);
    EXPECT_NE(entry.detail.find("--update-golden"), std::string::npos);
  }

  // Regenerate.
  FleetOptions update;
  update.update_golden = true;
  result = run_scenario_directory(dir_.string(), update);
  EXPECT_TRUE(result.ok());
  for (const FleetEntry& entry : result.entries) {
    EXPECT_EQ(entry.status, FleetStatus::kUpdated);
  }
  EXPECT_TRUE(fs::exists(dir_ / "golden" / "alpha.json"));
  EXPECT_TRUE(fs::exists(dir_ / "golden" / "beta.json"));

  // Clean re-run matches.
  result = run_scenario_directory(dir_.string(), {});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.entries[0].status, FleetStatus::kOk);
  EXPECT_EQ(result.entries[0].scenario, "alpha");

  // Tampered golden diffs, with a line-numbered detail.
  {
    std::ofstream out{dir_ / "golden" / "alpha.json", std::ios::app};
    out << "tampered\n";
  }
  result = run_scenario_directory(dir_.string(), {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.entries[0].status, FleetStatus::kGoldenDiff);
  EXPECT_NE(result.entries[0].detail.find("first difference at line"),
            std::string::npos);
  EXPECT_EQ(result.entries[1].status, FleetStatus::kOk);
}

TEST_F(ScenarioFleet, ParseErrorsAndFilterAndDuplicates) {
  write("a.scn", scn("alpha", 1));
  write("bad.scn", "[scenario]\nname = broken\n");  // missing sections
  write("dup.scn", scn("dup", 3, "[expect]\ngolden = alpha.json\n"));

  FleetOptions update;
  update.update_golden = true;
  FleetResult result = run_scenario_directory(dir_.string(), update);
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_FALSE(result.ok());

  // File order: a.scn, bad.scn, dup.scn.
  EXPECT_EQ(result.entries[0].status, FleetStatus::kUpdated);
  EXPECT_EQ(result.entries[1].status, FleetStatus::kParseError);
  EXPECT_NE(result.entries[1].detail.find("line"), std::string::npos);
  EXPECT_EQ(result.entries[2].status, FleetStatus::kFailed);
  EXPECT_NE(result.entries[2].detail.find("already used"),
            std::string::npos);

  // The filter narrows the fleet to matching file names.
  FleetOptions filtered;
  filtered.filter = "bad";
  result = run_scenario_directory(dir_.string(), filtered);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].file, "bad.scn");

  // An unmatched filter is an input error, as is a missing directory.
  FleetOptions none;
  none.filter = "zzz";
  EXPECT_THROW((void)run_scenario_directory(dir_.string(), none),
               InputError);
  EXPECT_THROW(
      (void)run_scenario_directory((dir_ / "nowhere").string(), {}),
      InputError);
}

TEST_F(ScenarioFleet, ArtifactsAreByteIdenticalAtEveryThreadCount) {
  // The fleet satellite: one scenario per regime class, run at
  // --threads 1, 2, and 8; every artifact and status must match byte
  // for byte.
  write("a.scn", scn("alpha", 1));
  write("b.scn", scn("beta", 2,
                     "[faults]\nloss = 0.1\ncuts = 1\nreplan = true\n"));
  write("c.scn",
        "[scenario]\nname = gamma\nseed = 3\n[topology]\n"
        "family = clustered\nprocessors = 8\nsites = 2\n[workload]\n"
        "kind = mixed\n[scheduler]\nalgorithm = greedy\n"
        "hierarchical = true\n");
  write("d.scn",
        "[scenario]\nname = delta\nseed = 4\n[topology]\n"
        "processors = 6\ndrift_sigma = 0.2\ndrift_period_s = 0.5\n"
        "[workload]\nkind = mixed\n");

  FleetOptions update;
  update.update_golden = true;
  update.threads = 1;
  ASSERT_TRUE(run_scenario_directory(dir_.string(), update).ok());

  FleetResult reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    FleetOptions options;
    options.threads = threads;
    const FleetResult result = run_scenario_directory(dir_.string(), options);
    EXPECT_TRUE(result.ok()) << "threads = " << threads;
    if (threads == 1u) {
      reference = result;
      continue;
    }
    ASSERT_EQ(result.entries.size(), reference.entries.size());
    for (std::size_t k = 0; k < result.entries.size(); ++k) {
      EXPECT_EQ(result.entries[k].file, reference.entries[k].file);
      EXPECT_EQ(result.entries[k].status, reference.entries[k].status);
      EXPECT_EQ(result.entries[k].artifact, reference.entries[k].artifact)
          << result.entries[k].file << " at threads = " << threads;
    }
  }
}

TEST(ScenarioFleetStatus, NamesAreStable) {
  EXPECT_EQ(fleet_status_name(FleetStatus::kOk), "ok");
  EXPECT_EQ(fleet_status_name(FleetStatus::kUpdated), "updated");
  EXPECT_EQ(fleet_status_name(FleetStatus::kParseError), "parse-error");
  EXPECT_EQ(fleet_status_name(FleetStatus::kFailed), "failed");
  EXPECT_EQ(fleet_status_name(FleetStatus::kGoldenMissing),
            "golden-missing");
  EXPECT_EQ(fleet_status_name(FleetStatus::kGoldenDiff), "golden-diff");
}

}  // namespace
}  // namespace hcs::scenario
