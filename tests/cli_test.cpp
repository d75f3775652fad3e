// Tests for the CSV utilities and the hcs command-line tool (run through
// its in-process entry point; no subprocesses).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "tools/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace hcs {
namespace {

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(Csv, ParsesPlainCells) {
  std::istringstream in{"a,b,c\n1,2,3\n"};
  const auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Csv, HandlesQuotedCellsWithCommasAndQuotes) {
  std::istringstream in{"\"a,b\",\"say \"\"hi\"\"\"\nplain,x\n"};
  const auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "say \"hi\"");
}

TEST(Csv, HandlesEmbeddedNewlineInQuotes) {
  std::istringstream in{"\"line1\nline2\",b\n"};
  const auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(Csv, HandlesCrLf) {
  std::istringstream in{"a,b\r\nc,d\r\n"};
  const auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(Csv, MissingFinalNewlineStillYieldsRow) {
  std::istringstream in{"a,b"};
  const auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 2u);
}

TEST(Csv, UnterminatedQuoteThrows) {
  std::istringstream in{"\"abc"};
  EXPECT_THROW((void)parse_csv(in), InputError);
}

TEST(Csv, LineParserRejectsEmbeddedNewlines) {
  EXPECT_EQ(parse_csv_line("x,y").size(), 2u);
  EXPECT_TRUE(parse_csv_line("").empty());
}

TEST(Csv, MatrixRoundTrip) {
  Matrix<double> matrix = {{0.0, 1.5}, {2.25, 0.0}};
  std::ostringstream out;
  write_csv_matrix(out, matrix, 6);
  std::istringstream in{out.str()};
  const Matrix<double> back = read_csv_matrix(in);
  ASSERT_EQ(back.rows(), 2u);
  EXPECT_DOUBLE_EQ(back(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(back(1, 0), 2.25);
}

TEST(Csv, MatrixRejectsRaggedAndNonNumeric) {
  std::istringstream ragged{"1,2\n3\n"};
  EXPECT_THROW((void)read_csv_matrix(ragged), InputError);
  std::istringstream text{"1,banana\n2,3\n"};
  EXPECT_THROW((void)read_csv_matrix(text), InputError);
  std::istringstream empty{""};
  EXPECT_THROW((void)read_csv_matrix(empty), InputError);
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args, const std::string& input = "") {
  std::istringstream in{input};
  std::ostringstream out, err;
  const int code = cli::run_cli(args, in, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, HelpIsPrinted) {
  const CliRun result = run({"help"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("usage"), std::string::npos);
}

TEST(Cli, NoArgsIsUsageError) {
  const CliRun result = run({});
  EXPECT_EQ(result.exit_code, 2);
}

TEST(Cli, UnknownCommandIsUsageError) {
  const CliRun result = run({"frobnicate"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateEmitsSquareCsv) {
  const CliRun result = run({"generate", "--processors", "5", "--seed", "3"});
  EXPECT_EQ(result.exit_code, 0);
  std::istringstream in{result.out};
  const Matrix<double> matrix = read_csv_matrix(in);
  EXPECT_EQ(matrix.rows(), 5u);
  EXPECT_TRUE(matrix.square());
  for (std::size_t p = 0; p < 5; ++p) EXPECT_DOUBLE_EQ(matrix(p, p), 0.0);
}

TEST(Cli, GenerateIsDeterministic) {
  const CliRun a = run({"generate", "--processors", "4", "--seed", "9"});
  const CliRun b = run({"generate", "--processors", "4", "--seed", "9"});
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, GenerateValidatesArguments) {
  EXPECT_EQ(run({"generate"}).exit_code, 1);
  EXPECT_EQ(run({"generate", "--processors", "1"}).exit_code, 1);
  EXPECT_EQ(run({"generate", "--processors", "x"}).exit_code, 1);
  EXPECT_EQ(run({"generate", "--bogus", "1"}).exit_code, 1);
  EXPECT_EQ(
      run({"generate", "--processors", "4", "--scenario", "nope"}).exit_code, 1);
}

TEST(Cli, SchedulePipelineRoundTrips) {
  const CliRun generated =
      run({"generate", "--processors", "6", "--seed", "2"});
  ASSERT_EQ(generated.exit_code, 0);
  const CliRun scheduled =
      run({"schedule", "--algorithm", "openshop"}, generated.out);
  EXPECT_EQ(scheduled.exit_code, 0);
  EXPECT_NE(scheduled.out.find("openshop"), std::string::npos);
  EXPECT_NE(scheduled.out.find("lower bound"), std::string::npos);
}

TEST(Cli, ScheduleAllListsEveryAlgorithm) {
  const CliRun generated = run({"generate", "--processors", "5"});
  const CliRun scheduled = run({"schedule", "--algorithm", "all"}, generated.out);
  EXPECT_EQ(scheduled.exit_code, 0);
  for (const char* name :
       {"baseline", "max-matching", "min-matching", "greedy", "openshop",
        "baseline-barrier"})
    EXPECT_NE(scheduled.out.find(name), std::string::npos) << name;
}

TEST(Cli, ScheduleEventsEmitsEventCsv) {
  const CliRun generated = run({"generate", "--processors", "4"});
  const CliRun scheduled = run({"schedule", "--events"}, generated.out);
  EXPECT_EQ(scheduled.exit_code, 0);
  EXPECT_NE(scheduled.out.find("src,dst,start_s,finish_s"), std::string::npos);
}

TEST(Cli, ScheduleDiagramRendersColumns) {
  const CliRun generated = run({"generate", "--processors", "4"});
  const CliRun scheduled = run({"schedule", "--diagram"}, generated.out);
  EXPECT_NE(scheduled.out.find("P0"), std::string::npos);
}

TEST(Cli, ScheduleRejectsGarbageInput) {
  const CliRun result = run({"schedule"}, "not,a\nmatrix");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(Cli, LowerBoundMatchesCommMatrix) {
  const CliRun result = run({"lowerbound"}, "0,2,3\n1,0,1\n4,1,0\n");
  EXPECT_EQ(result.exit_code, 0);
  // Send totals: 5, 2, 5; receive totals: 5, 3, 4 -> t_lb = 5.
  EXPECT_NE(result.out.find("5"), std::string::npos);
}

TEST(Cli, BroadcastRunsAllAlgorithms) {
  for (const char* algorithm : {"fnf", "binomial", "linear"}) {
    const CliRun result = run({"broadcast", "--processors", "8", "--seed", "4",
                               "--algorithm", algorithm});
    EXPECT_EQ(result.exit_code, 0) << algorithm;
    EXPECT_NE(result.out.find("completion"), std::string::npos);
  }
}

TEST(Cli, BroadcastRejectsUnknownAlgorithm) {
  const CliRun result =
      run({"broadcast", "--processors", "4", "--algorithm", "magic"});
  EXPECT_EQ(result.exit_code, 1);
}

TEST(Cli, ScheduleStatsPrintsUtilization) {
  const CliRun generated = run({"generate", "--processors", "5"});
  const CliRun scheduled = run({"schedule", "--stats"}, generated.out);
  EXPECT_EQ(scheduled.exit_code, 0);
  EXPECT_NE(scheduled.out.find("mean port utilization"), std::string::npos);
  EXPECT_NE(scheduled.out.find("bottleneck"), std::string::npos);
}

TEST(Cli, SimulateStaticDriftMatchesPlan) {
  const CliRun result = run({"simulate", "--processors", "6", "--seed", "2",
                             "--drift", "0"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("planned"), std::string::npos);
  EXPECT_NE(result.out.find("actual"), std::string::npos);
}

TEST(Cli, SimulateRejectsNegativeDrift) {
  const CliRun result = run({"simulate", "--processors", "6", "--drift", "-1"});
  EXPECT_EQ(result.exit_code, 1);
}

TEST(Cli, SimulateRejectsNonFiniteDrift) {
  for (const char* sigma : {"nan", "inf"}) {
    const CliRun result =
        run({"simulate", "--processors", "6", "--drift", sigma});
    EXPECT_EQ(result.exit_code, 1) << sigma;
    EXPECT_NE(result.err.find("--drift must be finite"), std::string::npos)
        << result.err;
  }
}

TEST(Cli, TraceRejectsNonFiniteDrift) {
  for (const char* sigma : {"nan", "inf", "-0.5"}) {
    const CliRun result = run({"trace", "--processors", "6", "--drift", sigma,
                               "--format", "metrics"});
    EXPECT_EQ(result.exit_code, 1) << sigma;
    EXPECT_NE(result.err.find("--drift must be finite"), std::string::npos)
        << result.err;
  }
}

TEST(Cli, DriftOptionsRejectNonFinitePeriod) {
  for (const char* period : {"nan", "inf", "0"}) {
    const cli::Options options({"--drift", "0.1", "--drift-period", period},
                               0, {"drift", "drift-period"});
    EXPECT_THROW((void)cli::drift_options(options, 0.0), InputError) << period;
  }
  const cli::Options fine({"--drift", "0.3", "--drift-period", "2"}, 0,
                          {"drift", "drift-period"});
  const DriftingDirectory::Options drift = cli::drift_options(fine, 0.0);
  EXPECT_EQ(drift.step_sigma, 0.3);
  EXPECT_EQ(drift.update_period_s, 2.0);
}

TEST(Cli, FaultSweepReportsDeliveryMix) {
  const CliRun result = run({"fault-sweep", "--processors", "5", "--seed", "2",
                             "--max-crashes", "1", "--cuts", "1"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("fault-free completion"), std::string::npos);
  EXPECT_NE(result.out.find("relayed"), std::string::npos);
  EXPECT_NE(result.out.find("undeliverable"), std::string::npos);
}

TEST(Cli, FaultSweepIsDeterministic) {
  const std::vector<std::string> args{"fault-sweep", "--processors", "5",
                                      "--seed",      "3",          "--loss",
                                      "0.1",         "--cuts",     "2"};
  EXPECT_EQ(run(args).out, run(args).out);
}

TEST(Cli, SweepPrintsCompletionTablePerAlgorithm) {
  const CliRun result =
      run({"sweep", "--processors", "4,6", "--repetitions", "2", "--seed", "5"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("mean completion time"), std::string::npos);
  EXPECT_NE(result.out.find("lower-bound"), std::string::npos);
  for (const char* name : {"baseline", "greedy", "openshop"})
    EXPECT_NE(result.out.find(name), std::string::npos) << name;
}

TEST(Cli, SweepOutputIsIdenticalAcrossThreadCounts) {
  const std::vector<std::string> base{"sweep",  "--processors", "5",
                                      "--repetitions", "6",    "--seed", "3",
                                      "--algorithm",   "openshop"};
  std::vector<std::string> serial = base;
  serial.insert(serial.end(), {"--threads", "1"});
  std::vector<std::string> parallel = base;
  parallel.insert(parallel.end(), {"--threads", "4"});
  // The header line reports the worker count, so compare the tables only.
  const auto tables = [](const std::string& text) {
    return text.substr(text.find('\n'));
  };
  EXPECT_EQ(tables(run(serial).out), tables(run(parallel).out));
}

TEST(Cli, SweepRatiosOmitsLowerBoundColumn) {
  const CliRun result = run({"sweep", "--processors", "4", "--repetitions", "2",
                             "--ratios"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("/ lower bound"), std::string::npos);
  EXPECT_EQ(result.out.find("lower-bound"), std::string::npos);
}

TEST(Cli, SweepExecuteAddsSimulatedTable) {
  const CliRun result = run({"sweep", "--processors", "4", "--repetitions", "2",
                             "--algorithm", "openshop", "--execute"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("simulated completion"), std::string::npos);
}

TEST(Cli, SweepValidatesArguments) {
  EXPECT_EQ(run({"sweep"}).exit_code, 1);
  EXPECT_EQ(run({"sweep", "--processors", "4,x"}).exit_code, 1);
  EXPECT_EQ(run({"sweep", "--processors", "1"}).exit_code, 1);
  EXPECT_EQ(run({"sweep", "--processors", "4", "--repetitions", "0"}).exit_code,
            1);
  EXPECT_EQ(run({"sweep", "--processors", "4", "--threads", "-1"}).exit_code, 1);
  EXPECT_EQ(
      run({"sweep", "--processors", "4", "--algorithm", "nope"}).exit_code, 1);
}

TEST(Cli, FaultSweepOutputIsIdenticalAcrossThreadCounts) {
  const std::vector<std::string> base{"fault-sweep", "--processors", "6",
                                      "--seed", "2", "--max-crashes", "3",
                                      "--cuts", "1", "--loss", "0.1"};
  std::vector<std::string> serial = base;
  serial.insert(serial.end(), {"--threads", "1"});
  std::vector<std::string> parallel = base;
  parallel.insert(parallel.end(), {"--threads", "4"});
  const CliRun a = run(serial);
  EXPECT_EQ(a.exit_code, 0) << a.err;
  EXPECT_EQ(a.out, run(parallel).out);
}

TEST(Cli, FaultSweepValidatesArguments) {
  EXPECT_EQ(run({"fault-sweep"}).exit_code, 1);
  EXPECT_EQ(run({"fault-sweep", "--processors", "5", "--loss", "1.5"}).exit_code,
            1);
  EXPECT_EQ(
      run({"fault-sweep", "--processors", "5", "--max-crashes", "9"}).exit_code,
      1);
  EXPECT_EQ(run({"fault-sweep", "--processors", "5", "--cuts", "-1"}).exit_code,
            1);
  EXPECT_EQ(
      run({"fault-sweep", "--processors", "5", "--restarts", "-1"}).exit_code,
      1);
  // 2 restarts + default 2 crashes would leave no healthy relay node.
  EXPECT_EQ(
      run({"fault-sweep", "--processors", "5", "--restarts", "2"}).exit_code,
      1);
  EXPECT_EQ(run({"fault-sweep", "--processors", "5", "--brownout-factor", "0"})
                .exit_code,
            1);
  EXPECT_EQ(run({"fault-sweep", "--processors", "5", "--brownout-factor",
                 "1.5"})
                .exit_code,
            1);
  EXPECT_EQ(
      run({"fault-sweep", "--processors", "5", "--format", "yaml"}).exit_code,
      1);
}

TEST(Cli, FaultSweepDynamicFaultsReportRescuesUnderReplan) {
  const CliRun result =
      run({"fault-sweep", "--processors", "8", "--seed", "4", "--max-crashes",
           "1", "--cuts", "0", "--restarts", "2", "--brownouts", "1",
           "--replan", "--threads", "1"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("rescued"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("replans"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("2 restart(s)"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("replan on"), std::string::npos) << result.out;
}

TEST(Cli, FaultSweepCsvAndJsonFormats) {
  const std::vector<std::string> base{"fault-sweep", "--processors", "6",
                                      "--seed", "2", "--max-crashes", "1",
                                      "--restarts", "1", "--replan"};
  std::vector<std::string> csv = base;
  csv.insert(csv.end(), {"--format", "csv"});
  const CliRun a = run(csv);
  EXPECT_EQ(a.exit_code, 0) << a.err;
  EXPECT_NE(a.out.find("crashes,direct,rescued,relayed,undeliverable,replans,"
                       "completion_s,x_fault_free"),
            std::string::npos)
      << a.out;
  EXPECT_NE(a.out.find("\n0,"), std::string::npos);
  EXPECT_NE(a.out.find("\n1,"), std::string::npos);

  std::vector<std::string> json = base;
  json.insert(json.end(), {"--format", "json"});
  const CliRun b = run(json);
  EXPECT_EQ(b.exit_code, 0) << b.err;
  EXPECT_NE(b.out.find("\"replan\":true"), std::string::npos) << b.out;
  EXPECT_NE(b.out.find("\"rows\":["), std::string::npos);
  EXPECT_NE(b.out.find("\"rescued\":"), std::string::npos);
  EXPECT_NE(b.out.find("\"x_fault_free\":"), std::string::npos);
}

TEST(Cli, TraceDiagramAuditsCleanAndIsDeterministic) {
  const std::vector<std::string> args = {"trace",  "--processors", "6",
                                         "--seed", "11",           "--audit"};
  const CliRun a = run(args);
  EXPECT_EQ(a.exit_code, 0) << a.err;
  EXPECT_NE(a.out.find("time"), std::string::npos);
  EXPECT_NE(a.out.find(">"), std::string::npos);
  EXPECT_NE(a.err.find("audit: clean"), std::string::npos);
  EXPECT_EQ(a.out, run(args).out);
}

TEST(Cli, TraceChromeFormatEmitsTraceEvents) {
  const CliRun result = run({"trace", "--processors", "5", "--format",
                             "chrome"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(result.out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(result.out.find("\"name\": \"P4\""), std::string::npos);
}

TEST(Cli, TraceMetricsFormatCountsTransfers) {
  const CliRun result = run({"trace", "--processors", "4", "--format",
                             "metrics"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  // A 4-processor total exchange delivers 12 messages.
  EXPECT_NE(result.out.find("\"trace.events.send\": 12"), std::string::npos);
  EXPECT_NE(result.out.find("\"histograms\""), std::string::npos);
}

TEST(Cli, TraceFaultyRunAuditsClean) {
  const CliRun result = run({"trace", "--processors", "8", "--seed", "3",
                             "--crashes", "1", "--cuts", "2", "--loss", "0.2",
                             "--audit"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.err.find("audit: clean"), std::string::npos);
}

TEST(Cli, TraceValidatesArguments) {
  EXPECT_EQ(run({"trace"}).exit_code, 1);
  EXPECT_EQ(run({"trace", "--processors", "1"}).exit_code, 1);
  EXPECT_EQ(run({"trace", "--processors", "5", "--model", "nope"}).exit_code,
            1);
  EXPECT_EQ(run({"trace", "--processors", "5", "--format", "nope"}).exit_code,
            1);
  EXPECT_EQ(run({"trace", "--processors", "5", "--loss", "2.0"}).exit_code, 1);
  EXPECT_EQ(run({"trace", "--processors", "5", "--restarts", "-1"}).exit_code,
            1);
  EXPECT_EQ(
      run({"trace", "--processors", "5", "--brownout-factor", "0"}).exit_code,
      1);
}

// --format is checked before anything is resolved, scheduled or run: a
// wide run fails at once, and a run the executor would refuse (faults on
// a buffered receive model) reports the format, not the refusal.
TEST(Cli, TraceChecksFormatBeforeRunning) {
  const CliRun wide =
      run({"trace", "--processors", "512", "--format", "bogus"});
  EXPECT_EQ(wide.exit_code, 1);
  EXPECT_NE(wide.err.find("unknown trace format"), std::string::npos)
      << wide.err;
  EXPECT_TRUE(wide.out.empty()) << wide.out;
  const CliRun refused =
      run({"trace", "--processors", "8", "--crashes", "1", "--model",
           "buffered", "--format", "bogus"});
  EXPECT_EQ(refused.exit_code, 1);
  EXPECT_NE(refused.err.find("unknown trace format"), std::string::npos)
      << refused.err;
  EXPECT_TRUE(refused.out.empty()) << refused.out;
}

// Faults execute on the same directory as a fault-free run, so drift
// rides along with them and the committed history still audits clean.
TEST(Cli, TraceComposesDriftWithFaults) {
  const CliRun result = run({"trace", "--processors", "8", "--drift", "0.3",
                             "--cuts", "1", "--format", "metrics", "--audit"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.err.find("audit: clean"), std::string::npos) << result.err;
  EXPECT_NE(result.out.find("resilient.failed_attempts"), std::string::npos);
}

TEST(Cli, TraceSelfHealingRunAuditsClean) {
  // Dynamic faults plus online re-planning through the trace pipeline:
  // the committed history (replan rounds included) must replay cleanly
  // through the auditor, and the metrics summary must carry the
  // self-healing counters.
  const CliRun result =
      run({"trace", "--processors", "12", "--seed", "3", "--restarts", "2",
           "--brownouts", "1", "--replan", "--hierarchical", "--clusters",
           "3", "--algorithm", "greedy", "--format", "metrics", "--audit"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.err.find("audit: clean"), std::string::npos) << result.err;
  EXPECT_NE(result.out.find("\"resilient.replan_count\""), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("\"resilient.degraded_makespan_ratio\""),
            std::string::npos)
      << result.out;
}

TEST(Cli, SweepCsvFormatEmitsOneRowPerProcessorCount) {
  const CliRun result =
      run({"sweep", "--processors", "4,6", "--repetitions", "2", "--seed",
           "5", "--algorithm", "greedy", "--format", "csv"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("P,lower_bound_s,greedy"), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("\n4,"), std::string::npos);
  EXPECT_NE(result.out.find("\n6,"), std::string::npos);
}

TEST(Cli, SweepJsonFormatCarriesTheSeries) {
  const CliRun result =
      run({"sweep", "--processors", "5", "--repetitions", "2", "--algorithm",
           "openshop", "--format", "json"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("\"series\":"), std::string::npos);
  EXPECT_NE(result.out.find("\"algorithm\":\"openshop\""), std::string::npos);
  EXPECT_NE(result.out.find("\"mean_ratio_to_lb\":"), std::string::npos);
}

TEST(Cli, SweepHierarchicalClusteredFamilyRuns) {
  // Hierarchical + clustered family through the sweep harness, schedules
  // validated (the sweep validates by default) and simulator-executed.
  const CliRun result =
      run({"sweep", "--processors", "12", "--repetitions", "2", "--clusters",
           "3", "--hierarchical", "--algorithm", "greedy", "--execute"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("clustered family: 3 site(s)"),
            std::string::npos);
  EXPECT_NE(result.out.find("hierarchical scheduling: on"),
            std::string::npos);
}

TEST(Cli, TraceHierarchicalAuditsClean) {
  const CliRun result =
      run({"trace", "--processors", "24", "--clusters", "4", "--hierarchical",
           "--algorithm", "greedy", "--format", "metrics", "--audit"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.err.find("audit: clean"), std::string::npos) << result.err;
}

TEST(Cli, SweepRejectsUnknownFormat) {
  EXPECT_EQ(run({"sweep", "--processors", "4", "--format", "yaml"}).exit_code,
            1);
  EXPECT_EQ(run({"sweep", "--processors", "4", "--clusters", "-1"}).exit_code,
            1);
}

TEST(Cli, RunScenariosBundledCorpusIsCleanAndThreadDeterministic) {
  // The checked-in scenarios/ fleet must run audit-clean against its
  // goldens, and the full run-scenarios output — every per-scenario JSON
  // artifact included — must be byte-identical at 1, 2, and 8 threads.
  std::string reference;
  for (const char* threads : {"1", "2", "8"}) {
    const CliRun result = run({"run-scenarios", HCS_SCENARIO_DIR,
                               "--threads", threads, "--format", "json"});
    EXPECT_EQ(result.exit_code, 0) << result.err;
    if (reference.empty()) {
      reference = result.out;
      EXPECT_NE(reference.find("\"status\":\"ok\""), std::string::npos);
      EXPECT_EQ(reference.find("\"status\":\"failed\""), std::string::npos);
      EXPECT_EQ(reference.find("\"status\":\"golden-diff\""),
                std::string::npos);
    } else {
      EXPECT_EQ(result.out, reference) << "--threads " << threads;
    }
  }
}

TEST(Cli, RunScenariosTableSummarizesTheFleet) {
  const CliRun result =
      run({"run-scenarios", HCS_SCENARIO_DIR, "--filter", "fig09"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("fig09_small.scn"), std::string::npos);
  EXPECT_NE(result.out.find("0 failing"), std::string::npos);
}

TEST(Cli, RunScenariosValidatesArguments) {
  EXPECT_EQ(run({"run-scenarios"}).exit_code, 1);
  EXPECT_EQ(run({"run-scenarios", "--threads", "2"}).exit_code, 1);
  EXPECT_EQ(run({"run-scenarios", "/nonexistent-scenario-dir"}).exit_code, 1);
  EXPECT_EQ(
      run({"run-scenarios", HCS_SCENARIO_DIR, "--format", "yaml"}).exit_code,
      1);
  EXPECT_EQ(run({"run-scenarios", HCS_SCENARIO_DIR, "--filter", "zzz"})
                .exit_code,
            1);
}

TEST(Cli, SweepWithLocalWorkersIsByteIdenticalToSingleProcess) {
  const std::vector<std::string> base{"sweep", "--processors", "5,8",
                                      "--repetitions", "3", "--seed", "4",
                                      "--algorithm", "openshop",
                                      "--format", "json"};
  const CliRun single = run(base);
  ASSERT_EQ(single.exit_code, 0) << single.err;

  std::vector<std::string> sharded = base;
  sharded.insert(sharded.end(),
                 {"--workers", "local:3", "--shard-units", "1"});
  const CliRun distributed = run(sharded);
  ASSERT_EQ(distributed.exit_code, 0) << distributed.err;
  EXPECT_EQ(distributed.out, single.out)
      << "distributed sweep must render byte-identically";

  // CSV path too — the contract is on every rendering.
  std::vector<std::string> csv_single = base, csv_sharded = sharded;
  csv_single[csv_single.size() - 1] = "csv";
  csv_sharded[10] = "csv";
  EXPECT_EQ(run(csv_sharded).out, run(csv_single).out);
}

TEST(Cli, FaultSweepWithLocalWorkersIsByteIdenticalToSingleProcess) {
  const std::vector<std::string> base{"fault-sweep", "--processors", "6",
                                      "--seed", "2", "--max-crashes", "2",
                                      "--cuts", "1", "--format", "json"};
  const CliRun single = run(base);
  ASSERT_EQ(single.exit_code, 0) << single.err;
  std::vector<std::string> sharded = base;
  sharded.insert(sharded.end(),
                 {"--workers", "local:2", "--shard-units", "1"});
  const CliRun distributed = run(sharded);
  ASSERT_EQ(distributed.exit_code, 0) << distributed.err;
  EXPECT_EQ(distributed.out, single.out);
}

TEST(Cli, SweepValidatesWorkerArguments) {
  EXPECT_EQ(run({"sweep", "--processors", "4", "--workers", "bogus:x"})
                .exit_code,
            1);
  EXPECT_EQ(run({"sweep", "--processors", "4", "--workers", "local:0"})
                .exit_code,
            1);
  EXPECT_EQ(run({"sweep", "--processors", "4", "--workers", "local",
                 "--shard-units", "-1"})
                .exit_code,
            1);
  // Unreachable daemons are a runtime failure, not a hang: the sweep
  // aborts once every endpoint has retired.
  const CliRun dead = run({"sweep", "--processors", "4", "--repetitions", "2",
                           "--workers", "unix:/tmp/hcs-no-such-daemon.sock"});
  EXPECT_EQ(dead.exit_code, 1);
  EXPECT_NE(dead.err.find("incomplete"), std::string::npos) << dead.err;
}

TEST(Cli, ReplayValidatesArrivalArguments) {
  // Validation fires before any socket connect, so a bogus path is fine.
  const CliRun arrival = run({"replay", "--socket", "/tmp/x.sock",
                              "--arrival", "warp"});
  EXPECT_EQ(arrival.exit_code, 1);
  EXPECT_NE(arrival.err.find("--arrival must be"), std::string::npos)
      << arrival.err;
  const CliRun rate = run({"replay", "--socket", "/tmp/x.sock",
                           "--arrival", "poisson"});
  EXPECT_EQ(rate.exit_code, 1);
  EXPECT_NE(rate.err.find("--rate"), std::string::npos) << rate.err;
  EXPECT_EQ(run({"replay", "--socket", "/tmp/x.sock", "--arrival", "burst",
                 "--rate", "100", "--burst", "0"})
                .exit_code,
            1);
}

// Byte-exact CLI output for the fault-sweep, trace and schedule-statistics
// pipelines. Each case's stdout is pinned to tests/golden/cli/<name>.txt;
// a refactor of how instances, schedulers, fault plans and schedule
// analyses are built must leave every byte alone. Regenerate after an
// intentional output change with
//   HCS_UPDATE_GOLDEN=1 ./tests/cli_test --gtest_filter='CliGolden.*'
struct GoldenCase {
  std::string name;
  std::vector<std::string> args;
  std::string input = "";
};

void expect_golden(const GoldenCase& entry) {
  const std::string& name = entry.name;
  SCOPED_TRACE(name);
  const CliRun result = run(entry.args, entry.input);
  ASSERT_EQ(result.exit_code, 0) << result.err;
  const std::string path = std::string(HCS_CLI_GOLDEN_DIR) + "/" + name +
                           ".txt";
  if (std::getenv("HCS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << result.out;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (run with HCS_UPDATE_GOLDEN=1 to create)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(result.out, golden.str()) << name << " drifted from its golden";
}

TEST(CliGolden, FaultSweepAndTraceOutputIsByteExact) {
  const std::vector<std::string> chaos{
      "fault-sweep", "--processors", "32", "--seed", "7", "--max-crashes",
      "2", "--cuts", "2", "--loss", "0.05", "--restarts", "3", "--flaps", "2",
      "--brownouts", "3", "--brownout-factor", "0.2", "--replan",
      "--hierarchical", "--clusters", "4"};
  std::vector<std::string> chaos_json = chaos;
  chaos_json.insert(chaos_json.end(), {"--format", "json"});
  std::vector<GoldenCase> cases{
      {"fault_sweep_chaos_p32", chaos},
      {"fault_sweep_chaos_p32_json", chaos_json},
      {"trace_self_healing_p24",
       {"trace", "--processors", "24", "--clusters", "3", "--hierarchical",
        "--algorithm", "greedy", "--restarts", "3", "--brownouts", "4",
        "--replan", "--format", "metrics", "--audit"}},
      {"trace_crash_cut_loss_replan_p96",
       {"trace", "--processors", "96", "--seed", "5", "--crashes", "2",
        "--cuts", "3", "--loss", "0.05", "--replan", "--format", "metrics",
        "--audit"}},
      {"trace_faulty_chrome_p6",
       {"trace", "--processors", "6", "--seed", "2", "--crashes", "1",
        "--cuts", "1", "--flaps", "1", "--format", "chrome"}},
  };
  for (const std::string scenario : {"small", "large", "mixed", "servers"})
    cases.push_back({"fault_sweep_p12_" + scenario,
                     {"fault-sweep", "--processors", "12", "--seed", "3",
                      "--scenario", scenario, "--max-crashes", "3", "--cuts",
                      "1", "--loss", "0.05", "--format", "csv"}});
  for (const GoldenCase& entry : cases) expect_golden(entry);
}

// Drift composed with every fault kind under re-planning, and a run whose
// many cuts push traffic onto relay routes: the checkpoint rounds'
// planning snapshots, degraded views and relay route graphs all shape
// these bytes.
TEST(CliGolden, DriftFaultAndRelayTracesAreByteExact) {
  const GoldenCase relay{"trace_relay_cuts_p32",
                         {"trace", "--processors", "32", "--seed", "3",
                          "--cuts", "40", "--format", "metrics", "--audit"}};
  expect_golden({"trace_drift_faults_replan_p64",
                 {"trace", "--processors", "64", "--clusters", "4",
                  "--hierarchical", "--drift", "0.3", "--crashes", "1",
                  "--cuts", "2", "--restarts", "2", "--flaps", "2",
                  "--brownouts", "4", "--loss", "0.05", "--replan",
                  "--format", "metrics", "--audit"}});
  expect_golden(relay);
  const CliRun result = run(relay.args);
  const std::string key = "\"trace.events.relay-hop\": ";
  const std::size_t at = result.out.find(key);
  ASSERT_NE(at, std::string::npos) << result.out;
  EXPECT_GT(std::stol(result.out.substr(at + key.size())), 0)
      << "the relay case must exercise relay routes";
}

// `hcs simulate` and the fault-free `hcs trace` runs — static, drifting
// and the two non-serialized receive models — pinned alongside the
// faulty traces above.
TEST(CliGolden, SimulateAndPlainTraceOutputIsByteExact) {
  const std::vector<GoldenCase> cases{
      {"simulate_p12", {"simulate", "--processors", "12"}},
      {"simulate_static_p12",
       {"simulate", "--processors", "12", "--drift", "0"}},
      {"trace_static_chrome_p6",
       {"trace", "--processors", "6", "--format", "chrome"}},
      {"trace_drift_diagram_p16",
       {"trace", "--processors", "16", "--drift", "0.3", "--format",
        "diagram"}},
      {"trace_interleaved_metrics_p8",
       {"trace", "--processors", "8", "--model", "interleaved", "--format",
        "metrics"}},
      {"trace_buffered_metrics_p8",
       {"trace", "--processors", "8", "--model", "buffered", "--format",
        "metrics"}},
  };
  for (const GoldenCase& entry : cases) expect_golden(entry);
}

// The per-processor table of `schedule --stats` at a width where the
// analysis's per-port pass, not a per-processor scan, must produce it.
TEST(CliGolden, ScheduleStatsOutputIsByteExact) {
  const CliRun instance =
      run({"generate", "--processors", "64", "--seed", "7"});
  ASSERT_EQ(instance.exit_code, 0) << instance.err;
  expect_golden({"schedule_stats_greedy_p64",
                 {"schedule", "--algorithm", "greedy", "--stats"},
                 instance.out});
}

TEST(CliOptions, ParsesPairsAndFlags) {
  const cli::Options options({"cmd", "--a", "1", "--flag", "--b", "x"}, 1,
                             {"a", "flag", "b"});
  EXPECT_EQ(options.get_long("a", 0), 1);
  EXPECT_TRUE(options.has("flag"));
  EXPECT_EQ(options.get("b", ""), "x");
  EXPECT_EQ(options.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(options.get_double("missing", 2.5), 2.5);
}

TEST(CliOptions, RejectsUnknownKeysAndBareWords) {
  EXPECT_THROW(cli::Options({"cmd", "--zzz", "1"}, 1, {"a"}), InputError);
  EXPECT_THROW(cli::Options({"cmd", "stray"}, 1, {"a"}), InputError);
}

}  // namespace
}  // namespace hcs
