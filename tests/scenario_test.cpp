// Scenario-file parser and emitter tests: grammar details, the
// randomized round-trip property (parse(emit(s)) == s and
// emit(parse(emit(s))) == emit(s)), and a reject-invalid corpus where
// every malformed file produces a distinct line-numbered diagnostic.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

#include "qos/qos_scheduler.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"

namespace hcs::scenario {
namespace {

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

constexpr std::string_view kMinimal =
    "[scenario]\n"
    "name = minimal\n"
    "[topology]\n"
    "processors = 8\n"
    "[workload]\n"
    "kind = mixed\n";

TEST(ScenarioParse, MinimalFileUsesDefaults) {
  const ScenarioSpec spec = parse_scenario(kMinimal);
  EXPECT_EQ(spec.name, "minimal");
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.family, TopologyFamily::kFlat);
  EXPECT_EQ(spec.processors, 8u);
  EXPECT_EQ(spec.workload, WorkloadKind::kMixed);
  EXPECT_EQ(spec.algorithm, SchedulerKind::kOpenShop);
  EXPECT_FALSE(spec.qos_scheduler);
  EXPECT_FALSE(spec.has_qos);
  EXPECT_FALSE(spec.has_faults);
  EXPECT_TRUE(spec.expect_complete);
  EXPECT_EQ(spec.expect_max_ratio, 0.0);
}

TEST(ScenarioParse, CommentsWhitespaceAndCrLfAreIgnored) {
  const ScenarioSpec spec = parse_scenario(
      "# full-line comment\r\n"
      "  [scenario]  \r\n"
      "  name =  spaced  # trailing comment\r\n"
      "\r\n"
      "[topology]\r\n"
      "processors = 4\r\n"
      "[workload]\r\n"
      "kind = small\r\n");
  EXPECT_EQ(spec.name, "spaced");
  EXPECT_EQ(spec.processors, 4u);
  EXPECT_EQ(spec.workload, WorkloadKind::kSmall);
}

TEST(ScenarioParse, MissingFinalNewlineStillParses) {
  const ScenarioSpec spec = parse_scenario(
      "[scenario]\nname = x\n[topology]\nprocessors = 2\n"
      "[workload]\nkind = large");
  EXPECT_EQ(spec.workload, WorkloadKind::kLarge);
}

TEST(ScenarioParse, GustoDefaultsToFiveProcessors) {
  const ScenarioSpec spec = parse_scenario(
      "[scenario]\nname = g\n[topology]\nfamily = gusto\n"
      "[workload]\nkind = mixed\n");
  EXPECT_EQ(spec.family, TopologyFamily::kGusto);
  EXPECT_EQ(spec.processors, 5u);
}

TEST(ScenarioParse, SectionPresenceDrivesQosAndFaults) {
  const ScenarioSpec spec = parse_scenario(
      "[scenario]\nname = q\n[topology]\nprocessors = 6\n"
      "[workload]\nkind = mixed\n"
      "[qos]\ndeadline_factor = 2.5\n"
      "[faults]\nloss = 0.1\n");
  EXPECT_TRUE(spec.has_qos);
  EXPECT_EQ(spec.deadline_factor, 2.5);
  EXPECT_TRUE(spec.has_faults);
  EXPECT_EQ(spec.loss, 0.1);
  EXPECT_EQ(spec.crashes, 0u);
}

TEST(ScenarioParse, FullFeatureFileRoundsEveryField) {
  const ScenarioSpec spec = parse_scenario(
      "[scenario]\n"
      "name = full-featured_1\n"
      "seed = 42\n"
      "[topology]\n"
      "family = clustered\n"
      "processors = 16\n"
      "sites = 4\n"
      "[workload]\n"
      "kind = transpose\n"
      "rows = 512\n"
      "cols = 256\n"
      "element_bytes = 4\n"
      "[scheduler]\n"
      "algorithm = greedy\n"
      "hierarchical = true\n"
      "[faults]\n"
      "cuts = 2\n"
      "restarts = 1\n"
      "flaps = 1\n"
      "brownouts = 1\n"
      "brownout_factor = 0.5\n"
      "replan = true\n"
      "[expect]\n"
      "max_ratio_to_lb = 4\n"
      "golden = alt.json\n");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.family, TopologyFamily::kClustered);
  EXPECT_EQ(spec.sites, 4u);
  EXPECT_EQ(spec.workload, WorkloadKind::kTranspose);
  EXPECT_EQ(spec.transpose_rows, 512u);
  EXPECT_EQ(spec.transpose_cols, 256u);
  EXPECT_EQ(spec.element_bytes, 4u);
  EXPECT_EQ(spec.algorithm, SchedulerKind::kGreedy);
  EXPECT_TRUE(spec.hierarchical);
  EXPECT_EQ(spec.cuts, 2u);
  EXPECT_EQ(spec.restarts, 1u);
  EXPECT_EQ(spec.brownout_factor, 0.5);
  EXPECT_TRUE(spec.replan);
  EXPECT_EQ(spec.expect_max_ratio, 4.0);
  EXPECT_EQ(spec.golden, "alt.json");
}

// ---------------------------------------------------------------------------
// Round-trip property
// ---------------------------------------------------------------------------

/// Draws a random *valid* spec. Fields whose value would be ignored in
/// the drawn configuration stay at their defaults, mirroring what
/// parse_scenario produces — that is exactly the losslessness contract
/// the emitter documents.
ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.name = "fuzz_" + std::to_string(rng.next_below(1000000));
  spec.seed = rng.next_below(10000);

  switch (rng.next_below(3)) {
    case 0: spec.family = TopologyFamily::kFlat; break;
    case 1: spec.family = TopologyFamily::kClustered; break;
    default: spec.family = TopologyFamily::kGusto; break;
  }
  spec.processors = spec.family == TopologyFamily::kGusto
                        ? 5
                        : 4 + rng.next_below(29);
  if (spec.family == TopologyFamily::kClustered) {
    spec.sites = 2 + rng.next_below(3);
  }
  if (rng.next_below(4) == 0) {
    spec.drift_sigma = 0.05 * static_cast<double>(1 + rng.next_below(10));
    spec.drift_period_s =
        0.25 * static_cast<double>(1 + rng.next_below(8));
  }

  constexpr std::array<WorkloadKind, 6> kKinds = {
      WorkloadKind::kSmall,   WorkloadKind::kLarge,
      WorkloadKind::kMixed,   WorkloadKind::kServers,
      WorkloadKind::kUniform, WorkloadKind::kTranspose};
  spec.workload = kKinds[rng.next_below(kKinds.size())];
  if (spec.workload == WorkloadKind::kUniform) {
    spec.uniform_bytes = 1024 * (1 + rng.next_below(64));
  }
  if (spec.workload == WorkloadKind::kTranspose) {
    spec.transpose_rows = 1 + rng.next_below(2048);
    spec.transpose_cols = 1 + rng.next_below(2048);
    spec.element_bytes = 1 + rng.next_below(16);
  }

  if (rng.next_below(3) == 0) {
    spec.has_qos = true;
    spec.deadline_factor = 0.5 * static_cast<double>(1 + rng.next_below(8));
    spec.tight_pairs = rng.next_below(6);
    if (spec.tight_pairs > 0) {
      spec.tight_factor = 0.25 * static_cast<double>(1 + rng.next_below(8));
      spec.tight_priority = static_cast<double>(1 + rng.next_below(20));
    }
  }
  if (spec.has_qos && rng.next_below(2) == 0) {
    spec.qos_scheduler = true;
    constexpr std::array<QosOrdering, 3> kOrderings = {
        QosOrdering::kEdf, QosOrdering::kPriorityFirst,
        QosOrdering::kLeastLaxity};
    spec.ordering = kOrderings[rng.next_below(kOrderings.size())];
  } else {
    constexpr std::array<SchedulerKind, 7> kAlgorithms = {
        SchedulerKind::kBaseline,    SchedulerKind::kBaselineBarrier,
        SchedulerKind::kMaxMatching, SchedulerKind::kMinMatching,
        SchedulerKind::kGreedy,      SchedulerKind::kOpenShop,
        SchedulerKind::kRandom};
    spec.algorithm = kAlgorithms[rng.next_below(kAlgorithms.size())];
    spec.hierarchical = rng.next_below(3) == 0;
  }

  if (rng.next_below(3) == 0) {
    spec.has_faults = true;
    spec.crashes = rng.next_below(2);
    spec.restarts = rng.next_below(2);
    spec.cuts = rng.next_below(3);
    if (rng.next_below(2) == 0) {
      spec.loss = 0.05 * static_cast<double>(1 + rng.next_below(10));
    }
    spec.flaps = rng.next_below(2);
    spec.brownouts = rng.next_below(2);
    if (spec.brownouts > 0) {
      spec.brownout_factor =
          0.25 * static_cast<double>(1 + rng.next_below(4));
    }
    spec.replan = rng.next_below(2) == 0;
    if (spec.crashes > 0) spec.expect_complete = false;
  }

  if (rng.next_below(3) == 0) {
    spec.expect_max_ratio = static_cast<double>(2 + rng.next_below(4));
  }
  if (spec.has_qos && rng.next_below(4) == 0) {
    spec.expect_deadlines_met = true;
  }
  if (rng.next_below(4) == 0) spec.golden = spec.name + "-alt.json";
  return spec;
}

TEST(ScenarioRoundTrip, RandomizedSpecsSurviveEmitParse) {
  Rng rng{20260808};
  for (int iteration = 0; iteration < 500; ++iteration) {
    const ScenarioSpec spec = random_spec(rng);
    const std::string text = emit_scenario(spec);
    SCOPED_TRACE("iteration " + std::to_string(iteration) + "\n" + text);
    ScenarioSpec reparsed;
    ASSERT_NO_THROW(reparsed = parse_scenario(text));
    EXPECT_TRUE(reparsed == spec);
    // Emission is canonical: a second trip changes nothing.
    EXPECT_EQ(emit_scenario(reparsed), text);
  }
}

TEST(ScenarioRoundTrip, HandWrittenFileIsStableAfterOneTrip) {
  // parse(emit(parse(text))) == parse(text): the canonical form of a
  // hand-written file (comments dropped, key order normalized) parses to
  // the same spec.
  const std::string text =
      "# a comment that emission drops\n"
      "[scenario]\n"
      "name = stable\n"
      "seed = 7\n"
      "[workload]\n"
      "kind = uniform\n"
      "bytes = 2048\n"
      "[topology]\n"
      "processors = 6\n"
      "[scheduler]\n"
      "algorithm = max-matching\n";
  const ScenarioSpec first = parse_scenario(text);
  const ScenarioSpec second = parse_scenario(emit_scenario(first));
  EXPECT_TRUE(first == second);
}

// ---------------------------------------------------------------------------
// Reject-invalid corpus: every file is malformed in one distinct way and
// must produce a diagnostic anchored to the documented line.
// ---------------------------------------------------------------------------

struct RejectCase {
  const char* label;
  const char* text;
  std::size_t line;
  const char* needle;
  bool append = false;  ///< text extends the 9-line valid prefix
};

// A 9-line valid prefix; semantic cases append their defect on line 10+.
constexpr const char* kPrefix =
    "[scenario]\n"       // 1
    "name = t\n"         // 2
    "[topology]\n"       // 3
    "family = flat\n"    // 4
    "processors = 8\n"   // 5
    "[workload]\n"       // 6
    "kind = mixed\n"     // 7
    "[scheduler]\n"      // 8
    "algorithm = openshop\n";  // 9

std::string with(const char* suffix) { return std::string(kPrefix) + suffix; }

TEST(ScenarioReject, CorpusProducesLineNumberedDiagnostics) {
  const std::string prefix{kPrefix};
  const std::vector<RejectCase> corpus = {
      // -- syntax --
      {"unterminated-section", "[scenario\nname = x\n", 1,
       "malformed section header"},
      {"unknown-section", "[nope]\n", 1, "unknown section [nope]"},
      {"duplicate-section", "[scenario]\nname = a\n[scenario]\n", 3,
       "duplicate section [scenario] (first at line 1)"},
      {"missing-equals", "[scenario]\nname t\n", 2,
       "expected 'key = value'"},
      {"key-outside-section", "name = a\n", 1, "outside any [section]"},
      {"empty-key", "[scenario]\n= a\n", 2, "empty key before '='"},
      {"empty-value", "[scenario]\nname =\n", 2,
       "empty value for key 'name'"},
      {"unknown-key", "[scenario]\nbogus = 1\n", 2,
       "unknown key 'bogus' in section [scenario]"},
      {"duplicate-key", "[scenario]\nname = a\nname = b\n", 3,
       "duplicate key 'name' in section [scenario] (first at line 2)"},
      // -- value parsing --
      {"bad-integer", "[scenario]\nname = a\nseed = ten\n", 3,
       "expected a non-negative integer"},
      {"bad-number",
       "[scenario]\nname = a\n[topology]\ndrift_sigma = fast\n", 4,
       "expected a number"},
      {"bad-bool",
       "[scenario]\nname = a\n[scheduler]\nhierarchical = yes\n", 4,
       "expected true or false"},
      {"bad-family", "[scenario]\nname = a\n[topology]\nfamily = ring\n",
       4, "unknown topology family"},
      {"bad-kind", "[scenario]\nname = a\n[workload]\nkind = huge\n", 4,
       "unknown workload kind"},
      {"bad-algorithm",
       "[scenario]\nname = a\n[scheduler]\nalgorithm = magic\n", 4,
       "unknown scheduler algorithm"},
      {"bad-ordering",
       "[scenario]\nname = a\n[scheduler]\nordering = fifo\n", 4,
       "unknown qos ordering"},
      // -- semantics --
      {"missing-name", "[scenario]\nseed = 1\n", 1,
       "[scenario] requires 'name'"},
      {"bad-name", "[scenario]\nname = such name!\n", 2,
       "must match [A-Za-z0-9_-]+"},
      {"gusto-processor-count",
       "[scenario]\nname = a\n[topology]\nfamily = gusto\nprocessors = "
       "9\n",
       5, "fixed at 5 processors"},
      {"missing-processors",
       "[scenario]\nname = a\n[topology]\nfamily = flat\n", 3,
       "[topology] requires 'processors'"},
      {"too-few-processors",
       "[scenario]\nname = a\n[topology]\nprocessors = 1\n", 4,
       "processors must be >= 2"},
      {"sites-on-flat",
       "[scenario]\nname = a\n[topology]\nprocessors = 8\nsites = 2\n", 5,
       "'sites' is only valid with family = clustered"},
      {"sites-out-of-range",
       "[scenario]\nname = a\n[topology]\nfamily = clustered\n"
       "processors = 4\nsites = 9\n",
       6, "sites must be in [2, processors]"},
      {"nan-drift-sigma",
       "[scenario]\nname = a\n[topology]\nprocessors = 8\n"
       "drift_sigma = nan\n",
       5, "drift_sigma must be finite and >= 0"},
      {"infinite-drift-sigma",
       "[scenario]\nname = a\n[topology]\nprocessors = 8\n"
       "drift_sigma = inf\n",
       5, "drift_sigma must be finite and >= 0"},
      {"nan-drift-period",
       "[scenario]\nname = a\n[topology]\nprocessors = 8\n"
       "drift_sigma = 0.1\ndrift_period_s = nan\n",
       6, "drift_period_s must be finite and > 0"},
      {"period-without-sigma",
       "[scenario]\nname = a\n[topology]\nprocessors = 8\n"
       "drift_period_s = 1\n",
       5, "'drift_period_s' requires drift_sigma > 0"},
      {"bytes-on-mixed",
       "[scenario]\nname = a\n[topology]\nprocessors = 8\n[workload]\n"
       "kind = mixed\nbytes = 64\n",
       7, "'bytes' is only valid with kind = uniform"},
      {"rows-on-mixed",
       "[scenario]\nname = a\n[topology]\nprocessors = 8\n[workload]\n"
       "kind = mixed\nrows = 64\n",
       7, "'rows' is only valid with kind = transpose"},
      {"zero-bytes",
       "[scenario]\nname = a\n[topology]\nprocessors = 8\n[workload]\n"
       "kind = uniform\nbytes = 0\n",
       7, "bytes must be > 0"},
      // -- semantic cases on the shared prefix (defect at line 10+) --
      {"ordering-without-qos", "ordering = edf\n", 10,
       "'ordering' requires algorithm = qos", true},
      {"hierarchical-too-small",
       "[scenario]\nname = a\n[topology]\nprocessors = 3\n[workload]\n"
       "kind = mixed\n[scheduler]\nalgorithm = greedy\n"
       "hierarchical = true\n",
       9, "hierarchical scheduling requires processors >= 4"},
      {"tight-factor-without-pairs",
       "[qos]\ndeadline_factor = 2\ntight_factor = 0.5\n", 12,
       "'tight_factor' requires tight_pairs > 0", true},
      {"nonpositive-deadline-factor", "[qos]\ndeadline_factor = 0\n", 11,
       "deadline_factor must be > 0", true},
      {"too-many-tight-pairs", "[qos]\ntight_pairs = 100\n", 11,
       "tight_pairs must be <= P*(P-1)", true},
      {"loss-out-of-range", "[faults]\nloss = 1.5\n", 11,
       "loss must be in [0, 1)", true},
      {"too-many-crashes", "[faults]\ncrashes = 4\nrestarts = 3\n", 10,
       "leave at least 2 healthy nodes", true},
      {"brownout-factor-without-brownouts",
       "[faults]\nbrownout_factor = 0.5\n", 11,
       "'brownout_factor' requires brownouts > 0", true},
      {"crashes-expect-complete", "[faults]\ncrashes = 1\n", 10,
       "set [expect] complete = false", true},
      {"zero-max-ratio", "[expect]\nmax_ratio_to_lb = 0\n", 11,
       "max_ratio_to_lb must be > 0", true},
      {"deadlines-without-qos", "[expect]\ndeadlines_met = true\n", 11,
       "'deadlines_met' requires a [qos] section", true},
      {"golden-with-path", "[expect]\ngolden = sub/dir.json\n", 11,
       "golden must be a bare file name", true},
  };

  ASSERT_GE(corpus.size(), 15u);
  for (const RejectCase& c : corpus) {
    SCOPED_TRACE(c.label);
    const std::string text = c.append ? with(c.text) : std::string(c.text);
    try {
      (void)parse_scenario(text);
      ADD_FAILURE() << "accepted malformed scenario:\n" << text;
    } catch (const ScenarioError& error) {
      EXPECT_EQ(error.line(), c.line) << error.what();
      EXPECT_NE(std::string_view{error.what()}.find(c.needle),
                std::string_view::npos)
          << error.what();
    }
  }
}

TEST(ScenarioReject, QosAlgorithmRequiresQosSection) {
  try {
    (void)parse_scenario(
        "[scenario]\nname = a\n[topology]\nprocessors = 8\n[workload]\n"
        "kind = mixed\n[scheduler]\nalgorithm = qos\n");
    ADD_FAILURE() << "accepted qos algorithm without [qos]";
  } catch (const ScenarioError& error) {
    EXPECT_EQ(error.line(), 8u);
    EXPECT_NE(std::string{error.what()}.find("requires a [qos] section"),
              std::string::npos);
  }
}

TEST(ScenarioReject, QosCannotBeHierarchical) {
  try {
    (void)parse_scenario(
        "[scenario]\nname = a\n[topology]\nprocessors = 8\n[workload]\n"
        "kind = mixed\n[scheduler]\nalgorithm = qos\nhierarchical = "
        "true\n[qos]\ndeadline_factor = 2\n");
    ADD_FAILURE() << "accepted qos + hierarchical";
  } catch (const ScenarioError& error) {
    EXPECT_EQ(error.line(), 9u);
    EXPECT_NE(
        std::string{error.what()}.find("cannot be combined with hierarchical"),
        std::string::npos);
  }
}

// Every float key rejects NaN and infinity on its own line: a plain
// `x <= 0.0` range check is false for NaN and would let it through.
void expect_non_finite_rejected(const char* setup, const char* key,
                                std::size_t line) {
  for (const char* value : {"nan", "inf"}) {
    SCOPED_TRACE(std::string(key) + " = " + value);
    const std::string text =
        with(setup) + key + " = " + value + "\n";
    try {
      (void)parse_scenario(text);
      ADD_FAILURE() << "accepted a non-finite " << key;
    } catch (const ScenarioError& error) {
      EXPECT_EQ(error.line(), line) << error.what();
      EXPECT_NE(std::string{error.what()}.find(key), std::string::npos)
          << error.what();
    }
  }
}

TEST(ScenarioReject, NonFiniteDeadlineFactor) {
  expect_non_finite_rejected("[qos]\n", "deadline_factor", 11);
}

TEST(ScenarioReject, NonFiniteTightFactor) {
  expect_non_finite_rejected("[qos]\ntight_pairs = 4\n", "tight_factor", 12);
}

TEST(ScenarioReject, NonFiniteTightPriority) {
  expect_non_finite_rejected("[qos]\ntight_pairs = 4\n", "tight_priority",
                             12);
}

TEST(ScenarioReject, NonFiniteLoss) {
  expect_non_finite_rejected("[faults]\n", "loss", 11);
}

TEST(ScenarioReject, NonFiniteBrownoutFactor) {
  expect_non_finite_rejected("[faults]\nbrownouts = 1\n", "brownout_factor",
                             12);
}

TEST(ScenarioReject, NonFiniteMaxRatioToLowerBound) {
  expect_non_finite_rejected("[expect]\n", "max_ratio_to_lb", 11);
}

TEST(ScenarioReject, ErrorIsAnInputError) {
  // The CLI catches InputError; scenario diagnostics must flow through.
  EXPECT_THROW((void)parse_scenario("[zzz]\n"), InputError);
}

}  // namespace
}  // namespace hcs::scenario
