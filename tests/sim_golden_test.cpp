// Golden-trace tests: the workspace-backed, event-driven NetworkSimulator
// must produce *bit-identical* results to the retained naive reference
// implementation (oracles/reference_simulator.hpp) — every event, time,
// counter, and undelivered record compared with exact double equality,
// across all three receive models, both arbitration modes, fault hooks,
// static and drifting networks, 64 seeds, and P from 2 to 32.
//
// Exactness is by construction, not luck: both implementations share the
// model-math helpers (interleaved_rate, completion_wins) and perform the
// same floating-point operations in the same order; the flat heaps only
// reorder pops among *identical* tuples. These tests are the enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/schedule.hpp"
#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "oracles/reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "trace/auditor.hpp"
#include "workload/generators.hpp"

namespace hcs {
namespace {

using Orders = std::vector<std::vector<std::size_t>>;

// P values the 64 seeds cycle through (spec: P in 2..32).
constexpr std::size_t kProcCounts[] = {2, 3, 4, 5, 6, 8, 12, 16, 24, 32};
constexpr std::uint64_t kSeeds = 64;

NetworkModel simple_network(std::size_t n, double startup_s, double bw) {
  return NetworkModel{n, LinkParams{startup_s, bw}};
}

/// Random send orders with no receiver orders (FIFO arbitration): each
/// sender gets a shuffled subset of the other processors.
SendProgram random_fifo_program(std::size_t n, std::mt19937_64& rng) {
  Orders orders(n);
  std::uniform_int_distribution<std::size_t> len(0, n - 1);
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<std::size_t> dsts;
    dsts.reserve(n - 1);
    for (std::size_t d = 0; d < n; ++d)
      if (d != src) dsts.push_back(d);
    std::shuffle(dsts.begin(), dsts.end(), rng);
    dsts.resize(len(rng));
    orders[src] = std::move(dsts);
  }
  return SendProgram{std::move(orders)};
}

/// Random program *with* receiver orders, built from a random timed
/// schedule so both sides' orders are mutually consistent (any global
/// order by start time realizes them without deadlock).
SendProgram random_programmed_program(std::size_t n, std::mt19937_64& rng) {
  std::vector<ScheduledEvent> events;
  std::uniform_real_distribution<double> when(0.0, 100.0);
  std::bernoulli_distribution keep(0.7);
  for (std::size_t src = 0; src < n; ++src)
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst || !keep(rng)) continue;
      const double t = when(rng);
      events.push_back({src, dst, t, t + 1.0});
    }
  if (events.empty()) events.push_back({0, 1, 0.0, 1.0});
  return SendProgram::from_schedule(Schedule{n, std::move(events)});
}

/// Deterministic fault hook for golden comparison: the fate of an attempt
/// is a hash of (src, dst, attempt, seed). Roughly one attempt in four
/// fails; a sliver of the failures are permanent.
class HashFaults final : public TransferFaultModel {
 public:
  explicit HashFaults(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] SendVerdict judge(const SendAttempt& attempt) const override {
    std::uint64_t h = seed_;
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(attempt.src),
          static_cast<std::uint64_t>(attempt.dst),
          static_cast<std::uint64_t>(attempt.attempt)})
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    if (h % 4 == 0)
      return {false, attempt.nominal_s * 0.5 + 1e-3, h % 29 == 0};
    return {true, 0.0, false};
  }

 private:
  std::uint64_t seed_;
};

/// Exact (bitwise, for every double) equality of two simulation results.
void expect_identical(const SimResult& fast, const SimResult& ref,
                      const std::string& label) {
  ASSERT_EQ(fast.events.size(), ref.events.size()) << label;
  for (std::size_t i = 0; i < ref.events.size(); ++i) {
    ASSERT_EQ(fast.events[i].src, ref.events[i].src) << label << " event " << i;
    ASSERT_EQ(fast.events[i].dst, ref.events[i].dst) << label << " event " << i;
    ASSERT_EQ(fast.events[i].start_s, ref.events[i].start_s)
        << label << " event " << i;
    ASSERT_EQ(fast.events[i].finish_s, ref.events[i].finish_s)
        << label << " event " << i;
  }
  ASSERT_EQ(fast.completion_time, ref.completion_time) << label;
  ASSERT_EQ(fast.total_sender_wait_s, ref.total_sender_wait_s) << label;
  ASSERT_EQ(fast.failed_attempts, ref.failed_attempts) << label;
  ASSERT_EQ(fast.undelivered.size(), ref.undelivered.size()) << label;
  for (std::size_t i = 0; i < ref.undelivered.size(); ++i) {
    ASSERT_EQ(fast.undelivered[i].src, ref.undelivered[i].src) << label;
    ASSERT_EQ(fast.undelivered[i].dst, ref.undelivered[i].dst) << label;
    ASSERT_EQ(fast.undelivered[i].first_attempt_s,
              ref.undelivered[i].first_attempt_s)
        << label;
    ASSERT_EQ(fast.undelivered[i].gave_up_s, ref.undelivered[i].gave_up_s)
        << label;
    ASSERT_EQ(fast.undelivered[i].attempts, ref.undelivered[i].attempts)
        << label;
    ASSERT_EQ(fast.undelivered[i].permanent, ref.undelivered[i].permanent)
        << label;
  }
}

/// One seed's fixture: a network (static on even seeds — with *uniform*
/// messages on every fourth seed, so event times collide exactly and the
/// tie paths are exercised — drifting on odd seeds) plus its simulator.
struct Fixture {
  std::size_t n;
  MessageMatrix messages;
  std::unique_ptr<DirectoryService> directory;

  Fixture(std::uint64_t seed, std::size_t procs)
      : n(procs),
        messages(seed % 4 == 2
                     ? uniform_messages(n, 64 * 1024)
                     : mixed_messages(n, seed, {1024, 1024 * 1024})) {
    if (seed % 2 == 0) {
      directory = std::make_unique<StaticDirectory>(
          seed % 4 == 2 ? simple_network(n, 1e-3, 1e7)
                        : generate_network(n, seed));
    } else {
      directory = std::make_unique<DriftingDirectory>(
          generate_network(n, seed), seed, DriftingDirectory::Options{});
    }
  }

  void check(const SendProgram& program, const SimOptions& options,
             const std::string& label) const {
    const NetworkSimulator simulator{*directory, messages};
    const SimResult fast = simulator.run(program, options);
    const SimResult ref = run_reference(*directory, messages, program, options);
    expect_identical(fast, ref, label);

    // The traced run must be bit-identical to the untraced one (the
    // tracing hooks are compile-time sinks, not behaviour), and the
    // recorded trace must satisfy the paper's model invariants.
    EventTrace trace;
    SimWorkspace workspace;
    SimResult traced;
    simulator.run_into_traced(program, options, workspace, traced, trace);
    expect_identical(traced, fast, label + " (traced)");
    AuditOptions audit_options;
    audit_options.serialized_receives =
        options.model == ReceiveModel::kSerialized;
    const ScheduleAuditor auditor{audit_options};
    const AuditReport report = auditor.audit(trace, fast.completion_time);
    EXPECT_TRUE(report.ok()) << label << " audit:\n" << report.summary();
  }
};

std::string label_of(const char* model, std::uint64_t seed, std::size_t n) {
  return std::string(model) + " seed=" + std::to_string(seed) +
         " P=" + std::to_string(n);
}

// ---------------------------------------------------------------------------
// Golden traces per model
// ---------------------------------------------------------------------------

TEST(GoldenTrace, SerializedFifoMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    std::mt19937_64 rng{seed};
    const Fixture fx{seed, n};
    SimOptions options;  // kSerialized; FIFO (program has no recv orders)
    fx.check(random_fifo_program(n, rng), options,
             label_of("serialized-fifo", seed, n));
  }
}

TEST(GoldenTrace, ProgrammedArbitrationMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    std::mt19937_64 rng{seed};
    const Fixture fx{seed, n};
    SimOptions options;  // kSerialized + kProgrammed (default)
    fx.check(random_programmed_program(n, rng), options,
             label_of("programmed", seed, n));
  }
}

TEST(GoldenTrace, InterleavedMatchesReference) {
  constexpr double kAlphas[] = {0.0, 0.1, 0.35};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    std::mt19937_64 rng{seed};
    const Fixture fx{seed, n};
    SimOptions options;
    options.model = ReceiveModel::kInterleaved;
    options.alpha = kAlphas[seed % std::size(kAlphas)];
    fx.check(random_fifo_program(n, rng), options,
             label_of("interleaved", seed, n));
  }
}

TEST(GoldenTrace, BufferedMatchesReference) {
  constexpr std::size_t kCapacities[] = {1, 2, 4};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    std::mt19937_64 rng{seed};
    const Fixture fx{seed, n};
    SimOptions options;
    options.model = ReceiveModel::kBuffered;
    options.buffer_capacity = kCapacities[seed % std::size(kCapacities)];
    options.drain_factor = (seed % 2 == 0) ? 1.0 : 0.5;
    fx.check(random_fifo_program(n, rng), options,
             label_of("buffered", seed, n));
  }
}

TEST(GoldenTrace, FaultHooksMatchReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    std::mt19937_64 rng{seed};
    const Fixture fx{seed, n};
    const HashFaults faults{seed};
    SimOptions options;
    options.fault_model = &faults;
    options.max_attempts = 1 + seed % 3;
    options.backoff_base_s = 1e-3;
    options.backoff_factor = 2.0;
    fx.check(random_fifo_program(n, rng), options,
             label_of("fault-fifo", seed, n));
    fx.check(random_programmed_program(n, rng), options,
             label_of("fault-programmed", seed, n));
  }
}

TEST(GoldenTrace, InitialAvailTimesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::size_t n = kProcCounts[seed % std::size(kProcCounts)];
    std::mt19937_64 rng{seed};
    const Fixture fx{seed, n};
    std::uniform_real_distribution<double> avail(0.0, 5.0);
    SimOptions options;
    options.initial_send_avail.resize(n);
    options.initial_recv_avail.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      options.initial_send_avail[p] = avail(rng);
      options.initial_recv_avail[p] = avail(rng);
    }
    fx.check(random_fifo_program(n, rng), options,
             label_of("initial-avail", seed, n));
  }
}

// ---------------------------------------------------------------------------
// Workspace hygiene
// ---------------------------------------------------------------------------

TEST(GoldenTrace, WarmWorkspaceDoesNotLeakAcrossRuns) {
  // One simulator instance (and one explicit workspace) run back-to-back
  // through different models, processor activity patterns, and fault
  // configurations; every run must equal a fresh-workspace run of the
  // same configuration.
  const std::size_t n = 16;
  const NetworkModel network = generate_network(n, 7);
  const MessageMatrix messages = mixed_messages(n, 7, {1024, 1024 * 1024});
  const StaticDirectory directory{network};
  const NetworkSimulator warm{directory, messages};
  SimWorkspace shared_ws;

  std::mt19937_64 rng{7};
  const HashFaults faults{7};
  std::vector<std::pair<SendProgram, SimOptions>> configs;
  {
    SimOptions serialized;
    configs.emplace_back(random_fifo_program(n, rng), serialized);
    SimOptions interleaved;
    interleaved.model = ReceiveModel::kInterleaved;
    configs.emplace_back(random_fifo_program(n, rng), interleaved);
    SimOptions buffered;
    buffered.model = ReceiveModel::kBuffered;
    buffered.buffer_capacity = 2;
    configs.emplace_back(random_fifo_program(n, rng), buffered);
    SimOptions faulty;
    faulty.fault_model = &faults;
    faulty.backoff_base_s = 1e-3;
    configs.emplace_back(random_fifo_program(n, rng), faulty);
    SimOptions programmed;
    configs.emplace_back(random_programmed_program(n, rng), programmed);
  }

  for (int pass = 0; pass < 2; ++pass) {  // second pass reuses warm state
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto& [program, options] = configs[c];
      const NetworkSimulator fresh{directory, messages};
      const SimResult expected = fresh.run(program, options);
      const std::string label =
          "pass " + std::to_string(pass) + " config " + std::to_string(c);
      expect_identical(warm.run(program, options), expected,
                       label + " (internal ws)");
      expect_identical(warm.run(program, options, shared_ws), expected,
                       label + " (shared ws)");
      SimResult reused;  // run_into must fully reset the result object
      warm.run_into(program, options, reused);
      expect_identical(reused, expected, label + " (run_into)");
    }
  }
}

// ---------------------------------------------------------------------------
// Tie-break semantics (the old `next_completion <= next_send + 0.0`)
// ---------------------------------------------------------------------------

TEST(InterleavedTieBreak, CompletionWinsHelperPinsTheRule) {
  // At an exact tie between the next receive completion and the next send
  // start, the completion is processed first: an in-flight message
  // finishes (freeing its sender's port) before any new send begins.
  EXPECT_TRUE(completion_wins(2.0, 2.0, 2.0));   // exact tie: completion
  EXPECT_TRUE(completion_wins(1.5, 2.0, 1.5));   // completion strictly first
  EXPECT_FALSE(completion_wins(2.5, 2.0, 2.0));  // send strictly first
  // A completion beyond the already-chosen event time never fires early.
  EXPECT_FALSE(completion_wins(3.0, 2.0, 2.0));
}

TEST(InterleavedTieBreak, ExactTieProcessesCompletionBeforeSend) {
  // Exact-arithmetic setup: message 1 -> 0 takes exactly 2.0 s (startup
  // 0.5 s + 1536 B at 1024 B/s); sender 2's port opens at exactly 2.0 s.
  // The completion wins the t = 2.0 tie, so 2 -> 0 starts alone at full
  // rate and finishes at exactly 4.0 s. (With alpha = 0.5, losing the tie
  // toward overlap would be visible in the finish times.)
  const std::size_t n = 3;
  const NetworkModel network = simple_network(n, 0.5, 1024.0);
  const MessageMatrix messages = uniform_messages(n, 1536);
  const StaticDirectory directory{network};
  const NetworkSimulator simulator{directory, messages};

  SimOptions options;
  options.model = ReceiveModel::kInterleaved;
  options.alpha = 0.5;
  options.initial_send_avail = {0.0, 0.0, 2.0};

  const SendProgram program{Orders{{}, {0}, {0}}};
  const SimResult result = simulator.run(program, options);
  ASSERT_EQ(result.events.size(), 2u);
  EXPECT_EQ(result.events[0].src, 1u);
  EXPECT_EQ(result.events[0].start_s, 0.0);
  EXPECT_EQ(result.events[0].finish_s, 2.0);
  EXPECT_EQ(result.events[1].src, 2u);
  EXPECT_EQ(result.events[1].start_s, 2.0);
  EXPECT_EQ(result.events[1].finish_s, 4.0);
  EXPECT_EQ(result.completion_time, 4.0);

  // And the reference agrees bit-for-bit on the tie.
  expect_identical(result, run_reference(directory, messages, program, options),
                   "tie-break");
}

}  // namespace
}  // namespace hcs
