// Tests for src/graph: the LAP solver against brute force and the
// independent auction solver, and the matching-decomposition invariants
// the matching scheduler relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "oracles/auction.hpp"
#include "graph/lap.hpp"
#include "graph/matching.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hcs {
namespace {

/// Exact minimum assignment cost by enumerating all permutations (n <= 8).
double brute_force_min(const Matrix<double>& cost) {
  const std::size_t n = cost.rows();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    best = std::min(best, assignment_cost(cost, perm));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

Matrix<double> random_cost(std::size_t n, Rng& rng, double lo = 0.0,
                           double hi = 100.0) {
  Matrix<double> cost(n, n, 0.0);
  cost.for_each([&](std::size_t, std::size_t, double& c) { c = rng.uniform(lo, hi); });
  return cost;
}

// ---------------------------------------------------------------------------
// LAP solver
// ---------------------------------------------------------------------------

TEST(Lap, TrivialOneByOne) {
  const Matrix<double> cost = {{7.0}};
  const Assignment a = solve_lap_min(cost);
  EXPECT_EQ(a.row_to_col, (std::vector<std::size_t>{0}));
  EXPECT_DOUBLE_EQ(a.cost, 7.0);
}

TEST(Lap, KnownTwoByTwo) {
  const Matrix<double> cost = {{1.0, 10.0}, {10.0, 1.0}};
  const Assignment a = solve_lap_min(cost);
  EXPECT_EQ(a.row_to_col, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(a.cost, 2.0);
}

TEST(Lap, KnownThreeByThree) {
  // Classic example: optimal is 1+2+1 = 4 via (0->1, 1->0, 2->2)?
  // cost: row 0 {4, 1, 3}, row 1 {2, 0, 5}, row 2 {3, 2, 2}.
  // Optimal: 1 + 2 + 2 = 5.
  const Matrix<double> cost = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const Assignment a = solve_lap_min(cost);
  EXPECT_DOUBLE_EQ(a.cost, brute_force_min(cost));
  EXPECT_TRUE(is_permutation(a.row_to_col));
}

TEST(Lap, HandlesNegativeCosts) {
  const Matrix<double> cost = {{-5.0, 2.0}, {3.0, -7.0}};
  const Assignment a = solve_lap_min(cost);
  EXPECT_DOUBLE_EQ(a.cost, -12.0);
}

TEST(Lap, MaxIsMinOfNegation) {
  Rng rng{100};
  const Matrix<double> cost = random_cost(6, rng);
  const Assignment max_assignment = solve_lap_max(cost);
  const Assignment min_of_negated =
      solve_lap_min(cost.map([](double c) { return -c; }));
  EXPECT_DOUBLE_EQ(max_assignment.cost,
                   assignment_cost(cost, min_of_negated.row_to_col));
}

TEST(Lap, RejectsNonSquare) {
  EXPECT_THROW((void)solve_lap_min(Matrix<double>(2, 3, 0.0)), InputError);
  EXPECT_THROW((void)solve_lap_min(Matrix<double>{}), InputError);
}

TEST(Lap, TiedCostsStillPermutation) {
  const Matrix<double> cost(5, 5, 1.0);
  const Assignment a = solve_lap_min(cost);
  EXPECT_TRUE(is_permutation(a.row_to_col));
  EXPECT_DOUBLE_EQ(a.cost, 5.0);
}

/// Property sweep: LAP equals brute force on random instances.
class LapBruteForce : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LapBruteForce, MatchesExhaustiveSearch) {
  const std::size_t n = GetParam();
  Rng rng{1000 + n};
  for (int trial = 0; trial < 30; ++trial) {
    const Matrix<double> cost = random_cost(n, rng, -50.0, 50.0);
    const Assignment a = solve_lap_min(cost);
    ASSERT_TRUE(is_permutation(a.row_to_col));
    EXPECT_NEAR(a.cost, brute_force_min(cost), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, LapBruteForce,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

/// Property sweep: LAP and the independent auction solver agree to within
/// the auction's n * epsilon optimality gap on larger instances.
class LapVsAuction : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LapVsAuction, AgreeWithinEpsilonBound) {
  const std::size_t n = GetParam();
  Rng rng{2000 + n};
  AuctionOptions options;
  options.final_epsilon = 1e-7;
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix<double> cost = random_cost(n, rng);
    const Assignment lap = solve_lap_max(cost);
    const Assignment auction = solve_auction_max(cost, options);
    ASSERT_TRUE(is_permutation(auction.row_to_col));
    EXPECT_LE(auction.cost, lap.cost + 1e-9);
    EXPECT_GE(auction.cost,
              lap.cost - static_cast<double>(n) * options.final_epsilon - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(MediumSizes, LapVsAuction,
                         ::testing::Values(5, 10, 20, 40));

TEST(Auction, MinVariantAgreesWithLap) {
  Rng rng{3000};
  const Matrix<double> cost = random_cost(12, rng);
  AuctionOptions options;
  options.final_epsilon = 1e-7;
  const Assignment lap = solve_lap_min(cost);
  const Assignment auction = solve_auction_min(cost, options);
  EXPECT_NEAR(auction.cost, lap.cost, 12 * options.final_epsilon + 1e-9);
}

TEST(Auction, BadOptionsThrow) {
  const Matrix<double> cost(2, 2, 1.0);
  AuctionOptions zero_eps;
  zero_eps.final_epsilon = 0.0;
  EXPECT_THROW((void)solve_auction_max(cost, zero_eps), InputError);
  AuctionOptions bad_scaling;
  bad_scaling.scaling = 1.0;
  EXPECT_THROW((void)solve_auction_max(cost, bad_scaling), InputError);
}

// ---------------------------------------------------------------------------
// LapSolver workspace
// ---------------------------------------------------------------------------

TEST(LapSolver, RejectsNonSquareEmptyAndUnloaded) {
  LapSolver solver;
  // Exactly the free functions' contract: InputError on bad shapes.
  EXPECT_THROW(solver.load(Matrix<double>(2, 3, 0.0), LapObjective::kMinimize),
               InputError);
  EXPECT_THROW(solver.load(Matrix<double>{}, LapObjective::kMaximize),
               InputError);
  EXPECT_THROW((void)solver.solve(), InputError);  // solve before load
  EXPECT_EQ(solver.size(), 0u);
}

TEST(LapSolver, OutOfRangeDeletionIsALogicError) {
  LapSolver solver;
  solver.load(Matrix<double>(2, 2, 1.0), LapObjective::kMinimize);
  EXPECT_THROW(solver.mark_deleted(2, 0), std::logic_error);
  EXPECT_THROW((void)solver.deleted(0, 2), std::logic_error);
}

TEST(LapSolver, MatchesFreeFunctionsForBothObjectives) {
  Rng rng{500};
  const Matrix<double> cost = random_cost(9, rng, -30.0, 30.0);
  LapSolver solver;
  solver.load(cost, LapObjective::kMinimize);
  const Assignment min_solved = solver.solve();
  const Assignment min_free = solve_lap_min(cost);
  EXPECT_EQ(min_solved.row_to_col, min_free.row_to_col);
  EXPECT_EQ(min_solved.cost, min_free.cost);  // bit-identical

  solver.load(cost, LapObjective::kMaximize);
  const Assignment max_solved = solver.solve();
  const Assignment max_free = solve_lap_max(cost);
  EXPECT_EQ(max_solved.row_to_col, max_free.row_to_col);
  EXPECT_EQ(max_solved.cost, max_free.cost);
}

TEST(LapSolver, WarmResolveAfterDeletionsStaysOptimal) {
  // Delete the first optimal matching's edges, then check the warm
  // re-solve against brute force over the explicitly masked matrix.
  Rng rng{501};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 6;
    const Matrix<double> cost = random_cost(n, rng, 0.0, 50.0);
    LapSolver solver;
    solver.load(cost, LapObjective::kMinimize);
    const Assignment first = solver.solve();
    Matrix<double> masked = cost;
    for (std::size_t r = 0; r < n; ++r) {
      solver.mark_deleted(r, first.row_to_col[r]);
      EXPECT_TRUE(solver.deleted(r, first.row_to_col[r]));
      masked(r, first.row_to_col[r]) = LapSolver::kDeletedCost;
    }
    const Assignment second = solver.solve();
    ASSERT_TRUE(is_permutation(second.row_to_col));
    EXPECT_NEAR(assignment_cost(masked, second.row_to_col),
                brute_force_min(masked), 1e-9);
  }
}

TEST(IsPermutation, DetectsDuplicatesAndRange) {
  EXPECT_TRUE(is_permutation({2, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 1, 3}));
  EXPECT_TRUE(is_permutation({}));
}

// ---------------------------------------------------------------------------
// Matching decomposition
// ---------------------------------------------------------------------------

TEST(Decomposition, CoversEveryEdgeExactlyOnce) {
  Rng rng{4000};
  const Matrix<double> weights = random_cost(8, rng);
  for (const MatchingObjective objective :
       {MatchingObjective::kMaxWeight, MatchingObjective::kMinWeight}) {
    const auto matchings = decompose_into_matchings(weights, objective);
    EXPECT_TRUE(is_valid_decomposition(8, matchings));
  }
}

TEST(Decomposition, MaxExtractsHeaviestFirst) {
  Rng rng{4001};
  const Matrix<double> weights = random_cost(6, rng);
  const auto matchings =
      decompose_into_matchings(weights, MatchingObjective::kMaxWeight);
  // The first matching must be the global maximum matching.
  const Assignment best = solve_lap_max(weights);
  EXPECT_NEAR(assignment_cost(weights, matchings.front()), best.cost, 1e-9);
}

TEST(Decomposition, MinExtractsLightestFirst) {
  Rng rng{4002};
  const Matrix<double> weights = random_cost(6, rng);
  const auto matchings =
      decompose_into_matchings(weights, MatchingObjective::kMinWeight);
  const Assignment best = solve_lap_min(weights);
  EXPECT_NEAR(assignment_cost(weights, matchings.front()), best.cost, 1e-9);
}

TEST(Decomposition, MatchingWeightsAreMonotoneForMax) {
  Rng rng{4003};
  const Matrix<double> weights = random_cost(7, rng);
  const auto matchings =
      decompose_into_matchings(weights, MatchingObjective::kMaxWeight);
  // Each extracted matching is maximal over the remaining edges, so the
  // first is at least as heavy as every later one.
  const double first = assignment_cost(weights, matchings.front());
  for (const auto& matching : matchings)
    EXPECT_LE(assignment_cost(weights, matching), first + 1e-9);
}

TEST(Decomposition, RejectsHugeWeights) {
  Matrix<double> weights(3, 3, 1.0);
  weights(0, 0) = 1e12;  // beyond the deleted-edge sentinel's safety margin
  EXPECT_THROW(
      (void)decompose_into_matchings(weights, MatchingObjective::kMaxWeight),
      InputError);
}

TEST(Decomposition, ValidatorCatchesBadDecompositions) {
  // Two identical permutations cover some edges twice.
  const std::vector<std::vector<std::size_t>> bad = {{0, 1}, {0, 1}};
  EXPECT_FALSE(is_valid_decomposition(2, bad));
  // Wrong count of matchings.
  const std::vector<std::vector<std::size_t>> short_list = {{0, 1}};
  EXPECT_FALSE(is_valid_decomposition(2, short_list));
  // Non-permutation rows.
  const std::vector<std::vector<std::size_t>> dup = {{0, 0}, {1, 1}};
  EXPECT_FALSE(is_valid_decomposition(2, dup));
}

/// From-scratch reference decomposition: the pre-LapSolver algorithm — a
/// working copy whose chosen edges are overwritten with the sentinel, and
/// a cold LAP solve per step.
std::vector<std::vector<std::size_t>> reference_decomposition(
    const Matrix<double>& weights, MatchingObjective objective) {
  const std::size_t n = weights.rows();
  const double avoid = objective == MatchingObjective::kMaxWeight
                           ? -LapSolver::kDeletedCost
                           : LapSolver::kDeletedCost;
  Matrix<double> working = weights;
  std::vector<std::vector<std::size_t>> matchings;
  matchings.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    const Assignment assignment = objective == MatchingObjective::kMaxWeight
                                      ? solve_lap_max(working)
                                      : solve_lap_min(working);
    for (std::size_t r = 0; r < n; ++r)
      working(r, assignment.row_to_col[r]) = avoid;
    matchings.push_back(assignment.row_to_col);
  }
  return matchings;
}

/// Property sweep: the warm-started decomposition is bit-identical —
/// matchings and per-step costs — to the from-scratch reference across
/// 100+ random seeds, sizes 2..32, both objectives.
TEST(Decomposition, WarmStartMatchesFromScratchReference) {
  for (std::uint64_t seed = 1; seed <= 104; ++seed) {
    const std::size_t n = 2 + (seed - 1) % 31;  // cycles 2..32
    Rng rng{7000 + seed};
    const Matrix<double> weights = random_cost(n, rng);
    for (const MatchingObjective objective :
         {MatchingObjective::kMaxWeight, MatchingObjective::kMinWeight}) {
      const auto warm = decompose_into_matchings(weights, objective);
      const auto reference = reference_decomposition(weights, objective);
      ASSERT_EQ(warm, reference)
          << "seed " << seed << " n " << n << " objective "
          << (objective == MatchingObjective::kMaxWeight ? "max" : "min");
      for (std::size_t k = 0; k < n; ++k)
        ASSERT_EQ(assignment_cost(weights, warm[k]),
                  assignment_cost(weights, reference[k]));
    }
  }
}

TEST(Decomposition, ReusedSolverWorkspaceIsStateless) {
  // One workspace across several decompositions (the MatchingScheduler
  // pattern, including a size change) must reproduce fresh-solver output.
  Rng rng{8000};
  LapSolver solver;
  for (const std::size_t n : {6u, 11u, 4u}) {
    const Matrix<double> weights = random_cost(n, rng);
    for (const MatchingObjective objective :
         {MatchingObjective::kMaxWeight, MatchingObjective::kMinWeight}) {
      const auto reused = decompose_into_matchings(weights, objective, solver);
      const auto fresh = decompose_into_matchings(weights, objective);
      EXPECT_EQ(reused, fresh);
    }
  }
}

/// Property sweep: decompositions stay valid across sizes and seeds.
class DecompositionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(DecompositionSweep, AlwaysValid) {
  const auto [n, seed] = GetParam();
  Rng rng{seed};
  const Matrix<double> weights = random_cost(n, rng);
  for (const MatchingObjective objective :
       {MatchingObjective::kMaxWeight, MatchingObjective::kMinWeight}) {
    const auto matchings = decompose_into_matchings(weights, objective);
    EXPECT_TRUE(is_valid_decomposition(n, matchings));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, DecompositionSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 10, 17, 25),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace hcs
