#include "oracles/auction.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace hcs {
namespace {

constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

/// One epsilon phase of the forward auction: repeatedly let an unassigned
/// person bid until everyone is assigned. `prices` persists across phases.
void auction_phase(const Matrix<double>& value, double epsilon,
                   std::vector<double>& prices,
                   std::vector<std::size_t>& person_to_object,
                   std::vector<std::size_t>& object_to_person) {
  const std::size_t n = value.rows();
  std::fill(person_to_object.begin(), person_to_object.end(), kUnassigned);
  std::fill(object_to_person.begin(), object_to_person.end(), kUnassigned);

  std::vector<std::size_t> unassigned(n);
  for (std::size_t i = 0; i < n; ++i) unassigned[i] = i;

  while (!unassigned.empty()) {
    const std::size_t person = unassigned.back();
    unassigned.pop_back();

    // Find the best and second-best net value for this person.
    double best = -std::numeric_limits<double>::infinity();
    double second = -std::numeric_limits<double>::infinity();
    std::size_t best_object = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double net = value(person, j) - prices[j];
      if (net > best) {
        second = best;
        best = net;
        best_object = j;
      } else if (net > second) {
        second = net;
      }
    }
    // n == 1 has no second-best; bid the minimum increment.
    const double increment =
        (second == -std::numeric_limits<double>::infinity())
            ? epsilon
            : best - second + epsilon;
    prices[best_object] += increment;

    const std::size_t displaced = object_to_person[best_object];
    object_to_person[best_object] = person;
    person_to_object[person] = best_object;
    if (displaced != kUnassigned) {
      person_to_object[displaced] = kUnassigned;
      unassigned.push_back(displaced);
    }
  }
}

}  // namespace

Assignment solve_auction_max(const Matrix<double>& cost,
                             const AuctionOptions& options) {
  if (!cost.square() || cost.empty())
    throw InputError("solve_auction_max: cost matrix must be square and non-empty");
  if (options.final_epsilon <= 0.0 || options.scaling <= 1.0)
    throw InputError("solve_auction_max: bad options");
  const std::size_t n = cost.rows();

  // Start epsilon at the cost spread (a standard choice) and scale down.
  double spread = 0.0;
  cost.for_each([&](std::size_t, std::size_t, const double& c) {
    spread = std::max(spread, std::abs(c));
  });
  double epsilon = std::max(spread, options.final_epsilon);

  std::vector<double> prices(n, 0.0);
  std::vector<std::size_t> person_to_object(n, kUnassigned);
  std::vector<std::size_t> object_to_person(n, kUnassigned);

  for (;;) {
    auction_phase(cost, epsilon, prices, person_to_object, object_to_person);
    if (epsilon <= options.final_epsilon) break;
    epsilon = std::max(options.final_epsilon, epsilon / options.scaling);
  }

  Assignment result;
  result.row_to_col = person_to_object;
  result.cost = assignment_cost(cost, result.row_to_col);
  return result;
}

Assignment solve_auction_min(const Matrix<double>& cost,
                             const AuctionOptions& options) {
  Assignment result =
      solve_auction_max(cost.map([](double c) { return -c; }), options);
  result.cost = assignment_cost(cost, result.row_to_col);
  return result;
}

}  // namespace hcs
