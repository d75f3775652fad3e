// Tests for src/util: RNG determinism and distribution sanity, matrix
// invariants, running statistics, and table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hcs {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a{123}, b{124};
  bool any_difference = false;
  for (int i = 0; i < 16; ++i)
    if (a.next_u64() != b.next_u64()) any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng{8};
  for (int i = 0; i < 1'000; ++i) {
    const double value = rng.uniform(-3.5, 12.25);
    EXPECT_GE(value, -3.5);
    EXPECT_LT(value, 12.25);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng{9};
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.uniform(0.0, 10.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
}

TEST(Rng, NextBelowIsUniformAcrossSmallRange) {
  Rng rng{10};
  std::array<int, 5> counts{};
  for (int i = 0; i < 50'000; ++i) ++counts[rng.next_below(5)];
  for (const int count : counts) EXPECT_NEAR(count, 10'000, 500);
}

TEST(Rng, NextBelowNeverReachesBound) {
  Rng rng{11};
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.next_below(3), 3u);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng{12};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng{13};
  int successes = 0;
  for (int i = 0; i < 100'000; ++i) successes += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(successes, 30'000, 700);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{14};
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(NormalQuantile, InvertsTheNormalCdf) {
  // Φ(z) = erfc(-z/√2)/2; in the lower tail erfc keeps full relative
  // precision, so Φ(Φ⁻¹(p)) must return p to ~1e-13 even at 1e-300.
  for (const double p : {1e-300, 1e-20, 1e-8, 1e-3, 0.025, 0.074, 0.076,
                         0.2, 0.4999, 0.5}) {
    const double z = normal_quantile(p);
    EXPECT_NEAR(0.5 * std::erfc(-z / std::sqrt(2.0)), p, 1e-13 * p) << p;
  }
  // Where 1 - p is exact, the upper half mirrors the lower one exactly.
  for (const double p : {0x1.0p-40, 0x1.0p-20, 0.125, 0.25})
    EXPECT_EQ(normal_quantile(1.0 - p), -normal_quantile(p)) << p;
  EXPECT_EQ(normal_quantile(0.5), 0.0);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-15);
}

TEST(CounterNormal, MomentsAndTailsMatchTheNormalLaw) {
  const CounterNormal normal;
  RunningStats stats;
  double fourth = 0.0;
  int beyond_2 = 0;
  int beyond_3 = 0;
  constexpr int kDraws = 1'000'000;
  for (int i = 0; i < kDraws; ++i) {
    const double z = normal(counter_hash(77, static_cast<std::uint64_t>(i)));
    stats.add(z);
    fourth += z * z * z * z;
    if (std::abs(z) > 2.0) ++beyond_2;
    if (std::abs(z) > 3.0) ++beyond_3;
  }
  // Bounds are ~4 standard errors at 1e6 draws.
  EXPECT_NEAR(stats.mean(), 0.0, 0.004);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.003);
  EXPECT_NEAR(fourth / kDraws, 3.0, 0.04);
  EXPECT_NEAR(beyond_2, 0.0455003 * kDraws, 4 * 208);
  EXPECT_NEAR(beyond_3, 0.0026998 * kDraws, 4 * 52);
}

TEST(CounterNormal, IsAntisymmetricFiniteAndExactInTheTails) {
  const CounterNormal normal;
  Rng rng{3};
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    const double z = normal(bits);
    EXPECT_TRUE(std::isfinite(z));
    EXPECT_NEAR(normal(~bits), -z, 1e-14 * (1.0 + std::abs(z)));
  }
  // The outer cells (top 12 bits all 0 or all 1) invert exactly.
  EXPECT_EQ(normal(0), normal_quantile(0.5 * 0x1.0p-53));
  EXPECT_EQ(normal(~std::uint64_t{0}), -normal_quantile(0.5 * 0x1.0p-53));
  const std::uint64_t lower_tail = std::uint64_t{123456789} << 20;
  EXPECT_EQ(normal(lower_tail),
            normal_quantile((static_cast<double>(lower_tail >> 11) + 0.5) *
                            0x1.0p-53));
  // Interior cells interpolate between the cell's quantiles.
  const std::uint64_t cell_start = std::uint64_t{100} << 52;
  EXPECT_NEAR(normal(cell_start), normal_quantile(100.0 / 4096.0), 1e-12);
  EXPECT_GT(normal(cell_start + (std::uint64_t{1} << 51)),
            normal_quantile(100.0 / 4096.0));
  EXPECT_LT(normal(cell_start + (std::uint64_t{1} << 51)),
            normal_quantile(101.0 / 4096.0));
}

TEST(Rng, LognormalIsPositive) {
  Rng rng{15};
  for (int i = 0; i < 10'000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng{16};
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng{17};
  std::vector<int> values(50);
  for (int i = 0; i < 50; ++i) values[i] = i;
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent{18};
  Rng child = parent.split();
  // Child continues differently from a same-seed parent clone.
  Rng clone{18};
  (void)clone.next_u64();  // parent consumed one value for the split
  EXPECT_NE(child.next_u64(), clone.next_u64());
}

TEST(Splitmix64, KnownFirstValue) {
  // Reference value from the splitmix64 reference implementation with
  // state 0: first output is 0xE220A8397B1DCDAF.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
}

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

TEST(Matrix, DefaultIsEmpty) {
  const Matrix<double> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, FillConstructor) {
  const Matrix<int> m(2, 3, 7);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 7);
}

TEST(Matrix, InitializerList) {
  const Matrix<int> m = {{1, 2}, {3, 4}};
  EXPECT_EQ(m(0, 1), 2);
  EXPECT_EQ(m(1, 0), 3);
  EXPECT_TRUE(m.square());
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix<int>{{1, 2}, {3}}), InputError);
}

TEST(Matrix, OutOfRangeThrows) {
  Matrix<int> m(2, 2, 0);
  EXPECT_THROW((void)m(2, 0), std::logic_error);
  EXPECT_THROW((void)m(0, 2), std::logic_error);
}

TEST(Matrix, RowAndColumnSums) {
  const Matrix<int> m = {{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.row_sum(0), 6);
  EXPECT_EQ(m.row_sum(1), 15);
  EXPECT_EQ(m.col_sum(0), 5);
  EXPECT_EQ(m.col_sum(2), 9);
}

TEST(Matrix, RowSpanViewsData) {
  const Matrix<int> m = {{1, 2}, {3, 4}};
  const auto row = m.row(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 3);
  EXPECT_EQ(row[1], 4);
}

TEST(Matrix, MapTransformsElementwise) {
  const Matrix<int> m = {{1, 2}, {3, 4}};
  const Matrix<double> doubled = m.map([](int v) { return v * 2.0; });
  EXPECT_DOUBLE_EQ(doubled(1, 1), 8.0);
}

TEST(Matrix, TransposedSwapsIndices) {
  const Matrix<int> m = {{1, 2, 3}, {4, 5, 6}};
  const Matrix<int> t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6);
}

TEST(Matrix, ForEachVisitsEveryElementRowMajor) {
  const Matrix<int> m = {{1, 2}, {3, 4}};
  std::vector<int> visited;
  m.for_each([&](std::size_t, std::size_t, const int& v) { visited.push_back(v); });
  EXPECT_EQ(visited, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Matrix, EqualityIsStructural) {
  const Matrix<int> a = {{1, 2}, {3, 4}};
  Matrix<int> b = {{1, 2}, {3, 4}};
  EXPECT_EQ(a, b);
  b(0, 0) = 9;
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  const RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats whole, left, right;
  Rng rng{20};
  for (int i = 0; i < 1'000; ++i) {
    const double v = rng.normal();
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats stats;
  stats.add(3.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(Quantile, MedianOfOddSample) {
  const std::vector<double> values = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(values), 3.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> values = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 5.0);
}

TEST(Quantile, EmptyThrows) {
  EXPECT_THROW((void)quantile({}, 0.5), InputError);
}

TEST(Summarize, FiveNumberSummary) {
  std::vector<double> values;
  for (int i = 1; i <= 101; ++i) values.push_back(i);
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_DOUBLE_EQ(s.p25, 26.0);
  EXPECT_DOUBLE_EQ(s.p75, 76.0);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, AlignedOutputContainsHeadersAndCells) {
  Table t({"P", "time"});
  t.add_row({"10", "1.5"});
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("P"), std::string::npos);
  EXPECT_NE(text.find("time"), std::string::npos);
  EXPECT_NE(text.find("10"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InputError);
}

TEST(Table, EmptyHeaderThrows) { EXPECT_THROW(Table({}), InputError); }

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"name"});
  t.add_row({"a,b \"quoted\""});
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_EQ(out.str(), "name\n\"a,b \"\"quoted\"\"\"\n");
}

TEST(Table, CsvPlainCellsUnquoted) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_EQ(out.str(), "x,y\n1,2\n");
}

TEST(FormatDouble, RoundsToRequestedDigits) {
  EXPECT_EQ(format_double(1.23456, 3), "1.235");
  EXPECT_EQ(format_double(2.0, 1), "2.0");
}

TEST(Check, ThrowsOnFailure) {
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_THROW(check(false, "boom"), std::logic_error);
}

}  // namespace
}  // namespace hcs
