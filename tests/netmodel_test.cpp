// Tests for src/netmodel: the communication model, GUSTO tables,
// directory services, the random network generator, and the hierarchical
// topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "netmodel/gusto.hpp"
#include "netmodel/link_params.hpp"
#include "netmodel/network_model.hpp"
#include "netmodel/topology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hcs {
namespace {

// ---------------------------------------------------------------------------
// LinkParams — the T + m/B cost model (§3.2)
// ---------------------------------------------------------------------------

TEST(LinkParams, TransferTimeIsStartupPlusBytesOverBandwidth) {
  const LinkParams link{0.010, 1'000'000.0};  // 10 ms, 1 MB/s
  EXPECT_DOUBLE_EQ(link.transfer_time(0), 0.010);
  EXPECT_DOUBLE_EQ(link.transfer_time(500'000), 0.010 + 0.5);
}

TEST(LinkParams, FromPaperUnits) {
  // 34.5 ms and 512 kbit/s, as in the GUSTO tables.
  const LinkParams link = LinkParams::from_ms_kbits(34.5, 512.0);
  EXPECT_DOUBLE_EQ(link.startup_s, 0.0345);
  EXPECT_DOUBLE_EQ(link.bandwidth_Bps, 512.0 * 1000.0 / 8.0);
}

TEST(LinkParams, InvalidBandwidthThrows) {
  const LinkParams link{0.0, 0.0};
  EXPECT_THROW((void)link.transfer_time(1), std::logic_error);
}

// ---------------------------------------------------------------------------
// NetworkModel
// ---------------------------------------------------------------------------

TEST(NetworkModel, HomogeneousConstructor) {
  const NetworkModel net(4, LinkParams{0.01, 1e6});
  EXPECT_EQ(net.processor_count(), 4u);
  EXPECT_DOUBLE_EQ(net.cost(0, 1, 1'000'000), 0.01 + 1.0);
  EXPECT_TRUE(net.symmetric());
}

TEST(NetworkModel, DiagonalCostIsZero) {
  const NetworkModel net(3, LinkParams{0.5, 10.0});
  EXPECT_DOUBLE_EQ(net.cost(2, 2, 12345), 0.0);
}

TEST(NetworkModel, SetLinkChangesOneDirection) {
  NetworkModel net(3, LinkParams{0.01, 1e6});
  net.set_link(0, 1, LinkParams{0.02, 2e6});
  EXPECT_DOUBLE_EQ(net.link(0, 1).startup_s, 0.02);
  EXPECT_DOUBLE_EQ(net.link(1, 0).startup_s, 0.01);
  EXPECT_FALSE(net.symmetric());
}

TEST(NetworkModel, RejectsNonSquareMatrices) {
  Matrix<double> startup(2, 3, 0.0);
  Matrix<double> bandwidth(2, 3, 1.0);
  EXPECT_THROW(NetworkModel(startup, bandwidth), InputError);
}

TEST(NetworkModel, RejectsNonPositiveOffDiagonalBandwidth) {
  Matrix<double> startup(2, 2, 0.0);
  Matrix<double> bandwidth(2, 2, 0.0);
  EXPECT_THROW(NetworkModel(startup, bandwidth), InputError);
}

TEST(NetworkModel, RejectsNegativeStartup) {
  Matrix<double> startup(2, 2, -1.0);
  Matrix<double> bandwidth(2, 2, 1.0);
  EXPECT_THROW(NetworkModel(startup, bandwidth), InputError);
}

TEST(NetworkModel, OutOfRangeCostThrows) {
  const NetworkModel net(2, LinkParams{0.0, 1.0});
  EXPECT_THROW((void)net.cost(0, 2, 1), std::logic_error);
}

// ---------------------------------------------------------------------------
// GUSTO tables (paper Tables 1 and 2)
// ---------------------------------------------------------------------------

TEST(Gusto, TablesAreFiveByFive) {
  EXPECT_EQ(gusto::latency_ms().rows(), gusto::kSiteCount);
  EXPECT_EQ(gusto::latency_ms().cols(), gusto::kSiteCount);
  EXPECT_EQ(gusto::bandwidth_kbits().rows(), gusto::kSiteCount);
}

TEST(Gusto, TablesAreSymmetric) {
  for (std::size_t i = 0; i < gusto::kSiteCount; ++i)
    for (std::size_t j = 0; j < gusto::kSiteCount; ++j) {
      EXPECT_DOUBLE_EQ(gusto::latency_ms()(i, j), gusto::latency_ms()(j, i));
      EXPECT_DOUBLE_EQ(gusto::bandwidth_kbits()(i, j),
                       gusto::bandwidth_kbits()(j, i));
    }
}

TEST(Gusto, SpotCheckAgainstPaper) {
  // AMES <-> USC-ISI: 12 ms, 2044 kbit/s. ANL <-> NCSA: 4.5 ms, 2402 kbit/s.
  EXPECT_DOUBLE_EQ(gusto::latency_ms()(0, 3), 12.0);
  EXPECT_DOUBLE_EQ(gusto::bandwidth_kbits()(0, 3), 2044.0);
  EXPECT_DOUBLE_EQ(gusto::latency_ms()(1, 4), 4.5);
  EXPECT_DOUBLE_EQ(gusto::bandwidth_kbits()(1, 4), 2402.0);
}

TEST(Gusto, DiagonalsAreZero) {
  for (std::size_t i = 0; i < gusto::kSiteCount; ++i) {
    EXPECT_DOUBLE_EQ(gusto::latency_ms()(i, i), 0.0);
    EXPECT_DOUBLE_EQ(gusto::bandwidth_kbits()(i, i), 0.0);
  }
}

TEST(Gusto, NetworkConvertsUnits) {
  const NetworkModel net = gusto::network();
  EXPECT_EQ(net.processor_count(), gusto::kSiteCount);
  // USC-ISI (3) -> NCSA (4): 29.5 ms + m / (4976 kbit/s).
  const double expected =
      0.0295 + 1'000'000.0 / (4976.0 * 1000.0 / 8.0);
  EXPECT_NEAR(net.cost(3, 4, 1'000'000), expected, 1e-12);
  EXPECT_TRUE(net.symmetric());
}

TEST(Gusto, ObservedRangesMatchTables) {
  const gusto::Ranges r = gusto::observed_ranges();
  EXPECT_DOUBLE_EQ(r.min_latency_ms, 4.5);
  EXPECT_DOUBLE_EQ(r.max_latency_ms, 89.5);
  EXPECT_DOUBLE_EQ(r.min_bandwidth_kbits, 246.0);
  EXPECT_DOUBLE_EQ(r.max_bandwidth_kbits, 4976.0);
}

TEST(Gusto, SiteNamesMatchPaperOrder) {
  const auto& names = gusto::site_names();
  EXPECT_EQ(names[0], "AMES");
  EXPECT_EQ(names[3], "USC-ISI");
}

// ---------------------------------------------------------------------------
// Directory services
// ---------------------------------------------------------------------------

TEST(StaticDirectory, QueryIsTimeInvariant) {
  const StaticDirectory directory{gusto::network()};
  const LinkParams early = directory.query(0, 1, 0.0);
  const LinkParams late = directory.query(0, 1, 1e6);
  EXPECT_EQ(early, late);
}

TEST(StaticDirectory, SnapshotEqualsModel) {
  const NetworkModel model = gusto::network();
  const StaticDirectory directory{model};
  const NetworkModel snap = directory.snapshot(5.0);
  for (std::size_t i = 0; i < model.processor_count(); ++i)
    for (std::size_t j = 0; j < model.processor_count(); ++j)
      if (i != j) EXPECT_EQ(snap.link(i, j), model.link(i, j));
}

TEST(DriftingDirectory, TimeZeroEqualsBase) {
  const DriftingDirectory directory{gusto::network(), 99, {}};
  const LinkParams base = gusto::network().link(0, 1);
  EXPECT_EQ(directory.query(0, 1, 0.0), base);
}

TEST(DriftingDirectory, QueriesAreReproducible) {
  const DriftingDirectory directory{gusto::network(), 99, {}};
  EXPECT_EQ(directory.query(1, 2, 17.0), directory.query(1, 2, 17.0));
}

TEST(DriftingDirectory, BandwidthStaysWithinClamp) {
  DriftingDirectory::Options options;
  options.step_sigma = 0.8;
  options.max_factor = 2.0;
  const DriftingDirectory directory{gusto::network(), 7, options};
  const double base = gusto::network().link(0, 1).bandwidth_Bps;
  for (double t = 0.0; t < 50.0; t += 1.0) {
    const double bandwidth = directory.query(0, 1, t).bandwidth_Bps;
    EXPECT_GE(bandwidth, base / 2.0 - 1e-9);
    EXPECT_LE(bandwidth, base * 2.0 + 1e-9);
  }
}

TEST(DriftingDirectory, StartupIsUnaffected) {
  const DriftingDirectory directory{gusto::network(), 7, {}};
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 30.0).startup_s,
                   gusto::network().link(0, 1).startup_s);
}

TEST(DriftingDirectory, ActuallyDrifts) {
  DriftingDirectory::Options options;
  options.step_sigma = 0.3;
  const DriftingDirectory directory{gusto::network(), 7, options};
  const double at0 = directory.query(0, 1, 0.0).bandwidth_Bps;
  const double at20 = directory.query(0, 1, 20.0).bandwidth_Bps;
  EXPECT_NE(at0, at20);
}

TEST(DriftingDirectory, BadOptionsThrow) {
  DriftingDirectory::Options bad_period;
  bad_period.update_period_s = 0.0;
  EXPECT_THROW(DriftingDirectory(gusto::network(), 1, bad_period), InputError);
  DriftingDirectory::Options bad_factor;
  bad_factor.max_factor = 0.5;
  EXPECT_THROW(DriftingDirectory(gusto::network(), 1, bad_factor), InputError);
  DriftingDirectory::Options bad_sigma;
  bad_sigma.step_sigma = -0.1;
  EXPECT_THROW(DriftingDirectory(gusto::network(), 1, bad_sigma), InputError);
}

TEST(DriftingDirectory, NonFiniteOptionsThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    DriftingDirectory::Options sigma;
    sigma.step_sigma = bad;
    EXPECT_THROW(DriftingDirectory(gusto::network(), 1, sigma), InputError)
        << "step_sigma " << bad;
    DriftingDirectory::Options period;
    period.update_period_s = bad;
    EXPECT_THROW(DriftingDirectory(gusto::network(), 1, period), InputError)
        << "period " << bad;
    DriftingDirectory::Options factor;
    factor.max_factor = bad;
    EXPECT_THROW(DriftingDirectory(gusto::network(), 1, factor), InputError)
        << "max_factor " << bad;
  }
}

// Reference for the drift law, evaluated straight from its definition in
// directory.hpp: the pair's growing-horizon Brownian bridge, node by
// node, then mirrored at the bounds until it lies inside them.
double bridge_log_walk(std::uint64_t seed, std::size_t src, std::size_t dst,
                       double sigma, std::uint64_t k) {
  const std::uint64_t key =
      counter_hash(counter_hash(seed, src + 1), dst + 1);
  const CounterNormal normal;
  const auto z = [&](std::uint64_t node) {
    return normal(counter_hash(key, node));
  };
  if (k == 0) return 0.0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 1;
  double lo_value = 0.0;
  double hi_value = sigma * z(1);
  while (hi < k) {  // powers of two: S(2h) = S(h) + σ√h Z(2h)
    lo = hi;
    lo_value = hi_value;
    hi_value = hi_value + sigma * std::sqrt(static_cast<double>(hi)) * z(2 * hi);
    hi *= 2;
  }
  while (hi != k) {  // bisect (lo, hi] toward k
    const std::uint64_t mid = (lo + hi) / 2;
    const double mid_value =
        0.5 * (lo_value + hi_value) +
        0.5 * sigma * std::sqrt(static_cast<double>(hi - lo)) * z(mid);
    if (mid == k) return mid_value;
    if (k < mid) {
      hi = mid;
      hi_value = mid_value;
    } else {
      lo = mid;
      lo_value = mid_value;
    }
  }
  return hi_value;
}

// Mirrors x at ±bound until it lies inside: a tent of period 4·bound.
double reflected(double x, double bound) {
  if (std::abs(x) <= bound) return x;
  if (bound == 0.0) return 0.0;
  double phase = std::fmod(x + bound, 4.0 * bound);
  if (phase < 0.0) phase += 4.0 * bound;
  if (phase > 2.0 * bound) phase = 4.0 * bound - phase;
  return phase - bound;
}

std::uint64_t steps_at(const DriftingDirectory::Options& options,
                       double now_s) {
  return now_s <= 0.0
             ? 0
             : static_cast<std::uint64_t>(now_s / options.update_period_s);
}

double bridge_factor(std::uint64_t seed,
                     const DriftingDirectory::Options& options,
                     std::size_t src, std::size_t dst, double now_s) {
  return std::exp(reflected(
      bridge_log_walk(seed, src, dst, options.step_sigma,
                      steps_at(options, now_s)),
      std::log(options.max_factor)));
}

bool same_view(const NetworkModel& a, const NetworkModel& b) {
  if (a.processor_count() != b.processor_count()) return false;
  for (std::size_t i = 0; i < a.processor_count(); ++i)
    for (std::size_t j = 0; j < a.processor_count(); ++j)
      if (!(a.link(i, j) == b.link(i, j))) return false;
  return true;
}

/// log(bandwidth factor) of every off-diagonal pair in one snapshot.
std::vector<double> log_factors(const DriftingDirectory& directory,
                                const NetworkModel& base, double now_s) {
  const NetworkModel snap = directory.snapshot(now_s);
  std::vector<double> out;
  for (std::size_t i = 0; i < base.processor_count(); ++i)
    for (std::size_t j = 0; j < base.processor_count(); ++j)
      if (i != j)
        out.push_back(std::log(snap.link(i, j).bandwidth_Bps /
                               base.link(i, j).bandwidth_Bps));
  return out;
}

double mean_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double variance_of(const std::vector<double>& values) {
  const double mean = mean_of(values);
  double sum = 0.0;
  for (const double v : values) sum += (v - mean) * (v - mean);
  return sum / static_cast<double>(values.size() - 1);
}

// One walk whose bound never binds over the tested horizon and one whose
// bound binds often.
std::vector<DriftingDirectory::Options> law_test_options() {
  DriftingDirectory::Options loose;
  loose.update_period_s = 0.5;
  loose.step_sigma = 0.05;
  loose.max_factor = 1000.0;
  DriftingDirectory::Options tight;
  tight.update_period_s = 1.0;
  tight.step_sigma = 0.6;
  tight.max_factor = 1.5;
  return {loose, tight};
}

TEST(DriftingDirectory, QueriesMatchBridgeInEveryOrder) {
  const NetworkModel base = generate_network(6, 3);
  const std::uint64_t seed = 41;
  for (const auto& options : law_test_options()) {
    const double max_log = std::log(options.max_factor);
    std::size_t reflected_count = 0;
    // The first answer for each (pair, instant); every later query, in
    // any order and from any directory object, must repeat it exactly.
    std::map<std::tuple<std::size_t, std::size_t, double>, LinkParams> seen;
    const auto expect_bridge = [&](const DriftingDirectory& directory,
                                   std::size_t i, std::size_t j, double t) {
      const LinkParams got = directory.query(i, j, t);
      const auto [it, fresh] = seen.emplace(std::tuple{i, j, t}, got);
      if (!fresh) {
        EXPECT_EQ(got, it->second) << i << "->" << j << " at " << t;
      }
      const LinkParams link = base.link(i, j);
      EXPECT_EQ(got.startup_s, link.startup_s);
      const double expected =
          i == j ? 1.0 : bridge_factor(seed, options, i, j, t);
      EXPECT_NEAR(got.bandwidth_Bps / link.bandwidth_Bps, expected,
                  1e-12 * expected)
          << "pair " << i << "->" << j << " at t = " << t;
      if (i != j && std::abs(bridge_log_walk(seed, i, j, options.step_sigma,
                                             steps_at(options, t))) > max_log)
        ++reflected_count;
    };
    std::vector<double> instants;
    for (double t = 0.0; t < 40.0; t += 0.7) instants.push_back(t);

    {  // Forward.
      const DriftingDirectory directory{base, seed, options};
      for (const double t : instants)
        for (std::size_t i = 0; i < 6; ++i)
          for (std::size_t j = 0; j < 6; ++j) expect_bridge(directory, i, j, t);
    }
    {  // Backward.
      const DriftingDirectory directory{base, seed, options};
      for (auto t = instants.rbegin(); t != instants.rend(); ++t)
        for (std::size_t i = 0; i < 6; ++i)
          for (std::size_t j = 0; j < 6; ++j)
            expect_bridge(directory, i, j, *t);
    }
    {  // Repeated: the same instant three times, then a negative one.
      const DriftingDirectory directory{base, seed, options};
      for (int k = 0; k < 3; ++k) expect_bridge(directory, 2, 4, 23.0);
      expect_bridge(directory, 2, 4, -5.0);
      expect_bridge(directory, 2, 4, 23.0);
    }
    {  // Random pairs at random instants.
      const DriftingDirectory directory{base, seed, options};
      Rng rng{99};
      for (int k = 0; k < 400; ++k) {
        const auto i = static_cast<std::size_t>(rng.next_below(6));
        const auto j = static_cast<std::size_t>(rng.next_below(6));
        expect_bridge(directory, i, j, rng.uniform(0.0, 40.0));
      }
    }
    if (options.max_factor < 2.0)
      EXPECT_GT(reflected_count, 0u) << "the tight bound should reflect";
    else
      EXPECT_EQ(reflected_count, 0u) << "the loose bound should never bind";
  }
}

TEST(DriftingDirectory, SnapshotsMatchQueries) {
  const NetworkModel base = generate_network(7, 5);
  const std::uint64_t seed = 8;
  for (const auto& options : law_test_options()) {
    const DriftingDirectory directory{base, seed, options};
    // Forward, repeated, backward, and mixed with single-pair queries.
    for (const double t : {0.0, 3.0, 3.0, 12.5, 30.0, 7.0, 0.0, 18.0}) {
      (void)directory.query(1, 3, t + 6.0);
      const NetworkModel snap = directory.snapshot(t);
      // The per-pair default snapshot goes through query(): same view,
      // bit for bit.
      EXPECT_TRUE(same_view(snap, directory.DirectoryService::snapshot(t)))
          << "snapshot at t = " << t;
      for (std::size_t i = 0; i < 7; ++i)
        for (std::size_t j = 0; j < 7; ++j) {
          if (i == j) continue;
          EXPECT_NEAR(snap.link(i, j).bandwidth_Bps,
                      base.link(i, j).bandwidth_Bps *
                          bridge_factor(seed, options, i, j, t),
                      1e-12 * snap.link(i, j).bandwidth_Bps);
        }
    }
  }
}

TEST(DriftingDirectory, ConcurrentSnapshotsAndQueriesMatchSerial) {
  const std::size_t n = 8;
  const NetworkModel base = generate_network(n, 11);
  const std::uint64_t seed = 21;
  DriftingDirectory::Options options;
  options.step_sigma = 0.3;
  constexpr int kInstants = 30;
  std::vector<NetworkModel> reference;
  {
    const DriftingDirectory serial{base, seed, options};
    for (int t = 0; t < kInstants; ++t) reference.push_back(serial.snapshot(t));
  }

  // One thread snapshots even instants, the other queries every pair at
  // odd instants; each sweeps forward and backward in turn, in opposite
  // phase, against one shared directory.
  const DriftingDirectory directory{base, seed, options};
  constexpr int kRounds = 20;
  std::size_t snapshot_mismatches = 0;
  std::size_t query_mismatches = 0;
  std::thread snapshotter([&] {
    for (int round = 0; round < kRounds; ++round)
      for (int k = 0; k < kInstants; k += 2) {
        const int t = round % 2 == 0 ? k : kInstants - 2 - k;
        if (!same_view(directory.snapshot(t), reference[t]))
          ++snapshot_mismatches;
      }
  });
  std::thread querier([&] {
    for (int round = 0; round < kRounds; ++round)
      for (int k = 1; k < kInstants; k += 2) {
        const int t = round % 2 == 0 ? kInstants - k : k;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            if (i != j &&
                !(directory.query(i, j, t) == reference[t].link(i, j)))
              ++query_mismatches;
      }
  });
  snapshotter.join();
  querier.join();
  EXPECT_EQ(snapshot_mismatches, 0u);
  EXPECT_EQ(query_mismatches, 0u);
}

// A bound no tested walk reaches, so factors show the free path.
DriftingDirectory::Options free_walk(double sigma) {
  DriftingDirectory::Options options;
  options.step_sigma = sigma;
  options.max_factor = 1e300;
  return options;
}

TEST(DriftingDirectory, OneStepIncrementsHaveMeanZeroAndSigma) {
  const double sigma = 0.1;
  const NetworkModel base = generate_network(24, 6);
  const DriftingDirectory directory{base, 13, free_walk(sigma)};
  // 552 pairs x 60 steps, spread over octaves so every kind of node
  // (power of two, bisection midpoint) sits at both ends of a step.
  std::vector<double> increments;
  for (const double k : {0.0, 1.0, 2.0, 3.0, 7.0, 8.0, 100.0, 511.0, 512.0,
                         777.0, 1023.0, 4096.0, 65535.0}) {
    for (int d = 0; d < 5; ++d) {
      const std::vector<double> a = log_factors(directory, base, k + d);
      const std::vector<double> b = log_factors(directory, base, k + d + 1);
      for (std::size_t p = 0; p < a.size(); ++p)
        increments.push_back(b[p] - a[p]);
    }
  }
  const double n = static_cast<double>(increments.size());
  EXPECT_NEAR(mean_of(increments), 0.0, 4.0 * sigma / std::sqrt(n));
  // s.d. of a sample s.d. is about σ/√(2n).
  EXPECT_NEAR(std::sqrt(variance_of(increments)), sigma,
              4.0 * sigma / std::sqrt(2.0 * n));
}

TEST(DriftingDirectory, FreeVarianceGrowsLinearlyWithSteps) {
  const double sigma = 0.05;
  const NetworkModel base = generate_network(64, 2);
  const DriftingDirectory directory{base, 5, free_walk(sigma)};
  for (const double k : {1.0, 6.0, 64.0, 333.0, 1000.0, 12345.0}) {
    const std::vector<double> values = log_factors(directory, base, k);
    const double n = static_cast<double>(values.size());
    const double expected = k * sigma * sigma;
    EXPECT_NEAR(mean_of(values), 0.0, 4.0 * std::sqrt(expected / n))
        << "k = " << k;
    // s.d. of a sample variance is about σ²·√(2/n).
    EXPECT_NEAR(variance_of(values), expected,
                4.0 * expected * std::sqrt(2.0 / n))
        << "k = " << k;
  }
}

TEST(DriftingDirectory, PairsAreIndependent) {
  const NetworkModel base = generate_network(64, 4);
  const DriftingDirectory directory{base, 17, free_walk(0.2)};
  const std::size_t n = base.processor_count();
  for (const double k : {1.0, 37.0, 800.0}) {
    const NetworkModel snap = directory.snapshot(k);
    const auto value = [&](std::size_t i, std::size_t j) {
      return std::log(snap.link(i, j).bandwidth_Bps /
                      base.link(i, j).bandwidth_Bps);
    };
    // The pair against its reverse, its row neighbour and its column
    // neighbour: sample correlations over all pairs stay near zero.
    std::vector<double> a, reverse, row_next, col_next;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t j1 = (j + 1) % n;
        const std::size_t i1 = (i + 1) % n;
        if (i == j || i == j1 || i1 == j) continue;
        a.push_back(value(i, j));
        reverse.push_back(value(j, i));
        row_next.push_back(value(i, j1));
        col_next.push_back(value(i1, j));
      }
    const auto correlation = [&](const std::vector<double>& b) {
      const double ma = mean_of(a);
      const double mb = mean_of(b);
      double cov = 0.0;
      for (std::size_t p = 0; p < a.size(); ++p)
        cov += (a[p] - ma) * (b[p] - mb);
      cov /= static_cast<double>(a.size() - 1);
      return cov / std::sqrt(variance_of(a) * variance_of(b));
    };
    const double limit = 4.0 / std::sqrt(static_cast<double>(a.size()));
    EXPECT_LT(std::abs(correlation(reverse)), limit) << "k = " << k;
    EXPECT_LT(std::abs(correlation(row_next)), limit) << "k = " << k;
    EXPECT_LT(std::abs(correlation(col_next)), limit) << "k = " << k;
  }
  // The same pair under another seed is another walk.
  const DriftingDirectory other{base, 18, free_walk(0.2)};
  EXPECT_NE(directory.query(3, 5, 50.0), other.query(3, 5, 50.0));
}

TEST(DriftingDirectory, ReflectedBoundIsNotSticky) {
  // σ√k = 10 against a bound of log 2 ≈ 0.69: nearly every free value
  // lies outside and is reflected back.
  DriftingDirectory::Options options;
  options.step_sigma = 1.0;
  options.max_factor = 2.0;
  const NetworkModel base = generate_network(64, 8);
  const DriftingDirectory directory{base, 3, options};
  const double bound = std::log(2.0);
  const std::vector<double> values = log_factors(directory, base, 100.0);
  std::size_t at_bound = 0;
  for (const double v : values) {
    EXPECT_LE(std::abs(v), bound + 1e-12);
    if (std::abs(v) > bound - 1e-9) ++at_bound;
  }
  // Clamping would pile most of the mass on the two bounds; reflection
  // spreads it evenly: uniform on [-L, L] has mean 0, variance L²/3.
  EXPECT_LT(at_bound, values.size() / 100);
  const double n = static_cast<double>(values.size());
  const double uniform_var = bound * bound / 3.0;
  EXPECT_NEAR(mean_of(values), 0.0, 4.0 * std::sqrt(uniform_var / n));
  EXPECT_NEAR(variance_of(values), uniform_var, 0.1 * uniform_var);
}

TEST(DriftingDirectory, ZeroSigmaOrUnitFactorIsStatic) {
  const NetworkModel base = generate_network(5, 1);
  DriftingDirectory::Options still;
  still.step_sigma = 0.0;
  DriftingDirectory::Options pinned;
  pinned.step_sigma = 0.7;
  pinned.max_factor = 1.0;
  for (const auto& options : {still, pinned}) {
    const DriftingDirectory directory{base, 9, options};
    for (const double t : {0.0, 1.0, 17.0, 1e6, 1e300}) {
      const NetworkModel snap = directory.snapshot(t);
      for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j) {
          if (i == j) continue;
          EXPECT_EQ(snap.link(i, j), base.link(i, j)) << "t = " << t;
        }
    }
    EXPECT_EQ(directory.query(1, 4, 123.0), base.link(1, 4));
  }
}

TEST(DriftingDirectory, FarFutureQueriesReturnAtOnce) {
  const NetworkModel base = generate_network(4, 2);
  DriftingDirectory::Options options;
  options.step_sigma = 0.3;
  const DriftingDirectory directory{base, 7, options};
  const double far = std::ldexp(1.0, 40);  // step 2^40
  EXPECT_EQ(directory.step_at(far), std::uint64_t{1} << 40);
  const auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < 1000; ++k) {
    const double t = far + k;
    const double factor =
        directory.query(0, 3, t).bandwidth_Bps / base.link(0, 3).bandwidth_Bps;
    // |S| ~ 3e5 here, so folding it into the bound leaves ~1e-10 of
    // rounding in either evaluation.
    EXPECT_NEAR(factor, bridge_factor(7, options, 0, 3, t), 1e-9 * factor);
  }
  // 1000 queries draw ~80 normals each; a step-by-step walk would need
  // 2^40 draws for one.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));

  // Beyond the saturation step every instant sees the same walk, and a
  // non-number sees t = 0.
  EXPECT_EQ(directory.step_at(1e300), DriftingDirectory::kMaxStep);
  EXPECT_EQ(directory.step_at(std::numeric_limits<double>::infinity()),
            DriftingDirectory::kMaxStep);
  EXPECT_EQ(directory.step_at(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(directory.query(0, 3, 1e300), directory.query(0, 3, 1e200));
  EXPECT_EQ(directory.query(0, 3, std::numeric_limits<double>::quiet_NaN()),
            base.link(0, 3));
}

TEST(TraceDirectory, SelectsLatestSnapshotAtOrBeforeNow) {
  NetworkModel slow(2, LinkParams{0.01, 1e5});
  NetworkModel fast(2, LinkParams{0.01, 1e7});
  std::map<double, NetworkModel> trace;
  trace.emplace(0.0, slow);
  trace.emplace(10.0, fast);
  const TraceDirectory directory{std::move(trace)};
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 5.0).bandwidth_Bps, 1e5);
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 10.0).bandwidth_Bps, 1e7);
  EXPECT_DOUBLE_EQ(directory.query(0, 1, 50.0).bandwidth_Bps, 1e7);
}

TEST(TraceDirectory, MustCoverTimeZero) {
  std::map<double, NetworkModel> trace;
  trace.emplace(1.0, NetworkModel(2, LinkParams{0.0, 1.0}));
  EXPECT_THROW(TraceDirectory{std::move(trace)}, InputError);
}

TEST(TraceDirectory, RejectsInconsistentSizes) {
  std::map<double, NetworkModel> trace;
  trace.emplace(0.0, NetworkModel(2, LinkParams{0.0, 1.0}));
  trace.emplace(1.0, NetworkModel(3, LinkParams{0.0, 1.0}));
  EXPECT_THROW(TraceDirectory{std::move(trace)}, InputError);
}

// ---------------------------------------------------------------------------
// Random network generator (§5's GUSTO-guided networks)
// ---------------------------------------------------------------------------

TEST(Generator, Deterministic) {
  const NetworkModel a = generate_network(10, 5);
  const NetworkModel b = generate_network(10, 5);
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < 10; ++j)
      if (i != j) EXPECT_EQ(a.link(i, j), b.link(i, j));
}

TEST(Generator, DifferentSeedsDiffer) {
  const NetworkModel a = generate_network(10, 5);
  const NetworkModel b = generate_network(10, 6);
  EXPECT_NE(a.link(0, 1), b.link(0, 1));
}

TEST(Generator, ParametersWithinGustoRanges) {
  const NetworkModel net = generate_network(20, 11);
  const gusto::Ranges r = gusto::observed_ranges();
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 20; ++j) {
      if (i == j) continue;
      const LinkParams link = net.link(i, j);
      EXPECT_GE(link.startup_s, r.min_latency_ms * kMsToS - 1e-12);
      EXPECT_LE(link.startup_s, r.max_latency_ms * kMsToS + 1e-12);
      EXPECT_GE(link.bandwidth_Bps,
                r.min_bandwidth_kbits * kKbitPerSToBytePerS - 1e-9);
      EXPECT_LE(link.bandwidth_Bps,
                r.max_bandwidth_kbits * kKbitPerSToBytePerS + 1e-6);
    }
}

TEST(Generator, SymmetricByDefault) {
  EXPECT_TRUE(generate_network(12, 3).symmetric());
}

TEST(Generator, AsymmetricWhenRequested) {
  NetworkGenOptions options;
  options.symmetric = false;
  EXPECT_FALSE(generate_network(12, 3, options).symmetric());
}

TEST(Generator, WideRangeOptionsRespectStatedBounds) {
  const NetworkGenOptions options = NetworkGenOptions::wide_range();
  const NetworkModel net = generate_network(15, 4, options);
  for (std::size_t i = 0; i < 15; ++i)
    for (std::size_t j = 0; j < 15; ++j) {
      if (i == j) continue;
      EXPECT_GE(net.link(i, j).startup_s, 0.010 - 1e-12);
      EXPECT_LE(net.link(i, j).startup_s, 0.050 + 1e-12);
    }
}

TEST(Generator, InvalidConfigurationsThrow) {
  EXPECT_THROW((void)generate_network(0, 1), InputError);
  NetworkGenOptions bad;
  bad.min_bandwidth_kbits = -1.0;
  EXPECT_THROW((void)generate_network(4, 1, bad), InputError);
  NetworkGenOptions inverted;
  inverted.min_latency_ms = 50.0;
  inverted.max_latency_ms = 10.0;
  EXPECT_THROW((void)generate_network(4, 1, inverted), InputError);
}

// ---------------------------------------------------------------------------
// Hierarchical topology (Figure 1)
// ---------------------------------------------------------------------------

HierarchicalTopology two_site_topology() {
  // Site 0: 2 nodes on a fast LAN; site 1: 3 nodes on a slower LAN;
  // a WAN link between them.
  std::vector<SiteSpec> sites = {
      {2, LinkParams{0.001, 10e6}},
      {3, LinkParams{0.002, 5e6}},
  };
  Matrix<LinkParams> wan(2, 2, LinkParams{0.0, 1.0});
  wan(0, 1) = wan(1, 0) = LinkParams{0.030, 1e6};
  return HierarchicalTopology{std::move(sites), std::move(wan)};
}

TEST(Topology, NodeCountAndSiteAssignment) {
  const HierarchicalTopology topo = two_site_topology();
  EXPECT_EQ(topo.node_count(), 5u);
  EXPECT_EQ(topo.site_of(0), 0u);
  EXPECT_EQ(topo.site_of(1), 0u);
  EXPECT_EQ(topo.site_of(2), 1u);
  EXPECT_EQ(topo.site_of(4), 1u);
}

TEST(Topology, IntraSitePathUsesLanOnly) {
  const HierarchicalTopology topo = two_site_topology();
  const LinkParams path = topo.end_to_end(0, 1);
  EXPECT_DOUBLE_EQ(path.startup_s, 0.001);
  EXPECT_DOUBLE_EQ(path.bandwidth_Bps, 10e6);
}

TEST(Topology, CrossSiteStartupsAddAndBandwidthIsBottleneck) {
  const HierarchicalTopology topo = two_site_topology();
  const LinkParams path = topo.end_to_end(0, 4);
  EXPECT_DOUBLE_EQ(path.startup_s, 0.001 + 0.030 + 0.002);
  EXPECT_DOUBLE_EQ(path.bandwidth_Bps, 1e6);  // WAN is the bottleneck
}

TEST(Topology, ToNetworkMatchesEndToEnd) {
  const HierarchicalTopology topo = two_site_topology();
  const NetworkModel net = topo.to_network();
  // The diagonal too: both give 0 s and the max bandwidth there.
  for (std::size_t i = 0; i < topo.node_count(); ++i)
    for (std::size_t j = 0; j < topo.node_count(); ++j)
      EXPECT_EQ(net.link(i, j), topo.end_to_end(i, j));
}

TEST(Topology, SharedWanDivisionScalesWithCrossingPairs) {
  const HierarchicalTopology topo = two_site_topology();
  const NetworkModel divided = topo.to_network(/*divide_shared_wan=*/true);
  // 2 * 3 node pairs cross the WAN; 1e6 / 6 is below both LANs.
  EXPECT_NEAR(divided.link(0, 4).bandwidth_Bps, 1e6 / 6.0, 1e-6);
  // Intra-site pairs are unaffected.
  EXPECT_DOUBLE_EQ(divided.link(0, 1).bandwidth_Bps, 10e6);
}

TEST(Topology, InvalidSpecsThrow) {
  EXPECT_THROW(HierarchicalTopology({}, Matrix<LinkParams>(0, 0)), InputError);
  std::vector<SiteSpec> empty_site = {{0, LinkParams{0.0, 1.0}}};
  EXPECT_THROW(HierarchicalTopology(empty_site, Matrix<LinkParams>(1, 1)),
               InputError);
  std::vector<SiteSpec> one = {{2, LinkParams{0.0, 1.0}}};
  EXPECT_THROW(HierarchicalTopology(one, Matrix<LinkParams>(2, 2)), InputError);
}

TEST(Topology, SelfPathIsFree) {
  const HierarchicalTopology topo = two_site_topology();
  EXPECT_DOUBLE_EQ(topo.end_to_end(3, 3).startup_s, 0.0);
}

}  // namespace
}  // namespace hcs
