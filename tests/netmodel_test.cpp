// Tests for src/netmodel: the communication model, GUSTO tables,
// directory services, the random network generator, and the hierarchical
// topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
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
}

// Reference for the walk cursors: the pair's walk replayed from t = 0 on
// every query, as DriftingDirectory computed factors before it kept
// cursors. Cursor answers must equal it bit for bit.
double replayed_factor(std::uint64_t seed,
                       const DriftingDirectory::Options& options,
                       std::size_t src, std::size_t dst, double now_s) {
  const auto steps =
      now_s <= 0.0 ? 0
                   : static_cast<std::uint64_t>(now_s / options.update_period_s);
  std::uint64_t mix = seed;
  mix ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(src) + 1);
  mix ^= 0xC2B2AE3D27D4EB4FULL * (static_cast<std::uint64_t>(dst) + 1);
  Rng rng{mix};
  const double max_log = std::log(options.max_factor);
  double log_factor = 0.0;
  for (std::uint64_t s = 0; s < steps; ++s) {
    log_factor += rng.normal(0.0, options.step_sigma);
    log_factor = std::clamp(log_factor, -max_log, max_log);
  }
  return std::exp(log_factor);
}

LinkParams replayed_link(const NetworkModel& base, std::uint64_t seed,
                         const DriftingDirectory::Options& options,
                         std::size_t src, std::size_t dst, double now_s) {
  LinkParams params = base.link(src, dst);
  if (src != dst)
    params.bandwidth_Bps *= replayed_factor(seed, options, src, dst, now_s);
  return params;
}

// The whole replayed view, with the 0 s / 1 B/s diagonal snapshots carry.
NetworkModel replayed_snapshot(const NetworkModel& base, std::uint64_t seed,
                               const DriftingDirectory::Options& options,
                               double now_s) {
  const std::size_t n = base.processor_count();
  NetworkModel view{n, LinkParams{0.0, 1.0}};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j)
        view.set_link(i, j, replayed_link(base, seed, options, i, j, now_s));
  return view;
}

bool same_view(const NetworkModel& a, const NetworkModel& b) {
  if (a.processor_count() != b.processor_count()) return false;
  for (std::size_t i = 0; i < a.processor_count(); ++i)
    for (std::size_t j = 0; j < a.processor_count(); ++j)
      if (!(a.link(i, j) == b.link(i, j))) return false;
  return true;
}

// One walk whose clamp never binds over the tested horizon and one whose
// clamp binds often.
std::vector<DriftingDirectory::Options> cursor_test_options() {
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

TEST(DriftingDirectory, CursorQueriesMatchReplayInEveryOrder) {
  const NetworkModel base = generate_network(6, 3);
  const std::uint64_t seed = 41;
  for (const auto& options : cursor_test_options()) {
    const double max_log = std::log(options.max_factor);
    std::size_t clamped = 0;
    const auto expect_replay = [&](const DriftingDirectory& directory,
                                   std::size_t i, std::size_t j, double t) {
      const LinkParams got = directory.query(i, j, t);
      EXPECT_EQ(got, replayed_link(base, seed, options, i, j, t))
          << "pair " << i << "->" << j << " at t = " << t;
      if (i != j &&
          std::abs(std::log(got.bandwidth_Bps / base.link(i, j).bandwidth_Bps)) >
              max_log - 1e-12)
        ++clamped;
    };
    std::vector<double> instants;
    for (double t = 0.0; t < 40.0; t += 0.7) instants.push_back(t);

    // Forward: every pair walks its cursor ahead.
    {
      const DriftingDirectory directory{base, seed, options};
      for (const double t : instants)
        for (std::size_t i = 0; i < 6; ++i)
          for (std::size_t j = 0; j < 6; ++j) expect_replay(directory, i, j, t);
    }
    // Backward: every query restarts its pair's walk.
    {
      const DriftingDirectory directory{base, seed, options};
      for (auto t = instants.rbegin(); t != instants.rend(); ++t)
        for (std::size_t i = 0; i < 6; ++i)
          for (std::size_t j = 0; j < 6; ++j)
            expect_replay(directory, i, j, *t);
    }
    // Repeated: the same instant three times, then a negative one.
    {
      const DriftingDirectory directory{base, seed, options};
      for (int k = 0; k < 3; ++k) expect_replay(directory, 2, 4, 23.0);
      expect_replay(directory, 2, 4, -5.0);
      expect_replay(directory, 2, 4, 23.0);
    }
    // Pair-interleaved: random pairs at random instants, so cursors sit
    // at different steps and move both ways.
    {
      const DriftingDirectory directory{base, seed, options};
      Rng rng{99};
      for (int k = 0; k < 400; ++k) {
        const auto i = static_cast<std::size_t>(rng.next_below(6));
        const auto j = static_cast<std::size_t>(rng.next_below(6));
        expect_replay(directory, i, j, rng.uniform(0.0, 40.0));
      }
    }
    if (options.max_factor < 2.0)
      EXPECT_GT(clamped, 0u) << "the tight clamp should bind";
    else
      EXPECT_EQ(clamped, 0u) << "the loose clamp should never bind";
  }
}

TEST(DriftingDirectory, CursorSnapshotsMatchReplay) {
  const NetworkModel base = generate_network(7, 5);
  const std::uint64_t seed = 8;
  for (const auto& options : cursor_test_options()) {
    const DriftingDirectory directory{base, seed, options};
    // Forward, repeated, backward, and mixed with single-pair queries
    // that leave one cursor ahead of the rest.
    for (const double t : {0.0, 3.0, 3.0, 12.5, 30.0, 7.0, 0.0, 18.0}) {
      (void)directory.query(1, 3, t + 6.0);
      const NetworkModel snap = directory.snapshot(t);
      EXPECT_TRUE(same_view(snap, replayed_snapshot(base, seed, options, t)))
          << "snapshot at t = " << t;
      // The per-pair default snapshot goes through query(): same view.
      EXPECT_TRUE(same_view(snap, directory.DirectoryService::snapshot(t)))
          << "query-built snapshot at t = " << t;
    }
  }
}

TEST(DriftingDirectory, ConcurrentSnapshotsAndQueriesMatchReplay) {
  const std::size_t n = 8;
  const NetworkModel base = generate_network(n, 11);
  const std::uint64_t seed = 21;
  DriftingDirectory::Options options;
  options.step_sigma = 0.3;
  const DriftingDirectory directory{base, seed, options};
  constexpr int kInstants = 30;
  std::vector<NetworkModel> reference;
  for (int t = 0; t < kInstants; ++t)
    reference.push_back(replayed_snapshot(base, seed, options, t));

  // One thread snapshots even instants, the other queries every pair at
  // odd instants; each sweeps forward and backward in turn, in opposite
  // phase, so the two keep moving the same cursors both ways.
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
  for (std::size_t i = 0; i < topo.node_count(); ++i)
    for (std::size_t j = 0; j < topo.node_count(); ++j)
      if (i != j) EXPECT_EQ(net.link(i, j), topo.end_to_end(i, j));
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
