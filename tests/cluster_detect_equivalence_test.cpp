// Cluster detection's square-band rewrite (src/netmodel/cluster_detect.cpp:
// row-major bands, one stamped row per merge, scans over live ids only)
// must return exactly the Clustering of the triangular implementation it
// replaced, kept as oracles/reference_cluster_detect. Detection decides
// what the hierarchical scheduler gets to schedule, so == is the bar:
// flat, clustered, one-direction-perturbed (asymmetric), homogeneous
// all-tie and coarse-grid tie-heavy networks, across quantum, tolerance
// and reference size.
//
// 400 deterministic seeds by default; HCS_FUZZ_SEEDS overrides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "netmodel/cluster_detect.hpp"
#include "netmodel/generator.hpp"
#include "netmodel/network_model.hpp"
#include "oracles/reference_cluster_detect.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace hcs {
namespace {

std::size_t seed_count() {
  std::size_t seeds = 400;
  if (const char* env = std::getenv("HCS_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) seeds = static_cast<std::size_t>(parsed);
  }
  return seeds;
}

enum class Family { kFlat, kClustered, kAsymmetric, kHomogeneous, kGrid };
constexpr Family kFamilies[] = {Family::kFlat, Family::kClustered,
                                Family::kAsymmetric, Family::kHomogeneous,
                                Family::kGrid};
constexpr std::size_t kSizes[] = {1, 2, 3, 5, 17, 64, 130, 257};
constexpr double kQuanta[] = {0.05, 0.25, 1.0};
constexpr double kTolerances[] = {1.0, 2.0, 4.0, 16.0};

const char* name_of(Family family) {
  switch (family) {
    case Family::kFlat: return "flat";
    case Family::kClustered: return "clustered";
    case Family::kAsymmetric: return "asymmetric";
    case Family::kHomogeneous: return "homogeneous";
    case Family::kGrid: return "grid";
  }
  return "?";
}

NetworkModel clustered(std::size_t n, Rng& rng) {
  ClusteredNetworkOptions options;
  options.cluster_count =
      1 + static_cast<std::size_t>(rng.next_below(std::min<std::size_t>(n, 8)));
  const double jitters[] = {1.0, 1.15, 1.5};
  options.jitter = jitters[rng.next_below(3)];
  return generate_clustered_network(n, rng.next_u64(), options);
}

// One network of `family` on n nodes, every choice drawn from `rng`.
NetworkModel make_network(Family family, std::size_t n, Rng& rng) {
  switch (family) {
    case Family::kFlat: {
      NetworkGenOptions options = rng.bernoulli(0.5)
                                      ? NetworkGenOptions{}
                                      : NetworkGenOptions::wide_range();
      options.symmetric = rng.bernoulli(0.5);
      return generate_network(n, rng.next_u64(), options);
    }
    case Family::kClustered:
      return clustered(n, rng);
    case Family::kAsymmetric: {
      // A clustered network with one direction of some pairs scaled, so
      // the worse-direction reduction picks a different side per pair.
      NetworkModel network = clustered(n, rng);
      const double share = rng.uniform(0.05, 0.5);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j || !rng.bernoulli(share)) continue;
          const LinkParams base = network.link(i, j);
          network.set_link(i, j,
                           {base.startup_s * std::exp(rng.uniform(-1.5, 1.5)),
                            base.bandwidth_Bps *
                                std::exp(rng.uniform(-1.5, 1.5))});
        }
      }
      return network;
    }
    case Family::kHomogeneous:
      return NetworkModel{n, LinkParams{rng.uniform(1e-4, 0.05),
                                        std::exp(rng.uniform(10.0, 20.0))}};
    case Family::kGrid: {
      // Parameters from a 3 x 3 grid: exact key and level ties everywhere.
      const double startups[] = {1e-3, 2e-3, 4e-3};
      const double bandwidths[] = {1e6, 2e6, 8e6};
      const bool symmetric = rng.bernoulli(0.5);
      Matrix<double> startup(n, n, 0.0);
      Matrix<double> bandwidth(n, n, 1e6);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = symmetric ? i + 1 : 0; j < n; ++j) {
          if (i == j) continue;
          startup(i, j) = startups[rng.next_below(3)];
          bandwidth(i, j) = bandwidths[rng.next_below(3)];
          if (symmetric) {
            startup(j, i) = startup(i, j);
            bandwidth(j, i) = bandwidth(i, j);
          }
        }
      }
      return NetworkModel{std::move(startup), std::move(bandwidth)};
    }
  }
  return NetworkModel{};
}

void expect_equivalent(const NetworkModel& network,
                       const ClusterOptions& options, Family family,
                       std::uint64_t seed) {
  EXPECT_EQ(detect_clusters(network, options),
            reference_detect_clusters(network, options))
      << "seed=" << seed << " " << name_of(family)
      << " P=" << network.processor_count() << " quantum=" << options.quantum
      << " tolerance=" << options.tolerance
      << " ref_bytes=" << options.ref_bytes;
}

TEST(ClusterDetectEquivalence, SeededNetworks) {
  const std::uint64_t ref_sizes[] = {64 * 1024, 1, 16u << 20};
  for (std::uint64_t seed = 0; seed < seed_count(); ++seed) {
    Rng rng{seed};
    const Family family = kFamilies[seed % std::size(kFamilies)];
    const std::size_t n = kSizes[rng.next_below(std::size(kSizes))];
    ClusterOptions options;
    options.quantum = kQuanta[rng.next_below(std::size(kQuanta))];
    options.tolerance = kTolerances[rng.next_below(std::size(kTolerances))];
    options.ref_bytes = ref_sizes[rng.next_below(std::size(ref_sizes))];
    expect_equivalent(make_network(family, n, rng), options, family, seed);
  }
}

// Every (family, quantum, tolerance) combination, whatever the seed count.
TEST(ClusterDetectEquivalence, EveryOptionOnEveryFamily) {
  std::uint64_t seed = 1;
  for (const Family family : kFamilies) {
    for (const std::size_t n : {5, 17, 64}) {
      for (const double quantum : kQuanta) {
        for (const double tolerance : kTolerances) {
          Rng rng{seed};
          ClusterOptions options;
          options.quantum = quantum;
          options.tolerance = tolerance;
          expect_equivalent(make_network(family, n, rng), options, family,
                            seed++);
        }
      }
    }
  }
}

TEST(ClusterDetectEquivalence, WideClustered) {
  ClusteredNetworkOptions family;
  family.cluster_count = 8;
  const NetworkModel network = generate_clustered_network(1024, 3, family);
  const Clustering detected = detect_clusters(network);
  EXPECT_EQ(detected.cluster_count(), 8u);
  EXPECT_EQ(detected, reference_detect_clusters(network));
}

}  // namespace
}  // namespace hcs
