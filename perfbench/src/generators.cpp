#include "generators.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "netmodel/link_params.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hcs::scenario::ScenarioSpec;
using hcs::scenario::TopologyFamily;
using hcs::scenario::WorkloadKind;

namespace {

// Salts keep the draws of different workloads independent for one seed.
constexpr std::uint64_t kSpecSalt = 0x5bec5eedULL;
constexpr std::uint64_t kZipfSalt = 0x21bf0001ULL;
constexpr std::uint64_t kDriftSalt = 0xd21f7002ULL;

std::vector<hcs::MessageMatrix> matrix_pool(std::uint64_t seed,
                                            std::size_t count) {
  hcs::Rng rng{seed};
  std::vector<hcs::MessageMatrix> pool;
  pool.reserve(count);
  for (std::size_t k = 0; k < count; ++k)
    pool.push_back(hcs::mixed_messages(kHcsdProcessors, rng.next_u64(),
                                       {hcs::kKiB, hcs::kMiB}));
  return pool;
}

}  // namespace

std::vector<std::uint64_t> spec_seeds(std::uint64_t workload_seed,
                                      std::size_t count) {
  hcs::Rng rng{workload_seed ^ kSpecSalt};
  std::vector<std::uint64_t> seeds;
  while (seeds.size() < count) {
    // Scenario seeds are kept to 31 bits so they read well in .scn files.
    const std::uint64_t seed = 1 + rng.next_below(0x7fffffffULL);
    if (std::find(seeds.begin(), seeds.end(), seed) == seeds.end())
      seeds.push_back(seed);
  }
  return seeds;
}

ScenarioSpec wide_hier_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "wide_hier_" + std::to_string(seed);
  spec.seed = seed;
  spec.family = TopologyFamily::kClustered;
  spec.processors = 1024;
  spec.sites = 8;
  spec.workload = WorkloadKind::kMixed;
  spec.algorithm = hcs::SchedulerKind::kGreedy;
  spec.hierarchical = true;
  return spec;
}

std::vector<ScenarioSpec> fleet_mid_specs(std::uint64_t seed) {
  const std::string tag = std::to_string(seed);
  std::vector<ScenarioSpec> specs(4);

  ScenarioSpec& drift = specs[0];
  drift.name = "fleet_a_" + tag;
  drift.seed = seed;
  drift.processors = 96;
  drift.drift_sigma = 0.1;
  drift.drift_period_s = 1.0;
  drift.algorithm = hcs::SchedulerKind::kOpenShop;

  ScenarioSpec& matching = specs[1];
  matching.name = "fleet_b_" + tag;
  matching.seed = seed;
  matching.processors = 128;
  matching.algorithm = hcs::SchedulerKind::kMaxMatching;

  ScenarioSpec& faults = specs[2];
  faults.name = "fleet_c_" + tag;
  faults.seed = seed;
  faults.family = TopologyFamily::kClustered;
  faults.processors = 128;
  faults.sites = 8;
  faults.algorithm = hcs::SchedulerKind::kGreedy;
  faults.hierarchical = true;
  faults.has_faults = true;
  faults.crashes = 1;
  faults.restarts = 2;
  faults.brownouts = 8;
  faults.flaps = 4;
  faults.loss = 0.01;
  faults.replan = true;
  faults.expect_complete = false;

  ScenarioSpec& qos = specs[3];
  qos.name = "fleet_d_" + tag;
  qos.seed = seed;
  qos.processors = 128;
  qos.qos_scheduler = true;
  qos.ordering = hcs::QosOrdering::kEdf;
  qos.has_qos = true;
  qos.tight_pairs = 64;
  return specs;
}

RequestTrace zipf_trace(std::uint64_t workload_seed, std::size_t count) {
  constexpr std::size_t kDistinct = 1024;
  RequestTrace trace;
  trace.matrices = matrix_pool(workload_seed ^ kZipfSalt, kDistinct);
  const ZipfSampler zipf{kDistinct, 1.0};
  // Popularity rank -> matrix index, shuffled so rank is not pool order.
  std::vector<std::size_t> by_rank(kDistinct);
  for (std::size_t k = 0; k < kDistinct; ++k) by_rank[k] = k;
  hcs::Rng rng{workload_seed ^ kZipfSalt ^ 0x9e3779b97f4a7c15ULL};
  for (std::size_t k = kDistinct; k > 1; --k)
    std::swap(by_rank[k - 1], by_rank[rng.next_below(k)]);
  // Stratified draws: each block of kBlock requests takes one uniform from
  // each of kBlock equal strata, in shuffled order, and exactly a fifth of
  // the block is hierarchical. Every window then holds nearly the same
  // mix of popularity ranks and algorithms whatever the seed, and the hit
  // rate and solve load do not move from seed to seed.
  constexpr std::size_t kBlock = 100;
  std::vector<std::size_t> strata(kBlock);
  std::vector<std::uint8_t> hierarchical(kBlock);
  trace.requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i % kBlock;
    if (j == 0) {
      for (std::size_t k = 0; k < kBlock; ++k) {
        strata[k] = k;
        hierarchical[k] = k < kBlock / 5 ? 1 : 0;
      }
      rng.shuffle(strata);
      rng.shuffle(hierarchical);
    }
    TraceRequest request;
    const double uniform =
        (static_cast<double>(strata[j]) + rng.next_double()) / kBlock;
    request.matrix = by_rank[zipf.rank(uniform)];
    if (hierarchical[j] != 0) {
      request.kind = hcs::SchedulerKind::kGreedy;
      request.hierarchical = true;
    }
    trace.requests.push_back(request);
  }
  return trace;
}

RequestTrace drift_trace(std::uint64_t workload_seed, std::size_t count) {
  RequestTrace trace;
  trace.matrices = matrix_pool(workload_seed ^ kDriftSalt, 4);
  trace.requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TraceRequest request;
    request.matrix = i % trace.matrices.size();
    request.now_s = std::floor(static_cast<double>(i) * 0.05);
    trace.requests.push_back(request);
  }
  return trace;
}

std::vector<double> poisson_offsets(std::uint64_t seed, double rate_qps,
                                    std::size_t count) {
  hcs::Rng rng{seed ^ 0xa55a1ULL};
  std::vector<double> offsets;
  offsets.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate_qps;
    offsets.push_back(t);
  }
  return offsets;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::rank(double uniform) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), uniform);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

}  // namespace perfbench
